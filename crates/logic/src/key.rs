//! Canonical cache/store key encodings, shared by every layer that
//! memoizes synthesis work.
//!
//! Three consumers key on the same material and must never drift:
//!
//! * the server's whole-response cache (`nshot-server`),
//! * the persistent artifact store (`nshot-store`) — whose records must
//!   hit the response cache byte-for-byte after a restart,
//! * the espresso memo table in this crate.
//!
//! [`request_key`] is the `(options|spec)` encoding for whole requests;
//! [`function_key`] is the word-level encoding for single incompletely
//! specified functions in cover form, and `point_function_key` the code
//! encoding for functions in point form. All encode the *full* material
//! (no hashing), so collisions cannot poison any cache built on them.

use crate::{Cover, Cube};

/// The canonical `(options|spec)` request key: every option that affects
/// the deterministic response prefix, rendered in fixed order, then the
/// specification bytes. Two requests collide iff they are semantically
/// identical.
///
/// The option strings are the caller's wire/debug names (e.g. method
/// `"nshot"`, minimizer `"Heuristic"`); this function just fixes the
/// field order and separator so server cache keys and store record keys
/// are the same bytes.
pub fn request_key(
    method: &str,
    minimizer: &str,
    trials: usize,
    format: &str,
    share: bool,
    spec: &str,
) -> String {
    format!("{method}|{minimizer}|{trials}|{format}|{share}|{spec}")
}

/// Sorted copy of a cover's cubes (the canonical cube list): the
/// preprocessing step that makes [`function_key`] independent of the
/// order in which cubes were derived.
pub fn sorted_cubes(cover: &Cover) -> Vec<Cube> {
    let mut cubes: Vec<Cube> = cover.iter().cloned().collect();
    cubes.sort_unstable();
    cubes
}

/// Canonical function key: `[num_vars, |ON|, ON words…, |DC|, DC words…]`.
/// The word count per cube is fixed by `num_vars`, so the encoding is
/// unambiguous. Cube lists must already be sorted (see [`sorted_cubes`]).
pub fn function_key(num_vars: usize, on: &[Cube], dc: &[Cube]) -> Vec<u64> {
    let mut key = Vec::with_capacity(2 + (on.len() + dc.len()) * 2);
    key.push(num_vars as u64);
    for list in [on, dc] {
        key.push(list.len() as u64);
        for cube in list {
            key.extend_from_slice(cube.words());
        }
    }
    key
}

/// Leading word of a point-form key: never a valid variable count, so
/// point keys and [`function_key`]s cannot collide.
const POINT_KEY_TAG: u64 = u64::MAX;

/// Canonical key of a point-form function:
/// `[tag, num_vars, |ON|, ON codes…, |OFF|, OFF codes…]`. Code lists must
/// already be in canonical order.
pub(crate) fn point_function_key(num_vars: usize, on: &[u64], off: &[u64]) -> Vec<u64> {
    let mut key = Vec::with_capacity(4 + on.len() + off.len());
    key.extend([POINT_KEY_TAG, num_vars as u64, on.len() as u64]);
    key.extend(on);
    key.push(off.len() as u64);
    key.extend(off);
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_key_is_injective_over_fields() {
        let base = request_key("nshot", "Heuristic", 0, "blif", false, "spec");
        assert_eq!(base, "nshot|Heuristic|0|blif|false|spec");
        let variants = [
            request_key("syn", "Heuristic", 0, "blif", false, "spec"),
            request_key("nshot", "Exact", 0, "blif", false, "spec"),
            request_key("nshot", "Heuristic", 8, "blif", false, "spec"),
            request_key("nshot", "Heuristic", 0, "none", false, "spec"),
            request_key("nshot", "Heuristic", 0, "blif", true, "spec"),
            request_key("nshot", "Heuristic", 0, "blif", false, "spec2"),
        ];
        for v in &variants {
            assert_ne!(&base, v);
        }
    }

    #[test]
    fn spec_bytes_pass_through_verbatim() {
        // Specs contain newlines and pipes; the spec is the final field so
        // no escaping is needed for injectivity.
        let key = request_key("nshot", "Heuristic", 0, "blif", false, ".name a|b\n.end\n");
        assert!(key.ends_with("|.name a|b\n.end\n"));
    }

    #[test]
    fn function_key_separates_on_and_dc() {
        let on = sorted_cubes(&Cover::from_minterms(3, &[0b101]));
        let dc = sorted_cubes(&Cover::from_minterms(3, &[0b010]));
        let a = function_key(3, &on, &dc);
        let b = function_key(3, &dc, &on);
        assert_ne!(a, b, "ON and DC sets must not be interchangeable");
        assert_eq!(a[0], 3, "leads with num_vars");
    }
}
