//! The canonical request key, shared by every layer that caches whole
//! synthesis responses.
//!
//! Two consumers key on the same material and must never drift:
//!
//! * the server's whole-response cache (`nshot-server`),
//! * the persistent artifact store (`nshot-store`) — whose records must
//!   hit the response cache byte-for-byte after a restart.
//!
//! [`request_key`] encodes the *full* material (no hashing), so collisions
//! cannot poison any cache built on it. The espresso memo table of this
//! crate keys on the codes of each function in the same spirit (see
//! `Function::memo_key`).

/// The canonical `(options|spec)` request key: every option that affects
/// the deterministic response prefix, rendered in fixed order, then the
/// specification bytes. Two requests collide iff they are semantically
/// identical.
///
/// The option strings are the caller's wire names (e.g. method `"nshot"`,
/// minimizer `"heuristic"`); this function just fixes the
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
}
