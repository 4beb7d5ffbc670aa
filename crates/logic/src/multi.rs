//! Multi-output two-level minimization with product-term sharing.
//!
//! The paper's logic-derivation step explicitly permits "any multi-output
//! conventional two-level minimizer … including the sharing of product
//! terms (AND-gates) between different functions". This module implements
//! the classic output-part formulation: a multi-output cube is an input
//! cube plus an output *tag* (the set of functions it feeds); a tagged cube
//! is valid when its input cube avoids the OFF-set of every tagged
//! function. Minimization then expands tags (sharing a gate across
//! functions), expands input parts, and drops redundant cubes.
//!
//! # Example
//!
//! ```
//! use nshot_logic::{espresso_multi, Function};
//!
//! // f0 = ab (minterm 11), f1 = ab + b̄a … here simply both contain ab;
//! // every other code is OFF:
//! let f0 = Function::from_points(2, vec![0b11], vec![], vec![0b00, 0b01, 0b10]);
//! let f1 = Function::from_points(2, vec![0b11, 0b01], vec![], vec![0b00, 0b10]);
//! let multi = espresso_multi(&[f0, f1]);
//! // The ab product term is shared: fewer distinct cubes than 1 + 2.
//! assert!(multi.num_product_terms() <= 2);
//! assert_eq!(multi.cover_for(0).num_cubes(), 1);
//! ```

use crate::{espresso, Cover, Cube, Function};

/// A multi-output cover: shared product terms with output tags.
#[derive(Debug, Clone)]
pub struct MultiCover {
    num_vars: usize,
    num_functions: usize,
    cubes: Vec<(Cube, Vec<bool>)>,
}

impl MultiCover {
    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.num_functions
    }

    /// Number of distinct product terms (AND gates) across all functions.
    pub fn num_product_terms(&self) -> usize {
        self.cubes.len()
    }

    /// Total OR-gate inputs (sum over functions of cubes feeding them).
    pub fn total_or_inputs(&self) -> usize {
        self.cubes
            .iter()
            .map(|(_, tag)| tag.iter().filter(|&&t| t).count())
            .sum()
    }

    /// The tagged cubes.
    pub fn cubes(&self) -> impl Iterator<Item = (&Cube, &[bool])> {
        self.cubes.iter().map(|(c, t)| (c, t.as_slice()))
    }

    /// Project the cover of function `j` (shares cube objects across
    /// functions, so downstream structural sharing recovers the gates).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn cover_for(&self, j: usize) -> Cover {
        assert!(j < self.num_functions, "function index out of range");
        Cover::from_cubes(
            self.num_vars,
            self.cubes
                .iter()
                .filter(|(_, tag)| tag[j])
                .map(|(c, _)| c.clone())
                .collect(),
        )
    }
}

/// Heuristic multi-output minimization: per-function ESPRESSO covers are
/// pooled, output tags expanded (sharing), identical/absorbed terms merged,
/// and per-function redundancy removed greedily.
///
/// Every projected cover is guaranteed to implement its function (checked
/// with `debug_assert!`).
///
/// # Panics
///
/// Panics if the functions disagree on the variable count.
pub fn espresso_multi(functions: &[Function]) -> MultiCover {
    assert!(!functions.is_empty(), "need at least one function");
    let num_vars = functions[0].num_vars();
    for f in functions {
        assert_eq!(f.num_vars(), num_vars, "function dimension mismatch");
    }
    let m = functions.len();

    // 1. Seed with the single-output minimized covers.
    let mut cubes: Vec<(Cube, Vec<bool>)> = Vec::new();
    for (j, f) in functions.iter().enumerate() {
        for cube in espresso(f).iter() {
            let mut tag = vec![false; m];
            tag[j] = true;
            cubes.push((cube.clone(), tag));
        }
    }

    // 2. Expand output tags: a cube may feed any function whose OFF-set it
    // avoids *and* for which it contributes ON coverage (pure don't-care
    // sharing would only waste OR inputs).
    for (cube, tag) in &mut cubes {
        for (j, f) in functions.iter().enumerate() {
            if tag[j] || !f.admits_cube(cube) {
                continue;
            }
            if f.on_set().iter().any(|on| on.intersects(cube)) {
                tag[j] = true;
            }
        }
    }

    // 3. Merge identical input cubes (union of tags) and absorb cubes whose
    // input part and tag are dominated by another cube.
    cubes.sort_by_key(|c| std::cmp::Reverse(c.0.free_count()));
    let mut merged: Vec<(Cube, Vec<bool>)> = Vec::new();
    'outer: for (cube, tag) in cubes {
        for (kept, kept_tag) in &mut merged {
            if *kept == cube {
                for (kt, t) in kept_tag.iter_mut().zip(&tag) {
                    *kt |= t;
                }
                continue 'outer;
            }
            if kept.contains(&cube) && tag.iter().zip(kept_tag.iter()).all(|(t, k)| !t || *k) {
                continue 'outer; // dominated: smaller cube, subset tag
            }
        }
        merged.push((cube, tag));
    }
    let mut cubes = merged;

    // 4. Per-function greedy redundancy removal: untag a cube from function
    // `j` when the other cubes (plus DC_j) already cover it there; drop
    // cubes whose tag empties.
    // Every cube tagged for `j` avoids OFF_j, as the oracle requires.
    for j in 0..m {
        let oracle = functions[j].oracle();
        for i in 0..cubes.len() {
            if !cubes[i].1[j] {
                continue;
            }
            let rest: Vec<&Cube> = cubes
                .iter()
                .enumerate()
                .filter(|&(k, (_, tag))| k != i && tag[j])
                .map(|(_, (c, _))| c)
                .collect();
            if oracle.covers(&rest, &cubes[i].0) {
                cubes[i].1[j] = false;
            }
        }
    }
    cubes.retain(|(_, tag)| tag.iter().any(|&t| t));

    let result = MultiCover {
        num_vars,
        num_functions: m,
        cubes,
    };
    #[cfg(debug_assertions)]
    for (j, f) in functions.iter().enumerate() {
        debug_assert!(
            f.is_implemented_by(&result.cover_for(j)),
            "projected cover {j} must implement its function"
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(n: usize, on: &[u64], dc: &[u64]) -> Function {
        Function::from_on_dc(n, on, dc)
    }

    #[test]
    fn single_function_matches_espresso() {
        let func = f(3, &[0, 1, 2, 3], &[]);
        let multi = espresso_multi(std::slice::from_ref(&func));
        let single = espresso(&func);
        assert_eq!(multi.num_product_terms(), single.num_cubes());
        assert!(func.is_implemented_by(&multi.cover_for(0)));
    }

    #[test]
    fn shared_term_is_counted_once() {
        // f0 = ab, f1 = ab + āb̄: the ab gate is shared.
        let f0 = f(2, &[0b11], &[]);
        let f1 = f(2, &[0b11, 0b00], &[]);
        let multi = espresso_multi(&[f0.clone(), f1.clone()]);
        assert!(f0.is_implemented_by(&multi.cover_for(0)));
        assert!(f1.is_implemented_by(&multi.cover_for(1)));
        // Independent: 1 + 2 = 3 gates; shared: 2.
        assert_eq!(multi.num_product_terms(), 2);
        assert_eq!(multi.total_or_inputs(), 3);
    }

    #[test]
    fn sharing_respects_off_sets() {
        // f0 = a (covers 01, 11); f1 ON = {01}, OFF = {11}: f0's cube `a`
        // must NOT be shared into f1 (it would hit f1's off-set).
        let f0 = f(2, &[0b01, 0b11], &[]);
        let f1 = Function::from_points(2, vec![0b01], vec![0b00, 0b10], vec![0b11]);
        let multi = espresso_multi(&[f0.clone(), f1.clone()]);
        assert!(f0.is_implemented_by(&multi.cover_for(0)));
        assert!(f1.is_implemented_by(&multi.cover_for(1)));
        for (cube, tag) in multi.cubes() {
            if tag[1] {
                assert!(!cube.contains_minterm(0b11));
            }
        }
    }

    #[test]
    fn redundant_tags_are_removed() {
        // f1's own cover is subsumed once sharing brings in bigger cubes.
        let f0 = f(2, &[0b00, 0b01, 0b10, 0b11], &[]); // constant 1
        let f1 = f(2, &[0b01, 0b11], &[]); // a
        let multi = espresso_multi(&[f0, f1]);
        // f0 needs the universe cube; f1 keeps only the `a` cube (the
        // universe cube cannot feed f1 because of f1's off-set).
        assert!(multi.num_product_terms() <= 2);
        assert_eq!(multi.cover_for(1).num_cubes(), 1);
    }

    #[test]
    fn many_functions_stay_correct() {
        // All 2-literal conjunctions over 3 vars.
        let functions: Vec<Function> = (0..6u64)
            .map(|i| {
                let on: Vec<u64> = (0..8).filter(|m| (m >> (i % 3)) & 1 == i / 3 % 2).collect();
                f(3, &on, &[])
            })
            .collect();
        let multi = espresso_multi(&functions);
        for (j, func) in functions.iter().enumerate() {
            assert!(func.is_implemented_by(&multi.cover_for(j)), "function {j}");
        }
        // Complemented literal pairs share nothing, same-literal ones do.
        assert!(multi.num_product_terms() <= functions.len());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let f0 = f(2, &[0], &[]);
        let f1 = f(3, &[0], &[]);
        let _ = espresso_multi(&[f0, f1]);
    }
}
