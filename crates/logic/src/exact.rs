//! Exact two-level minimization: prime generation and unate covering.
//!
//! This is the ESPRESSO-exact analogue mentioned by the paper (footnote 6):
//! generate all primes of the ON ∪ DC space, then solve the minimum covering
//! problem over the ON points with branch-and-bound.

use crate::{Cover, Cube, Function, LogicError};

/// Hard cap on the covering table; beyond this, callers should fall back to
/// the heuristic [`crate::espresso`].
const MAX_TABLE_CELLS: usize = 4_000_000;

/// Generate **all prime implicants** of `f` (maximal cubes disjoint from the
/// OFF-set) by iterated consensus with absorption.
pub fn all_primes(f: &Function) -> Vec<Cube> {
    let mut cubes: Vec<Cube> = f.on_set().iter().chain(f.dc_set().iter()).cloned().collect();
    if cubes.is_empty() {
        return Vec::new();
    }
    // First expand every cube to a prime (cheap, reduces consensus work).
    let oracle = f.oracle();
    let mut cover = Cover::from_cubes(f.num_vars(), cubes);
    crate::espresso::expand(&mut cover, &*oracle);
    cubes = cover.into_cubes();

    // Iterated consensus: add consensus terms, expand them to primes, absorb.
    let mut changed = true;
    while changed {
        changed = false;
        let mut new_cubes: Vec<Cube> = Vec::new();
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if let Some(c) = cubes[i].consensus(&cubes[j]) {
                    // Expand the consensus to a prime.
                    let mut one = Cover::from_cubes(f.num_vars(), vec![c]);
                    crate::espresso::expand(&mut one, &*oracle);
                    let c = one.into_cubes().pop().expect("EXPAND keeps a lone cube");
                    if !cubes.iter().any(|k| k.contains(&c))
                        && !new_cubes.iter().any(|k| k.contains(&c))
                    {
                        new_cubes.push(c);
                    }
                }
            }
        }
        if !new_cubes.is_empty() {
            cubes.extend(new_cubes);
            let mut cover = Cover::from_cubes(f.num_vars(), cubes);
            cover.single_cube_containment();
            cubes = cover.into_cubes();
            changed = true;
        }
    }
    cubes
}

/// Exact minimum-cube cover of `f`.
///
/// Rows of the covering table are the ON-set minterms, columns are the primes
/// of ON ∪ DC. Solved by branch-and-bound with essential-column extraction,
/// row/column dominance and an independent-row-set lower bound.
///
/// # Errors
///
/// Returns [`LogicError::CoveringTableTooLarge`] when the table would exceed
/// an internal limit; fall back to [`crate::espresso`] in that case.
pub fn minimize_exact(f: &Function) -> Result<Cover, LogicError> {
    let n = f.num_vars();
    if f.on_set().is_empty() {
        return Ok(Cover::empty(n));
    }
    let primes = all_primes(f);
    let minterms = f.on_set().minterms();
    if minterms.len().saturating_mul(primes.len()) > MAX_TABLE_CELLS {
        return Err(LogicError::CoveringTableTooLarge {
            rows: minterms.len(),
            columns: primes.len(),
        });
    }

    // rows[r] = set of columns covering row r.
    let rows: Vec<Vec<usize>> = minterms
        .iter()
        .map(|&m| {
            (0..primes.len())
                .filter(|&p| primes[p].contains_minterm(m))
                .collect()
        })
        .collect();
    debug_assert!(
        rows.iter().all(|r| !r.is_empty()),
        "every ON minterm must be covered by some prime"
    );

    let mut solver = CoveringSolver {
        primes: &primes,
        best: None,
    };
    let active_rows: Vec<usize> = (0..rows.len()).collect();
    solver.solve(&rows, active_rows, Vec::new());
    let chosen = solver.best.expect("covering always has a solution");
    let cover = Cover::from_cubes(n, chosen.iter().map(|&i| primes[i].clone()).collect());
    debug_assert!(f.is_implemented_by(&cover));
    Ok(cover)
}

struct CoveringSolver<'a> {
    primes: &'a [Cube],
    best: Option<Vec<usize>>,
}

impl CoveringSolver<'_> {
    fn bound(&self) -> usize {
        self.best.as_ref().map_or(usize::MAX, Vec::len)
    }

    /// Secondary cost for tie-breaking: total literals.
    fn literals(&self, sel: &[usize]) -> usize {
        sel.iter().map(|&i| self.primes[i].literal_count()).sum()
    }

    fn solve(&mut self, rows: &[Vec<usize>], active: Vec<usize>, selected: Vec<usize>) {
        if active.is_empty() {
            let better = match &self.best {
                None => true,
                Some(b) => {
                    selected.len() < b.len()
                        || (selected.len() == b.len()
                            && self.literals(&selected) < self.literals(b))
                }
            };
            if better {
                self.best = Some(selected);
            }
            return;
        }
        // Lower bound: greedy maximal independent set of rows (rows sharing
        // no column need distinct primes).
        let lb = selected.len() + independent_rows_bound(rows, &active);
        if lb >= self.bound() {
            return;
        }

        // Essential columns: a row covered by exactly one column forces it.
        if let Some(&r) = active.iter().find(|&&r| rows[r].len() == 1) {
            let col = rows[r][0];
            let mut sel = selected;
            sel.push(col);
            let remaining: Vec<usize> = active
                .into_iter()
                .filter(|&r2| !rows[r2].contains(&col))
                .collect();
            self.solve(rows, remaining, sel);
            return;
        }

        // Branch on the hardest row (fewest covering columns).
        let &branch_row = active
            .iter()
            .min_by_key(|&&r| rows[r].len())
            .expect("active is non-empty");
        // Try columns covering that row, biggest primes first.
        let mut cols = rows[branch_row].clone();
        cols.sort_by_key(|&c| std::cmp::Reverse(self.primes[c].free_count()));
        for col in cols {
            let mut sel = selected.clone();
            sel.push(col);
            if sel.len() >= self.bound() {
                continue;
            }
            let remaining: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&r2| !rows[r2].contains(&col))
                .collect();
            self.solve(rows, remaining, sel);
        }
    }
}

/// Greedy maximal set of pairwise column-disjoint rows — a valid lower bound
/// on the number of additional primes needed.
fn independent_rows_bound(rows: &[Vec<usize>], active: &[usize]) -> usize {
    let mut used_cols: Vec<usize> = Vec::new();
    let mut count = 0;
    // Scan rows with fewest columns first (classic MIS heuristic).
    let mut order: Vec<usize> = active.to_vec();
    order.sort_by_key(|&r| rows[r].len());
    for &r in &order {
        if rows[r].iter().all(|c| !used_cols.contains(c)) {
            used_cols.extend(rows[r].iter().copied());
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Function;

    #[test]
    fn primes_of_xor() {
        let f = Function::new(Cover::from_minterms(2, &[0b01, 0b10]), Cover::empty(2));
        let primes = all_primes(&f);
        // XOR's only primes are its two minterms.
        assert_eq!(primes.len(), 2);
        for p in &primes {
            assert_eq!(p.literal_count(), 2);
        }
    }

    #[test]
    fn primes_include_merged_cube() {
        // ON = {00,01,11} over (a=var0,b=var1): primes are !a? minterm 00 is
        // a=0 b=0; 01 is a=1 b=0... bit0 = var0. {0b00,0b01,0b11} = {a'b',
        // ab', ab} → primes: b' (covers 00,01) and a (covers 01,11).
        let f = Function::new(Cover::from_minterms(2, &[0b00, 0b01, 0b11]), Cover::empty(2));
        let primes = all_primes(&f);
        assert_eq!(primes.len(), 2);
        assert!(primes.iter().all(|p| p.literal_count() == 1));
    }

    #[test]
    fn exact_beats_or_ties_minterm_count() {
        let f = Function::new(
            Cover::from_minterms(3, &[0, 1, 2, 3, 7]),
            Cover::empty(3),
        );
        let c = minimize_exact(&f).expect("small table");
        assert!(f.is_implemented_by(&c));
        assert_eq!(c.num_cubes(), 2); // !x2 + (x0·x1·x2 expandable to x0·x1)
    }

    #[test]
    fn exact_equals_heuristic_on_simple_cases() {
        for ms in [vec![0u64, 2, 4, 6], vec![1, 5, 7], vec![0, 7]] {
            let f = Function::new(Cover::from_minterms(3, &ms), Cover::empty(3));
            let exact = minimize_exact(&f).expect("small table");
            let heur = crate::espresso(&f);
            assert!(f.is_implemented_by(&exact));
            assert!(f.is_implemented_by(&heur));
            assert!(exact.num_cubes() <= heur.num_cubes());
        }
    }

    #[test]
    fn exact_with_dont_cares() {
        // Classic: ON={1,5}, DC={7} over 3 vars: x0·x1' + ... with DC the
        // minimum is a single cube? minterm 1 = 001 (x0), 5 = 101 (x0,x2),
        // 7 = 111. Cube x0·x1' covers {1,5}; single cube, 2 literals.
        let f = Function::new(
            Cover::from_minterms(3, &[1, 5]),
            Cover::from_minterms(3, &[7]),
        );
        let c = minimize_exact(&f).expect("small table");
        assert_eq!(c.num_cubes(), 1);
    }

    #[test]
    fn empty_function() {
        let f = Function::new(Cover::empty(2), Cover::empty(2));
        assert!(minimize_exact(&f).expect("trivial").is_empty());
    }
}
