//! The three questions the ESPRESSO loop asks of a function, answered two
//! ways.
//!
//! EXPAND asks whether a trial cube meets the OFF-set; IRREDUNDANT and the
//! essential-prime step ask whether `rest ∪ DC` contains a cube; REDUCE asks
//! for the smallest cube holding the points of a cube that `rest ∪ DC`
//! misses. [`CoverOracle`] answers them by cube algebra (tautology and
//! complement by unate recursion) against explicit DC and OFF covers.
//! [`PointOracle`] answers them over the `u64` codes of a point-form
//! function, where every code that is neither ON nor OFF is a don't-care.
//!
//! Every cube the loop asks about is OFF-free: it starts as an ON minterm,
//! EXPAND only raises a literal when the trial stays OFF-free, and REDUCE
//! only shrinks. A point of an OFF-free cube is therefore either an ON
//! point or a don't-care, which gives each question an exact point form:
//!
//! * *meets OFF*: some OFF code lies in the cube, found as a non-empty AND
//!   of per-literal bit columns over the OFF codes;
//! * *`rest ∪ DC ⊇ c`*: every ON code in `c` lies in some cube of `rest`;
//! * *REDUCE*: `c ∩ supercube(ON codes in c that rest misses)`, and `c`
//!   itself when there are none.
//!
//! The answers are identical to the cover algebra's, so both oracles drive
//! the same loop to the same covers.

use crate::{Cover, Cube, Polarity};

/// What the minimization loop needs to know about a function.
pub(crate) trait Oracle {
    /// Variable order EXPAND tries raises in.
    fn raise_order(&self) -> Vec<usize>;

    /// `true` if cube `c` contains an OFF point.
    fn meets_off(&self, c: &Cube) -> bool;

    /// `true` if `rest ∪ DC ⊇ c`, for an OFF-free `c`.
    fn covers(&self, rest: &[&Cube], c: &Cube) -> bool;

    /// `c ∩ supercube(points of c outside rest ∪ DC)`, or `c` unchanged
    /// when `rest ∪ DC` already contains it. `c` must be OFF-free.
    fn reduce(&self, rest: &[&Cube], c: &Cube) -> Cube;
}

/// Cube-algebra answers against explicit DC and OFF covers: the form of
/// [`crate::Function::new`] and [`crate::Function::with_off`].
pub(crate) struct CoverOracle<'a> {
    pub(crate) dc: &'a Cover,
    pub(crate) off: &'a Cover,
}

impl CoverOracle<'_> {
    fn rest_cover(&self, rest: &[&Cube]) -> Cover {
        let cubes = rest
            .iter()
            .map(|&c| c.clone())
            .chain(self.dc.iter().cloned());
        Cover::from_cubes(self.dc.num_vars(), cubes.collect())
    }
}

impl Oracle for CoverOracle<'_> {
    /// Free the variables that conflict with the fewest OFF cubes first
    /// (they are the "cheapest" directions); ties keep index order.
    fn raise_order(&self) -> Vec<usize> {
        let n = self.off.num_vars();
        let mut conflict = vec![0usize; n];
        for o in self.off.iter() {
            for (v, count) in conflict.iter_mut().enumerate() {
                if o.polarity(v) != Polarity::Free {
                    *count += 1;
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| conflict[v]);
        order
    }

    fn meets_off(&self, c: &Cube) -> bool {
        self.off.iter().any(|o| o.intersects(c))
    }

    fn covers(&self, rest: &[&Cube], c: &Cube) -> bool {
        self.rest_cover(rest).contains_cube(c)
    }

    fn reduce(&self, rest: &[&Cube], c: &Cube) -> Cube {
        let q = self.rest_cover(rest).cofactor(c);
        if q.is_tautology() {
            // Already covered: `c` keeps its shape, and IRREDUNDANT decides
            // whether it stays.
            return c.clone();
        }
        // c' = c ∩ supercube(complement(Q))
        let sup = q
            .complement()
            .iter()
            .cloned()
            .reduce(|s, x| s.supercube(&x));
        match sup.map(|s| c.intersect(&s)) {
            Some(reduced) if !reduced.is_empty() => reduced,
            _ => c.clone(),
        }
    }
}

/// Point answers over the codes of a Table 1 function: ON and OFF are
/// explicit code lists and every other code is a don't-care.
pub(crate) struct PointOracle<'a> {
    num_vars: usize,
    on: &'a [u64],
    /// OFF as bit columns, `words` words per column: bit `i` of column
    /// `2v + b` is set iff OFF code `i` has value `b` at variable `v`.
    off_columns: Vec<u64>,
    words: usize,
}

impl<'a> PointOracle<'a> {
    pub(crate) fn new(num_vars: usize, on: &'a [u64], off: &[u64]) -> Self {
        let words = off.len().div_ceil(64);
        let mut off_columns = vec![0u64; 2 * num_vars * words];
        for (i, &p) in off.iter().enumerate() {
            for v in 0..num_vars {
                let column = 2 * v + ((p >> v) & 1) as usize;
                off_columns[column * words + i / 64] |= 1 << (i % 64);
            }
        }
        PointOracle {
            num_vars,
            on,
            off_columns,
            words,
        }
    }

    /// The ON codes in `c` that no cube of `rest` contains.
    fn missed<'s>(&'s self, rest: &[&Cube], c: &Cube) -> impl Iterator<Item = u64> + 's {
        let (care, value) = c.code_mask();
        let rest: Vec<(u64, u64)> = rest.iter().map(|r| r.code_mask()).collect();
        self.on
            .iter()
            .copied()
            .filter(move |&p| p & care == value && !rest.iter().any(|&(rc, rv)| p & rc == rv))
    }
}

impl Oracle for PointOracle<'_> {
    /// Every OFF point fixes every variable, so the cover oracle's conflict
    /// counts are all equal and its order is the identity.
    fn raise_order(&self) -> Vec<usize> {
        (0..self.num_vars).collect()
    }

    /// Some OFF code agrees with every literal of `c`: the AND of the
    /// literals' columns is non-empty.
    fn meets_off(&self, c: &Cube) -> bool {
        let (care, value) = c.code_mask();
        if care == 0 {
            return self.words > 0;
        }
        (0..self.words).any(|w| {
            let mut hit = u64::MAX;
            let mut literals = care;
            while literals != 0 && hit != 0 {
                let v = literals.trailing_zeros() as usize;
                let column = 2 * v + ((value >> v) & 1) as usize;
                hit &= self.off_columns[column * self.words + w];
                literals &= literals - 1;
            }
            hit != 0
        })
    }

    fn covers(&self, rest: &[&Cube], c: &Cube) -> bool {
        self.missed(rest, c).next().is_none()
    }

    fn reduce(&self, rest: &[&Cube], c: &Cube) -> Cube {
        let bounds = self.missed(rest, c).fold(None, |b, p| match b {
            None => Some((p, p)),
            Some((and, or)) => Some((and & p, or | p)),
        });
        match bounds {
            None => c.clone(),
            Some((and, or)) => c.intersect(&Cube::from_code_bounds(self.num_vars, and, or)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshot_par::SmallRng;

    /// Every cube over `n` variables (3^n of them).
    fn all_cubes(n: usize) -> Vec<Cube> {
        let mut out = vec![Cube::full(n)];
        for v in 0..n {
            out = out
                .into_iter()
                .flat_map(|c| {
                    let (mut lo, mut hi) = (c.clone(), c.clone());
                    lo.set(v, false);
                    hi.set(v, true);
                    [c, lo, hi]
                })
                .collect();
        }
        out
    }

    /// Check both oracles agree on every cube for one point assignment
    /// (`mode[m]`: 0 = OFF, 1 = ON, 2 = DC), with `rest` drawn by `pick`.
    fn agree(n: usize, mode: &[u8], cubes: &[Cube], mut pick: impl FnMut(&[&Cube]) -> Vec<usize>) {
        let codes = |want: u8| -> Vec<u64> {
            (0..1u64 << n)
                .filter(|&m| mode[m as usize] == want)
                .collect()
        };
        let (on, off, dc) = (codes(1), codes(0), codes(2));
        let dc_cover = Cover::from_minterms(n, &dc);
        let off_cover = Cover::from_minterms(n, &off);
        let cover = CoverOracle {
            dc: &dc_cover,
            off: &off_cover,
        };
        let point = PointOracle::new(n, &on, &off);
        assert_eq!(cover.raise_order(), point.raise_order());
        let off_free: Vec<&Cube> = cubes.iter().filter(|c| !cover.meets_off(c)).collect();
        for c in cubes {
            assert_eq!(cover.meets_off(c), point.meets_off(c), "meets_off {c}");
        }
        for &c in &off_free {
            let rest: Vec<&Cube> = pick(&off_free).into_iter().map(|i| off_free[i]).collect();
            assert_eq!(
                cover.covers(&rest, c),
                point.covers(&rest, c),
                "covers {c} / {rest:?}"
            );
            assert_eq!(
                cover.reduce(&rest, c),
                point.reduce(&rest, c),
                "reduce {c} / {rest:?}"
            );
        }
    }

    #[test]
    fn point_oracle_matches_cover_algebra_on_every_small_function() {
        // Every ON/OFF/DC assignment over up to 2 variables, every cube,
        // and for each OFF-free cube every single-cube `rest` in turn.
        for n in 1..=2 {
            let cubes = all_cubes(n);
            let points = 1usize << n;
            for f in 0..3usize.pow(points as u32) {
                let mode: Vec<u8> = (0..points)
                    .map(|m| (f / 3usize.pow(m as u32) % 3) as u8)
                    .collect();
                for r in 0..=cubes.len() {
                    agree(n, &mode, &cubes, |free| {
                        if r < free.len() {
                            vec![r]
                        } else {
                            vec![]
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn point_oracle_matches_cover_algebra_on_every_cube_up_to_five_vars() {
        // Every cube over 3..=5 variables, against seeded point assignments
        // and seeded `rest` sets of up to three OFF-free cubes.
        let mut rng = SmallRng::seed_from_u64(16);
        for n in 3..=5 {
            let cubes = all_cubes(n);
            for _ in 0..24 {
                let dc_share = rng.gen_index(3) as u64;
                let mode: Vec<u8> = (0..1usize << n)
                    .map(|_| match rng.gen_range_u64(0, 4 + dc_share) {
                        0 | 1 => 1u8,
                        2 | 3 => 0,
                        _ => 2,
                    })
                    .collect();
                agree(n, &mode, &cubes, |free| {
                    let k = rng.gen_index(4).min(free.len());
                    (0..k).map(|_| rng.gen_index(free.len())).collect()
                });
            }
        }
    }
}
