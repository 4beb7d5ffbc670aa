//! The three questions the ESPRESSO loop asks of a function, answered over
//! its `u64` state codes.
//!
//! EXPAND asks whether a trial cube meets the OFF-set; IRREDUNDANT and the
//! essential-prime step ask whether `rest ∪ DC` contains a cube; REDUCE asks
//! for the smallest cube holding the points of a cube that `rest ∪ DC`
//! misses. [`PointOracle`] answers them over the codes of a
//! [`crate::Function`], where every code that is neither ON nor OFF is a
//! don't-care, without building a DC or OFF cover.
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
//! The tests check these answers against a brute-force enumeration of each
//! cube's minterms.

use crate::Cube;

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

    /// `true` if cube `c` contains an OFF point: some OFF code agrees with
    /// every literal of `c`, so the AND of the literals' columns is
    /// non-empty.
    pub(crate) fn meets_off(&self, c: &Cube) -> bool {
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

    /// `true` if `rest ∪ DC ⊇ c`, for an OFF-free `c`.
    pub(crate) fn covers(&self, rest: &[&Cube], c: &Cube) -> bool {
        self.missed(rest, c).next().is_none()
    }

    /// `c ∩ supercube(points of c outside rest ∪ DC)`, or `c` unchanged
    /// when `rest ∪ DC` already contains it. `c` must be OFF-free.
    pub(crate) fn reduce(&self, rest: &[&Cube], c: &Cube) -> Cube {
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

    /// Brute-force answers over the minterms of each cube. `mode[m]` is the
    /// class of code `m`: 0 = OFF, 1 = ON, 2 = unlisted DC, 3 = listed QR.
    struct Reference<'a> {
        mode: &'a [u8],
    }

    impl Reference<'_> {
        fn meets_off(&self, c: &Cube) -> bool {
            c.minterms().iter().any(|&m| self.mode[m as usize] == 0)
        }

        /// The minterms of `c` that are neither DC nor in a cube of `rest`.
        fn uncovered(&self, rest: &[&Cube], c: &Cube) -> Vec<u64> {
            c.minterms()
                .into_iter()
                .filter(|&m| self.mode[m as usize] < 2)
                .filter(|&m| !rest.iter().any(|r| r.contains_minterm(m)))
                .collect()
        }

        fn covers(&self, rest: &[&Cube], c: &Cube) -> bool {
            self.uncovered(rest, c).is_empty()
        }

        fn reduce(&self, rest: &[&Cube], c: &Cube) -> Cube {
            let n = c.num_vars();
            self.uncovered(rest, c)
                .into_iter()
                .map(|m| Cube::from_minterm(n, m))
                .reduce(|s, x| s.supercube(&x))
                .map_or_else(|| c.clone(), |s| c.intersect(&s))
        }
    }

    /// Check the oracle of the point-form function with code classes
    /// `mode` against [`Reference`] on every cube of `cubes`, with `rest`
    /// drawn by `pick` from the OFF-free ones. Returns the OFF code count.
    fn matches_reference(
        n: usize,
        mode: &[u8],
        cubes: &[Cube],
        mut pick: impl FnMut(&[&Cube]) -> Vec<usize>,
    ) -> usize {
        let codes = |want: u8| -> Vec<u64> {
            (0..1u64 << n)
                .filter(|&m| mode[m as usize] == want)
                .collect()
        };
        let (on, off, qr) = (codes(1), codes(0), codes(3));
        let off_codes = off.len();
        let f = crate::Function::from_points(n, on, qr, off);
        let oracle = f.oracle();
        let reference = Reference { mode };
        let off_free: Vec<&Cube> = cubes.iter().filter(|c| !reference.meets_off(c)).collect();
        for c in cubes {
            assert_eq!(reference.meets_off(c), oracle.meets_off(c), "meets_off {c}");
        }
        for &c in &off_free {
            let rest: Vec<&Cube> = pick(&off_free).into_iter().map(|i| off_free[i]).collect();
            assert_eq!(
                reference.covers(&rest, c),
                oracle.covers(&rest, c),
                "covers {c} / {rest:?}"
            );
            assert_eq!(
                reference.reduce(&rest, c),
                oracle.reduce(&rest, c),
                "reduce {c} / {rest:?}"
            );
        }
        off_codes
    }

    #[test]
    fn point_oracle_matches_brute_force_on_every_small_function() {
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
                    matches_reference(n, &mode, &cubes, |free| {
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
    fn point_oracle_matches_brute_force_on_every_cube_up_to_eight_vars() {
        // Every cube over 3..=8 variables, against seeded point assignments
        // with some don't-cares listed as QR, and seeded `rest` sets of up
        // to three OFF-free cubes. A third to a half of the codes are OFF,
        // so at 8 variables the OFF columns span more than one word.
        let mut rng = SmallRng::seed_from_u64(27);
        let mut multi_word = 0;
        for n in 3..=8 {
            let cubes = all_cubes(n);
            for _ in 0..24 {
                let dc_share = rng.gen_index(3) as u64;
                let mode: Vec<u8> = (0..1usize << n)
                    .map(|_| match rng.gen_range_u64(0, 4 + dc_share) {
                        0 | 1 => 1u8,
                        2 | 3 => 0,
                        4 => 2,
                        _ => 3,
                    })
                    .collect();
                let off_codes = matches_reference(n, &mode, &cubes, |free| {
                    let k = rng.gen_index(4).min(free.len());
                    (0..k).map(|_| rng.gen_index(free.len())).collect()
                });
                multi_word += usize::from(off_codes > 64);
            }
        }
        assert!(multi_word >= 12, "{multi_word} multi-word cases");
    }
}
