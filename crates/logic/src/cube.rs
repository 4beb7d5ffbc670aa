//! Product terms in positional-cube notation.

use std::fmt;

/// The polarity of a variable inside a [`Cube`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// The variable appears as a negative literal (must be 0).
    Negative,
    /// The variable appears as a positive literal (must be 1).
    Positive,
    /// The variable does not appear (don't care).
    Free,
    /// The variable field is empty: the cube denotes the empty set.
    Empty,
}

/// A product term over `num_vars` Boolean variables in positional-cube
/// notation.
///
/// Each variable occupies two bits inside a packed `u64` word array:
/// `01` = negative literal, `10` = positive literal, `11` = don't care,
/// `00` = empty (the cube denotes no minterms at all).
///
/// Cubes support the classic cube-calculus operations: intersection,
/// containment, distance, consensus and supercube. All operations panic if
/// the operands disagree on the number of variables — mixing dimensions is
/// always a programming error in this codebase.
///
/// # Example
///
/// ```
/// use nshot_logic::Cube;
///
/// let ab = Cube::from_literals(3, &[(0, true), (1, false)]); // a & !b
/// assert!(ab.contains_minterm(0b001));
/// assert!(!ab.contains_minterm(0b011));
/// assert_eq!(ab.literal_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    words: Vec<u64>,
    num_vars: usize,
}

/// Number of variables stored per `u64` word (two bits each).
const VARS_PER_WORD: usize = 32;

fn word_count(num_vars: usize) -> usize {
    num_vars.div_ceil(VARS_PER_WORD).max(1)
}

/// Mask with `11` in every variable position actually used, `00` elsewhere.
fn tail_mask(num_vars: usize) -> u64 {
    let used = num_vars % VARS_PER_WORD;
    if used == 0 {
        u64::MAX
    } else {
        (1u64 << (2 * used)) - 1
    }
}

/// Gather the even bits of `x` (one per variable field) into the low 32.
fn compress_even(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    (x | (x >> 16)) & 0x0000_0000_ffff_ffff
}

impl Cube {
    /// The full cube (tautology): every variable is a don't care.
    pub fn full(num_vars: usize) -> Self {
        let mut words = vec![u64::MAX; word_count(num_vars)];
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(num_vars);
        }
        Cube { words, num_vars }
    }

    /// A cube covering exactly one minterm. Bit `i` of `minterm` is the value
    /// of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 64` (minterms are passed as `u64`).
    pub fn from_minterm(num_vars: usize, minterm: u64) -> Self {
        assert!(num_vars <= 64, "minterm-based construction caps at 64 vars");
        let mut cube = Cube::full(num_vars);
        for var in 0..num_vars {
            let value = (minterm >> var) & 1 == 1;
            cube.set(var, value);
        }
        cube
    }

    /// A cube with the given `(variable, value)` literals and all other
    /// variables free.
    ///
    /// # Panics
    ///
    /// Panics if any variable index is out of range.
    pub fn from_literals(num_vars: usize, literals: &[(usize, bool)]) -> Self {
        let mut cube = Cube::full(num_vars);
        for &(var, value) in literals {
            cube.set(var, value);
        }
        cube
    }

    /// The cube as a `(care, value)` pair over `u64` codes: code `m` lies
    /// in the cube iff `m & care == value`. Used by the point oracle.
    ///
    /// The cube must be non-empty and have at most 64 variables.
    pub(crate) fn code_mask(&self) -> (u64, u64) {
        debug_assert!(self.num_vars <= 64 && !self.is_empty());
        let (mut care, mut value) = (0u64, 0u64);
        for (i, &w) in self.words.iter().enumerate() {
            let lo = w & 0x5555_5555_5555_5555;
            let hi = (w >> 1) & 0x5555_5555_5555_5555;
            care |= compress_even(lo ^ hi) << (VARS_PER_WORD * i);
            value |= compress_even(hi & !lo) << (VARS_PER_WORD * i);
        }
        (care, value)
    }

    /// The smallest cube containing a set of codes, given the AND and the
    /// OR of those codes: a variable is positive where every code has a 1,
    /// negative where none has, and free elsewhere.
    pub(crate) fn from_code_bounds(num_vars: usize, and: u64, or: u64) -> Self {
        let mut cube = Cube::full(num_vars);
        for var in 0..num_vars {
            if (and >> var) & 1 == 1 {
                cube.set(var, true);
            } else if (or >> var) & 1 == 0 {
                cube.set(var, false);
            }
        }
        cube
    }

    /// The words that hold variable fields: none for a cube over zero
    /// variables, whose one word holds none.
    fn used_words(&self) -> &[u64] {
        &self.words[..self.num_vars.div_ceil(VARS_PER_WORD)]
    }

    /// Number of variables of the space this cube lives in.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The polarity of variable `var` in this cube.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()`.
    pub fn polarity(&self, var: usize) -> Polarity {
        assert!(var < self.num_vars, "variable index out of range");
        let bits = (self.words[var / VARS_PER_WORD] >> (2 * (var % VARS_PER_WORD))) & 0b11;
        match bits {
            0b01 => Polarity::Negative,
            0b10 => Polarity::Positive,
            0b11 => Polarity::Free,
            _ => Polarity::Empty,
        }
    }

    /// Constrain variable `var` to `value`, replacing any previous literal.
    pub fn set(&mut self, var: usize, value: bool) {
        assert!(var < self.num_vars, "variable index out of range");
        let shift = 2 * (var % VARS_PER_WORD);
        let word = &mut self.words[var / VARS_PER_WORD];
        *word &= !(0b11u64 << shift);
        *word |= (if value { 0b10u64 } else { 0b01u64 }) << shift;
    }

    /// Free variable `var` (make it a don't care).
    pub fn raise(&mut self, var: usize) {
        assert!(var < self.num_vars, "variable index out of range");
        let shift = 2 * (var % VARS_PER_WORD);
        self.words[var / VARS_PER_WORD] |= 0b11u64 << shift;
    }

    /// `true` if some variable field is `00`, i.e. the cube denotes ∅.
    pub fn is_empty(&self) -> bool {
        for (i, &w) in self.words.iter().enumerate() {
            let mask = if i + 1 == self.words.len() {
                tail_mask(self.num_vars)
            } else {
                u64::MAX
            };
            // A variable field is empty iff both of its bits are 0.
            let lo = w & 0x5555_5555_5555_5555;
            let hi = (w >> 1) & 0x5555_5555_5555_5555;
            let present = (lo | hi) & (mask & 0x5555_5555_5555_5555);
            if present != mask & 0x5555_5555_5555_5555 {
                return true;
            }
        }
        false
    }

    /// Number of literals (non-free, non-empty variable positions).
    pub fn literal_count(&self) -> usize {
        // A literal field has exactly one of its two bits set.
        self.used_words()
            .iter()
            .map(|&w| ((w ^ (w >> 1)) & 0x5555_5555_5555_5555).count_ones() as usize)
            .sum()
    }

    /// Number of free variables; `2^free_count` is the cube's minterm count.
    pub fn free_count(&self) -> usize {
        // A free field has both bits set.
        self.used_words()
            .iter()
            .map(|&w| (w & (w >> 1) & 0x5555_5555_5555_5555).count_ones() as usize)
            .sum()
    }

    /// Cube intersection (bitwise AND). The result may be empty.
    ///
    /// # Panics
    ///
    /// Panics if the operands have different dimensions.
    pub fn intersect(&self, other: &Cube) -> Cube {
        self.check_dims(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Cube {
            words,
            num_vars: self.num_vars,
        }
    }

    /// `true` if the intersection with `other` is non-empty.
    pub fn intersects(&self, other: &Cube) -> bool {
        !self.intersect(other).is_empty()
    }

    /// `true` if `other ⊆ self` as sets of minterms.
    pub fn contains(&self, other: &Cube) -> bool {
        self.check_dims(other);
        if other.is_empty() {
            return true;
        }
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }

    /// `true` if the cube covers the given minterm.
    pub fn contains_minterm(&self, minterm: u64) -> bool {
        (0..self.num_vars).all(|v| {
            let bit = (minterm >> v) & 1 == 1;
            match self.polarity(v) {
                Polarity::Free => true,
                Polarity::Positive => bit,
                Polarity::Negative => !bit,
                Polarity::Empty => false,
            }
        })
    }

    /// The cube-calculus distance: the number of variables in which the two
    /// cubes have opposite literals. Distance 0 means the cubes intersect.
    pub fn distance(&self, other: &Cube) -> usize {
        self.check_dims(other);
        let mut count = 0;
        for (i, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut and = a & b;
            if i + 1 == self.words.len() {
                // Variables beyond num_vars are zero in both; don't count them.
                and |= !tail_mask(self.num_vars);
            }
            let lo = and & 0x5555_5555_5555_5555;
            let hi = (and >> 1) & 0x5555_5555_5555_5555;
            count += (!(lo | hi) & 0x5555_5555_5555_5555).count_ones() as usize;
        }
        count
    }

    /// The consensus of two cubes at distance exactly 1; `None` otherwise.
    ///
    /// For cubes `x·A` and `x̄·B` the consensus is `A·B` — the classic
    /// building block of iterated-consensus prime generation.
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        self.check_dims(other);
        if self.distance(other) != 1 {
            return None;
        }
        let mut result = self.intersect(other);
        // Raise the single conflicting variable.
        for var in 0..self.num_vars {
            if result.polarity(var) == Polarity::Empty {
                result.raise(var);
            }
        }
        if result.is_empty() {
            None
        } else {
            Some(result)
        }
    }

    /// The smallest cube containing both operands (bitwise OR).
    pub fn supercube(&self, other: &Cube) -> Cube {
        self.check_dims(other);
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Cube {
            words,
            num_vars: self.num_vars,
        }
    }

    /// Enumerate all minterms covered by the cube (ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 64`.
    pub fn minterms(&self) -> Vec<u64> {
        assert!(self.num_vars <= 64, "minterm enumeration caps at 64 vars");
        if self.is_empty() {
            return Vec::new();
        }
        let free: Vec<usize> = (0..self.num_vars)
            .filter(|&v| self.polarity(v) == Polarity::Free)
            .collect();
        let mut base = 0u64;
        for v in 0..self.num_vars {
            if self.polarity(v) == Polarity::Positive {
                base |= 1 << v;
            }
        }
        let mut out = Vec::with_capacity(1 << free.len());
        for combo in 0u64..(1u64 << free.len()) {
            let mut m = base;
            for (j, &v) in free.iter().enumerate() {
                if (combo >> j) & 1 == 1 {
                    m |= 1 << v;
                }
            }
            out.push(m);
        }
        out.sort_unstable();
        out
    }

    fn check_dims(&self, other: &Cube) {
        assert_eq!(
            self.num_vars, other.num_vars,
            "cube dimension mismatch: {} vs {}",
            self.num_vars, other.num_vars
        );
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube(")?;
        for v in 0..self.num_vars {
            let c = match self.polarity(v) {
                Polarity::Negative => '0',
                Polarity::Positive => '1',
                Polarity::Free => '-',
                Polarity::Empty => '#',
            };
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.num_vars {
            let c = match self.polarity(v) {
                Polarity::Negative => '0',
                Polarity::Positive => '1',
                Polarity::Free => '-',
                Polarity::Empty => '#',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cube_covers_everything() {
        let c = Cube::full(5);
        assert!(!c.is_empty());
        for m in 0..32u64 {
            assert!(c.contains_minterm(m));
        }
        assert_eq!(c.literal_count(), 0);
        assert_eq!(c.free_count(), 5);
    }

    #[test]
    fn minterm_cube_covers_exactly_one() {
        let c = Cube::from_minterm(4, 0b1010);
        assert_eq!(c.minterms(), vec![0b1010]);
        assert_eq!(c.literal_count(), 4);
        assert!(c.contains_minterm(0b1010));
        assert!(!c.contains_minterm(0b1011));
    }

    #[test]
    fn set_and_raise_roundtrip() {
        let mut c = Cube::full(3);
        c.set(1, true);
        assert_eq!(c.polarity(1), Polarity::Positive);
        c.set(1, false);
        assert_eq!(c.polarity(1), Polarity::Negative);
        c.raise(1);
        assert_eq!(c.polarity(1), Polarity::Free);
    }

    #[test]
    fn intersection_and_emptiness() {
        let a = Cube::from_literals(3, &[(0, true)]);
        let b = Cube::from_literals(3, &[(0, false)]);
        assert!(a.intersect(&b).is_empty());
        assert!(!a.intersects(&b));
        let c = Cube::from_literals(3, &[(1, true)]);
        let i = a.intersect(&c);
        assert!(!i.is_empty());
        assert_eq!(i.polarity(0), Polarity::Positive);
        assert_eq!(i.polarity(1), Polarity::Positive);
        assert_eq!(i.polarity(2), Polarity::Free);
    }

    #[test]
    fn containment() {
        let big = Cube::from_literals(4, &[(0, true)]);
        let small = Cube::from_literals(4, &[(0, true), (2, false)]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn distance_counts_conflicts() {
        let a = Cube::from_literals(4, &[(0, true), (1, true)]);
        let b = Cube::from_literals(4, &[(0, false), (1, false)]);
        assert_eq!(a.distance(&b), 2);
        let c = Cube::from_literals(4, &[(0, false), (1, true)]);
        assert_eq!(a.distance(&c), 1);
        assert_eq!(a.distance(&a), 0);
    }

    #[test]
    fn consensus_at_distance_one() {
        // a·b and ā·c → consensus b·c
        let x = Cube::from_literals(3, &[(0, true), (1, true)]);
        let y = Cube::from_literals(3, &[(0, false), (2, true)]);
        let cons = x.consensus(&y).expect("distance is 1");
        assert_eq!(cons.polarity(0), Polarity::Free);
        assert_eq!(cons.polarity(1), Polarity::Positive);
        assert_eq!(cons.polarity(2), Polarity::Positive);
        // distance 2 → no consensus
        let z = Cube::from_literals(3, &[(0, false), (1, false)]);
        assert!(x.consensus(&z).is_none());
    }

    #[test]
    fn supercube_is_smallest_enclosing() {
        let a = Cube::from_minterm(3, 0b000);
        let b = Cube::from_minterm(3, 0b011);
        let s = a.supercube(&b);
        assert!(s.contains(&a) && s.contains(&b));
        assert_eq!(s.polarity(2), Polarity::Negative);
        assert_eq!(s.polarity(0), Polarity::Free);
        assert_eq!(s.polarity(1), Polarity::Free);
    }

    #[test]
    fn minterm_enumeration() {
        let c = Cube::from_literals(3, &[(1, true)]);
        assert_eq!(c.minterms(), vec![0b010, 0b011, 0b110, 0b111]);
    }

    #[test]
    fn works_beyond_one_word() {
        // 40 variables spans two u64 words.
        let mut c = Cube::full(40);
        c.set(39, true);
        c.set(0, false);
        assert_eq!(c.polarity(39), Polarity::Positive);
        assert_eq!(c.literal_count(), 2);
        let m = Cube::from_minterm(40, 1u64 << 39);
        assert!(c.contains(&m));
        let m2 = Cube::from_minterm(40, (1u64 << 39) | 1);
        assert!(!c.contains(&m2));
        assert_eq!(c.distance(&m2), 1);
    }

    #[test]
    fn counts_match_the_per_variable_definition() {
        let mut rng = nshot_par::SmallRng::seed_from_u64(7);
        for n in [0, 1, 5, 31, 32, 33, 40, 64] {
            for _ in 0..64 {
                let mut c = Cube::full(n);
                for v in 0..n {
                    match rng.gen_index(4) {
                        0 => c.set(v, false),
                        1 => c.set(v, true),
                        2 if rng.gen_index(8) == 0 => {
                            c = c.intersect(&Cube::from_literals(n, &[(v, true)]));
                            c = c.intersect(&Cube::from_literals(n, &[(v, false)]));
                        }
                        _ => {}
                    }
                }
                let count = |p: &[Polarity]| (0..n).filter(|&v| p.contains(&c.polarity(v))).count();
                assert_eq!(c.free_count(), count(&[Polarity::Free]), "{c:?}");
                assert_eq!(
                    c.literal_count(),
                    count(&[Polarity::Positive, Polarity::Negative]),
                    "{c:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Cube::full(3);
        let b = Cube::full(4);
        let _ = a.intersect(&b);
    }
}
