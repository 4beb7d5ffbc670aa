//! Incompletely specified single-output Boolean functions, given by the
//! state codes of Table 1.

use std::sync::OnceLock;

use crate::oracle::PointOracle;
use crate::{Cover, Cube};

/// An incompletely specified Boolean function over at most 64 variables,
/// given by the codes of its ON points, its reachable don't-care points and
/// its OFF points. Every other code is a don't-care.
///
/// This is Table 1 of the paper: the ON/DC/OFF sets of a set (reset)
/// network come from the excitation / quiescent region decomposition, with
/// all unreachable codes in DC. The minimizers answer their questions over
/// the codes and never build the DC cover; [`Function::dc_set`] and
/// [`Function::off_set`] materialize their covers on first use.
///
/// # Example
///
/// ```
/// use nshot_logic::Function;
///
/// // ON = {11}, reachable DC = {01}, OFF = {00}; code 10 is unlisted, so
/// // it is a don't-care too.
/// let f = Function::from_points(2, vec![0b11], vec![0b01], vec![0b00]);
/// assert!(f.off_set().contains_minterm(0b00));
/// assert!(f.dc_set().contains_minterm(0b10));
/// assert!(!f.off_set().contains_minterm(0b01));
/// ```
#[derive(Debug, Clone)]
pub struct Function {
    on: Vec<u64>,
    qr: Vec<u64>,
    off: Vec<u64>,
    /// The ON codes as minterm cubes, in the given order.
    on_cover: Cover,
    dc_cover: OnceLock<Cover>,
    off_cover: OnceLock<Cover>,
}

impl Function {
    /// Build a function over `num_vars ≤ 64` variables from the codes of
    /// its ON points, its reachable don't-care points `qr` and its OFF
    /// points. Every code in none of the three lists is a don't-care.
    ///
    /// ON keeps the given order, duplicates included, as the initial cover
    /// of the minimizer. The DC cover ([`Function::dc_set`]) is the `qr`
    /// minterms in the given order, then a cube cover of the codes in none
    /// of the lists.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 64`, if a code has a bit at or above
    /// `num_vars`, or if any two of ON, `qr` and OFF overlap.
    pub fn from_points(num_vars: usize, on: Vec<u64>, qr: Vec<u64>, off: Vec<u64>) -> Self {
        assert!(num_vars <= 64, "functions cap at 64 vars");
        let in_range = |c: &u64| num_vars == 64 || c >> num_vars == 0;
        assert!(
            on.iter().chain(&qr).chain(&off).all(in_range),
            "code out of range for {num_vars} variables"
        );
        let (on_sorted, qr_sorted, off_sorted) = (sorted(&on), sorted(&qr), sorted(&off));
        assert!(
            disjoint(&on_sorted, &off_sorted),
            "ON-set and OFF-set overlap"
        );
        assert!(
            disjoint(&on_sorted, &qr_sorted),
            "ON-set and DC-set overlap"
        );
        assert!(
            disjoint(&qr_sorted, &off_sorted),
            "DC-set and OFF-set overlap"
        );
        Self::points_unchecked(num_vars, on, qr, off)
    }

    /// [`Function::from_points`] without the checks, for copies of a
    /// function that was already checked.
    fn points_unchecked(num_vars: usize, on: Vec<u64>, qr: Vec<u64>, off: Vec<u64>) -> Self {
        Function {
            on_cover: Cover::from_minterms(num_vars, &on),
            on,
            qr,
            off,
            dc_cover: OnceLock::new(),
            off_cover: OnceLock::new(),
        }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.on_cover.num_vars()
    }

    /// The ON-set (must evaluate to 1).
    pub fn on_set(&self) -> &Cover {
        &self.on_cover
    }

    /// The don't-care set (free to be 0 or 1). Built on first call.
    pub fn dc_set(&self) -> &Cover {
        self.dc_cover.get_or_init(|| {
            let n = self.num_vars();
            let mut used: Vec<u64> = self
                .on
                .iter()
                .chain(&self.qr)
                .chain(&self.off)
                .copied()
                .collect();
            used.sort_unstable();
            used.dedup();
            let mut cubes: Vec<Cube> = self.qr.iter().map(|&c| Cube::from_minterm(n, c)).collect();
            split_unused(n, &used, n, &mut Vec::new(), &mut cubes);
            Cover::from_cubes(n, cubes)
        })
    }

    /// The OFF-set (must evaluate to 0). Built on first call.
    pub fn off_set(&self) -> &Cover {
        self.off_cover
            .get_or_init(|| Cover::from_minterms(self.num_vars(), &self.off))
    }

    /// The minimizer's view of this function: code scans over ON and OFF.
    pub(crate) fn oracle(&self) -> PointOracle<'_> {
        PointOracle::new(self.num_vars(), &self.on, &self.off)
    }

    /// The key this function is memoized under:
    /// `[num_vars, |ON|, ON codes…, |OFF|, OFF codes…]`, each list in
    /// canonical order. The covers depend on ON and OFF alone, since every
    /// other code is DC, and the full codes are stored (not a hash), so
    /// keys cannot collide.
    pub(crate) fn memo_key(&self) -> Vec<u64> {
        let (on, off) = (in_cube_order(&self.on), sorted(&self.off));
        let mut key = Vec::with_capacity(3 + on.len() + off.len());
        key.extend([self.num_vars() as u64, on.len() as u64]);
        key.extend(on);
        key.push(off.len() as u64);
        key.extend(off);
        key
    }

    /// The copy of this function the memo table minimizes: every list in
    /// the order of its [`Function::memo_key`], so the cover depends on the
    /// key alone.
    pub(crate) fn canonical(&self) -> Function {
        Self::points_unchecked(
            self.num_vars(),
            in_cube_order(&self.on),
            self.qr.clone(),
            sorted(&self.off),
        )
    }

    /// `true` if `cover` is a correct implementation: it covers all of ON and
    /// touches none of OFF.
    pub fn is_implemented_by(&self, cover: &Cover) -> bool {
        let masks: Vec<(u64, u64)> = cover.iter().map(Cube::code_mask).collect();
        let hit = |code: &u64| masks.iter().any(|&(care, value)| code & care == value);
        self.on.iter().all(hit) && !self.off.iter().any(hit)
    }

    /// `true` if `cube` may appear in an implementation (is off-set free).
    pub fn admits_cube(&self, cube: &Cube) -> bool {
        // One query: a scan is cheaper than building the oracle's columns.
        cube.is_empty() || {
            let (care, value) = cube.code_mask();
            !self.off.iter().any(|&code| code & care == value)
        }
    }
}

#[cfg(test)]
impl Function {
    /// The function with ON codes `on`, reachable DC codes `dc` and every
    /// other code OFF: the shape of a hand-written minterm example.
    pub(crate) fn from_on_dc(num_vars: usize, on: &[u64], dc: &[u64]) -> Self {
        let off = (0..1u64 << num_vars)
            .filter(|m| !on.contains(m) && !dc.contains(m))
            .collect();
        Self::from_points(num_vars, on.to_vec(), dc.to_vec(), off)
    }
}

/// An ascending copy of `codes`.
fn sorted(codes: &[u64]) -> Vec<u64> {
    let mut v = codes.to_vec();
    v.sort_unstable();
    v
}

/// `codes` sorted as their minterm cubes sort under [`Cube`]'s `Ord`. A
/// cube's first word holds variables 0..32, and words compare as numbers,
/// so rotating the code's halves makes numeric order match; up to 32
/// variables this is plain numeric order.
fn in_cube_order(codes: &[u64]) -> Vec<u64> {
    let mut v = codes.to_vec();
    v.sort_unstable_by_key(|c| c.rotate_right(32));
    v
}

/// `true` if two ascending code lists share no code (a merge scan).
fn disjoint(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Cube cover of the codes missing from the ascending, duplicate-free list
/// `used`, appended to `out`.
///
/// Splits the code space recursively on the most significant free bit
/// (0-half first): a subspace with no used code becomes one cube, a fully
/// used subspace is dropped, anything else recurses. The cube order is
/// therefore a fixed function of the used code set.
fn split_unused(
    n: usize,
    used: &[u64],
    bits_left: usize,
    fixed: &mut Vec<(usize, bool)>,
    out: &mut Vec<Cube>,
) {
    if used.is_empty() {
        out.push(Cube::from_literals(n, fixed));
        return;
    }
    if bits_left < 64 && used.len() == 1usize << bits_left {
        return; // subspace fully used
    }
    // `used` is non-empty and not full, so at least one free bit remains.
    let bit = bits_left - 1;
    // Within this branch all higher bits are equal, so the sorted slice
    // partitions cleanly on `bit`.
    let split_at = used.partition_point(|&c| c & (1u64 << bit) == 0);
    fixed.push((bit, false));
    split_unused(n, &used[..split_at], bit, fixed, out);
    fixed.pop();
    fixed.push((bit, true));
    split_unused(n, &used[split_at..], bit, fixed, out);
    fixed.pop();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_set_is_the_off_codes() {
        let f = Function::from_points(3, vec![0, 1], vec![2], vec![3, 4, 5, 6, 7]);
        for m in 0..8u64 {
            let expect_off = ![0u64, 1, 2].contains(&m);
            assert_eq!(f.off_set().contains_minterm(m), expect_off, "minterm {m}");
        }
    }

    #[test]
    fn implementation_check() {
        let f = Function::from_points(2, vec![0b11], vec![0b01], vec![0b00, 0b10]);
        // `a` implements it (covers 11, uses DC 01, avoids OFF {00,10}).
        let a = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(0, true)])]);
        assert!(f.is_implemented_by(&a));
        // `b` does not: covers OFF minterm 10.
        let b = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(1, true)])]);
        assert!(!f.is_implemented_by(&b));
    }

    #[test]
    #[should_panic(expected = "ON-set and DC-set overlap")]
    fn overlapping_on_qr_points_panic() {
        let _ = Function::from_points(2, vec![1], vec![1], vec![]);
    }

    #[test]
    #[should_panic(expected = "ON-set and OFF-set overlap")]
    fn overlapping_on_off_points_panic() {
        let _ = Function::from_points(3, vec![5, 1], vec![], vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "DC-set and OFF-set overlap")]
    fn overlapping_qr_off_points_panic() {
        let _ = Function::from_points(2, vec![0b00], vec![0b01, 0b11], vec![0b01, 0b11]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_codes_panic() {
        let _ = Function::from_points(2, vec![4], vec![], vec![]);
    }

    #[test]
    fn dc_cover_is_qr_then_the_unused_codes() {
        // Used codes {0, 1, 3} over 2 vars: QR {3} first, then unused {2}.
        let f = Function::from_points(2, vec![1], vec![3], vec![0]);
        let dc = f.dc_set();
        assert_eq!(dc.cubes()[0], Cube::from_minterm(2, 3));
        assert_eq!(dc.minterms(), vec![2, 3]);
        assert_eq!(f.off_set().minterms(), vec![0]);
    }

    #[test]
    fn unused_cover_is_exact() {
        // The prefix-split cover contains a code iff it is not used, and
        // is empty when every code is.
        for (n, used) in [
            (2, vec![0u64, 1, 2, 3]),
            (3, vec![1, 2, 6]),
            (4, vec![0, 1, 2, 3, 4, 8, 12, 15]),
            (5, vec![]),
        ] {
            let mut cubes = Vec::new();
            split_unused(n, &used, n, &mut Vec::new(), &mut cubes);
            let cover = Cover::from_cubes(n, cubes);
            for code in 0..1u64 << n {
                assert_eq!(
                    cover.contains_minterm(code),
                    !used.contains(&code),
                    "{n}: {code:b}"
                );
            }
            assert_eq!(cover.is_empty(), used.len() == 1 << n);
        }
    }

    #[test]
    fn canonical_point_order_is_cube_order() {
        // Past 32 variables the cube order compares variables 0..32 first.
        for n in [5usize, 40] {
            let codes = [1u64 << (n - 1), 3, 1 << 4, 2, (1 << (n - 1)) | 1];
            let f = Function::from_points(n, codes.to_vec(), vec![], vec![]);
            let mut cubes = f.on_set().cubes().to_vec();
            cubes.sort_unstable();
            assert_eq!(f.canonical().on_set().cubes(), cubes);
        }
    }
}
