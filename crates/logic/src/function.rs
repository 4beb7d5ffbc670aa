//! Incompletely specified single-output Boolean functions.

use std::sync::OnceLock;

use crate::oracle::{CoverOracle, Oracle, PointOracle};
use crate::{Cover, Cube};

/// An incompletely specified Boolean function given by an ON-set and a
/// DC-set (don't-care set); the OFF-set is everything else.
///
/// A function comes in one of two forms:
///
/// * the **cover form** ([`Function::new`], [`Function::with_off`]) holds
///   explicit ON, DC and OFF covers;
/// * the **point form** ([`Function::from_points`]) holds the ON, reachable
///   don't-care and OFF codes of a state graph, and every other code is a
///   don't-care. This is Table 1 of the paper: the ON/DC/OFF sets of a set
///   (reset) network come from the excitation / quiescent region
///   decomposition, with all unreachable codes in DC.
///
/// The minimizers answer their questions over codes for the point form, and
/// never build its DC cover; [`Function::dc_set`] materializes it on first
/// use.
///
/// # Example
///
/// ```
/// use nshot_logic::{Cover, Function};
///
/// let f = Function::new(
///     Cover::from_minterms(2, &[0b11]),
///     Cover::from_minterms(2, &[0b01]),
/// );
/// assert!(f.off_set().contains_minterm(0b00));
/// assert!(!f.off_set().contains_minterm(0b01));
/// ```
#[derive(Debug, Clone)]
pub struct Function {
    on: Cover,
    form: Form,
}

#[derive(Debug, Clone)]
enum Form {
    Covers { dc: Cover, off: Cover },
    Points(Points),
}

/// The codes of a point-form function, with its DC and OFF covers built
/// on first use.
#[derive(Debug, Clone)]
struct Points {
    on: Vec<u64>,
    qr: Vec<u64>,
    off: Vec<u64>,
    dc_cover: OnceLock<Cover>,
    off_cover: OnceLock<Cover>,
}

impl Function {
    /// Build a function from ON and DC covers; the OFF-set is computed as the
    /// complement of their union.
    ///
    /// # Panics
    ///
    /// Panics if the covers disagree on the variable count or if the ON and
    /// DC sets overlap (the specification would be ambiguous).
    pub fn new(on: Cover, dc: Cover) -> Self {
        assert_eq!(on.num_vars(), dc.num_vars(), "cover dimension mismatch");
        assert!(
            !on.intersects(&dc),
            "ON-set and DC-set overlap: ambiguous specification"
        );
        let off = on.union(&dc).complement();
        Function {
            on,
            form: Form::Covers { dc, off },
        }
    }

    /// Build a function with an explicitly supplied OFF-set.
    ///
    /// Useful when the caller has already partitioned the space.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or if ON and OFF overlap.
    pub fn with_off(on: Cover, dc: Cover, off: Cover) -> Self {
        assert_eq!(on.num_vars(), dc.num_vars(), "cover dimension mismatch");
        assert_eq!(on.num_vars(), off.num_vars(), "cover dimension mismatch");
        assert!(!on.intersects(&off), "ON-set and OFF-set overlap");
        Function {
            on,
            form: Form::Covers { dc, off },
        }
    }

    /// Build a point-form function over `num_vars ≤ 64` variables from the
    /// codes of its ON points, its reachable don't-care points `qr` and its
    /// OFF points. Every code in none of the three lists is a don't-care.
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
        assert!(num_vars <= 64, "point-form functions cap at 64 vars");
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
            on: Cover::from_minterms(num_vars, &on),
            form: Form::Points(Points {
                on,
                qr,
                off,
                dc_cover: OnceLock::new(),
                off_cover: OnceLock::new(),
            }),
        }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.on.num_vars()
    }

    /// The ON-set (must evaluate to 1).
    pub fn on_set(&self) -> &Cover {
        &self.on
    }

    /// The don't-care set (free to be 0 or 1). Built on first call for a
    /// point-form function.
    pub fn dc_set(&self) -> &Cover {
        match &self.form {
            Form::Covers { dc, .. } => dc,
            Form::Points(p) => p.dc_cover.get_or_init(|| {
                let n = self.num_vars();
                let mut used: Vec<u64> = p.on.iter().chain(&p.qr).chain(&p.off).copied().collect();
                used.sort_unstable();
                used.dedup();
                let mut cubes: Vec<Cube> = p.qr.iter().map(|&c| Cube::from_minterm(n, c)).collect();
                split_unused(n, &used, n, &mut Vec::new(), &mut cubes);
                Cover::from_cubes(n, cubes)
            }),
        }
    }

    /// The OFF-set (must evaluate to 0). Built on first call for a
    /// point-form function.
    pub fn off_set(&self) -> &Cover {
        match &self.form {
            Form::Covers { off, .. } => off,
            Form::Points(p) => p
                .off_cover
                .get_or_init(|| Cover::from_minterms(self.num_vars(), &p.off)),
        }
    }

    /// The minimizer's view of this function: cube algebra for the cover
    /// form, code scans for the point form.
    pub(crate) fn oracle(&self) -> Box<dyn Oracle + '_> {
        match &self.form {
            Form::Covers { dc, off } => Box::new(CoverOracle { dc, off }),
            Form::Points(p) => Box::new(PointOracle::new(self.num_vars(), &p.on, &p.off)),
        }
    }

    /// The key this function is memoized under.
    ///
    /// The cover form keys on `[num_vars, |ON|, ON words…, |DC|, DC
    /// words…]` over sorted cube lists. The point form keys on
    /// `[tag, num_vars, |ON|, ON codes…, |OFF|, OFF codes…]`: its covers
    /// depend on ON and OFF alone, since every other code is DC.
    pub(crate) fn memo_key(&self) -> Vec<u64> {
        let n = self.num_vars();
        match &self.form {
            Form::Covers { dc, .. } => {
                crate::function_key(n, &crate::sorted_cubes(&self.on), &crate::sorted_cubes(dc))
            }
            Form::Points(p) => {
                crate::key::point_function_key(n, &in_cube_order(&p.on), &sorted(&p.off))
            }
        }
    }

    /// The copy of this function the memo table minimizes: every list in
    /// the order of its [`Function::memo_key`], so the cover depends on the
    /// key alone.
    pub(crate) fn canonical(&self) -> Function {
        let n = self.num_vars();
        match &self.form {
            Form::Covers { dc, off } => Function {
                on: Cover::from_cubes(n, crate::sorted_cubes(&self.on)),
                form: Form::Covers {
                    dc: Cover::from_cubes(n, crate::sorted_cubes(dc)),
                    off: Cover::from_cubes(n, crate::sorted_cubes(off)),
                },
            },
            Form::Points(p) => {
                Self::points_unchecked(n, in_cube_order(&p.on), p.qr.clone(), sorted(&p.off))
            }
        }
    }

    /// `true` if `cover` is a correct implementation: it covers all of ON and
    /// touches none of OFF.
    pub fn is_implemented_by(&self, cover: &Cover) -> bool {
        match &self.form {
            Form::Covers { off, .. } => cover.contains_cover(&self.on) && !cover.intersects(off),
            Form::Points(p) => {
                let masks: Vec<(u64, u64)> = cover.iter().map(Cube::code_mask).collect();
                let hit = |code: &u64| masks.iter().any(|&(care, value)| code & care == value);
                p.on.iter().all(hit) && !p.off.iter().any(hit)
            }
        }
    }

    /// `true` if `cube` may appear in an implementation (is off-set free).
    pub fn admits_cube(&self, cube: &Cube) -> bool {
        match &self.form {
            Form::Covers { off, .. } => !off.iter().any(|o| o.intersects(cube)),
            // One query: a scan is cheaper than building the oracle's columns.
            Form::Points(p) => {
                cube.is_empty() || {
                    let (care, value) = cube.code_mask();
                    !p.off.iter().any(|&code| code & care == value)
                }
            }
        }
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
    fn off_set_is_complement_of_on_union_dc() {
        let f = Function::new(
            Cover::from_minterms(3, &[0, 1]),
            Cover::from_minterms(3, &[2]),
        );
        for m in 0..8u64 {
            let expect_off = ![0u64, 1, 2].contains(&m);
            assert_eq!(f.off_set().contains_minterm(m), expect_off, "minterm {m}");
        }
    }

    #[test]
    fn implementation_check() {
        let f = Function::new(
            Cover::from_minterms(2, &[0b11]),
            Cover::from_minterms(2, &[0b01]),
        );
        // `a` implements it (covers 11, uses DC 01, avoids OFF {00,10}).
        let a = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(0, true)])]);
        assert!(f.is_implemented_by(&a));
        // `b` does not: covers OFF minterm 10.
        let b = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(1, true)])]);
        assert!(!f.is_implemented_by(&b));
        // The same function in point form gives the same answers.
        let p = Function::from_points(2, vec![0b11], vec![], vec![0b00, 0b10]);
        assert!(p.is_implemented_by(&a));
        assert!(!p.is_implemented_by(&b));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_on_dc_panics() {
        let _ = Function::new(
            Cover::from_minterms(2, &[1]),
            Cover::from_minterms(2, &[1]),
        );
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
            assert_eq!(
                f.canonical().on_set().cubes(),
                crate::sorted_cubes(f.on_set())
            );
        }
    }
}
