//! Sums of product terms ([`Cover`]).

use crate::cube::Cube;
use nshot_par::FxHashSet;
use std::fmt::{self, Write as _};

/// [`Cover::single_cube_containment`] compares a cube with the kept cubes
/// of its own size level one by one up to this many, and through a hash set
/// beyond.
const LEVEL_SCAN_LIMIT: usize = 8;

/// A sum of [`Cube`]s over a fixed variable count.
///
/// Covers are the working representation for minimized set/reset networks
/// and for the materialized ON, DC and OFF sets of a [`crate::Function`].
/// The minimizers decide containment over state codes, so a cover needs no
/// tautology or complement algebra, only single-cube containment.
///
/// # Example
///
/// ```
/// use nshot_logic::{Cover, Cube};
///
/// let mut f = Cover::empty(2);
/// f.push(Cube::from_literals(2, &[(0, true)]));  // a
/// f.push(Cube::from_literals(2, &[(0, false)])); // !a
/// assert!((0..4).all(|m| f.contains_minterm(m)));
/// assert_eq!(f.literal_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Cover {
    cubes: Vec<Cube>,
    num_vars: usize,
}

impl Cover {
    /// The empty cover (constant 0).
    pub fn empty(num_vars: usize) -> Self {
        Cover {
            cubes: Vec::new(),
            num_vars,
        }
    }

    /// Build a cover from a set of minterms (one single-minterm cube each).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 64`.
    pub fn from_minterms(num_vars: usize, minterms: &[u64]) -> Self {
        Cover {
            cubes: minterms
                .iter()
                .map(|&m| Cube::from_minterm(num_vars, m))
                .collect(),
            num_vars,
        }
    }

    /// Build a cover from explicit cubes.
    ///
    /// # Panics
    ///
    /// Panics if any cube disagrees on the variable count.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        for c in &cubes {
            assert_eq!(c.num_vars(), num_vars, "cube dimension mismatch");
        }
        Cover { cubes, num_vars }
    }

    /// Number of variables of the underlying space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of cubes (product terms / AND gates).
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals across all cubes (a standard area proxy).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// `true` if the cover has no cubes (denotes the constant-0 function).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Borrow the cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Take the cubes out of the cover.
    pub(crate) fn into_cubes(self) -> Vec<Cube> {
        self.cubes
    }

    /// Append a cube, silently dropping empty cubes.
    ///
    /// # Panics
    ///
    /// Panics if the cube disagrees on the variable count.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_vars, "cube dimension mismatch");
        if !cube.is_empty() {
            self.cubes.push(cube);
        }
    }

    /// Iterate over the cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.cubes.iter()
    }

    /// Set-union of two covers (concatenation).
    pub fn union(&self, other: &Cover) -> Cover {
        self.check_dims(other);
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover {
            cubes,
            num_vars: self.num_vars,
        }
    }

    /// `true` if any cube covers the minterm.
    pub fn contains_minterm(&self, minterm: u64) -> bool {
        self.cubes.iter().any(|c| c.contains_minterm(minterm))
    }

    /// Remove cubes contained in another single cube of the cover
    /// (single-cube containment minimization). Survivors keep their order
    /// after a stable sort by decreasing free count, and an empty cube is
    /// dropped unless it comes first.
    ///
    /// A non-empty cube can only be contained in a cube with strictly more
    /// free variables or in an equal one: a cube with as many free
    /// variables that contains it has the same free variables and the same
    /// literals. So each cube is tested for containment against the kept
    /// cubes of larger size levels, and for equality against the kept cubes
    /// of its own level, through a hash set once the level is large.
    pub fn single_cube_containment(&mut self) {
        // Sort big-to-small so that keepers come first.
        self.cubes
            .sort_by_key(|c| std::cmp::Reverse(c.free_count()));
        let mut kept: Vec<usize> = Vec::new();
        // `kept[..larger]` hold more free variables than the current level;
        // `level` holds the rest once there are enough of them.
        let (mut larger, mut level_free) = (0, usize::MAX);
        let mut level: FxHashSet<&Cube> = FxHashSet::default();
        for (i, c) in self.cubes.iter().enumerate() {
            if c.free_count() != level_free {
                (larger, level_free) = (kept.len(), c.free_count());
                level.clear();
            }
            let same = &kept[larger..];
            let contained = if c.is_empty() {
                // Every cube contains the empty cube.
                !kept.is_empty()
            } else if kept[..larger].iter().any(|&k| self.cubes[k].contains(c)) {
                true
            } else if same.len() < LEVEL_SCAN_LIMIT {
                same.iter().any(|&k| self.cubes[k] == *c)
            } else {
                if level.is_empty() {
                    level.extend(same.iter().map(|&k| &self.cubes[k]));
                }
                level.contains(c)
            };
            if !contained {
                kept.push(i);
                if !level.is_empty() {
                    level.insert(c);
                }
            }
        }
        drop(level);
        // `kept` is ascending: take each index off its front as `retain`
        // passes it.
        let (mut kept, mut i) = (kept.into_iter().peekable(), 0);
        self.cubes.retain(|_| {
            i += 1;
            kept.next_if_eq(&(i - 1)).is_some()
        });
    }

    /// Enumerate all covered minterms (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 64`. Intended for test-sized spaces.
    pub fn minterms(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.cubes.iter().flat_map(|c| c.minterms()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Serialize as a single-output Berkeley PLA (the ESPRESSO format),
    /// ON cubes only.
    pub fn to_pla(&self) -> String {
        let mut out = format!(".i {}\n.o 1\n.p {}\n", self.num_vars, self.cubes.len());
        for cube in &self.cubes {
            let _ = writeln!(out, "{cube} 1");
        }
        out.push_str(".e\n");
        out
    }

    fn check_dims(&self, other: &Cover) {
        assert_eq!(
            self.num_vars, other.num_vars,
            "cover dimension mismatch: {} vs {}",
            self.num_vars, other.num_vars
        );
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Cover[{} vars, {} cubes]", self.num_vars, self.cubes.len())?;
        for c in &self.cubes {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        let strs: Vec<String> = self.cubes.iter().map(|c| c.to_string()).collect();
        write!(f, "{}", strs.join(" + "))
    }
}

impl FromIterator<Cube> for Cover {
    /// Collect cubes into a cover.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty (the variable count cannot be
    /// inferred) or if cubes disagree on dimension. Use [`Cover::empty`]
    /// plus [`Cover::push`] when the iterator may be empty.
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let num_vars = cubes
            .first()
            .expect("cannot infer dimension from an empty iterator")
            .num_vars();
        Cover::from_cubes(num_vars, cubes)
    }
}

impl<'a> IntoIterator for &'a Cover {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(n: usize, l: &[(usize, bool)]) -> Cube {
        Cube::from_literals(n, l)
    }

    #[test]
    fn pla_lists_the_cubes() {
        let c = Cover::from_cubes(3, vec![lits(3, &[(0, true), (2, false)])]);
        assert_eq!(c.to_pla(), ".i 3\n.o 1\n.p 1\n1-0 1\n.e\n");
    }

    #[test]
    fn scc_removes_contained() {
        let mut f = Cover::from_cubes(
            2,
            vec![
                lits(2, &[(0, true)]),
                lits(2, &[(0, true), (1, true)]),
                lits(2, &[(0, true)]),
            ],
        );
        f.single_cube_containment();
        assert_eq!(f.num_cubes(), 1);
    }

    #[test]
    fn minterm_cover_roundtrip() {
        let ms = [0u64, 3, 5, 6];
        let f = Cover::from_minterms(3, &ms);
        assert_eq!(f.minterms(), ms.to_vec());
        for m in 0..8u64 {
            assert_eq!(f.contains_minterm(m), ms.contains(&m));
        }
    }

    #[test]
    fn union_concatenates() {
        let a = Cover::from_minterms(2, &[0, 1]);
        let b = Cover::from_minterms(2, &[1, 2]);
        assert_eq!(a.union(&b).minterms(), vec![0, 1, 2]);
        assert_eq!(a.union(&b).num_cubes(), 4);
    }
}
