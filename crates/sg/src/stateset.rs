//! Bit-packed sets of [`StateId`]s.
//!
//! The region/check algorithms are set algebra over reachable states; this
//! module gives them a u64-word-striped bitvector sized to the graph's
//! `num_states()`, so membership is one shift and the bulk operations
//! (union, intersection, subtraction) run 64 states per word. Iteration is
//! always ascending by state index — the same order a `BTreeSet<StateId>`
//! would produce — which is what keeps every downstream discovery order
//! (components, SCCs, violation lists) byte-identical to the legacy
//! tree-set implementation.

use crate::graph::StateId;
use std::fmt;

/// A set of states over a fixed universe `0..universe`.
#[derive(Clone, PartialEq, Eq)]
pub struct StateSet {
    words: Vec<u64>,
    universe: usize,
}

impl StateSet {
    /// The empty set over a universe of `universe` states.
    pub fn new(universe: usize) -> Self {
        StateSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Build a set from an iterator of members.
    pub fn from_iter(universe: usize, members: impl IntoIterator<Item = StateId>) -> Self {
        let mut set = StateSet::new(universe);
        for s in members {
            set.insert(s);
        }
        set
    }

    /// Number of states the universe can hold.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Insert a state; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the state index is outside the universe.
    pub fn insert(&mut self, s: StateId) -> bool {
        let i = s.index();
        assert!(i < self.universe, "state {i} outside universe {}", self.universe);
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Remove a state; returns `true` if it was present.
    pub fn remove(&mut self, s: StateId) -> bool {
        let i = s.index();
        if i >= self.universe {
            return false;
        }
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// `true` if the state is a member.
    pub fn contains(&self, s: StateId) -> bool {
        let i = s.index();
        i < self.universe && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of members (popcount).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<StateId> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(StateId((wi * 64 + w.trailing_zeros() as usize) as u32));
            }
        }
        None
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &StateSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `true` if every member of `self` is in `other`.
    pub fn is_subset(&self, other: &StateSet) -> bool {
        self.check_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// `true` if the sets share a member.
    pub fn intersects(&self, other: &StateSet) -> bool {
        self.check_universe(other);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterate the members in ascending state-index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    fn check_universe(&self, other: &StateSet) {
        assert_eq!(
            self.universe, other.universe,
            "state sets over different universes"
        );
    }
}

/// Ascending iterator over the members of a [`StateSet`].
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = StateId;

    fn next(&mut self) -> Option<StateId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(StateId((self.word_idx * 64 + bit) as u32))
    }
}

impl<'a> IntoIterator for &'a StateSet {
    type Item = StateId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|s| s.index())).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> StateId {
        StateId(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut set = StateSet::new(130);
        assert!(set.insert(s(0)));
        assert!(set.insert(s(63)));
        assert!(set.insert(s(64)));
        assert!(set.insert(s(129)));
        assert!(!set.insert(s(64)), "double insert reports not-fresh");
        assert_eq!(set.len(), 4);
        assert!(set.contains(s(63)));
        assert!(!set.contains(s(62)));
        assert!(set.remove(s(63)));
        assert!(!set.remove(s(63)));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn iteration_is_ascending() {
        let members = [s(100), s(3), s(64), s(3), s(0)];
        let set = StateSet::from_iter(128, members);
        let got: Vec<usize> = set.iter().map(|x| x.index()).collect();
        assert_eq!(got, vec![0, 3, 64, 100]);
        assert_eq!(set.first(), Some(s(0)));
    }

    #[test]
    fn word_algebra() {
        let a = StateSet::from_iter(200, [s(1), s(70), s(140)]);
        let b = StateSet::from_iter(200, [s(70), s(141)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        let i = StateSet::from_iter(200, [s(70)]);
        let d = StateSet::from_iter(200, [s(1), s(140)]);
        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
        assert!(!d.intersects(&b));
    }

    #[test]
    fn empty_and_boundaries() {
        let set = StateSet::new(0);
        assert!(set.is_empty());
        assert_eq!(set.first(), None);
        assert_eq!(set.iter().count(), 0);
        let mut set = StateSet::new(64);
        set.insert(s(63));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![s(63)]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        StateSet::new(10).insert(s(10));
    }
}
