//! A tiny fixed-seed property-testing driver.
//!
//! The workspace's `proptests.rs` modules need randomized structured inputs
//! but must stay hermetic (no `proptest` crate) and deterministic (identical
//! failures on every machine and every `NSHOT_THREADS`). This module provides
//! the two pieces they need:
//!
//! * [`Gen`] — a thin structured-value generator over [`SmallRng`];
//! * [`check`] — a case driver that derives one seed per case index from a
//!   fixed base seed, so case *k* of property *p* generates the same input
//!   forever, and a failing case reports its seed for standalone replay.
//!
//! There is deliberately no shrinking: inputs here are small by construction
//! (the generators cap sizes), and reproducibility matters more than
//! minimality for a tier-1 gate.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::SmallRng;

/// Number of cases [`check`] runs per property.
pub const DEFAULT_CASES: usize = 64;

/// Structured-value generator backing one property-test case.
#[derive(Debug)]
pub struct Gen {
    rng: SmallRng,
}

impl Gen {
    /// A generator seeded for standalone replay of a reported failure.
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// Uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `usize` in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u64` in `lo..=hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range_u64(lo, hi)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_index(n)
    }

    /// Boolean vector with a length drawn from `min_len..=max_len`.
    pub fn vec_bool(&mut self, min_len: usize, max_len: usize) -> Vec<bool> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| self.bool()).collect()
    }

    /// A vector of `len` values drawn by `f`.
    pub fn vec_with<T>(&mut self, min_len: usize, max_len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// A random subset of `0..n`, as a sorted, deduplicated list.
    pub fn subset(&mut self, n: usize, max_picks: usize) -> Vec<usize> {
        let picks = self.usize_in(0, max_picks);
        let mut out: Vec<usize> = (0..picks).map(|_| self.index(n.max(1))).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Access the underlying RNG for bespoke sampling.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// Per-property base seed: a pure function of the property name, so adding
/// or reordering properties never reshuffles another property's inputs.
fn base_seed(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate property names.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Run `f` against [`DEFAULT_CASES`] deterministically seeded generators.
///
/// On a panic inside `f`, reports the property name, case index and the
/// case's seed (for `Gen::from_seed` replay) and re-raises the panic.
pub fn check(name: &str, f: impl FnMut(&mut Gen)) {
    check_n(name, DEFAULT_CASES, f)
}

/// [`check`] with an explicit case count.
pub fn check_n(name: &str, cases: usize, mut f: impl FnMut(&mut Gen)) {
    let base = base_seed(name);
    for case in 0..cases {
        let seed = base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut gen = Gen::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&mut gen))) {
            eprintln!(
                "property `{name}` failed at case {case}/{cases} \
                 (replay with Gen::from_seed({seed:#x}))"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        check_n("det", 8, |g| first.push(g.u64()));
        let mut second = Vec::new();
        check_n("det", 8, |g| second.push(g.u64()));
        assert_eq!(first, second);
        assert_eq!(first.len(), 8);
    }

    #[test]
    fn distinct_names_decorrelate() {
        let mut a = Vec::new();
        check_n("alpha", 4, |g| a.push(g.u64()));
        let mut b = Vec::new();
        check_n("beta", 4, |g| b.push(g.u64()));
        assert_ne!(a, b);
    }

    #[test]
    fn failure_reports_and_propagates() {
        let res = std::panic::catch_unwind(|| {
            check_n("always-fails", 4, |_| panic!("boom"));
        });
        assert!(res.is_err());
    }

    #[test]
    fn generators_respect_bounds() {
        check_n("bounds", 32, |g| {
            let v = g.usize_in(3, 9);
            assert!((3..=9).contains(&v));
            let s = g.subset(10, 5);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&x| x < 10));
            let bv = g.vec_bool(1, 6);
            assert!((1..=6).contains(&bv.len()));
        });
    }
}
