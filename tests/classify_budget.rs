//! Classify-stage budget: the full suite's analysis stage (CSC,
//! semi-modularity and per-signal region/spec derivation) must stay under
//! a generous wall-clock budget. It guards the bit-parallel analysis
//! engine against order-of-magnitude regressions; the per-layer figure
//! itself is `sg.classify_ms` in the e2ebench suite-compile trace.

use std::time::{Duration, Instant};

use nshot::core::derive_all;

const BUDGET: Duration = Duration::from_millis(20_000);

#[test]
fn suite_classify_stays_under_budget() {
    let mut total = Duration::ZERO;
    for b in nshot::benchmarks::suite() {
        let sg = b.build();
        let t = Instant::now();
        let csc = sg.check_csc().is_ok();
        let semi = sg.check_semi_modular().is_ok();
        let specs = derive_all(&sg);
        let regions: usize = sg
            .non_input_signals()
            .map(|a| sg.regions_of(a).excitation.len())
            .sum();
        total += t.elapsed();
        assert!(csc && semi, "{}: csc={csc} semi={semi}", b.name);
        assert!(
            !specs.is_empty() && regions > 0,
            "{}: nothing derived",
            b.name
        );
    }
    assert!(
        total <= BUDGET,
        "classify total {total:?} exceeds {BUDGET:?}"
    );
}
