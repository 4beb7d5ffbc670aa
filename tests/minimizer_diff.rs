//! Differential test: heuristic ESPRESSO vs. the exact minimizer, over
//! every set/reset function of every Table 2 benchmark.
//!
//! For each function both covers must implement it — cover every ON point
//! and no OFF point, so they agree everywhere outside the don't-care set —
//! and the heuristic result must stay within a small bound of the exact
//! optimum, so a quality regression in the iterative loop is caught even
//! when correctness holds.

use nshot::core::SetResetSpec;
use nshot::logic::{espresso, minimize_exact, Function};

/// Largest cube-count gap (heuristic − exact) tolerated per function. The
/// suite's current worst case is 0 — the heuristic finds the optimum on
/// every benchmark function — but a bound of 1 keeps the test from pinning
/// the heuristic's exact search order.
const MAX_CUBE_GAP: usize = 1;

fn diff_function(circuit: &str, label: &str, f: &Function) -> (usize, usize) {
    let heuristic = espresso(f);
    let exact = minimize_exact(f).unwrap_or_else(|e| panic!("{circuit}/{label}: exact: {e}"));

    assert!(
        f.is_implemented_by(&heuristic),
        "{circuit}/{label}: heuristic cover does not implement the function"
    );
    assert!(
        f.is_implemented_by(&exact),
        "{circuit}/{label}: exact cover does not implement the function"
    );
    assert!(
        exact.num_cubes() <= heuristic.num_cubes(),
        "{circuit}/{label}: exact ({}) larger than heuristic ({})",
        exact.num_cubes(),
        heuristic.num_cubes()
    );
    assert!(
        heuristic.num_cubes() <= exact.num_cubes() + MAX_CUBE_GAP,
        "{circuit}/{label}: heuristic {} cubes vs exact optimum {}",
        heuristic.num_cubes(),
        exact.num_cubes()
    );
    (heuristic.num_cubes(), exact.num_cubes())
}

#[test]
fn heuristic_matches_exact_on_every_benchmark_function() {
    let mut functions = 0usize;
    let mut heuristic_total = 0usize;
    let mut exact_total = 0usize;
    for bench in nshot::benchmarks::suite() {
        let sg = bench.build();
        for a in sg.non_input_signals() {
            let spec = SetResetSpec::derive(&sg, a);
            for (label, f) in [("set", &spec.set), ("reset", &spec.reset)] {
                let name = format!("{}.{label}", sg.signal_name(a));
                let (h, e) = diff_function(bench.name, &name, f);
                functions += 1;
                heuristic_total += h;
                exact_total += e;
            }
        }
    }
    // The suite exercises a real spread of function shapes; make sure the
    // loop did not silently degenerate (e.g. an empty suite build).
    assert!(functions > 100, "only {functions} functions diffed");
    println!(
        "diffed {functions} functions: heuristic {heuristic_total} cubes, exact {exact_total}"
    );
}
