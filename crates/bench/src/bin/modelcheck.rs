//! Exhaustively model-check the full Table 2 suite: prove external
//! hazard-freeness of every synthesized circuit with `nshot-mc` and write
//! the per-circuit exploration statistics to `BENCH_mc.json` — the full
//! [`nshot_mc::ExplorationStats`] block (frontier high-water, visited-set
//! bytes, budget fraction, violation checks) plus
//! a wall-clock `states_per_sec` computed here, outside the certificate.
//!
//! Usage: `cargo run --release -p nshot-bench --bin modelcheck [-- filter [out.json]]`
//!
//! Circuits whose composed state space exceeds the budget (`master-read`
//! and `tsbmsiBRK` are past 24M states at the default 4M cap) fall back to
//! deterministic Monte-Carlo sampling through `nshot_mc::verify_budgeted`
//! and are reported with `method:"monte_carlo"`.
//! The run asserts that every circuit is hazard-free by its method and
//! that the proof covers the rest of the suite.
//!
//! The suite is swept twice — one worker thread, then the machine's
//! parallelism — with circuits fanned out over `nshot_par::par_map` (the
//! checker itself is sequential by design, so the certificates must be
//! byte-identical across thread counts; the run asserts it).

use std::time::Instant;

use nshot_core::{synthesize, SynthesisOptions};
use nshot_mc::{verify_budgeted, McConfig};
use nshot_par::{num_threads, par_map, ThreadGuard};

struct CircuitResult {
    name: String,
    spec_states: usize,
    states: u64,
    edges: u64,
    max_depth: u32,
    peak_frontier: u64,
    final_frontier: u64,
    visited_bytes: u64,
    budget_fraction: f64,
    violation_checks: u64,
    proved: bool,
    method: &'static str,
    hazard_free: bool,
    wall_ms: f64,
    /// Exploration throughput, computed here from this run's own
    /// wall-clock — deliberately NOT part of the certificate, which must
    /// stay byte-identical across machines and thread counts.
    states_per_sec: f64,
    render: String,
}

struct SweepRun {
    threads: usize,
    wall_ms: f64,
    circuits: Vec<CircuitResult>,
}

fn run_sweep(names: &[String], threads: usize) -> SweepRun {
    let _guard = ThreadGuard::pin(threads);
    let t0 = Instant::now();
    let circuits = par_map(names, |name| {
        let bench = nshot_benchmarks::by_name(name).expect("in suite");
        let sg = bench.build();
        let imp = synthesize(&sg, &SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{name}: synthesis failed: {e}"));
        let max_states = std::env::var("NSHOT_MC_MAX_STATES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(McConfig::default().max_states);
        let c0 = Instant::now();
        // Past the budget this samples instead; the fixed-seed schedule
        // keeps the result deterministic, so the cross-thread assertion
        // still holds.
        let report = verify_budgeted(&sg, &imp, max_states)
            .unwrap_or_else(|e| panic!("{name}: model build failed: {e}"));
        let verdict = report.verdict.expect("verify_budgeted always checks");
        let stats = verdict.certificate().map(|c| c.stats.clone());
        let (method, render) = match &report.monte_carlo {
            Some(summary) => (
                "monte_carlo",
                format!(
                    "{}  fallback: monte_carlo {}/{} clean\n",
                    verdict.render(),
                    summary.clean_trials,
                    summary.trials
                ),
            ),
            None => ("proof", verdict.render()),
        };
        let hazard_free = report.hazard_free;
        let wall_ms = c0.elapsed().as_secs_f64() * 1e3;
        let stats = stats.unwrap_or_default();
        CircuitResult {
            name: name.clone(),
            spec_states: sg.num_states(),
            states: stats.states,
            edges: stats.edges,
            max_depth: stats.max_depth,
            peak_frontier: stats.peak_frontier,
            final_frontier: stats.final_frontier,
            visited_bytes: stats.visited_bytes,
            budget_fraction: stats.budget_fraction(),
            violation_checks: stats.total_violation_checks(),
            proved: verdict.is_proved(),
            method,
            hazard_free,
            wall_ms,
            states_per_sec: stats.states as f64 / (c0.elapsed().as_secs_f64()).max(1e-9),
            render,
        }
    });
    SweepRun {
        threads,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        circuits,
    }
}

fn circuit_json(c: &CircuitResult) -> String {
    format!(
        concat!(
            "{{\"name\": \"{}\", \"spec_states\": {}, \"explored_states\": {}, ",
            "\"edges\": {}, \"max_depth\": {}, ",
            "\"peak_frontier\": {}, \"final_frontier\": {}, \"visited_bytes\": {}, ",
            "\"budget_fraction\": {:.4}, \"violation_checks\": {}, ",
            "\"proved\": {}, \"method\": \"{}\", \"hazard_free\": {}, ",
            "\"wall_ms\": {:.3}, \"states_per_sec\": {:.0}}}"
        ),
        c.name,
        c.spec_states,
        c.states,
        c.edges,
        c.max_depth,
        c.peak_frontier,
        c.final_frontier,
        c.visited_bytes,
        c.budget_fraction,
        c.violation_checks,
        c.proved,
        c.method,
        c.hazard_free,
        c.wall_ms,
        c.states_per_sec
    )
}

fn main() {
    let filter = std::env::args().nth(1).filter(|a| a != "-");
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_mc.json".to_string());

    let names: Vec<String> = nshot_benchmarks::suite()
        .iter()
        .filter(|b| filter.as_deref().is_none_or(|f| b.name.contains(f)))
        .map(|b| b.name.to_string())
        .collect();
    let hw_threads = num_threads();
    println!(
        "modelcheck: {} circuits, hardware parallelism {hw_threads}",
        names.len()
    );

    let baseline = run_sweep(&names, 1);
    println!("  1 thread : {:8.1} ms", baseline.wall_ms);
    let parallel = run_sweep(&names, hw_threads);
    println!("  {} threads: {:8.1} ms", parallel.threads, parallel.wall_ms);
    let speedup = baseline.wall_ms / parallel.wall_ms.max(1e-9);
    println!("  speedup  : {speedup:.2}x");

    // The checker is sequential and deterministic: certificates must be
    // byte-identical no matter how the circuits were scheduled.
    let deterministic = baseline
        .circuits
        .iter()
        .zip(&parallel.circuits)
        .all(|(a, b)| a.name == b.name && a.render == b.render);
    println!("  deterministic across thread counts: {deterministic}");
    assert!(deterministic, "certificates diverged across thread counts");

    println!(
        "  {:<15} {:>7} {:>10} {:>11} {:>6}  verdict",
        "circuit", "spec", "explored", "edges", "depth"
    );
    let mut proved_count = 0usize;
    let mut all_clean = true;
    for c in &baseline.circuits {
        println!(
            "  {:<15} {:>7} {:>10} {:>11} {:>6}  {}",
            c.name,
            c.spec_states,
            c.states,
            c.edges,
            c.max_depth,
            match (c.proved, c.hazard_free) {
                (true, _) => "proved",
                (false, true) => "monte_carlo clean",
                (false, false) => "FAILED",
            }
        );
        if c.proved {
            proved_count += 1;
        }
        if !c.hazard_free {
            all_clean = false;
            print!("{}", c.render);
        }
    }
    println!(
        "  proved: {proved_count}/{} (rest sampled clean: {all_clean})",
        baseline.circuits.len()
    );
    assert!(all_clean, "a suite circuit failed verification");
    assert!(
        baseline.circuits.iter().all(|c| c.proved || c.states > 0),
        "fallback circuits must still report their partial exploration"
    );

    let circuits: Vec<String> = baseline.circuits.iter().map(circuit_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"modelcheck\",\n",
            "  \"hw_threads\": {},\n",
            "  \"runs\": [\n",
            "    {{\"threads\": {}, \"wall_ms\": {:.2}}},\n",
            "    {{\"threads\": {}, \"wall_ms\": {:.2}}}\n",
            "  ],\n",
            "  \"speedup\": {:.3},\n",
            "  \"deterministic\": {},\n",
            "  \"proved_circuits\": {},\n",
            "  \"all_hazard_free\": {},\n",
            "  \"circuits\": [\n    {}\n  ]\n",
            "}}\n"
        ),
        hw_threads,
        baseline.threads,
        baseline.wall_ms,
        parallel.threads,
        parallel.wall_ms,
        speedup,
        deterministic,
        proved_count,
        all_clean,
        circuits.join(",\n    ")
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
}
