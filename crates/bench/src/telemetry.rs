//! Fuzz-loop telemetry: the `nshot_fuzz_*` registry series.
//!
//! The `nshot-fuzz` driver records its outcome counters and per-seed phase
//! timings here so they ride along in any Prometheus exposition of
//! [`Registry::global()`] — the same surface the server's `metrics` op and
//! `nshot-serve`'s final snapshot render. Everything lives in the global
//! registry (not a per-run one) because a fuzz process is single-purpose:
//! process-lifetime totals *are* run totals.
//!
//! The series:
//!
//! * `nshot_fuzz_seeds_total` — seeds processed (accepted + rejected);
//! * `nshot_fuzz_accepted_total` / `nshot_fuzz_rejected_total`;
//! * `nshot_fuzz_proved_total` / `nshot_fuzz_mc_fallback_total` — how the
//!   clean seeds were verified;
//! * `nshot_fuzz_violations_total` / `nshot_fuzz_known_violations_total`;
//! * `nshot_fuzz_shrink_steps_total` — delta-debugging predicate probes;
//! * `nshot_fuzz_phase_us{phase="generate"|"synthesize"|"verify"}` —
//!   per-seed phase latency histograms.

use nshot_obs::{Counter, Histogram, Registry};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Handles to every `nshot_fuzz_*` series in the global registry.
pub struct FuzzMetrics {
    /// Seeds processed, whatever their outcome.
    pub seeds: Arc<Counter>,
    /// Seeds whose drawn spec was accepted by the generator.
    pub accepted: Arc<Counter>,
    /// Seeds the generator rejected (any reason).
    pub rejected: Arc<Counter>,
    /// Accepted seeds proved hazard-free exhaustively.
    pub proved: Arc<Counter>,
    /// Accepted seeds that fell back to Monte-Carlo sampling.
    pub mc_fallback: Arc<Counter>,
    /// Accepted seeds that violated (synthesis or verification).
    pub violations: Arc<Counter>,
    /// Violations whose minimized structure was already archived.
    pub known_violations: Arc<Counter>,
    /// Shrink predicate evaluations across all delta-debugging runs.
    pub shrink_steps: Arc<Counter>,
    /// Per-seed `draw` latency.
    pub generate_us: Arc<Histogram>,
    /// Per-seed synthesis latency (accepted seeds only).
    pub synthesize_us: Arc<Histogram>,
    /// Per-seed budgeted-verification latency (synthesized seeds only).
    pub verify_us: Arc<Histogram>,
}

impl FuzzMetrics {
    fn new(registry: &Registry) -> FuzzMetrics {
        FuzzMetrics {
            seeds: registry.counter("nshot_fuzz_seeds_total"),
            accepted: registry.counter("nshot_fuzz_accepted_total"),
            rejected: registry.counter("nshot_fuzz_rejected_total"),
            proved: registry.counter("nshot_fuzz_proved_total"),
            mc_fallback: registry.counter("nshot_fuzz_mc_fallback_total"),
            violations: registry.counter("nshot_fuzz_violations_total"),
            known_violations: registry.counter("nshot_fuzz_known_violations_total"),
            shrink_steps: registry.counter("nshot_fuzz_shrink_steps_total"),
            generate_us: registry.histogram("nshot_fuzz_phase_us{phase=\"generate\"}"),
            synthesize_us: registry.histogram("nshot_fuzz_phase_us{phase=\"synthesize\"}"),
            verify_us: registry.histogram("nshot_fuzz_phase_us{phase=\"verify\"}"),
        }
    }

    /// The process-wide instance, registered in [`Registry::global()`].
    pub fn global() -> &'static FuzzMetrics {
        static GLOBAL: OnceLock<FuzzMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| FuzzMetrics::new(Registry::global()))
    }
}

/// Run `f`, recording its wall-clock in `h`. The timing is observability
/// only — it never feeds back into the measured computation.
pub fn timed<T>(h: &Histogram, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    h.record(t0.elapsed().as_micros() as u64);
    out
}
