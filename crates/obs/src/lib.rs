//! # nshot-obs — structured tracing, metrics and per-stage profiling
//!
//! The synthesis pipeline is a fixed sequence of stages (parse → elaborate →
//! ER/QR/TR classification → minimize → trigger check → delay/compensation
//! check → netlist emit, plus Monte-Carlo validation), and hazard-free
//! synthesis cost is dominated by a few super-linear stages. This crate
//! makes *where the time goes* observable without adding a single external
//! dependency or measurable cost to the disabled path:
//!
//! * **Spans** ([`span`]) — RAII guards over [`std::time::Instant`] named by
//!   a fixed [`Stage`] vocabulary. A span records its duration into the
//!   process-wide per-stage histograms, into the active request's trace
//!   context (for the server's per-response `timing` map) and, when the
//!   NDJSON sink is on, as one trace line. When no sink is configured and no
//!   request context is installed anywhere, creating a span is a single
//!   relaxed atomic load and nothing else — no clock read, no allocation.
//! * **Trace contexts** ([`with_request`] / [`with_context`]) — a per-request
//!   collector keyed by a trace id minted with [`next_trace_id`]. Contexts
//!   propagate across `nshot_par::par_map` worker threads, so per-signal
//!   minimization and Monte-Carlo chunks are attributed to the request that
//!   spawned them.
//! * **Registry** ([`Registry`]) — named counters, gauges and fixed-bucket
//!   power-of-two-µs histograms ([`Histogram`]), renderable as
//!   Prometheus text exposition. A process-global registry
//!   ([`Registry::global`]) holds the pipeline-stage histograms and the
//!   espresso-cache counters; the server additionally keeps a per-instance
//!   registry for its own counters.
//! * **NDJSON sink** ([`set_trace`], env `NSHOT_TRACE=path|stderr`) — one
//!   JSON object per finished span, written through lock-striped buffers so
//!   concurrent workers do not serialize on a single writer mutex. Off by
//!   default; the enabled check is one atomic.
//! * **Flight recorder** ([`event`] / [`dump`], env
//!   `NSHOT_FLIGHT=path|stderr`, [`DEFAULT_FLIGHT_CAP`] events) — a bounded
//!   lock-striped ring of structured events with sequence numbers, dumped
//!   on demand or automatically on panic via a chained hook
//!   ([`install_panic_hook`], which also flushes the trace sink).
//! * **Progress heartbeats** ([`Progress`], env
//!   `NSHOT_PROGRESS=path|stderr`, [`DEFAULT_PROGRESS_INTERVAL_MS`]) —
//!   per-job gauge fields plus a monotonic reporter thread emitting
//!   periodic NDJSON heartbeat lines, for minutes-long batch jobs (the
//!   model checker, fuzz sweeps) that otherwise say nothing until done.
//!
//! Determinism: tracing never influences synthesis results. Spans,
//! events and heartbeats observe, they do not participate — the
//! byte-identity tests run with the sink/recorder/heartbeats on and off
//! and require identical netlists, verdicts and certificates.

pub mod progress;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod span;
mod target;

pub use progress::{
    progress_enabled, set_progress, HeartbeatGuard, Progress, DEFAULT_PROGRESS_INTERVAL_MS,
};
pub use recorder::{
    dump, event, flight_enabled, flight_events, install_panic_hook, set_flight, DEFAULT_FLIGHT_CAP,
};
pub use registry::{CacheStats, Counter, Gauge, Histogram, Registry, NUM_BUCKETS};
pub use sink::{flush_trace, set_trace};
pub use span::{
    current_context, next_trace_id, span, stage_histograms, trace_enabled, with_context,
    with_request, SpanGuard, Stage, StageTimings, TraceContext, PIPELINE_STAGES, STAGES,
};
pub use target::TraceTarget;
