//! Spans, trace contexts and the fixed pipeline-stage vocabulary.
//!
//! A span is an RAII guard over [`Instant`]: created at a stage boundary,
//! it records the stage's duration when dropped. Where the measurement goes
//! depends on what is active:
//!
//! * always (when the span is live at all): the process-global per-stage
//!   histogram `nshot_stage_duration_us{stage="…"}` in
//!   [`Registry::global`];
//! * when a [`TraceContext`] is installed on the thread: the context's
//!   span list, aggregated into the server's per-response `timing` map;
//! * when the NDJSON sink is on: one trace line with the enclosing span
//!   stack.
//!
//! The whole machine is gated by one `AtomicU32`:
//!
//! ```text
//! bit 0  initialized (env NSHOT_TRACE has been consulted)
//! bit 1  sink on
//! bits 2..  number of installed trace contexts, process-wide
//! ```
//!
//! When the state word equals exactly `1` — initialized, sink off, no
//! request in flight anywhere — [`span`] returns an inert guard after a
//! single relaxed load: no clock read, no thread-local access, no
//! allocation. That is the disabled-path contract the tier-1 overhead
//! gate enforces.
//!
//! Spans on threads that have no context installed stay inert while the
//! sink is off, even if other threads are tracing requests: stage
//! histograms only ever contain *attributed* work.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::registry::{Histogram, Registry};
use crate::target::lock;

/// A pipeline stage (the fixed span vocabulary). The first seven are the
/// synthesis pipeline proper; `MonteCarlo` covers conformance validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Lexing + parsing of the `.sg` / `.graph` source.
    Parse,
    /// STG reachability / state-graph construction.
    Elaborate,
    /// CSC + semi-modularity preconditions and ER/QR/TR region derivation.
    Classify,
    /// Two-level minimization (ESPRESSO or exact).
    Minimize,
    /// Theorem 1 trigger-signal requirement check.
    TriggerCheck,
    /// Eq. 1 delay/compensation requirement and critical path.
    DelayCheck,
    /// Netlist assembly, sharing and dedupe.
    Emit,
    /// Monte-Carlo conformance trials.
    MonteCarlo,
    /// Exhaustive model checking (`nshot-mc` state-space exploration).
    ModelCheck,
}

/// All stages, in canonical (pipeline) order.
pub const STAGES: [Stage; 9] = [
    Stage::Parse,
    Stage::Elaborate,
    Stage::Classify,
    Stage::Minimize,
    Stage::TriggerCheck,
    Stage::DelayCheck,
    Stage::Emit,
    Stage::MonteCarlo,
    Stage::ModelCheck,
];

/// The seven synthesis-pipeline stages (everything but Monte-Carlo).
pub const PIPELINE_STAGES: [Stage; 7] = [
    Stage::Parse,
    Stage::Elaborate,
    Stage::Classify,
    Stage::Minimize,
    Stage::TriggerCheck,
    Stage::DelayCheck,
    Stage::Emit,
];

impl Stage {
    /// The stable wire name of the stage (metric label, trace `span`
    /// field, `timing` map key).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Elaborate => "elaborate",
            Stage::Classify => "classify",
            Stage::Minimize => "minimize",
            Stage::TriggerCheck => "trigger_check",
            Stage::DelayCheck => "delay_check",
            Stage::Emit => "emit",
            Stage::MonteCarlo => "monte_carlo",
            Stage::ModelCheck => "model_check",
        }
    }

    /// Position in [`STAGES`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

// --- global state word -----------------------------------------------------

pub(crate) static STATE: AtomicU32 = AtomicU32::new(0);
pub(crate) const INIT: u32 = 1;
pub(crate) const SINK_ON: u32 = 2;
const CTX_UNIT: u32 = 4;

/// The state word, initializing from the environment on first use.
#[inline]
fn state() -> u32 {
    let s = STATE.load(Ordering::Relaxed);
    if s & INIT == 0 {
        init_slow()
    } else {
        s
    }
}

#[cold]
fn init_slow() -> u32 {
    let _ = epoch();
    crate::sink::init_from_env();
    STATE.fetch_or(INIT, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed)
}

/// Flip the sink bit (and mark initialized, so a programmatic
/// [`crate::sink::set_trace`] wins over the environment).
pub(crate) fn set_sink_flag(on: bool) {
    let _ = epoch();
    if on {
        STATE.fetch_or(INIT | SINK_ON, Ordering::Relaxed);
    } else {
        STATE.fetch_or(INIT, Ordering::Relaxed);
        STATE.fetch_and(!SINK_ON, Ordering::Relaxed);
    }
}

/// Is the trace sink currently on?
pub fn trace_enabled() -> bool {
    state() & SINK_ON != 0
}

/// Process epoch: trace `start_us` offsets are relative to this instant,
/// so a trace is deterministic modulo the one process start time.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn epoch_us(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_micros() as u64
}

/// Microseconds since the process epoch right now (flight-recorder
/// event timestamps share the trace sink's clock).
pub(crate) fn now_us() -> u64 {
    epoch_us(Instant::now())
}

// --- trace contexts --------------------------------------------------------

#[derive(Debug)]
struct CtxInner {
    trace_id: u64,
    spans: Mutex<Vec<(Stage, u64)>>,
}

/// A per-request collector of finished spans, shared (via `Arc`) between
/// the thread that owns the request and any `par_map` workers it spawns.
#[derive(Debug, Clone)]
pub struct TraceContext(Arc<CtxInner>);

impl TraceContext {
    /// A fresh context for request `trace_id`.
    pub fn new(trace_id: u64) -> Self {
        TraceContext(Arc::new(CtxInner {
            trace_id,
            spans: Mutex::new(Vec::new()),
        }))
    }

    /// The request's trace id.
    pub fn trace_id(&self) -> u64 {
        self.0.trace_id
    }

    fn record(&self, stage: Stage, us: u64) {
        lock(&self.0.spans).push((stage, us));
    }

    /// Aggregate the finished spans into per-stage totals.
    pub fn timings(&self) -> StageTimings {
        let mut count = [0u64; STAGES.len()];
        let mut total = [0u64; STAGES.len()];
        for &(stage, us) in lock(&self.0.spans).iter() {
            count[stage.index()] += 1;
            total[stage.index()] += us;
        }
        let entries = STAGES
            .iter()
            .filter(|s| count[s.index()] > 0)
            .map(|&s| (s, count[s.index()], total[s.index()]))
            .collect();
        StageTimings { entries }
    }
}

/// Per-stage `(stage, span count, total µs)` aggregates of one request, in
/// canonical [`STAGES`] order; stages with no spans are omitted.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    entries: Vec<(Stage, u64, u64)>,
}

impl StageTimings {
    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The aggregated entries.
    pub fn entries(&self) -> &[(Stage, u64, u64)] {
        &self.entries
    }

    /// `(span count, total µs)` for one stage, if it ran.
    pub fn get(&self, stage: Stage) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .find(|e| e.0 == stage)
            .map(|e| (e.1, e.2))
    }

    /// Render as a JSON object `{"parse":12,…}` mapping stage name to
    /// total µs, in canonical order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{");
        for (i, (stage, _, us)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", stage.name(), us);
        }
        out.push('}');
        out
    }
}

// --- thread-local span machinery -------------------------------------------

#[derive(Default)]
struct Local {
    ctx: Option<TraceContext>,
    stack: Vec<&'static str>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::default();
}

/// Mint a fresh process-unique trace id (monotone from 1).
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The trace context installed on this thread, if any. `par_map` captures
/// this before spawning workers and re-installs it inside them with
/// [`with_context`].
pub fn current_context() -> Option<TraceContext> {
    LOCAL
        .try_with(|l| l.borrow().ctx.clone())
        .ok()
        .flatten()
}

struct ContextGuard {
    prev: Option<TraceContext>,
}

impl ContextGuard {
    fn install(ctx: TraceContext) -> ContextGuard {
        let _ = state();
        let prev = LOCAL.with(|l| l.borrow_mut().ctx.replace(ctx));
        STATE.fetch_add(CTX_UNIT, Ordering::Relaxed);
        ContextGuard { prev }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        STATE.fetch_sub(CTX_UNIT, Ordering::Relaxed);
        let prev = self.prev.take();
        let _ = LOCAL.try_with(|l| {
            if let Ok(mut l) = l.try_borrow_mut() {
                l.ctx = prev;
            }
        });
    }
}

/// Run `f` with `ctx` installed as this thread's trace context (restored
/// on return, including on panic). `None` runs `f` untouched, so worker
/// threads can call this unconditionally with whatever
/// [`current_context`] returned on the spawning thread.
pub fn with_context<R>(ctx: Option<TraceContext>, f: impl FnOnce() -> R) -> R {
    match ctx {
        Some(ctx) => {
            let _g = ContextGuard::install(ctx);
            f()
        }
        None => f(),
    }
}

/// Run `f` as request `trace_id`: a fresh [`TraceContext`] is installed
/// for the duration, and the aggregated per-stage timings are returned
/// alongside `f`'s result.
pub fn with_request<R>(trace_id: u64, f: impl FnOnce() -> R) -> (R, StageTimings) {
    let ctx = TraceContext::new(trace_id);
    let r = with_context(Some(ctx.clone()), f);
    let timings = ctx.timings();
    (r, timings)
}

/// The process-global per-stage duration histograms, indexed by
/// [`Stage::index`]. First use registers all of them (with zero counts)
/// in [`Registry::global`], so a `metrics` scrape sees every stage even
/// before traffic arrives.
pub fn stage_histograms() -> &'static [Arc<Histogram>; STAGES.len()] {
    static CACHE: OnceLock<[Arc<Histogram>; STAGES.len()]> = OnceLock::new();
    CACHE.get_or_init(|| {
        std::array::from_fn(|i| {
            Registry::global().histogram(&format!(
                "nshot_stage_duration_us{{stage=\"{}\"}}",
                STAGES[i].name()
            ))
        })
    })
}

// --- the span guard --------------------------------------------------------

struct ActiveSpan {
    stage: Stage,
    start: Instant,
    ctx: Option<TraceContext>,
    sink_on: bool,
}

/// RAII guard returned by [`span`]; records the stage duration on drop.
/// Inert (a no-op shell) when tracing is fully disabled.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records ~0µs"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// True when this guard will record something on drop.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

/// Open a span for `stage`. Fast path (sink off, no request in flight
/// anywhere in the process): one relaxed atomic load, nothing else.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    if STATE.load(Ordering::Relaxed) == INIT {
        return SpanGuard { active: None };
    }
    span_slow(stage)
}

#[cold]
fn span_slow(stage: Stage) -> SpanGuard {
    let s = state();
    if s == INIT {
        return SpanGuard { active: None };
    }
    let sink_on = s & SINK_ON != 0;
    let ctx = current_context();
    if ctx.is_none() && !sink_on {
        // Contexts exist, but on other threads; this span is unattributed.
        return SpanGuard { active: None };
    }
    let _ = LOCAL.try_with(|l| l.borrow_mut().stack.push(stage.name()));
    SpanGuard {
        active: Some(ActiveSpan {
            stage,
            start: Instant::now(),
            ctx,
            sink_on,
        }),
    }
}

/// Pop this span's frame off the thread's stack and return the enclosing
/// stack rendered as `outer;inner` (including the span itself).
fn pop_stack(name: &'static str) -> String {
    LOCAL
        .try_with(|l| {
            let mut l = match l.try_borrow_mut() {
                Ok(l) => l,
                Err(_) => return name.to_owned(),
            };
            match l.stack.iter().rposition(|&n| std::ptr::eq(n, name)) {
                Some(pos) => {
                    let joined = l.stack[..=pos].join(";");
                    // Anything deeper than us was leaked across an unwind;
                    // drop it along with our own frame.
                    l.stack.truncate(pos);
                    joined
                }
                None => name.to_owned(),
            }
        })
        .unwrap_or_else(|_| name.to_owned())
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let us = a.start.elapsed().as_micros() as u64;
            stage_histograms()[a.stage.index()].record(us);
            if let Some(ctx) = &a.ctx {
                ctx.record(a.stage, us);
            }
            let stack = pop_stack(a.stage.name());
            if a.sink_on {
                let trace = a.ctx.as_ref().map_or(0, |c| c.trace_id());
                crate::sink::write_span(trace, a.stage.name(), &stack, epoch_us(a.start), us);
            }
        }
    }
}

// The sink and the ctx-count bits are process-global; tests that rely on
// exact global state serialize on this.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn stage_names_and_order_are_stable() {
        let names: Vec<_> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "elaborate",
                "classify",
                "minimize",
                "trigger_check",
                "delay_check",
                "emit",
                "monte_carlo",
                "model_check"
            ]
        );
        assert_eq!(PIPELINE_STAGES.len(), 7);
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _l = test_lock();
        let _ = crate::sink::set_trace(None);
        let g = span(Stage::Minimize);
        assert!(!g.is_active(), "no sink, no context → inert");
    }

    #[test]
    fn with_request_collects_nested_spans() {
        let _l = test_lock();
        let _ = crate::sink::set_trace(None);
        let (value, t) = with_request(next_trace_id(), || {
            {
                let _p = span(Stage::Parse);
            }
            for _ in 0..3 {
                let _m = span(Stage::Minimize);
                std::hint::black_box(());
            }
            42
        });
        assert_eq!(value, 42);
        assert!(!t.is_empty());
        assert_eq!(t.get(Stage::Parse).unwrap().0, 1);
        assert_eq!(t.get(Stage::Minimize).unwrap().0, 3);
        assert_eq!(t.get(Stage::Emit), None);
        // Canonical order: parse before minimize.
        let stages: Vec<_> = t.entries().iter().map(|e| e.0).collect();
        assert_eq!(stages, vec![Stage::Parse, Stage::Minimize]);
        let json = t.to_json();
        assert!(json.starts_with("{\"parse\":"), "json = {json}");
        assert!(json.contains("\"minimize\":"));
    }

    #[test]
    fn context_does_not_leak_after_request() {
        let _l = test_lock();
        let _ = crate::sink::set_trace(None);
        let ((), t) = with_request(next_trace_id(), || {
            assert!(current_context().is_some());
        });
        assert!(current_context().is_none());
        assert!(t.is_empty());
        // And spans opened after the request are inert again (modulo other
        // tests' contexts, which test_lock keeps out).
        assert!(!span(Stage::Parse).is_active());
    }

    #[test]
    fn context_propagates_to_other_threads_by_hand() {
        let _l = test_lock();
        let _ = crate::sink::set_trace(None);
        let ((), t) = with_request(next_trace_id(), || {
            let ctx = current_context();
            std::thread::scope(|s| {
                s.spawn(|| {
                    with_context(ctx.clone(), || {
                        let _g = span(Stage::MonteCarlo);
                    });
                });
            });
        });
        assert_eq!(t.get(Stage::MonteCarlo).unwrap().0, 1);
    }

    #[test]
    fn panic_unwind_restores_context_and_stack() {
        let _l = test_lock();
        let _ = crate::sink::set_trace(None);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_request(next_trace_id(), || {
                let _outer = span(Stage::Classify);
                let _inner = span(Stage::Minimize);
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        // Context is uninstalled and the stack drained by the unwinding
        // guards, so the next request starts clean.
        assert!(current_context().is_none());
        let ((), t) = with_request(next_trace_id(), || {
            let _g = span(Stage::Emit);
        });
        assert_eq!(t.entries().len(), 1);
        assert_eq!(t.get(Stage::Emit).unwrap().0, 1);
        LOCAL.with(|l| assert!(l.borrow().stack.is_empty()));
    }

    #[test]
    fn trace_ids_are_unique_and_monotone() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(b > a);
    }

    #[test]
    fn stage_histograms_cover_every_stage() {
        let hs = stage_histograms();
        assert_eq!(hs.len(), STAGES.len());
        let text = Registry::global().render_prometheus();
        for s in STAGES {
            assert!(
                text.contains(&format!("stage=\"{}\"", s.name())),
                "missing {} in exposition",
                s.name()
            );
        }
    }
}
