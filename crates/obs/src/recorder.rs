//! The flight recorder: a bounded, lock-striped ring buffer of structured
//! events that survives until someone asks for it.
//!
//! Long-running batch jobs (model-checker sweeps, fuzz campaigns, the
//! server under load) hit failure modes that a post-hoc log cannot
//! explain: the interesting history is the last few thousand events
//! *before* the crash. The recorder keeps exactly that — a fixed-capacity
//! ring of `(seq, at_us, thread, kind, detail)` events — and writes it out
//! on demand ([`dump`]) or automatically on panic (via the chained hook
//! installed by [`install_panic_hook`]).
//!
//! Design mirrors the NDJSON trace sink:
//!
//! * **Off-path cost is one relaxed atomic load.** [`event`] takes the
//!   detail as a closure so the formatting never runs while the recorder
//!   is off.
//! * **Lock striping.** Events are spread over 8 stripes by sequence
//!   number (`seq % 8`), so concurrent writers rarely contend and — unlike
//!   striping by thread — the ring still retains exactly the newest
//!   `capacity` events overall: each stripe holds the newest
//!   `capacity / 8` of its residue class.
//! * **Bounded.** Each stripe is a `VecDeque` capped at
//!   `capacity / 8`; recording is O(1) and never allocates once the ring
//!   is warm (beyond the detail string itself).
//!
//! Enabled by the environment (`NSHOT_FLIGHT=stderr` or
//! `NSHOT_FLIGHT=/path/to/file`, [`DEFAULT_FLIGHT_CAP`] events) or
//! programmatically with [`set_flight`]. A dump is one JSON object per
//! event, oldest first, in sequence order:
//!
//! ```json
//! {"flight":17,"at_us":109211,"thread":3,"kind":"slow_request","detail":"..."}
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::target::{lock, open_env, Gate, TraceTarget};

const STRIPES: usize = 8;

/// Ring capacity (events) of a recorder enabled by `NSHOT_FLIGHT`.
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// One recorded event.
#[derive(Debug, Clone)]
struct Event {
    seq: u64,
    at_us: u64,
    thread: u64,
    kind: &'static str,
    detail: String,
}

struct Recorder {
    cap_per_stripe: usize,
    stripes: [Mutex<VecDeque<Event>>; STRIPES],
    seq: AtomicU64,
    target: TraceTarget,
}

impl Recorder {
    fn new(target: TraceTarget, capacity: usize) -> Recorder {
        // At least one slot per stripe so tiny capacities still record.
        let cap_per_stripe = (capacity.max(STRIPES)).div_ceil(STRIPES);
        Recorder {
            cap_per_stripe,
            stripes: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            seq: AtomicU64::new(0),
            target,
        }
    }

    fn record(&self, kind: &'static str, detail: String) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            seq,
            at_us: crate::span::now_us(),
            thread: crate::sink::thread_no(),
            kind,
            detail,
        };
        let mut stripe = lock(&self.stripes[(seq as usize) % STRIPES]);
        if stripe.len() >= self.cap_per_stripe {
            // A straggler whose slot was already evicted is dropped, so
            // the ring retains exactly the newest events per stripe even
            // when sequence allocation and insertion race across threads.
            if stripe.front().is_some_and(|f| f.seq > ev.seq) {
                return;
            }
            stripe.pop_front();
        }
        // Keep the stripe seq-sorted; a racing writer lands at most a few
        // slots from the back.
        let pos = stripe
            .iter()
            .rposition(|e| e.seq < ev.seq)
            .map_or(0, |p| p + 1);
        stripe.insert(pos, ev);
    }

    /// All retained events, oldest first. Non-destructive.
    fn snapshot(&self) -> Vec<Event> {
        let mut all: Vec<Event> = Vec::new();
        for s in &self.stripes {
            all.extend(lock(s).iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
    }
}

static FLIGHT: Gate = Gate::new();
static RECORDER: Mutex<Option<Arc<Recorder>>> = Mutex::new(None);

fn current_recorder() -> Option<Arc<Recorder>> {
    lock(&RECORDER).clone()
}

/// Install (or remove, with `None`) the flight recorder with the given
/// event capacity. Takes precedence over `NSHOT_FLIGHT`. Installing also
/// installs the chained panic hook so a crash dumps the ring.
pub fn set_flight(target: Option<TraceTarget>, capacity: usize) {
    let new = target.map(|t| Arc::new(Recorder::new(t, capacity)));
    let on = new.is_some();
    *lock(&RECORDER) = new;
    FLIGHT.set(on);
    if on {
        install_panic_hook();
    }
}

/// Resolve `NSHOT_FLIGHT` from its value: the target must open, or the
/// recorder stays off.
fn init(value: Option<&str>) {
    let target = open_env("NSHOT_FLIGHT", value).map(|(target, _)| target);
    set_flight(target, DEFAULT_FLIGHT_CAP);
}

/// Is the flight recorder on? Off path: one relaxed atomic load.
#[inline]
pub fn flight_enabled() -> bool {
    FLIGHT.on(|| init(std::env::var("NSHOT_FLIGHT").ok().as_deref()))
}

/// Record an event. The `detail` closure only runs when the recorder is
/// on, so call sites pay one relaxed load (and a dead branch) when it is
/// off — the formatting cost exists only on the enabled path.
#[inline]
pub fn event(kind: &'static str, detail: impl FnOnce() -> String) {
    if !flight_enabled() {
        return;
    }
    if let Some(r) = current_recorder() {
        r.record(kind, detail());
    }
}

/// Write the retained events (oldest first) to the recorder's target as
/// NDJSON. Non-destructive: the ring keeps recording afterwards and a
/// later dump rewrites the file with the then-current contents. A no-op
/// when the recorder is off.
pub fn dump() {
    let Some(r) = current_recorder() else { return };
    let events = r.snapshot();
    let mut out = String::with_capacity(events.len() * 96);
    use std::fmt::Write as _;
    for e in &events {
        let _ = writeln!(
            out,
            "{{\"flight\":{},\"at_us\":{},\"thread\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            e.seq,
            e.at_us,
            e.thread,
            escape_json(e.kind),
            escape_json(&e.detail)
        );
    }
    // Opening truncates: each dump rewrites the target whole.
    if let Ok(mut target) = r.target.open() {
        target.write(out.as_bytes());
    }
}

/// The retained events as `(seq, kind, detail)`, oldest first. Test and
/// triage hook; empty when the recorder is off.
pub fn flight_events() -> Vec<(u64, String, String)> {
    match current_recorder() {
        Some(r) => r
            .snapshot()
            .into_iter()
            .map(|e| (e.seq, e.kind.to_string(), e.detail))
            .collect(),
        None => Vec::new(),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Install a panic hook that preserves observability on crash: it records
/// the panic as a flight event, flushes the NDJSON trace sink's striped
/// buffers, dumps the flight recorder, then chains to the previously
/// installed hook (so the default backtrace still prints). Idempotent —
/// the hook is installed once per process; enabling the trace sink or the
/// flight recorder installs it automatically.
pub fn install_panic_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            event("panic", || info.to_string());
            crate::sink::flush_trace();
            dump();
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder slot and FLIGHT word are process-global; recorder tests
    // share the span test lock so they do not fight other global-state
    // tests in this crate.
    #[test]
    fn escape_json_handles_quotes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn unopenable_env_target_resolves_flight_off() {
        let _l = crate::span::test_lock();
        let bad = std::env::temp_dir().join("nshot_obs_no_such_dir/flight.ndjson");
        init(bad.to_str());
        assert!(current_recorder().is_none());
        assert!(!FLIGHT.on(|| unreachable!("gate left unresolved")));
        event("never", || unreachable!("off path must stay lazy"));
    }
}
