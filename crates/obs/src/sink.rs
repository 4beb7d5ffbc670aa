//! The NDJSON trace sink.
//!
//! One JSON object per finished span, newline-terminated, fixed field
//! order:
//!
//! ```json
//! {"trace":7,"span":"minimize","stack":"minimize","start_us":1234,"us":87,"thread":2}
//! ```
//!
//! `trace` is the request's trace id (0 for unattributed spans), `stack`
//! the `;`-joined enclosing span stack on that thread, `start_us` the
//! span's start offset from the process epoch, `us` its duration,
//! `thread` a small process-local thread number. The output is
//! deterministic modulo timestamps and line interleaving across threads.
//!
//! Off by default. Enabled by the environment (`NSHOT_TRACE=stderr` or
//! `NSHOT_TRACE=/path/to/file`, consulted once on first span) or
//! programmatically with [`set_trace`] (which wins over the environment).
//! Writes go through 8 lock-striped string buffers keyed by thread
//! number, flushed to the shared output at 32 KiB, so concurrent workers
//! do not serialize on one writer mutex; no lock is ever held while
//! taking another.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::target::{lock, open_env, Output, TraceTarget};

const STRIPES: usize = 8;
const FLUSH_AT: usize = 32 * 1024;

struct Sink {
    out: Mutex<Output>,
    stripes: [Mutex<String>; STRIPES],
}

impl Sink {
    /// Drain every stripe into the output. Stripe contents are collected
    /// first so no two locks are held at once.
    fn flush_all(&self) {
        let chunks: Vec<String> = self
            .stripes
            .iter()
            .map(|s| std::mem::take(&mut *lock(s)))
            .filter(|c| !c.is_empty())
            .collect();
        let mut out = lock(&self.out);
        for c in &chunks {
            out.write(c.as_bytes());
        }
    }
}

static SINK: Mutex<Option<Arc<Sink>>> = Mutex::new(None);

fn current_sink() -> Option<Arc<Sink>> {
    lock(&SINK).clone()
}

/// A small, stable, process-local number for the current thread (used for
/// the trace `thread` field and stripe selection, and by the flight
/// recorder's event records).
pub(crate) fn thread_no() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static NO: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NO.try_with(|n| *n).unwrap_or(u64::MAX)
}

/// Install (or remove, with `None`) the trace sink. The previous sink, if
/// any, is flushed first. Takes precedence over `NSHOT_TRACE`; tests use
/// this to trace into temp files without touching the environment.
pub fn set_trace(target: Option<TraceTarget>) -> io::Result<()> {
    flush_trace();
    install(target.map(|t| t.open()).transpose()?);
    Ok(())
}

fn install(out: Option<Output>) {
    let on = out.is_some();
    *lock(&SINK) = out.map(|out| {
        Arc::new(Sink {
            out: Mutex::new(out),
            stripes: std::array::from_fn(|_| Mutex::new(String::new())),
        })
    });
    crate::span::set_sink_flag(on);
    if on {
        // A worker that panics must not lose its buffered trace lines.
        crate::recorder::install_panic_hook();
    }
}

/// Consult `NSHOT_TRACE` once; a later [`set_trace`] still overrides.
pub(crate) fn init_from_env() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let value = std::env::var("NSHOT_TRACE").ok();
        if let Some((_, out)) = open_env("NSHOT_TRACE", value.as_deref()) {
            install(Some(out));
        }
    });
}

/// Drain all striped buffers to the underlying output.
/// Call before process exit (the `serve` bin does on graceful shutdown)
/// or before reading a trace file in tests.
pub fn flush_trace() {
    if let Some(s) = current_sink() {
        s.flush_all();
    }
}

/// Append one span line. Called from `SpanGuard::drop` when the sink bit
/// is set; tolerates the sink having been removed in between.
pub(crate) fn write_span(trace: u64, span: &str, stack: &str, start_us: u64, us: u64) {
    let sink = match current_sink() {
        Some(s) => s,
        None => return,
    };
    let t = thread_no();
    use std::fmt::Write as _;
    let mut line = String::with_capacity(96);
    let _ = writeln!(
        line,
        "{{\"trace\":{trace},\"span\":\"{span}\",\"stack\":\"{stack}\",\"start_us\":{start_us},\"us\":{us},\"thread\":{t}}}"
    );
    let stripe = &sink.stripes[(t as usize) % STRIPES];
    let mut buf = lock(stripe);
    buf.push_str(&line);
    if buf.len() >= FLUSH_AT {
        let chunk = std::mem::take(&mut *buf);
        drop(buf);
        lock(&sink.out).write(chunk.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{next_trace_id, span, trace_enabled, with_request, Stage};
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nshot_obs_{}_{}", std::process::id(), name))
    }

    #[test]
    fn ndjson_lines_cover_spans_with_stack_and_trace_id() {
        let _l = crate::span::test_lock();
        let path = tmp_path("sink.ndjson");
        set_trace(Some(TraceTarget::File(path.clone()))).unwrap();
        assert!(trace_enabled());
        let id = next_trace_id();
        let ((), _t) = with_request(id, || {
            let _outer = span(Stage::Classify);
            let _inner = span(Stage::Minimize);
        });
        set_trace(None).unwrap();
        assert!(!trace_enabled());

        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "two spans, two lines: {text}");
        // Inner span drops first.
        assert!(lines[0].contains("\"span\":\"minimize\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"stack\":\"classify;minimize\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"span\":\"classify\""), "{}", lines[1]);
        assert!(lines[1].contains("\"stack\":\"classify\""), "{}", lines[1]);
        for line in &lines {
            assert!(line.starts_with(&format!("{{\"trace\":{id},")), "{line}");
            assert!(line.contains("\"start_us\":"));
            assert!(line.contains("\"us\":"));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn unattributed_spans_trace_with_id_zero() {
        let _l = crate::span::test_lock();
        let path = tmp_path("sink_noctx.ndjson");
        set_trace(Some(TraceTarget::File(path.clone()))).unwrap();
        {
            let g = span(Stage::Parse);
            assert!(g.is_active(), "sink on → span active without a context");
        }
        set_trace(None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.starts_with("{\"trace\":0,\"span\":\"parse\""), "{text}");
    }

    #[test]
    fn set_trace_none_flushes_pending_lines() {
        let _l = crate::span::test_lock();
        let path = tmp_path("sink_flush.ndjson");
        set_trace(Some(TraceTarget::File(path.clone()))).unwrap();
        for _ in 0..10 {
            let _g = span(Stage::Emit);
        }
        // Buffers are well under the 32 KiB flush threshold, so the file
        // is only guaranteed complete after disabling (which flushes).
        set_trace(None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 10);
    }
}
