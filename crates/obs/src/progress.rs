//! Heartbeats for long-running batch jobs.
//!
//! A model-checker run or a thousand-seed fuzz sweep is a minutes-long
//! batch job; until it finishes, nothing in the process says whether it
//! is making progress or drowning. [`Progress`] is a tiny per-job handle:
//! the job registers named gauge fields, updates them from its hot loop
//! (plain relaxed atomic stores), and a monotonic reporter thread emits
//! one NDJSON heartbeat line per interval:
//!
//! ```json
//! {"hb":"mc:master-read","seq":3,"elapsed_ms":3012,"states":812331,
//!  "frontier":10233,"states_per_sec":270552,"final":false}
//! ```
//!
//! * Off by default; enabled by `NSHOT_PROGRESS=stderr` or
//!   `NSHOT_PROGRESS=/path/to/file` (one line per
//!   [`DEFAULT_PROGRESS_INTERVAL_MS`]), or programmatically with
//!   [`set_progress`]. The enabled check is one relaxed atomic load.
//! * Fields marked with [`Progress::rate`] additionally emit a
//!   `<name>_per_sec` value computed from deltas between heartbeats.
//! * [`Progress::start_reporter`] emits one line immediately and one
//!   final line (`"final":true`) when the guard drops, so even a job
//!   that finishes inside the first interval leaves ≥ 2 heartbeats.
//!
//! Determinism: heartbeats observe, they never steer. The reporter thread
//! only reads gauges the job also publishes when progress is off, so
//! verdicts, certificates and netlists are byte-identical with progress
//! on or off (the byte-identity tests in `nshot-mc` enforce this).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::recorder::escape_json;
use crate::registry::Gauge;
use crate::target::{lock, open_env, Gate, Output, TraceTarget};

/// Heartbeat interval.
pub const DEFAULT_PROGRESS_INTERVAL_MS: u64 = 1000;

static PROGRESS: Gate = Gate::new();
static OUT: Mutex<Option<Arc<Mutex<Output>>>> = Mutex::new(None);

/// Install (or remove, with `None`) the heartbeat output. Takes
/// precedence over `NSHOT_PROGRESS`. All jobs in the process share the
/// output; a `File` target is truncated once here and appended to by
/// every subsequent heartbeat.
pub fn set_progress(target: Option<TraceTarget>) -> io::Result<()> {
    install(target.map(|t| t.open()).transpose()?);
    Ok(())
}

fn install(out: Option<Output>) {
    let on = out.is_some();
    *lock(&OUT) = out.map(|out| Arc::new(Mutex::new(out)));
    PROGRESS.set(on);
}

/// Resolve `NSHOT_PROGRESS` from its value: the target must open, or
/// heartbeats stay off.
fn init(value: Option<&str>) {
    install(open_env("NSHOT_PROGRESS", value).map(|(_, out)| out));
}

/// Is heartbeat reporting on? Off path: one relaxed atomic load.
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS.on(|| init(std::env::var("NSHOT_PROGRESS").ok().as_deref()))
}

struct Field {
    name: &'static str,
    gauge: Arc<Gauge>,
    rate: bool,
    // (elapsed_ms, value) at the previous heartbeat, for rate fields.
    last: (u64, u64),
}

struct Inner {
    job: String,
    start: Instant,
    fields: Mutex<Vec<Field>>,
    seq: AtomicU64,
    out: Option<Arc<Mutex<Output>>>,
    stop: Mutex<bool>,
    cv: Condvar,
}

/// A per-job progress handle: named gauge fields plus a heartbeat
/// emitter. Cloneable (`Arc` inside); cheap to create even when
/// reporting is off.
#[derive(Clone)]
pub struct Progress {
    inner: Arc<Inner>,
}

impl Progress {
    /// A handle for the job named `job` (the heartbeat `"hb"` field).
    pub fn new(job: impl Into<String>) -> Progress {
        let out = if progress_enabled() {
            lock(&OUT).clone()
        } else {
            None
        };
        Progress {
            inner: Arc::new(Inner {
                job: job.into(),
                start: Instant::now(),
                fields: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                out,
                stop: Mutex::new(false),
                cv: Condvar::new(),
            }),
        }
    }

    /// Will this handle actually emit heartbeats? Jobs use this to skip
    /// per-iteration gauge updates entirely when nobody is listening.
    pub fn enabled(&self) -> bool {
        self.inner.out.is_some()
    }

    /// Register (or fetch) the gauge behind field `name`. Updating the
    /// gauge is a relaxed atomic store; the reporter thread reads it at
    /// each heartbeat.
    pub fn field(&self, name: &'static str) -> Arc<Gauge> {
        let mut fields = lock(&self.inner.fields);
        if let Some(f) = fields.iter().find(|f| f.name == name) {
            return f.gauge.clone();
        }
        let gauge = Arc::new(Gauge::default());
        fields.push(Field {
            name,
            gauge: gauge.clone(),
            rate: false,
            last: (0, 0),
        });
        gauge
    }

    /// Like [`field`](Progress::field), but the heartbeat additionally
    /// carries `<name>_per_sec` computed from inter-heartbeat deltas.
    pub fn rate(&self, name: &'static str) -> Arc<Gauge> {
        let gauge = self.field(name);
        let mut fields = lock(&self.inner.fields);
        if let Some(f) = fields.iter_mut().find(|f| f.name == name) {
            f.rate = true;
        }
        gauge
    }

    fn emit(&self, final_: bool) {
        let Some(out) = &self.inner.out else { return };
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let elapsed_ms = self.inner.start.elapsed().as_millis() as u64;
        use std::fmt::Write as _;
        let mut line = String::with_capacity(160);
        let _ = write!(
            line,
            "{{\"hb\":\"{}\",\"seq\":{seq},\"elapsed_ms\":{elapsed_ms}",
            escape_json(&self.inner.job)
        );
        let mut fields = lock(&self.inner.fields);
        for f in fields.iter_mut() {
            let v = f.gauge.get();
            let _ = write!(line, ",\"{}\":{v}", f.name);
            if f.rate {
                let (t0, v0) = f.last;
                let dt = elapsed_ms.saturating_sub(t0);
                let rate = v
                    .saturating_sub(v0)
                    .saturating_mul(1000)
                    .checked_div(dt)
                    .unwrap_or(0);
                let _ = write!(line, ",\"{}_per_sec\":{rate}", f.name);
                f.last = (elapsed_ms, v);
            }
        }
        drop(fields);
        let _ = write!(line, ",\"final\":{final_}}}");
        line.push('\n');
        lock(out).write(line.as_bytes());
    }

    /// Start the monotonic reporter thread: one heartbeat immediately,
    /// one per interval, and a `"final":true` line when the returned
    /// guard drops. When reporting is off this spawns nothing and the
    /// guard is inert.
    pub fn start_reporter(&self) -> HeartbeatGuard {
        if !self.enabled() {
            return HeartbeatGuard {
                progress: self.clone(),
                handle: None,
            };
        }
        self.emit(false);
        let inner = self.inner.clone();
        let p = self.clone();
        let handle = std::thread::Builder::new()
            .name("nshot-heartbeat".into())
            .spawn(move || loop {
                let interval = Duration::from_millis(DEFAULT_PROGRESS_INTERVAL_MS);
                let (stopped, _) = inner
                    .cv
                    .wait_timeout_while(lock(&inner.stop), interval, |stop| !*stop)
                    .unwrap_or_else(PoisonError::into_inner);
                if *stopped {
                    return;
                }
                drop(stopped);
                p.emit(false);
            })
            .ok();
        HeartbeatGuard {
            progress: self.clone(),
            handle,
        }
    }
}

/// RAII guard for the reporter thread: dropping it stops the thread and
/// emits the final heartbeat.
pub struct HeartbeatGuard {
    progress: Progress,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            *lock(&self.progress.inner.stop) = true;
            self.progress.inner.cv.notify_all();
            let _ = h.join();
            self.progress.emit(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeats_carry_fields_rates_and_final_marker() {
        let _l = crate::span::test_lock();
        let path = std::env::temp_dir().join(format!(
            "nshot_obs_progress_{}.ndjson",
            std::process::id()
        ));
        set_progress(Some(TraceTarget::File(path.clone()))).unwrap();
        let p = Progress::new("test:job");
        let states = p.rate("states");
        let frontier = p.field("frontier");
        {
            let _hb = p.start_reporter();
            states.set(1000);
            frontier.set(7);
        }
        set_progress(None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        // Opening line + final line (the interval is 1 s, so the timer
        // itself fired zero or more times in between).
        assert!(lines.len() >= 2, "{text}");
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with("{\"hb\":\"test:job\",\"seq\":"), "{line}");
            assert!(line.contains(&format!("\"seq\":{i},")), "{line}");
            assert!(line.contains("\"elapsed_ms\":"), "{line}");
            assert!(line.contains("\"states\":"), "{line}");
            assert!(line.contains("\"states_per_sec\":"), "{line}");
            assert!(line.contains("\"frontier\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"final\":false"), "{}", lines[0]);
        // The opening line is emitted at start, before the job's updates.
        assert!(lines[0].contains("\"states\":0,"), "{}", lines[0]);
        let last = lines.last().unwrap();
        assert!(last.contains("\"final\":true"), "{last}");
        assert!(last.contains("\"states\":1000"), "{last}");
        assert!(last.contains("\"frontier\":7"), "{last}");
    }

    #[test]
    fn disabled_progress_emits_nothing_and_guard_is_inert() {
        let _l = crate::span::test_lock();
        let _ = set_progress(None);
        let p = Progress::new("off:job");
        assert!(!p.enabled());
        let g = p.field("x");
        g.set(3);
        let _hb = p.start_reporter();
        // No writer installed → nothing to assert beyond not panicking,
        // and the reporter spawned no thread.
        assert!(_hb.handle.is_none());
    }

    #[test]
    fn unopenable_env_target_resolves_progress_off() {
        let _l = crate::span::test_lock();
        let bad = std::env::temp_dir().join("nshot_obs_no_such_dir/hb.ndjson");
        init(bad.to_str());
        assert!(lock(&OUT).is_none());
        // Resolved to off: the check never re-enters the cold path.
        assert!(!PROGRESS.on(|| unreachable!("gate left unresolved")));
        assert!(!Progress::new("off:job").enabled());
    }
}
