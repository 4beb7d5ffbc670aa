//! Output targets shared by the trace sink, the flight recorder and the
//! heartbeats: the one `stderr|path` environment parse, the one open, and
//! the on/off gate the recorder and the heartbeats resolve lazily.

use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock `m`, recovering the data of a poisoned mutex: a panicking
/// observer must not take observability down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where trace lines, flight-recorder dumps and heartbeats go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceTarget {
    /// Standard error of the process.
    Stderr,
    /// A file, created (truncated) each time the target is opened.
    File(PathBuf),
}

impl TraceTarget {
    /// Parse an environment value: unset or empty is off, `stderr` is
    /// [`TraceTarget::Stderr`], anything else a file path.
    pub(crate) fn parse(value: Option<&str>) -> Option<TraceTarget> {
        match value? {
            "" => None,
            "stderr" => Some(TraceTarget::Stderr),
            path => Some(TraceTarget::File(PathBuf::from(path))),
        }
    }

    /// Open for writing; a file is created or truncated.
    pub(crate) fn open(&self) -> io::Result<Output> {
        Ok(Output(match self {
            TraceTarget::Stderr => Box::new(io::stderr()),
            TraceTarget::File(path) => Box::new(std::fs::File::create(path)?),
        }))
    }
}

/// An opened [`TraceTarget`].
pub(crate) struct Output(Box<dyn Write + Send>);

impl Output {
    /// Write `bytes` whole and flush; errors are dropped (observability
    /// never fails the observed work).
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let _ = self.0.write_all(bytes).and_then(|()| self.0.flush());
    }
}

/// Resolve the value of environment variable `var`: parse and open it.
/// Unset, empty or unopenable (reported on stderr) is `None`: off.
pub(crate) fn open_env(var: &str, value: Option<&str>) -> Option<(TraceTarget, Output)> {
    let target = TraceTarget::parse(value)?;
    match target.open() {
        Ok(out) => Some((target, out)),
        Err(e) => {
            let value = value.unwrap_or_default();
            eprintln!("nshot-obs: cannot open {var}={value}: {e}");
            None
        }
    }
}

const OFF: u32 = 1;
const ON: u32 = 2;

/// The on/off word of a channel that the environment or a programmatic
/// setter switches: 0 until the environment is consulted, then `OFF` or
/// `ON`. Once resolved, the enabled check is one relaxed load.
pub(crate) struct Gate {
    state: AtomicU32,
    once: OnceLock<()>,
}

impl Gate {
    pub(crate) const fn new() -> Gate {
        Gate {
            state: AtomicU32::new(0),
            once: OnceLock::new(),
        }
    }

    /// Resolve the gate (a programmatic setter wins over the environment).
    pub(crate) fn set(&self, on: bool) {
        let state = if on { ON } else { OFF };
        self.state.store(state, Ordering::Relaxed);
    }

    /// Is the channel on? The first call runs `init` once, which must
    /// resolve the gate with [`Gate::set`].
    #[inline]
    pub(crate) fn on(&self, init: impl FnOnce()) -> bool {
        match self.state.load(Ordering::Relaxed) {
            OFF => false,
            ON => true,
            _ => self.resolve(init),
        }
    }

    #[cold]
    #[inline(never)]
    fn resolve(&self, init: impl FnOnce()) -> bool {
        self.once.get_or_init(init);
        self.state.load(Ordering::Relaxed) == ON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_to_targets() {
        let cases: [(Option<&str>, Option<TraceTarget>); 5] = [
            (None, None),
            (Some(""), None),
            (Some("stderr"), Some(TraceTarget::Stderr)),
            (Some("/tmp/t"), Some(TraceTarget::File("/tmp/t".into()))),
            (Some("rel/out"), Some(TraceTarget::File("rel/out".into()))),
        ];
        for (value, want) in cases {
            assert_eq!(TraceTarget::parse(value), want, "{value:?}");
        }
    }

    #[test]
    fn gate_runs_init_once_and_then_answers_from_the_word() {
        let gate = Gate::new();
        let mut runs = 0;
        assert!(!gate.on(|| {
            runs += 1;
            gate.set(false);
        }));
        assert!(!gate.on(|| unreachable!("resolved gates do not re-init")));
        assert_eq!(runs, 1);
        gate.set(true);
        assert!(gate.on(|| unreachable!()));
    }
}
