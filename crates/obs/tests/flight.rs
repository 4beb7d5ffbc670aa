//! Flight-recorder behaviour: ring wrap, concurrent writers, off-path
//! laziness, and the dump-on-panic hook.
//!
//! The recorder is process-global, so every test serializes on one lock
//! and re-installs its own recorder. This file is its own test binary —
//! the panic-hook test does not interfere with the crate's unit tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use nshot_obs::{event, flight_enabled, flight_events, set_flight, TraceTarget};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nshot_flight_{}_{}", std::process::id(), name))
}

#[test]
fn ring_retains_exactly_the_newest_capacity_events() {
    let _s = serial();
    let path = tmp_path("wrap.ndjson");
    set_flight(Some(TraceTarget::File(path.clone())), 64);
    for i in 0..200u64 {
        event("tick", || format!("i={i}"));
    }
    let events = flight_events();
    set_flight(None, 0);
    let _ = std::fs::remove_file(&path);
    assert_eq!(events.len(), 64, "capacity bounds the ring");
    // seq-striped ring: the survivors are exactly the newest 64, in order.
    let seqs: Vec<u64> = events.iter().map(|e| e.0).collect();
    assert_eq!(seqs, (136..200).collect::<Vec<u64>>());
    assert_eq!(events[0].1, "tick");
    assert_eq!(events[0].2, "i=136");
    assert_eq!(events.last().unwrap().2, "i=199");
}

#[test]
fn concurrent_writers_keep_the_ring_bounded_and_ordered() {
    let _s = serial();
    let path = tmp_path("conc.ndjson");
    set_flight(Some(TraceTarget::File(path.clone())), 256);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            s.spawn(move || {
                for i in 0..100u64 {
                    event("worker", || format!("t={t} i={i}"));
                }
            });
        }
    });
    let events = flight_events();
    set_flight(None, 0);
    let _ = std::fs::remove_file(&path);
    assert_eq!(events.len(), 256);
    // Sequence numbers come from one global counter: the retained window
    // is exactly the newest 256 of the 800 recorded, strictly ascending.
    let seqs: Vec<u64> = events.iter().map(|e| e.0).collect();
    assert_eq!(seqs, (544..800).collect::<Vec<u64>>());
}

#[test]
fn disabled_recorder_never_runs_the_detail_closure() {
    let _s = serial();
    set_flight(None, 0);
    assert!(!flight_enabled());
    let ran = AtomicBool::new(false);
    event("never", || {
        ran.store(true, Ordering::Relaxed);
        String::new()
    });
    assert!(!ran.load(Ordering::Relaxed), "off path must stay lazy");
    assert!(flight_events().is_empty());
}

#[test]
fn explicit_dump_is_nondestructive_ndjson() {
    let _s = serial();
    let path = tmp_path("dump.ndjson");
    set_flight(Some(TraceTarget::File(path.clone())), 16);
    event("alpha", || "first \"quoted\" detail".to_string());
    event("beta", || "second\nline".to_string());
    nshot_obs::dump();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].starts_with("{\"flight\":0,"), "{}", lines[0]);
    assert!(lines[0].contains("\"kind\":\"alpha\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"detail\":\"first \\\"quoted\\\" detail\""),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"detail\":\"second\\nline\""), "{}", lines[1]);
    for line in &lines {
        assert!(line.contains("\"at_us\":"), "{line}");
        assert!(line.contains("\"thread\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    // Non-destructive: the ring still holds both events and keeps
    // recording; a later dump sees all three.
    assert_eq!(flight_events().len(), 2);
    event("gamma", String::new);
    nshot_obs::dump();
    let text2 = std::fs::read_to_string(&path).unwrap();
    set_flight(None, 0);
    let _ = std::fs::remove_file(&path);
    assert_eq!(text2.lines().count(), 3, "{text2}");
}

#[test]
fn panic_dumps_the_ring_through_the_chained_hook() {
    let _s = serial();
    let path = tmp_path("panic.ndjson");
    set_flight(Some(TraceTarget::File(path.clone())), 32);
    event("before_crash", || "state at the brink".to_string());
    let result = std::panic::catch_unwind(|| {
        panic!("flight-recorder test panic (expected)");
    });
    assert!(result.is_err());
    // The hook ran at panic time, before unwinding reached catch_unwind:
    // the dump file already holds the pre-panic event plus the panic
    // itself as the final event.
    let text = std::fs::read_to_string(&path).unwrap();
    set_flight(None, 0);
    let _ = std::fs::remove_file(&path);
    assert!(
        text.contains("\"kind\":\"before_crash\""),
        "pre-panic events survive: {text}"
    );
    let last = text.lines().last().unwrap();
    assert!(last.contains("\"kind\":\"panic\""), "{last}");
    assert!(
        last.contains("flight-recorder test panic (expected)"),
        "{last}"
    );
}
