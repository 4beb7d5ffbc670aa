//! `nshot-serve` — run the N-SHOT synthesis service.
//!
//! ```text
//! nshot-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!             [--timeout-ms N] [--cache-cap N]
//!             [--store DIR] [--store-fsync always|batch|never]
//!             [--warm-store DIR] [--slow-ms N]
//! ```
//!
//! Defaults: loopback on an ephemeral port, workers = available
//! parallelism, queue 64, timeout 30 s, cache 1024 entries, no store,
//! slow-request log at 1000 ms (`--slow-ms 0` disables). Once the
//! listener is accepting, a single machine-readable `ready ADDR` line is
//! printed on stdout; parents and scripts wait for that line. With
//! `--store` the response cache is warmed from the persistent
//! artifact store at startup and every cache fill is persisted
//! write-behind, so a restarted service answers previously seen specs
//! from disk without recompiling. `--warm-store` warms from a directory
//! *without writing to it* (a read-only segment scan) — the mode shard
//! backends use so N processes can share one store. The process exits
//! after a graceful `{"op":"shutdown"}` request has drained all jobs,
//! printing the final store summary.

use nshot_server::{FsyncPolicy, Server, ServerConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("nshot-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be an integer".to_string())?;
            }
            "--queue-cap" => {
                config.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap must be an integer".to_string())?;
            }
            "--timeout-ms" => {
                config.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms must be an integer".to_string())?;
            }
            "--cache-cap" => {
                config.cache_cap = value("--cache-cap")?
                    .parse()
                    .map_err(|_| "--cache-cap must be an integer".to_string())?;
            }
            "--slow-ms" => {
                config.slow_ms = value("--slow-ms")?
                    .parse()
                    .map_err(|_| "--slow-ms must be an integer".to_string())?;
            }
            "--store" => config.store_dir = Some(value("--store")?.into()),
            "--warm-store" => config.warm_dir = Some(value("--warm-store")?.into()),
            "--store-fsync" => {
                config.store_fsync = FsyncPolicy::parse(&value("--store-fsync")?)?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: nshot-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
                     [--timeout-ms N] [--cache-cap N] \
                     [--store DIR] [--store-fsync always|batch|never] \
                     [--warm-store DIR] [--slow-ms N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    // The single machine-readable readiness line: everything a parent
    // needs (the listener is accepting, and where).
    println!("ready {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let report = server.wait();
    // Flush any buffered NDJSON trace lines before reporting — a trace
    // that loses its tail on graceful shutdown is worse than none.
    nshot_obs::flush_trace();
    eprintln!(
        "nshot-serve: served {} requests, queue high-water {}",
        report.served, report.queue_high_water
    );
    if let Some(store) = &report.store {
        eprintln!("nshot-serve: store {store}");
    }
    eprintln!("nshot-serve: final metrics snapshot:");
    for line in report.metrics.lines() {
        eprintln!("  {line}");
    }
    println!("nshot-server: drained, bye");
    Ok(())
}
