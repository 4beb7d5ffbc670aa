//! `nshot-shard` — the sharded serving front.
//!
//! ```text
//! nshot-shard --backends HOST:PORT,HOST:PORT,...   # front existing workers
//! nshot-shard --spawn N [--store DIR]              # spawn N local workers
//! ```
//!
//! Flags:
//!
//! * `--addr HOST:PORT` — front bind address (default `127.0.0.1:0`)
//! * `--backends LIST` — comma-separated backend addresses (shard id =
//!   position in the list)
//! * `--spawn N` — instead of `--backends`, spawn `N` local `nshot-serve`
//!   children on ephemeral ports and front them; children are discovered
//!   by their `ready ADDR` stdout line
//! * `--serve-bin PATH` — the `nshot-serve` binary for `--spawn` (default:
//!   sibling of this executable)
//! * `--store DIR` — with `--spawn`, pass the shared warm-start store to
//!   every child as `--warm-store DIR` (read-only scan: any number of
//!   children may warm from one directory)
//! * `--pool-cap N` — max concurrent proxied requests per backend
//!   (default 8)
//! * `--io-timeout-ms MS` — per-attempt backend IO timeout (default
//!   60000; 0 = OS defaults)
//!
//! The front prints its own `ready ADDR` line once accepting. A protocol
//! `shutdown` drains every backend (children exit on their own drain) and
//! then the front; the process reaps its children before exiting.

use nshot_shard::{ShardConfig, ShardFront};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

struct Options {
    config: ShardConfig,
    spawn: usize,
    serve_bin: Option<PathBuf>,
    store: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: ShardConfig::default(),
        spawn: 0,
        serve_bin: None,
        store: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.config.addr = value("--addr")?,
            "--backends" => {
                for part in value("--backends")?.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let addr: SocketAddr = part
                        .parse()
                        .map_err(|e| format!("--backends '{part}': {e}"))?;
                    opts.config.backends.push(addr);
                }
            }
            "--spawn" => {
                opts.spawn = value("--spawn")?
                    .parse()
                    .map_err(|e| format!("--spawn: {e}"))?;
            }
            "--serve-bin" => opts.serve_bin = Some(PathBuf::from(value("--serve-bin")?)),
            "--store" => opts.store = Some(PathBuf::from(value("--store")?)),
            "--pool-cap" => {
                opts.config.pool_cap = value("--pool-cap")?
                    .parse()
                    .map_err(|e| format!("--pool-cap: {e}"))?;
            }
            "--io-timeout-ms" => {
                opts.config.io_timeout_ms = value("--io-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--io-timeout-ms: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: nshot-shard (--backends HOST:PORT,... | --spawn N) \
                     [--addr HOST:PORT] [--serve-bin PATH] [--store DIR] \
                     [--pool-cap N] [--io-timeout-ms MS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if (opts.spawn > 0) != opts.config.backends.is_empty() {
        return Err("exactly one of --backends or --spawn is required".into());
    }
    Ok(opts)
}

/// Spawn one local `nshot-serve` child on an ephemeral port and wait for
/// its `ready ADDR` line. The rest of the child's stdout is forwarded to
/// our stderr by a drain thread (so its shutdown report stays visible and
/// the pipe never fills).
fn spawn_backend(
    serve_bin: &PathBuf,
    store: Option<&PathBuf>,
    shard: usize,
) -> Result<(Child, SocketAddr), String> {
    let mut cmd = Command::new(serve_bin);
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stdin(Stdio::null());
    if let Some(dir) = store {
        cmd.arg("--warm-store").arg(dir);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", serve_bin.display()))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("shard {shard}: read child stdout: {e}"))?;
        if n == 0 {
            return Err(format!("shard {shard}: child exited before ready"));
        }
        if let Some(rest) = line.trim().strip_prefix("ready ") {
            break rest
                .parse::<SocketAddr>()
                .map_err(|e| format!("shard {shard}: bad ready line '{line}': {e}"))?;
        }
        // Anything before `ready` (warm-start notes, …) passes through.
        eprint!("shard {shard}: {line}");
    };
    let _ = std::thread::Builder::new()
        .name(format!("nshot-child-{shard}"))
        .spawn(move || {
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                eprint!("shard {shard}: {line}");
                line.clear();
            }
        });
    Ok((child, addr))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut opts = parse_args(args)?;

    let mut children: Vec<Child> = Vec::new();
    if opts.spawn > 0 {
        let serve_bin = match opts.serve_bin.clone() {
            Some(path) => path,
            None => {
                // Default: nshot-serve next to this executable.
                let mut path = std::env::current_exe()
                    .map_err(|e| format!("current_exe: {e}"))?;
                path.set_file_name("nshot-serve");
                path
            }
        };
        for shard in 0..opts.spawn {
            let (child, addr) = spawn_backend(&serve_bin, opts.store.as_ref(), shard)?;
            children.push(child);
            opts.config.backends.push(addr);
            eprintln!("nshot-shard: shard {shard} backend at {addr}");
        }
    }

    let front = ShardFront::bind(opts.config.clone()).map_err(|e| {
        for child in &mut children {
            let _ = child.kill();
        }
        format!("bind {}: {e}", opts.config.addr)
    })?;
    let addr = front.local_addr();
    eprintln!(
        "nshot-shard: front at {addr}, {} shard(s)",
        opts.config.backends.len()
    );
    // The machine-readable readiness line (same contract as nshot-serve).
    println!("ready {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let served = front.wait();
    for (shard, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("nshot-shard: shard {shard} exited {status}"),
            Err(e) => eprintln!("nshot-shard: shard {shard} wait: {e}"),
        }
    }
    eprintln!("nshot-shard: drained after {served} request(s)");
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("nshot-shard: {msg}");
            std::process::ExitCode::FAILURE
        }
    }
}
