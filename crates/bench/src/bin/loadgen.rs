//! `loadgen` — a checking client for the synthesis service: replay a few
//! suite circuits and fail unless every answer is byte-identical to a
//! direct `synthesize` call.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--format blif|binary] [--no-shutdown]
//!         [--store DIR]
//! ```
//!
//! Two client connections each replay chu133 and full once, starting at
//! rotated offsets so the interleavings differ. Every response's BLIF is
//! checked against a locally computed `synthesize` call; a mismatch, any
//! status but 200 (a 429 or 503 leaves the answer unchecked) or a broken
//! connection is a protocol error and makes the run exit non-zero. Performance lives in `e2ebench`, not here.
//!
//! With `--format binary` every connection negotiates the `nshot-wire`
//! binary framing (the `hello` upgrade) and drives the run over frames
//! instead of NDJSON lines; the assembled response objects go through the
//! same checks — the framing must not change a single response byte.
//!
//! Without `--addr` the client spawns the server in-process on an
//! ephemeral loopback port. With `--store DIR` (in-process mode only) that
//! server persists to the artifact store, and after the run a *second*
//! server warms from the same directory and replays one pass: every one of
//! its answers must be a cache hit as well as byte-identical, so a stale,
//! corrupt or unread store fails the run.
//!
//! Unless `--no-shutdown` is given, the run ends with the `shutdown` op
//! and fails if the server does not report a clean drain.

use nshot_core::{synthesize, SynthesisOptions};
use nshot_server::client::{self, Client};
use nshot_server::protocol::parse_request;
use nshot_server::{Json, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;

/// The circuits every pass replays.
const CIRCUITS: [&str; 2] = ["chu133", "full"];
/// Client connections per pass.
const CLIENTS: usize = 2;

#[derive(Default)]
struct Options {
    addr: Option<String>,
    binary: bool,
    no_shutdown: bool,
    store: Option<String>,
}

/// The replayed workload: `(name, spec text, expected BLIF)` per circuit,
/// the BLIF from a direct `synthesize` call.
type Workload = Vec<(String, String, String)>;

fn workload() -> Result<Workload, String> {
    CIRCUITS
        .iter()
        .map(|&name| {
            let b = nshot_benchmarks::by_name(name)
                .ok_or_else(|| format!("unknown circuit '{name}'"))?;
            let spec = b.build().to_text();
            let sg = nshot_sg::parse_sg(&spec).map_err(|e| format!("{name}: {e}"))?;
            let imp = synthesize(&sg, &SynthesisOptions::default())
                .map_err(|e| format!("{name}: {e}"))?;
            Ok((name.to_owned(), spec, imp.netlist.to_blif()))
        })
        .collect()
}

/// What one pass saw.
#[derive(Default)]
struct Tally {
    ok: u64,
    cache_hits: u64,
    errors: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.cache_hits += other.cache_hits;
        self.errors.extend(other.errors);
    }
}

fn main() -> std::process::ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(value()?),
            // Binary names the *transport*; the netlist on it is BLIF
            // either way.
            "--format" => match value()?.as_str() {
                "blif" => opts.binary = false,
                "binary" => opts.binary = true,
                other => return Err(format!("--format must be blif or binary, not '{other}'")),
            },
            "--no-shutdown" => opts.no_shutdown = true,
            "--store" => opts.store = Some(value()?),
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT] [--format blif|binary] \
                     [--no-shutdown] [--store DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.store.is_some() && opts.addr.is_some() {
        return Err("--store needs the in-process server (drop --addr)".into());
    }
    if opts.store.is_some() && opts.no_shutdown {
        return Err("--store needs the graceful shutdown (drop --no-shutdown)".into());
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    let work = workload()?;

    // Target service: external, or spawned in-process on an ephemeral port.
    let (server, addr): (Option<Server>, SocketAddr) = match &opts.addr {
        Some(a) => (None, a.parse().map_err(|_| format!("bad address '{a}'"))?),
        None => {
            let server = bind(opts.store.as_deref().map(Path::new))?;
            let addr = server.local_addr();
            (Some(server), addr)
        }
    };
    eprintln!(
        "loadgen: {CLIENTS} clients x {} circuits against {addr}",
        work.len()
    );
    let mut total = drive_pass(addr, 0, &work, opts.binary);

    if !opts.no_shutdown {
        let ack = client::request(addr, r#"{"id":"ctl","op":"shutdown"}"#)?;
        if ack.get("drained").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown did not drain: {ack}"));
        }
    }
    if let Some(server) = server {
        if opts.no_shutdown {
            server.shutdown();
        }
        // Joining also joins the store's write-behind thread, so the warm
        // pass below opens a fully flushed store.
        server.wait();
    }

    // Warm start: a *fresh* server on the persisted store replays one pass.
    // Everything it answers has to come off disk and still match direct
    // synthesis byte for byte.
    if let Some(dir) = &opts.store {
        let warm_server = bind(Some(Path::new(dir)))?;
        let warm_addr = warm_server.local_addr();
        eprintln!("loadgen: warm-start pass against {warm_addr} (store {dir})");
        let warm = drive_pass(warm_addr, 1, &work, opts.binary);
        warm_server.shutdown();
        warm_server.wait();
        let sent = (CLIENTS * work.len()) as u64;
        eprintln!(
            "loadgen: warm start: {} of {sent} cache hits",
            warm.cache_hits
        );
        if warm.cache_hits != sent {
            total.errors.push(format!(
                "warm start: {} of {sent} answers were cache hits, want all",
                warm.cache_hits
            ));
        }
        total.merge(warm);
    }

    eprintln!(
        "loadgen: {} ok, {} protocol errors",
        total.ok,
        total.errors.len()
    );
    for e in total.errors.iter().take(5) {
        eprintln!("loadgen: protocol error: {e}");
    }
    match total.errors.len() {
        0 => Ok(()),
        n => Err(format!("{n} protocol errors")),
    }
}

/// An in-process server on an ephemeral loopback port, optionally
/// persisting to `store_dir`. No request deadline: this client checks byte
/// identity, not timeout behaviour.
fn bind(store_dir: Option<&Path>) -> Result<Server, String> {
    Server::bind(ServerConfig {
        timeout_ms: 0,
        store_dir: store_dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))
}

/// One pass: [`CLIENTS`] connections to `addr`, each replaying the whole
/// workload once from its own rotated offset.
fn drive_pass(addr: SocketAddr, pass: usize, work: &Workload, binary: bool) -> Tally {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| s.spawn(move || client_loop(client, pass, addr, work, binary)))
            .collect();
        let mut total = Tally::default();
        for h in handles {
            total.merge(h.join().expect("client thread"));
        }
        total
    })
}

/// One client connection replaying the whole workload once.
fn client_loop(
    client: usize,
    pass: usize,
    addr: SocketAddr,
    work: &Workload,
    binary: bool,
) -> Tally {
    let mut tally = Tally::default();
    let conn = Client::connect(addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut conn| {
            if binary {
                conn.upgrade_binary()
                    .map_err(|e| format!("binary upgrade: {e}"))?;
            }
            Ok(conn)
        });
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            tally.errors.push(format!("client {client}: {e}"));
            return tally;
        }
    };

    let n = work.len();
    for k in 0..n {
        let (name, spec, expected) = &work[(k + client) % n];
        let line = synth_line(&format!("{client}:{pass}:{name}"), spec);
        // Both transports end at the same place: the response as a parsed
        // object. The binary client assembles it from frames; the NDJSON
        // client parses the line.
        let response = if binary {
            parse_request(&line)
                .map_err(|(_, e)| e)
                .and_then(|env| conn.roundtrip_binary(&env).map_err(|e| e.to_string()))
        } else {
            conn.roundtrip_json(&line)
        };
        let response = match response {
            Ok(obj) => obj,
            Err(e) => {
                tally.errors.push(format!("client {client} {name}: {e}"));
                return tally; // the connection is gone
            }
        };
        match response.get("code").and_then(Json::as_u64) {
            Some(200) => {
                tally.ok += 1;
                if response.get("cached").and_then(Json::as_bool) == Some(true) {
                    tally.cache_hits += 1;
                }
                if response.get("blif").and_then(Json::as_str) != Some(expected.as_str()) {
                    tally.errors.push(format!(
                        "client {client} {name}: netlist differs from direct call"
                    ));
                }
            }
            code => tally.errors.push(format!(
                "client {client} {name}: unexpected code {code:?}: {response}"
            )),
        }
    }
    tally
}

/// The NDJSON request line a real client sends: only the fields that
/// differ from the wire defaults.
fn synth_line(id: &str, spec: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Str(id.to_owned())),
        ("op".into(), Json::Str("synth".into())),
        ("spec".into(), Json::Str(spec.to_owned())),
        ("format".into(), Json::Str("blif".into())),
    ])
    .to_string()
}
