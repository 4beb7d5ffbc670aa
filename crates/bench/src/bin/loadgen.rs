//! `loadgen` — replay the 25-circuit Table 2 suite against the synthesis
//! service and report throughput, latency, cache and backpressure numbers.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--concurrency N] [--passes N]
//!         [--circuits a,b,c] [--format blif|verilog|none|binary]
//!         [--out PATH] [--no-shutdown] [--store DIR] [--gen N]
//!         [--shards N,N,...] [--wire-cmp]
//! ```
//!
//! With `--format binary` every client connection negotiates the
//! `nshot-wire` binary framing (the `hello` upgrade) and drives the run
//! over frames instead of NDJSON lines; netlists are checked in BLIF, and
//! the assembled response objects go through the same byte-identity
//! checks as the JSON transport — the framing must not change a single
//! response byte.
//!
//! With `--wire-cmp` the generator runs *only* the json-vs-binary wire
//! comparison (bytes on the wire, store bytes, cached-roundtrip p50/p99,
//! warm-start wall) against an in-process server and patches the result
//! into the existing report as its `wire` section, leaving every other
//! section untouched. Run the main loadgen first to create the report.
//!
//! With `--gen N` the workload mixes in N seeded specifications from
//! `nshot-gen` (seeds `0..N`), each a distinct request key: a
//! high-cardinality mix whose cache behaviour and latency are reported in
//! the `generated` section, separate from the suite figures.
//!
//! With `--store DIR` (in-process mode only) the server persists its
//! response cache to the artifact store, and after the measured run a
//! *second* server is started on the same directory and replays one pass:
//! the warm-start phase. Its first-pass wall time, cache hit rate and the
//! store's final figures land in the report's `store` section — the
//! cold-vs-warm comparison that shows what the durability layer buys. The
//! warm pass runs through the same byte-identity checks as the cold one,
//! so a stale or corrupt store would fail the run, not skew it.
//!
//! With `--shards 1,2,4` (in-process mode only) the generator replays the
//! same workload through `nshot-shard` topologies after the main run: for
//! each listed size N it spawns N shared-nothing backends plus a front,
//! drives every pass through the front (with the same byte-identity checks
//! — proxied responses must match direct synthesis exactly), scrapes the
//! merged per-shard metrics, and drains everything through the front's
//! shutdown fan-out. The per-topology scaling figures land in the report's
//! `shards` section.
//!
//! Without `--addr` the generator spawns the server in-process on an
//! ephemeral loopback port (the reproducible, CI-friendly mode). Each of
//! the N client connections replays every circuit once per pass, starting
//! at a rotated offset so the interleavings differ. Every response is
//! checked against a locally computed `synthesize` call — a mismatch is a
//! protocol error and fails the run. After each pass the generator scrapes
//! the server's `metrics` op and reports per-pipeline-stage latency
//! percentiles from the Prometheus exposition. The summary (throughput,
//! latency percentiles from the merged per-client histograms, per-stage
//! timings, cache hit rate, reject count) lands in `BENCH_server.json`.

use nshot_core::{synthesize, Minimizer, SynthesisOptions};
use nshot_obs::Histogram;
use nshot_server::client::{self, Client};
use nshot_server::protocol::parse_request;
use nshot_server::{
    json, process_synth, wirecodec, Deadline, Json, Method, OutputFormat, Server, ServerConfig,
    SynthRequest,
};
use nshot_shard::{ShardConfig, ShardFront};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

struct Options {
    addr: Option<String>,
    concurrency: usize,
    passes: usize,
    circuits: Option<Vec<String>>,
    format: String,
    out: String,
    shutdown: bool,
    store: Option<String>,
    /// Number of `nshot-gen` seeded specs mixed into the workload (seeds
    /// `0..gen`): a high-cardinality request mix that the response cache
    /// cannot collapse the way it collapses the 25-circuit suite.
    gen: usize,
    /// Shard-topology sizes to sweep after the main run (empty = skip).
    /// Each entry N spawns N cold backends + a front and replays every
    /// pass through the front, so the curves compare identical work.
    shards: Vec<usize>,
    /// Drive the run over `nshot-wire` binary frames (`--format binary`):
    /// every connection upgrades via the `hello` negotiation before its
    /// first request. Netlist checks stay in BLIF.
    binary: bool,
    /// Run only the json-vs-binary wire comparison and patch the `wire`
    /// section into the existing report.
    wire_cmp: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: None,
            concurrency: 8,
            passes: 2,
            circuits: None,
            format: "blif".into(),
            out: "BENCH_server.json".into(),
            shutdown: true,
            store: None,
            gen: 0,
            shards: Vec::new(),
            binary: false,
            wire_cmp: false,
        }
    }
}

/// The replayed workload: the suite (or `--circuits`), then the `--gen`
/// seeded specs, each checked against a netlist computed up front by a
/// direct `synthesize` call.
struct Workload {
    /// `(name, spec text)` per request.
    specs: Vec<(String, String)>,
    /// The netlist `specs[i]` must answer with.
    expected: Vec<String>,
    /// Number of trailing `--gen` specs.
    gen: usize,
    /// The netlist field requested and checked (`none` skips the check).
    format: String,
}

impl Workload {
    fn build(opts: &Options, format: &str) -> Result<Workload, String> {
        let names: Vec<String> = match &opts.circuits {
            Some(list) => list.clone(),
            None => nshot_benchmarks::suite()
                .iter()
                .map(|b| b.name.to_owned())
                .collect(),
        };
        let mut specs: Vec<(String, String)> = Vec::new();
        for n in names {
            let b =
                nshot_benchmarks::by_name(&n).ok_or_else(|| format!("unknown circuit '{n}'"))?;
            specs.push((n, b.build().to_text()));
        }
        // High-cardinality mix: every seed yields a distinct spec text, so
        // each is its own cache key.
        let gen_cfg = nshot_gen::GenConfig::default();
        for seed in 0..opts.gen as u64 {
            let spec = nshot_gen::draw(seed, &gen_cfg)
                .map_err(|r| format!("gen seed {seed} rejected: {r}"))?;
            specs.push((format!("gen{seed}"), spec.sg.to_text()));
        }
        let expected = specs
            .iter()
            .map(|(name, spec)| {
                let sg = nshot_sg::parse_sg(spec).map_err(|e| format!("{name}: {e}"))?;
                let imp = synthesize(&sg, &SynthesisOptions::default())
                    .map_err(|e| format!("{name}: {e}"))?;
                Ok(match format {
                    "blif" => imp.netlist.to_blif(),
                    "verilog" => imp.netlist.to_verilog(),
                    "none" => String::new(),
                    other => return Err(format!("unknown format '{other}'")),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Workload {
            specs,
            expected,
            gen: opts.gen,
            format: format.to_owned(),
        })
    }
}

/// The tally of client requests: one per connection, folded with
/// [`ClientReport::merge`] into one per pass, run or topology.
#[derive(Default)]
struct ClientReport {
    ok: u64,
    rejected: u64,
    protocol_errors: Vec<String>,
    cache_hits: u64,
    latency: Histogram,
    /// Same figures restricted to the `--gen` portion of the workload.
    gen_ok: u64,
    gen_hits: u64,
    gen_latency: Histogram,
}

impl ClientReport {
    fn merge(&mut self, other: ClientReport) {
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.protocol_errors.extend(other.protocol_errors);
        self.cache_hits += other.cache_hits;
        self.latency.merge(&other.latency);
        self.gen_ok += other.gen_ok;
        self.gen_hits += other.gen_hits;
        self.gen_latency.merge(&other.gen_latency);
    }

    /// Cache hits among the successful requests.
    fn hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.ok)
    }

    /// Answered requests (served or rejected) per second of `wall_ms`.
    fn throughput(&self, wall_ms: f64) -> f64 {
        (self.ok + self.rejected) as f64 / (wall_ms / 1e3)
    }

    /// The fields every `latency_us` object of the report carries.
    fn latency_json(h: &Histogram) -> String {
        format!(
            "\"count\": {}, \"p50\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}",
            h.count(),
            h.p50_us(),
            h.p99_us(),
            h.mean_us(),
            h.max_us()
        )
    }
}

/// `n / of`, 0 when `of` is 0.
fn ratio(n: u64, of: u64) -> f64 {
    if of > 0 {
        n as f64 / of as f64
    } else {
        0.0
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
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let count = |name: &str, v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{name} must be an integer"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(value("--addr")?),
            "--concurrency" => opts.concurrency = count(flag, value(flag)?)?,
            "--passes" => opts.passes = count(flag, value(flag)?)?,
            "--circuits" => {
                opts.circuits =
                    Some(value("--circuits")?.split(',').map(str::to_owned).collect());
            }
            "--format" => {
                let v = value("--format")?;
                if v == "binary" {
                    // Binary names the *transport*; the netlist format on
                    // it is BLIF (the suite's canonical check format).
                    opts.binary = true;
                    opts.format = "blif".into();
                } else {
                    opts.format = v;
                }
            }
            "--wire-cmp" => opts.wire_cmp = true,
            "--out" => opts.out = value("--out")?,
            "--no-shutdown" => opts.shutdown = false,
            "--store" => opts.store = Some(value("--store")?),
            "--gen" => opts.gen = count(flag, value(flag)?)?,
            "--shards" => {
                opts.shards = value("--shards")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "--shards must be a comma list of integers".to_string())?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT] [--concurrency N] [--passes N] \
                     [--circuits a,b,c] [--format blif|verilog|none|binary] [--out PATH] \
                     [--no-shutdown] [--store DIR] [--gen N] [--shards N,N,...] \
                     [--wire-cmp]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.concurrency == 0 || opts.passes == 0 {
        return Err("--concurrency and --passes must be at least 1".into());
    }
    if opts.store.is_some() && opts.addr.is_some() {
        return Err("--store needs the in-process server (drop --addr)".into());
    }
    if opts.store.is_some() && !opts.shutdown {
        return Err("--store needs the graceful shutdown (drop --no-shutdown)".into());
    }
    if !opts.shards.is_empty() {
        if opts.addr.is_some() {
            return Err("--shards needs the in-process servers (drop --addr)".into());
        }
        if opts.shards.contains(&0) {
            return Err("--shards sizes must be at least 1".into());
        }
    }
    if opts.wire_cmp
        && (opts.addr.is_some()
            || opts.store.is_some()
            || opts.gen > 0
            || !opts.shards.is_empty())
    {
        return Err(
            "--wire-cmp is a standalone comparison (drop --addr/--store/--gen/--shards)"
                .into(),
        );
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    if opts.wire_cmp {
        return run_wire_cmp(&opts);
    }
    let work = Workload::build(&opts, &opts.format)?;

    // Target service: external, or spawned in-process on an ephemeral port.
    let (server, addr): (Option<Server>, SocketAddr) = match &opts.addr {
        Some(a) => (None, a.parse().map_err(|_| format!("bad address '{a}'"))?),
        None => {
            let server = bind(&opts, opts.store.as_deref().map(Path::new), None)?;
            let addr = server.local_addr();
            (Some(server), addr)
        }
    };
    eprintln!(
        "loadgen: {} clients x {} passes x {} circuits against {addr}",
        opts.concurrency,
        opts.passes,
        work.specs.len()
    );

    let t0 = Instant::now();
    let mut total = ClientReport::default();
    let mut stage_timings: Vec<(String, StageStat)> = Vec::new();
    let mut server_cache = Json::Null;
    let mut pass_wall_ms: Vec<f64> = Vec::new();
    for pass in 0..opts.passes {
        let pass_t0 = Instant::now();
        total.merge(drive_pass(addr, pass, &work, opts.concurrency, opts.binary));
        pass_wall_ms.push(pass_t0.elapsed().as_secs_f64() * 1e3);

        // Scrape the metrics op: cumulative per-stage pipeline timings so
        // far, straight from the server's Prometheus exposition.
        match scrape_metrics(addr) {
            Ok(expo) => {
                stage_timings = parse_stage_histograms(&expo);
                server_cache = response_cache_figures(&expo);
                let line = stage_timings
                    .iter()
                    .map(|(s, st)| format!("{s} p50={} p99={}", st.p50_us, st.p99_us))
                    .collect::<Vec<_>>()
                    .join(", ");
                eprintln!("loadgen: pass {} stage timings (us): {line}", pass + 1);
            }
            Err(e) => eprintln!("loadgen: pass {} metrics scrape failed: {e}", pass + 1),
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The last pass's scrape holds the final service-side counters; then
    // (optionally) a graceful shutdown.
    if opts.shutdown {
        let ack = client::request(addr, r#"{"id":"ctl","op":"shutdown"}"#)?;
        if ack.get("drained").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown did not drain: {ack}"));
        }
    }
    if let Some(server) = server {
        if !opts.shutdown {
            server.shutdown();
        }
        // Joining also joins the store's write-behind thread, so the warm
        // phase below opens a fully flushed store.
        server.wait();
    }

    // Warm-start phase: a *fresh* server on the persisted store replays
    // one pass. Everything it answers has to come off disk — and still
    // pass the byte-identity checks against direct synthesis. The warm
    // figures stay out of the main throughput/latency tallies (they
    // measure a different thing); only its protocol errors fail the run.
    let mut errors: Vec<String> = Vec::new();
    let store_json = match &opts.store {
        None => None,
        Some(dir) => {
            let warm_server = bind(&opts, Some(Path::new(dir)), None)?;
            let warm_addr = warm_server.local_addr();
            eprintln!("loadgen: warm-start pass against {warm_addr} (store {dir})");
            let warm_t0 = Instant::now();
            let warm = drive_pass(warm_addr, opts.passes, &work, opts.concurrency, opts.binary);
            let warm_wall_ms = warm_t0.elapsed().as_secs_f64() * 1e3;
            warm_server.shutdown();
            let warm_store = warm_server.wait().store;

            let cold_ms = pass_wall_ms.first().copied().unwrap_or(0.0);
            eprintln!(
                "loadgen: warm start: {} ok, hit rate {:.4}, \
                 first pass {warm_wall_ms:.0} ms (cold {cold_ms:.0} ms)",
                warm.ok,
                warm.hit_rate()
            );
            let report_json = warm_store.as_ref().map_or_else(
                || "null".to_string(),
                |s| {
                    format!(
                        "{{\"records\": {}, \"segments\": {}, \"bytes\": {}, \"compactions\": {}, \"recovered\": {}, \"dropped\": {}}}",
                        s.records,
                        s.segments,
                        s.bytes,
                        s.stats.compactions,
                        s.stats.recovered_records,
                        s.stats.dropped_records
                    )
                },
            );
            let json = format!(
                "{{\"dir\": {dir}, \"cold_first_pass_ms\": {cold_ms:.2}, \"warm_first_pass_ms\": {warm_wall_ms:.2}, \"warm_ok\": {}, \"warm_hits\": {}, \"warm_hit_rate\": {:.4}, \"final\": {report_json}}}",
                warm.ok,
                warm.cache_hits,
                warm.hit_rate(),
                dir = Json::Str(dir.clone()),
            );
            errors.extend(warm.protocol_errors);
            Some(json)
        }
    };

    // Shard-topology sweep: the same workload through 1/2/4-shard (or
    // whatever `--shards` listed) fronts, each over fresh shared-nothing
    // backends, so the report carries honest scaling curves. Byte-identity
    // failures here fail the run exactly like the main phase's.
    let shards_json = run_shard_sweep(&opts, &work, &mut errors)?;
    total.protocol_errors.extend(errors);

    let report = render_report(
        &opts,
        &work,
        &total,
        wall_ms,
        &server_cache,
        &stage_timings,
        store_json.as_deref(),
        shards_json.as_deref(),
    );
    std::fs::write(&opts.out, report).map_err(|e| format!("{}: {e}", opts.out))?;
    eprintln!(
        "loadgen: {}/{} ok, {} rejected, {} protocol errors, {:.1} req/s -> {}",
        total.ok,
        opts.concurrency * opts.passes * work.specs.len(),
        total.rejected,
        total.protocol_errors.len(),
        total.throughput(wall_ms),
        opts.out
    );

    check(&total.protocol_errors, "protocol error")
}

/// Fail with the count of `errors` (printing the first five), if any.
fn check(errors: &[String], what: &str) -> Result<(), String> {
    for e in errors.iter().take(5) {
        eprintln!("loadgen: {what}: {e}");
    }
    match errors.len() {
        0 => Ok(()),
        n => Err(format!("{n} {what}s")),
    }
}

/// An in-process server on an ephemeral loopback port, optionally
/// persisting to `store_dir` or warming from `warm_dir`. No request
/// deadline: the heavy suite circuits legitimately take minutes on a
/// single shared core, and this harness measures throughput and byte
/// identity, not timeout behaviour.
fn bind(
    opts: &Options,
    store_dir: Option<&Path>,
    warm_dir: Option<&Path>,
) -> Result<Server, String> {
    Server::bind(ServerConfig {
        queue_cap: (opts.concurrency * 2).max(64),
        timeout_ms: 0,
        store_dir: store_dir.map(Path::to_path_buf),
        warm_dir: warm_dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))
}

/// One client pass: `clients` connections to `addr`, each replaying the
/// whole workload once from its own rotated offset, folded into one
/// tally.
fn drive_pass(
    addr: SocketAddr,
    pass: usize,
    work: &Workload,
    clients: usize,
    binary: bool,
) -> ClientReport {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| s.spawn(move || client_loop(client, pass, addr, work, binary)))
            .collect();
        let mut total = ClientReport::default();
        for h in handles {
            total.merge(h.join().expect("client thread"));
        }
        total
    })
}

/// A client connection to `addr`, upgraded to binary framing if asked.
fn connect(addr: SocketAddr, binary: bool) -> Result<Client, String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    if binary {
        conn.upgrade_binary()
            .map_err(|e| format!("binary upgrade: {e}"))?;
    }
    Ok(conn)
}

/// One client connection replaying the whole workload once.
fn client_loop(
    client: usize,
    pass: usize,
    addr: SocketAddr,
    work: &Workload,
    binary: bool,
) -> ClientReport {
    let mut report = ClientReport::default();
    let mut conn = match connect(addr, binary) {
        Ok(c) => c,
        Err(e) => {
            report.protocol_errors.push(format!("client {client}: {e}"));
            return report;
        }
    };

    let n = work.specs.len();
    for k in 0..n {
        let i = (k + client) % n;
        let (name, spec) = &work.specs[i];
        let is_gen = i >= n - work.gen;
        let line = synth_line(&format!("{client}:{pass}:{name}"), spec, &work.format);
        let env = parse_request(&line).map_err(|(_, e)| e);
        let t0 = Instant::now();
        // Both transports end at the same place: the response as a parsed
        // object. The binary client assembles it from frames; the NDJSON
        // client parses the line.
        let response = if binary {
            env.and_then(|env| conn.roundtrip_binary(&env).map_err(|e| e.to_string()))
        } else {
            conn.roundtrip_json(&line)
        };
        let response = match response {
            Ok(obj) => obj,
            Err(e) => {
                report
                    .protocol_errors
                    .push(format!("client {client} {name}: {e}"));
                return report; // the connection is gone
            }
        };
        let elapsed_us = t0.elapsed().as_micros() as u64;
        report.latency.record(elapsed_us);
        if is_gen {
            report.gen_latency.record(elapsed_us);
        }

        match response.get("code").and_then(Json::as_u64) {
            Some(200) => {
                let hit = u64::from(response.get("cached").and_then(Json::as_bool) == Some(true));
                report.ok += 1;
                report.cache_hits += hit;
                if is_gen {
                    report.gen_ok += 1;
                    report.gen_hits += hit;
                }
                // Byte-identity against the direct library call.
                if work.format != "none"
                    && response.get(&work.format).and_then(Json::as_str)
                        != Some(work.expected[i].as_str())
                {
                    report.protocol_errors.push(format!(
                        "client {client} {name}: netlist differs from direct call"
                    ));
                }
            }
            Some(429) | Some(503) => report.rejected += 1,
            code => report.protocol_errors.push(format!(
                "client {client} {name}: unexpected code {code:?}: {response}"
            )),
        }
    }
    report
}

/// The NDJSON request line a real client sends: only the fields that
/// differ from the wire defaults.
fn synth_line(id: &str, spec: &str, format: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Str(id.to_owned())),
        ("op".into(), Json::Str("synth".into())),
        ("spec".into(), Json::Str(spec.to_owned())),
        ("format".into(), Json::Str(format.to_owned())),
    ])
    .to_string()
}

/// The Prometheus exposition returned by the `metrics` op at `addr`.
fn scrape_metrics(addr: SocketAddr) -> Result<String, String> {
    let m = client::request(addr, r#"{"id":"metrics","op":"metrics"}"#)?;
    m.get("exposition")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("no exposition in {m}"))
}

/// Replay the workload through each requested shard topology and render
/// the report's `shards` section. Every topology starts from cold,
/// shared-nothing backends so the curves compare identical work; requests
/// go through the front with the same byte-identity checks as the main
/// phase, and the drain goes through the front's shutdown fan-out.
fn run_shard_sweep(
    opts: &Options,
    work: &Workload,
    errors: &mut Vec<String>,
) -> Result<Option<String>, String> {
    if opts.shards.is_empty() {
        return Ok(None);
    }
    let mut topologies: Vec<String> = Vec::new();
    for &n in &opts.shards {
        let backends: Vec<Server> = (0..n)
            .map(|_| bind(opts, None, None))
            .collect::<Result<_, _>>()?;
        let front = ShardFront::bind(ShardConfig {
            backends: backends.iter().map(Server::local_addr).collect(),
            // Let every client reach the same shard at once: the backend's
            // own queue is the backpressure, not the proxy pool.
            pool_cap: opts.concurrency.max(8),
            // Suite circuits legitimately take minutes on one shared core;
            // an IO timeout would misread slow synthesis as a dead shard.
            io_timeout_ms: 0,
            ..ShardConfig::default()
        })
        .map_err(|e| format!("shard sweep: front bind: {e}"))?;
        let addr = front.local_addr();
        eprintln!(
            "loadgen: shard sweep: {} clients x {} passes through a {n}-shard front on {addr}",
            opts.concurrency, opts.passes
        );

        let t0 = Instant::now();
        let mut total = ClientReport::default();
        for pass in 0..opts.passes {
            total.merge(drive_pass(addr, pass, work, opts.concurrency, opts.binary));
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        // The merged exposition carries every backend's series under its
        // shard label — routing spread and per-shard cache behaviour.
        let per_shard_json = match scrape_metrics(addr) {
            Ok(expo) => (0..n)
                .map(|i| {
                    let value = |name| series_total(&expo, name, Some(i));
                    format!(
                        "{{\"shard\": {i}, \"requests\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}",
                        value("nshot_shard_requests_total"),
                        value("nshot_response_cache_hits_total"),
                        value("nshot_response_cache_misses_total")
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
            Err(e) => {
                errors.push(format!("shard sweep {n}: metrics scrape: {e}"));
                String::new()
            }
        };

        // Drain through the front: the shutdown op fans out to every
        // backend and only acks after each has drained its queue.
        let ack = client::request(addr, r#"{"id":"ctl","op":"shutdown"}"#)
            .map_err(|e| format!("shard sweep {n}: shutdown: {e}"))?;
        if ack.get("shards_drained").and_then(Json::as_u64) != Some(n as u64) {
            return Err(format!("shard sweep {n}: shutdown fan-out incomplete: {ack}"));
        }
        front.wait();
        for backend in backends {
            backend.wait();
        }

        errors.extend(
            total
                .protocol_errors
                .iter()
                .map(|e| format!("shard sweep {n}: {e}")),
        );
        let (throughput, hit_rate) = (total.throughput(wall_ms), total.hit_rate());
        eprintln!(
            "loadgen: shard sweep: {n} shard(s): {} ok, {} rejected, \
             hit rate {hit_rate:.4}, {wall_ms:.0} ms, {throughput:.1} req/s",
            total.ok, total.rejected
        );
        topologies.push(format!(
            "{{\"shards\": {n}, \"wall_ms\": {wall_ms:.2}, \"throughput_rps\": {throughput:.1}, \
             \"ok\": {}, \"rejected\": {}, \"cache_hits\": {}, \"hit_rate\": {hit_rate:.4}, \
             \"latency_us\": {{{}}}, \"per_shard\": [{per_shard_json}]}}",
            total.ok,
            total.rejected,
            total.cache_hits,
            ClientReport::latency_json(&total.latency),
        ));
    }
    Ok(Some(format!("[{}]", topologies.join(", "))))
}

/// The sum of metric `name`'s samples in an exposition: over every label
/// set (a shard front's merged exposition carries one per shard), or only
/// the one labelled exactly `shard="i"`.
fn series_total(exposition: &str, name: &str, shard: Option<usize>) -> u64 {
    let only = shard.map(|i| format!("{name}{{shard=\"{i}\"}}"));
    exposition
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| match &only {
            Some(only) => series == only,
            None => series.split('{').next() == Some(name),
        })
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

/// The server-side response-cache figures from a `metrics` exposition, as
/// the report's `response_cache.server` object, summed over shards.
fn response_cache_figures(exposition: &str) -> Json {
    let field = |key: &str, name: &str| {
        let total = series_total(exposition, name, None);
        (key.to_owned(), Json::Num(total as f64))
    };
    Json::Obj(vec![
        field("hits", "nshot_response_cache_hits_total"),
        field("misses", "nshot_response_cache_misses_total"),
        field("entries", "nshot_response_cache_entries"),
        field("evictions", "nshot_response_cache_evictions_total"),
    ])
}

/// Per-pipeline-stage summary recovered from the server's Prometheus
/// exposition.
#[derive(Debug, PartialEq)]
struct StageStat {
    count: u64,
    sum_us: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Extract the `nshot_stage_duration_us` histogram per stage from
/// Prometheus text and compute conservative (upper-bucket-edge) p50/p99,
/// the convention the histogram itself uses. A shard front's merged
/// exposition carries one series per shard and stage: each series'
/// cumulative buckets are turned back into bucket counts, and counts,
/// sums and buckets are summed per stage across shards.
fn parse_stage_histograms(exposition: &str) -> Vec<(String, StageStat)> {
    // stage -> (bucket counts by upper edge, sum, count)
    let mut stages: Vec<(String, BTreeMap<u64, u64>, u64, u64)> = Vec::new();
    // series (its labels up to `le`) -> cumulative count of its last bucket
    let mut last_cumulative: HashMap<&str, u64> = HashMap::new();
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix("nshot_stage_duration_us_") else {
            continue;
        };
        let (Some((kind, labels)), Some((_, value))) =
            (rest.split_once('{'), rest.rsplit_once(' '))
        else {
            continue;
        };
        let labels = labels.split('}').next().unwrap_or_default();
        let label = |name: &str| {
            let kv = labels.split(',').find_map(|kv| kv.strip_prefix(name));
            kv?.strip_prefix("=\"")?.strip_suffix('"')
        };
        let (Ok(value), Some(stage)) = (value.parse::<u64>(), label("stage")) else {
            continue;
        };
        let i = match stages.iter().position(|s| s.0 == stage) {
            Some(i) => i,
            None => {
                stages.push((stage.to_owned(), BTreeMap::new(), 0, 0));
                stages.len() - 1
            }
        };
        match kind {
            "bucket" => {
                // `+Inf` closes the series; it adds no finite bucket.
                let Some(le) = label("le").and_then(|le| le.parse::<u64>().ok()) else {
                    continue;
                };
                let series = labels.rsplit_once(",le=").map_or(labels, |(s, _)| s);
                let prev = last_cumulative.insert(series, value).unwrap_or(0);
                *stages[i].1.entry(le).or_default() += value.saturating_sub(prev);
            }
            "sum" => stages[i].2 += value,
            "count" => stages[i].3 += value,
            _ => {}
        }
    }
    stages
        .into_iter()
        .filter(|(_, _, _, count)| *count > 0)
        .map(|(stage, buckets, sum_us, count)| {
            let quantile = |q: f64| -> u64 {
                let rank = ((q * count as f64).ceil() as u64).max(1);
                let mut seen = 0;
                buckets
                    .iter()
                    .find(|&(_, &n)| {
                        seen += n;
                        seen >= rank
                    })
                    .or_else(|| buckets.last_key_value())
                    .map_or(0, |(&le, _)| le)
            };
            let stat = StageStat {
                count,
                sum_us,
                p50_us: quantile(0.50),
                p99_us: quantile(0.99),
            };
            (stage, stat)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn render_report(
    opts: &Options,
    work: &Workload,
    total: &ClientReport,
    wall_ms: f64,
    server_cache: &Json,
    stage_timings: &[(String, StageStat)],
    store_json: Option<&str>,
    shards_json: Option<&str>,
) -> String {
    let stage_json = stage_timings
        .iter()
        .map(|(s, st)| {
            format!(
                "{}: {{\"count\": {}, \"sum_us\": {}, \"p50\": {}, \"p99\": {}}}",
                Json::Str(s.clone()),
                st.count,
                st.sum_us,
                st.p50_us,
                st.p99_us
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let names_json = work.specs[..work.specs.len() - work.gen]
        .iter()
        .map(|(name, _)| Json::Str(name.clone()).to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let buckets = total
        .latency
        .nonzero_buckets()
        .into_iter()
        .map(|(lo, hi, n)| format!("[{lo}, {hi}, {n}]"))
        .collect::<Vec<_>>()
        .join(", ");
    // The `--gen` section: cache behaviour and latency of the seeded,
    // high-cardinality half of the mix on its own.
    let gen_json = (opts.gen > 0).then(|| {
        format!(
            "{{\"count\": {gen}, \"seeds\": \"0..{gen}\", \"ok\": {}, \"cache_hits\": {}, \"hit_rate\": {:.4}, \"latency_us\": {{{}}}}}",
            total.gen_ok,
            total.gen_hits,
            ratio(total.gen_hits, total.gen_ok),
            ClientReport::latency_json(&total.gen_latency),
            gen = opts.gen,
        )
    });
    let perr = total.protocol_errors.len();
    format!(
        "{{\n\
         \x20 \"generated_by\": \"cargo run --release -p nshot-bench --bin loadgen\",\n\
         \x20 \"note\": \"single-container numbers; client, server and workers share the same cores, so throughput is a lower bound\",\n\
         \x20 \"hardware\": {{\"available_parallelism\": {par}}},\n\
         \x20 \"workload\": {{\"concurrency\": {conc}, \"passes\": {passes}, \"format\": \"{format}\", \"transport\": \"{transport}\", \"gen\": {gen}, \"circuits\": [{names_json}]}},\n\
         \x20 \"requests\": {{\"sent\": {sent}, \"ok\": {ok}, \"rejected\": {rejected}, \"protocol_errors\": {perr}}},\n\
         \x20 \"byte_identical_with_direct_calls\": {ident},\n\
         \x20 \"wall_ms\": {wall_ms:.2},\n\
         \x20 \"throughput_rps\": {throughput:.1},\n\
         \x20 \"client_latency_us\": {{{latency}, \"buckets\": [{buckets}]}},\n\
         \x20 \"stage_timings_us\": {{{stage_json}}},\n\
         \x20 \"response_cache\": {{\"client_observed_hits\": {hits}, \"client_hit_rate\": {hit_rate:.4}, \"server\": {server_cache}}},\n\
         \x20 \"generated\": {gen_line},\n\
         \x20 \"store\": {store_line},\n\
         \x20 \"shards\": {shards_line}\n\
         }}\n",
        gen_line = gen_json.as_deref().unwrap_or("null"),
        store_line = store_json.unwrap_or("null"),
        shards_line = shards_json.unwrap_or("null"),
        par = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        transport = if opts.binary { "binary" } else { "json" },
        gen = opts.gen,
        conc = opts.concurrency,
        passes = opts.passes,
        format = opts.format,
        sent = opts.concurrency * opts.passes * work.specs.len(),
        ok = total.ok,
        rejected = total.rejected,
        ident = perr == 0,
        throughput = total.throughput(wall_ms),
        latency = ClientReport::latency_json(&total.latency),
        hits = total.cache_hits,
        hit_rate = total.hit_rate(),
    )
}

/// The `--wire-cmp` mode: one in-process server, the suite replayed over
/// both transports, and four honest comparisons patched into the report's
/// `wire` section:
///
/// * **bytes on the wire** — NDJSON line lengths (plus the `\n` framing)
///   vs the exact `nshot-wire` frame byte counts, requests and responses
///   separately, for the identical request set;
/// * **store bytes** — what the *same* responses occupy persisted as
///   legacy v1 records (uncompressed JSON values in v1 framing, computed
///   analytically from the segment constants so compression cannot flatter
///   the baseline) vs the actual on-disk size of a v2 binary store;
/// * **cached-roundtrip latency** — p50/p99 per transport over warm
///   (cache-hit) passes, so the numbers compare framing cost, not
///   synthesis;
/// * **warm-start wall** — a fresh server warming from a store of legacy
///   JSON values vs one warming from binary values, each proving itself
///   with a full cache-hit pass.
///
/// Responses must be byte-identical across transports (and against direct
/// synthesis); any divergence fails the run.
fn run_wire_cmp(opts: &Options) -> Result<(), String> {
    let work = Workload::build(opts, "blif")?;
    let server = bind(opts, None, None)?;
    let addr = server.local_addr();
    let n = work.specs.len();
    eprintln!("loadgen: wire-cmp: {n} circuits against {addr}");

    // Cold pass: populate the cache so the measured passes compare
    // transport cost on identical cache-hit work.
    let cold = drive_pass(addr, 0, &work, 1, false);
    if cold.ok != n as u64 {
        let errors = &cold.protocol_errors;
        return Err(format!("cold pass: {} of {n} ok: {errors:?}", cold.ok));
    }
    let mut errors = cold.protocol_errors;

    let mut json_conn = connect(addr, false)?;
    let mut bin_conn = connect(addr, true)?;

    // Measured passes (all cache hits). Byte counts come from the first
    // repetition — responses are deterministic, so every repetition puts
    // the same bytes on the wire.
    let reps = opts.passes.max(8);
    let json_lat = Histogram::default();
    let bin_lat = Histogram::default();
    let (mut json_req_bytes, mut json_resp_bytes) = (0u64, 0u64);
    let (mut bin_req_bytes, mut bin_resp_bytes) = (0u64, 0u64);
    let mut json_netlists: Vec<String> = Vec::new();
    for rep in 0..reps {
        for (i, (name, spec)) in work.specs.iter().enumerate() {
            let line = synth_line(&format!("wire:json:{name}"), spec, "blif");
            let t0 = Instant::now();
            let raw = json_conn
                .roundtrip(&line)
                .map_err(|e| format!("{name}: json pass: {e}"))?;
            json_lat.record(t0.elapsed().as_micros() as u64);
            let obj = json::parse(&raw).map_err(|e| format!("{name}: bad json: {e}"))?;
            if rep == 0 {
                json_req_bytes += line.len() as u64 + 1;
                json_resp_bytes += raw.len() as u64 + 1;
                if obj.get("cached").and_then(Json::as_bool) != Some(true) {
                    errors.push(format!("{name}: json measured pass missed the cache"));
                }
                let got = obj.get("blif").and_then(Json::as_str).unwrap_or_default();
                if got != work.expected[i] {
                    errors.push(format!("{name}: json netlist differs from direct call"));
                }
                json_netlists.push(got.to_owned());
            }
        }
    }
    for rep in 0..reps {
        for (i, (name, spec)) in work.specs.iter().enumerate() {
            let line = synth_line(&format!("wire:bin:{name}"), spec, "blif");
            let env = parse_request(&line).map_err(|(_, e)| format!("{name}: {e}"))?;
            let frame = wirecodec::encode_request(&env)
                .map_err(|e| format!("{name}: encode request: {e}"))?;
            let t0 = Instant::now();
            let obj = bin_conn
                .roundtrip_frame(&frame)
                .map_err(|e| format!("{name}: binary pass: {e}"))?;
            bin_lat.record(t0.elapsed().as_micros() as u64);
            if rep == 0 {
                bin_req_bytes += frame.len() as u64;
                // Re-encoding the assembled object is byte-exact (the
                // codec is deterministic), so the sum is what the server
                // actually sent.
                let frames = wirecodec::encode_response_obj(&obj)
                    .map_err(|e| format!("{name}: re-encode response: {e}"))?;
                bin_resp_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
                let got = obj.get("blif").and_then(Json::as_str).unwrap_or_default();
                if got != work.expected[i] {
                    errors.push(format!("{name}: binary netlist differs from direct call"));
                }
                if got != json_netlists[i] {
                    errors.push(format!("{name}: transports disagree on the netlist"));
                }
            }
        }
    }

    // Done with the shared server.
    server.shutdown();
    server.wait();

    // Store comparison: the same responses persisted both ways.
    let base = std::env::temp_dir().join(format!("nshot-wire-cmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let legacy_dir = base.join("legacy");
    let binary_dir = base.join("binary");
    let mut legacy_store_bytes = nshot_store::HEADER_LEN;
    let binary_store_bytes;
    {
        let open = |dir: &Path, value_version| {
            nshot_store::Store::open(nshot_store::StoreConfig {
                fsync: nshot_server::FsyncPolicy::Never,
                value_version,
                ..nshot_store::StoreConfig::new(dir)
            })
            .map_err(|e| format!("open store {}: {e}", dir.display()))
        };
        let mut legacy = open(&legacy_dir, 1)?;
        let mut binary = open(&binary_dir, nshot_server::RESPONSE_STORE_VERSION)?;
        for (_, spec) in &work.specs {
            // The full response (fields included) is what the store
            // persists, computed by the same service path the server runs.
            let req = SynthRequest {
                spec: spec.clone(),
                method: Method::Nshot,
                minimizer: Minimizer::Heuristic,
                trials: 0,
                format: OutputFormat::Blif,
                share: false,
            };
            let resp = process_synth(&req, &Deadline::unlimited());
            let key = req.cache_key();
            // v1 records store the bare rendered fields (the cache's
            // legacy string); the warm path re-wraps them in braces.
            let legacy_value = resp.deterministic_fields();
            // What these records cost in the v1 on-disk format
            // (uncompressed JSON values): header + per-record framing,
            // straight from the segment constants. Computed analytically
            // because the current store always writes v2 framing — the
            // legacy store below exists for the warm-start measurement,
            // not the size baseline.
            legacy_store_bytes +=
                nshot_store::frame_len(key.len() as u32, legacy_value.len() as u32);
            legacy
                .put(&key, legacy_value.as_bytes())
                .map_err(|e| format!("legacy put: {e}"))?;
            let binary_value =
                wirecodec::encode_response_value(resp.code, resp.status, &resp.body);
            binary
                .put(&key, &binary_value)
                .map_err(|e| format!("binary put: {e}"))?;
        }
        legacy.flush().map_err(|e| format!("legacy flush: {e}"))?;
        binary.flush().map_err(|e| format!("binary flush: {e}"))?;
        binary_store_bytes = binary.report().bytes;
    }

    // Warm-start wall: bind + one full cache-hit pass, per value format.
    let legacy_warm_ms = warm_wall(opts, &legacy_dir, &work)?;
    let binary_warm_ms = warm_wall(opts, &binary_dir, &work)?;
    let _ = std::fs::remove_dir_all(&base);

    let json_wire = json_req_bytes + json_resp_bytes;
    let bin_wire = bin_req_bytes + bin_resp_bytes;
    let wire_ratio = json_wire as f64 / (bin_wire.max(1)) as f64;
    let store_ratio = legacy_store_bytes as f64 / (binary_store_bytes.max(1)) as f64;
    let byte_identical = errors.is_empty();
    eprintln!(
        "loadgen: wire-cmp: wire {json_wire} -> {bin_wire} B ({wire_ratio:.2}x), \
         store {legacy_store_bytes} -> {binary_store_bytes} B ({store_ratio:.2}x), \
         json p50 {} us, binary p50 {} us, warm {legacy_warm_ms:.0} -> {binary_warm_ms:.0} ms",
        json_lat.p50_us(),
        bin_lat.p50_us(),
    );

    let wire_json = format!(
        "{{\n\
         \x20   \"circuits\": {n},\n\
         \x20   \"cached_roundtrips_per_transport\": {rt},\n\
         \x20   \"bytes_on_wire\": {{\"json\": {{\"request\": {jreq}, \"response\": {jresp}, \"total\": {jtot}}}, \"binary\": {{\"request\": {breq}, \"response\": {bresp}, \"total\": {btot}}}, \"json_over_binary\": {wire_ratio:.2}}},\n\
         \x20   \"store_bytes\": {{\"legacy_v1_json\": {lstore}, \"binary_v2\": {bstore}, \"legacy_over_binary\": {store_ratio:.2}}},\n\
         \x20   \"cached_latency_us\": {{\"json\": {{\"p50\": {jp50}, \"p99\": {jp99}}}, \"binary\": {{\"p50\": {bp50}, \"p99\": {bp99}}}}},\n\
         \x20   \"warm_start_ms\": {{\"legacy_v1_json\": {lwarm:.2}, \"binary_v2\": {bwarm:.2}}},\n\
         \x20   \"byte_identical\": {byte_identical}\n\
         \x20 }}",
        n = work.specs.len(),
        rt = reps as u64 * work.specs.len() as u64,
        jreq = json_req_bytes,
        jresp = json_resp_bytes,
        jtot = json_wire,
        breq = bin_req_bytes,
        bresp = bin_resp_bytes,
        btot = bin_wire,
        lstore = legacy_store_bytes,
        bstore = binary_store_bytes,
        jp50 = json_lat.p50_us(),
        jp99 = json_lat.p99_us(),
        bp50 = bin_lat.p50_us(),
        bp99 = bin_lat.p99_us(),
        lwarm = legacy_warm_ms,
        bwarm = binary_warm_ms,
    );
    patch_wire_section(&opts.out, &wire_json)?;
    eprintln!("loadgen: wire-cmp: patched `wire` section into {}", opts.out);

    check(&errors, "wire-cmp error")
}

/// Bind a fresh server warming from `dir` and prove the warm start with a
/// full cache-hit pass (byte-identity included); returns the wall time of
/// bind + pass in milliseconds.
fn warm_wall(opts: &Options, dir: &Path, work: &Workload) -> Result<f64, String> {
    let t0 = Instant::now();
    let server = bind(opts, None, Some(dir))?;
    let pass = drive_pass(server.local_addr(), 0, work, 1, false);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    server.wait();
    if let Some(e) = pass.protocol_errors.first() {
        return Err(format!("warm start from {}: {e}", dir.display()));
    }
    if pass.cache_hits != work.specs.len() as u64 {
        return Err(format!(
            "warm start from {} missed the cache: {} of {} hits",
            dir.display(),
            pass.cache_hits,
            work.specs.len()
        ));
    }
    Ok(wall_ms)
}

/// Splice `"wire": {...}` into the report at `path` as its final section,
/// replacing an existing `wire` section if one is present and leaving
/// every other section byte-for-byte untouched. The patched text must
/// parse back as JSON or the original file is left alone.
fn patch_wire_section(path: &str, wire_json: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!("{path}: {e} (run the main loadgen first to create the report)")
    })?;
    let head = match text.find(",\n  \"wire\":") {
        Some(pos) => text[..pos].to_owned(),
        None => {
            let trimmed = text.trim_end();
            let stripped = trimmed
                .strip_suffix('}')
                .ok_or_else(|| format!("{path}: does not end with a JSON object"))?;
            stripped.trim_end().to_owned()
        }
    };
    let patched = format!("{head},\n  \"wire\": {wire_json}\n}}\n");
    json::parse(&patched).map_err(|e| format!("{path}: patched report is not valid JSON: {e}"))?;
    std::fs::write(path, patched).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard front's merged exposition of `observations[i]` recorded on
    /// shard `i`, plus one histogram that recorded them all.
    fn two_shards(observations: [&[u64]; 2]) -> (String, Histogram) {
        let whole = Histogram::default();
        let mut text = String::new();
        for (i, values) in observations.iter().enumerate() {
            let shard = Histogram::default();
            for &us in *values {
                shard.record(us);
                whole.record(us);
            }
            let labels = format!("shard=\"{i}\",stage=\"minimize\"");
            shard.render_prometheus(&mut text, "nshot_stage_duration_us", &labels);
        }
        (text, whole)
    }

    #[test]
    fn stage_timings_sum_across_shards() {
        // Shard 0: three observations ≤ 8 µs (sum 20); shard 1: one in
        // (512, 1024] µs (sum 900).
        let (text, whole) = two_shards([&[6, 7, 7], &[900]]);
        let stats = parse_stage_histograms(&text);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "minimize");
        let want = StageStat {
            count: 4,
            sum_us: 920,
            p50_us: 8,
            p99_us: 1024,
        };
        assert_eq!(stats[0].1, want);
        assert_eq!(want.count, whole.count());
        assert_eq!(want.sum_us, whole.sum_us());
        assert_eq!(want.p50_us, whole.p50_us());
        let top_edge = whole.nonzero_buckets().last().map(|b| b.1);
        assert_eq!(Some(want.p99_us), top_edge);
    }

    #[test]
    fn interleaved_shard_buckets_are_not_read_as_cumulative() {
        // Summing each shard's cumulative counts per `le` would put the
        // median at 1024; the merged distribution is 3, 5, 900.
        let (text, whole) = two_shards([&[5], &[3, 900]]);
        let stats = parse_stage_histograms(&text);
        let want = StageStat {
            count: 3,
            sum_us: 908,
            p50_us: 8,
            p99_us: 1024,
        };
        assert_eq!(stats[0].1, want);
        assert_eq!(want.count, whole.count());
        assert_eq!(want.p50_us, whole.p50_us());
    }

    #[test]
    fn a_single_server_exposition_reads_back_unchanged() {
        let h = Histogram::default();
        for us in [1, 1, 3, 900, 70_000] {
            h.record(us);
        }
        let mut text = String::new();
        h.render_prometheus(&mut text, "nshot_stage_duration_us", "stage=\"parse\"");
        let stats = parse_stage_histograms(&text);
        assert_eq!(stats[0].0, "parse");
        assert_eq!(stats[0].1.count, h.count());
        assert_eq!(stats[0].1.sum_us, h.sum_us());
        assert_eq!(stats[0].1.p50_us, h.p50_us());
    }
}
