//! End-to-end loopback tests: a real `Server` on an ephemeral port, real
//! TCP clients, and byte-for-byte comparison against direct library calls.

use nshot_core::{synthesize, SynthesisOptions};
use nshot_server::{json, Json, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Small/medium circuits from the Table 2 suite (the full 25-circuit sweep
/// is `e2ebench`'s serve-mixed workload; the e2e test favours debug-build
/// speed).
const CIRCUITS: &[&str] = &["chu133", "chu172", "full", "hazard", "qr42", "vbe5b"];

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { reader, writer }
    }

    /// Send one raw line, read one response line.
    fn roundtrip_raw(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(response.ends_with('\n'), "truncated response");
        response.trim_end().to_owned()
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        let raw = self.roundtrip_raw(line);
        json::parse(&raw).unwrap_or_else(|e| panic!("bad response json ({e}): {raw}"))
    }

    /// Scrape the `metrics` op; returns a reader of single samples.
    fn metrics(&mut self) -> impl Fn(&str) -> u64 {
        let m = self.roundtrip(r#"{"op":"metrics"}"#);
        let expo = m
            .get("exposition")
            .and_then(Json::as_str)
            .expect("exposition")
            .to_owned();
        move |series| {
            let prefix = format!("{series} ");
            expo.lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no sample for {series} in:\n{expo}"))
        }
    }
}

fn spec_text(circuit: &str) -> String {
    nshot_benchmarks::by_name(circuit)
        .expect("in suite")
        .build()
        .to_text()
}

fn synth_line(id: u64, spec: &str) -> String {
    let obj = Json::Obj(vec![
        ("id".into(), Json::Num(id as f64)),
        ("op".into(), Json::Str("synth".into())),
        ("spec".into(), Json::Str(spec.into())),
    ]);
    obj.to_string()
}

/// The deterministic part of a response line (everything between the id
/// field and the `cached` stamp).
fn deterministic_part(raw: &str) -> &str {
    let start = raw.find(",\"code\":").expect("code field");
    let end = raw.rfind(",\"cached\":").expect("cached field");
    &raw[start..end]
}

#[test]
fn concurrent_clients_get_byte_identical_responses() {
    let server = Server::bind(ServerConfig {
        queue_cap: 64,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    let specs: Vec<(String, String)> = CIRCUITS
        .iter()
        .map(|c| (c.to_string(), spec_text(c)))
        .collect();

    // Expected responses via direct library calls.
    let expected: Vec<(String, u32, String)> = specs
        .iter()
        .map(|(name, spec)| {
            let sg = nshot_sg::parse_sg(spec).expect("spec roundtrip");
            let imp = synthesize(&sg, &SynthesisOptions::default()).expect("synthesize");
            (name.clone(), imp.area, imp.netlist.to_blif())
        })
        .collect();

    // 8 concurrent clients, each replaying all circuits (rotated start so
    // the interleavings differ), twice. Responses must match the direct
    // call byte-for-byte, and the deterministic prefix must be identical
    // across every client and pass.
    let n_clients = 8;
    let all_parts: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|ci| {
                let specs = &specs;
                let expected = &expected;
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut parts = vec![String::new(); specs.len()];
                    for pass in 0..2 {
                        for k in 0..specs.len() {
                            let i = (k + ci) % specs.len();
                            let raw =
                                client.roundtrip_raw(&synth_line(i as u64, &specs[i].1));
                            let v = json::parse(&raw).expect("response json");
                            assert_eq!(
                                v.get("code").and_then(Json::as_u64),
                                Some(200),
                                "client {ci} pass {pass} circuit {}: {raw}",
                                specs[i].0
                            );
                            assert_eq!(v.get("id").and_then(Json::as_u64), Some(i as u64));
                            assert_eq!(
                                v.get("area").and_then(Json::as_f64),
                                Some(f64::from(expected[i].1)),
                                "area mismatch on {}",
                                specs[i].0
                            );
                            assert_eq!(
                                v.get("blif").and_then(Json::as_str),
                                Some(expected[i].2.as_str()),
                                "netlist not byte-identical on {}",
                                specs[i].0
                            );
                            let det = deterministic_part(&raw).to_owned();
                            if pass == 0 {
                                parts[i] = det;
                            } else {
                                assert_eq!(parts[i], det, "pass divergence on {}", specs[i].0);
                            }
                        }
                    }
                    parts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });
    for parts in &all_parts[1..] {
        assert_eq!(parts, &all_parts[0], "cross-client divergence");
    }

    // After 8 clients × 2 passes of the same 6 requests, the response
    // cache must have answered most of them.
    let mut client = Client::connect(addr);
    let sample = client.metrics();
    let hits = sample("nshot_response_cache_hits_total");
    let misses = sample("nshot_response_cache_misses_total");
    assert!(hits > 0, "no cache hits after a repeat pass");
    let synths = (n_clients * specs.len() * 2) as u64;
    assert_eq!(hits + misses, synths, "every synth request consults the cache");
    assert!(sample("nshot_request_duration_us_count") >= synths);
    assert!(sample("nshot_request_duration_us_sum") > 0);

    server.shutdown();
    server.wait();
}

#[test]
fn monte_carlo_counts_match_direct_call() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());

    let spec = spec_text("full");
    let line = Json::Obj(vec![
        ("op".into(), Json::Str("synth".into())),
        ("spec".into(), Json::Str(spec.clone())),
        ("trials".into(), Json::Num(10.0)),
        ("format".into(), Json::Str("none".into())),
    ])
    .to_string();
    let v = client.roundtrip(&line);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(200));

    let sg = nshot_sg::parse_sg(&spec).unwrap();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let direct = nshot_sim::monte_carlo(
        &sg,
        &imp,
        &nshot_sim::ConformanceConfig::default(),
        10,
    );
    assert_eq!(
        v.get("clean_trials").and_then(Json::as_u64),
        Some(direct.clean_trials as u64)
    );
    assert_eq!(
        v.get("total_transitions").and_then(Json::as_u64),
        Some(direct.total_transitions as u64)
    );
    assert_eq!(v.get("hazard_free").and_then(Json::as_bool), Some(true));

    server.shutdown();
    server.wait();
}

#[test]
fn verify_op_proves_circuits_and_caches() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());

    let spec = spec_text("chu133");
    let line = Json::Obj(vec![
        ("id".into(), Json::Num(1.0)),
        ("op".into(), Json::Str("verify".into())),
        ("spec".into(), Json::Str(spec.clone())),
    ])
    .to_string();

    let first_raw = client.roundtrip_raw(&line);
    let first = json::parse(&first_raw).expect("response json");
    assert_eq!(first.get("code").and_then(Json::as_u64), Some(200), "{first_raw}");
    assert_eq!(first.get("proved").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("method").and_then(Json::as_str), Some("proof"));
    assert_eq!(first.get("hazard_free").and_then(Json::as_bool), Some(true));
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert!(first.get("explored_states").and_then(Json::as_u64).unwrap() > 0);

    // The wire result must agree with a direct library call.
    let sg = nshot_sg::parse_sg(&spec).unwrap();
    let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
    let verdict = nshot_mc::check(&sg, &imp.netlist, &nshot_mc::McConfig::default()).unwrap();
    let cert = verdict.certificate().expect("proved");
    assert_eq!(
        first.get("explored_states").and_then(Json::as_u64),
        Some(cert.stats.states)
    );
    assert_eq!(
        first.get("edges").and_then(Json::as_u64),
        Some(cert.stats.edges)
    );

    // A repeat is a cache hit with an identical deterministic prefix.
    let second_raw = client.roundtrip_raw(&line);
    let second = json::parse(&second_raw).expect("response json");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(deterministic_part(&first_raw), deterministic_part(&second_raw));

    // A tiny budget falls back to sampling — and is cached under a
    // different key, not served from the proof's entry.
    let tiny = Json::Obj(vec![
        ("id".into(), Json::Num(2.0)),
        ("op".into(), Json::Str("verify".into())),
        ("spec".into(), Json::Str(spec.clone())),
        ("max_states".into(), Json::Num(2.0)),
    ])
    .to_string();
    let v = client.roundtrip(&tiny);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(200));
    assert_eq!(v.get("proved").and_then(Json::as_bool), Some(false));
    assert_eq!(
        v.get("method").and_then(Json::as_str),
        Some("monte_carlo_fallback")
    );
    assert_eq!(v.get("hazard_free").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));

    // Counters saw three verify requests.
    let sample = client.metrics();
    assert_eq!(sample("nshot_verify_requests_total"), 3);
    assert_eq!(sample("nshot_synth_requests_total"), 0);

    server.shutdown();
    server.wait();
}

#[test]
fn verify_op_rejects_malformed_specs_with_typed_errors() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());

    // Malformed .g STG text (duplicate transition): 400 from the parser,
    // never a panic or dropped connection.
    let dup = ".model bad\n.inputs a\n.outputs y\n.graph\na+ y+\na+ y+\ny+ a-\n.marking { <y+,a-> }\n.end\n";
    let line = Json::Obj(vec![
        ("id".into(), Json::Num(1.0)),
        ("op".into(), Json::Str("verify".into())),
        ("spec".into(), Json::Str(dup.into())),
    ])
    .to_string();
    let v = client.roundtrip(&line);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(400), "{v:?}");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));

    // Bad request shape: max_states out of range.
    let v = client.roundtrip(r#"{"id":2,"op":"verify","spec":"x","max_states":0}"#);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(400));

    // The connection is still healthy.
    let v = client.roundtrip(r#"{"id":3,"op":"ping"}"#);
    assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));

    server.shutdown();
    server.wait();
}

#[test]
fn protocol_errors_are_answered_not_fatal() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());

    // Bad JSON, unknown op, missing spec, bad spec — all structured 4xx,
    // and the connection keeps working afterwards.
    let v = client.roundtrip("this is not json");
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(400));
    assert_eq!(v.get("id"), Some(&Json::Null));

    let v = client.roundtrip(r#"{"id":1,"op":"transmogrify"}"#);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(400));
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));

    let v = client.roundtrip(r#"{"id":2,"op":"synth","spec":".inputs r\n"}"#);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(400));
    assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));

    // Raw non-UTF-8 bytes on the wire.
    client.writer.write_all(b"\xff\xfe{\"op\":\"ping\"}\n").unwrap();
    client.writer.flush().unwrap();
    let mut raw = String::new();
    client.reader.read_line(&mut raw).unwrap();
    let v = json::parse(raw.trim_end()).expect("utf-8 error response");
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(400));

    // Still alive.
    let v = client.roundtrip(r#"{"id":3,"op":"ping"}"#);
    assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));

    server.shutdown();
    server.wait();
}

#[test]
fn deeply_nested_json_is_a_400_not_a_crash() {
    // A ping whose id nests 10,000 arrays: about 20 KB on one line. A
    // parser without a depth cap recurses once per `[` on the connection
    // thread's default stack, overflows it and aborts the whole process.
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    let depth = 10_000;
    let line = format!(
        r#"{{"op":"ping","id":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let v = client.roundtrip(&line);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(400), "{v}");
    assert_eq!(v.get("id"), Some(&Json::Null));
    let error = v.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("nested too deeply"), "{error}");

    // The process is still up: a new connection is served.
    let mut fresh = Client::connect(server.local_addr());
    let v = fresh.roundtrip(r#"{"id":1,"op":"ping"}"#);
    assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));

    server.shutdown();
    server.wait();
}

#[test]
fn hello_ack_reports_wire_version_2() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    for format in ["json", "binary"] {
        let mut client = Client::connect(server.local_addr());
        let v = client.roundtrip(&format!(r#"{{"id":"h","op":"hello","format":"{format}"}}"#));
        assert_eq!(v.get("code").and_then(Json::as_u64), Some(200), "{v}");
        assert_eq!(v.get("format").and_then(Json::as_str), Some(format));
        assert_eq!(v.get("wire_version").and_then(Json::as_u64), Some(2));
    }
    server.shutdown();
    server.wait();
}

#[test]
fn backpressure_rejects_with_queue_depth() {
    // One worker, one queue slot: while the worker chews on a heavy
    // circuit, at most one job queues and the rest must bounce with 429.
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_cap: 1,
        cache_cap: 0, // every request must reach the queue
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    let heavy = spec_text("vbe10b"); // 256 states
    let mut rejected = 0;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let heavy = &heavy;
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let v = client.roundtrip(&synth_line(i, heavy));
                    v.get("code").and_then(Json::as_u64).unwrap()
                })
            })
            .collect();
        for h in handles {
            let code = h.join().expect("client");
            assert!(code == 200 || code == 429, "unexpected code {code}");
            if code == 429 {
                rejected += 1;
            }
        }
    });
    assert!(rejected > 0, "six parallel jobs through a 1-slot queue must bounce");

    let mut client = Client::connect(addr);
    let sample = client.metrics();
    assert_eq!(
        sample("nshot_responses_total{outcome=\"rejected\"}"),
        rejected,
        "reject counter matches observed 429s"
    );
    assert_eq!(sample("nshot_queue_capacity"), 1);
    assert!(sample("nshot_queue_high_water") >= 1);

    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_request_drains_cleanly() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    // Launch a few jobs, then — while they are in flight — request
    // shutdown from another connection. The shutdown reply must only
    // arrive after the drain, and the jobs must all complete normally.
    let spec = spec_text("chu150");
    let results = std::thread::scope(|s| {
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                let spec = &spec;
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let v = client.roundtrip(&synth_line(i, spec));
                    v.get("code").and_then(Json::as_u64).unwrap()
                })
            })
            .collect();
        // Give the jobs a moment to be admitted, then shut down.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let shutdown = s.spawn(move || {
            let mut client = Client::connect(addr);
            client.roundtrip(r#"{"id":"ctl","op":"shutdown"}"#)
        });
        let codes: Vec<u64> = jobs.into_iter().map(|h| h.join().unwrap()).collect();
        let ack = shutdown.join().unwrap();
        (codes, ack)
    });
    let (codes, ack) = results;
    for code in codes {
        assert!(
            code == 200 || code == 503,
            "in-flight jobs either complete or are cleanly refused, got {code}"
        );
    }
    assert_eq!(ack.get("code").and_then(Json::as_u64), Some(200));
    assert_eq!(ack.get("drained").and_then(Json::as_bool), Some(true));
    assert_eq!(ack.get("id").and_then(Json::as_str), Some("ctl"));

    // The server must now wind down on its own: workers exit, accept loop
    // exits, wait() returns.
    server.wait();

    // And new connections are refused (or immediately dead).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            let _ = w.write_all(b"{\"op\":\"ping\"}\n");
            let mut line = String::new();
            let n = reader.read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection must not be served");
        }
    }
}
