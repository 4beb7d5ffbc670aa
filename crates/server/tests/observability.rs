//! Observability end-to-end: the `metrics` op over real TCP, per-response
//! stage timings vs wall-clock, and netlist byte-determinism with the
//! NDJSON trace sink on vs off.

use nshot_core::{synthesize, SynthesisOptions};
use nshot_server::{json, Json, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

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
}

fn spec_text(circuit: &str) -> String {
    nshot_benchmarks::by_name(circuit)
        .expect("in suite")
        .build()
        .to_text()
}

fn synth_line(id: u64, spec: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Num(id as f64)),
        ("op".into(), Json::Str("synth".into())),
        ("spec".into(), Json::Str(spec.into())),
        ("format".into(), Json::Str("none".into())),
    ])
    .to_string()
}

/// The `metrics` op returns a Prometheus text exposition in which every
/// non-comment line parses as `name[{labels}] value`, the server counters
/// reflect the traffic, and the pipeline-stage histograms cover every
/// stage after one uncached synthesis.
#[test]
fn metrics_exposition_parses_and_covers_stages() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());

    let v = client.roundtrip(&synth_line(1, &spec_text("hazard")));
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(200));

    let m = client.roundtrip(r#"{"id":2,"op":"metrics"}"#);
    assert_eq!(m.get("code").and_then(Json::as_u64), Some(200));
    let expo = m
        .get("exposition")
        .and_then(Json::as_str)
        .expect("exposition field");

    // Every line is a comment or `series value` with a numeric value.
    for line in expo.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("unparseable exposition line: {line}")
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample on line: {line}"
        );
        assert!(
            series.chars().next().is_some_and(|c| c.is_ascii_alphabetic()),
            "bad series name on line: {line}"
        );
    }

    // Server-side counters saw the synth request.
    assert!(expo.contains("# TYPE nshot_requests_total counter"));
    assert!(expo.contains("nshot_synth_requests_total 1"));
    assert!(expo.contains("nshot_request_duration_us_count"));

    // The global registry rides along: stage histograms for all seven
    // pipeline stages (the synthesis above exercised each of them), and
    // the espresso cache counters.
    for stage in nshot_obs::PIPELINE_STAGES {
        let series = format!("nshot_stage_duration_us_count{{stage=\"{}\"}}", stage.name());
        assert!(expo.contains(&series), "missing stage series {series}");
    }
    assert!(expo.contains("nshot_espresso_cache_hits_total"));
    assert!(expo.contains("nshot_espresso_cache_entries"));

    server.shutdown();
    let report = server.wait();
    assert!(report.served >= 2);
    assert!(report.metrics.contains("nshot_requests_total"));
}

/// Each uncached synth response carries a per-stage `timing` map whose
/// total is bounded by the end-to-end `service_us` (with one pipeline
/// thread the stages are strictly sequential), and a monotonically
/// increasing trace id. Cache hits skip the pipeline and carry no timing.
#[test]
fn per_stage_timings_sum_within_service_time() {
    // One pipeline thread: stage spans cannot overlap, so their sum is a
    // lower bound of the request's wall-clock.
    let _pin = nshot_par::ThreadGuard::pin(1);
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.local_addr());

    let line = synth_line(7, &spec_text("chu172"));
    let v = client.roundtrip(&line);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(200));
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
    let trace = v.get("trace").and_then(Json::as_u64).expect("trace id");
    assert!(trace > 0);

    let timing = v.get("timing").expect("timing map on uncached synth");
    let service_us = v.get("service_us").and_then(Json::as_u64).unwrap();
    let mut sum = 0;
    let mut stages_seen = 0;
    for stage in nshot_obs::PIPELINE_STAGES {
        if let Some(us) = timing.get(stage.name()).and_then(Json::as_u64) {
            sum += us;
            stages_seen += 1;
        }
    }
    assert!(
        stages_seen >= 5,
        "expected most pipeline stages in the timing map, got {timing}"
    );
    assert!(
        sum <= service_us,
        "stage timings ({sum}us) exceed end-to-end service time ({service_us}us)"
    );

    // The cached replay answers without running the pipeline: no timing
    // map, fresh trace id.
    let v2 = client.roundtrip(&line);
    assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));
    assert!(v2.get("timing").is_none(), "cache hit must not carry timing");
    let trace2 = v2.get("trace").and_then(Json::as_u64).unwrap();
    assert!(trace2 > trace, "trace ids increase per request");

    server.shutdown();
    server.wait();
}

/// A request that dies at the deadline still reports the per-stage
/// timings of every stage that completed before the budget ran out: the
/// 504 body carries a `partial_timing` object so an operator can see
/// where the time went without re-running the request under a tracer.
#[test]
fn timeout_response_carries_partial_stage_timings() {
    // combuf1's exhaustive model check (215k composed states) takes a few
    // hundred ms even in a release build; parse and synthesis finish in a
    // few ms. The deadline is noticed after the model-check stage (or
    // inside the Monte-Carlo fallback), so the parse/synthesis spans are
    // always on the books. (chu150 is too small here: its whole pipeline
    // can finish under 60 ms in release and answer 200.)
    let server = Server::bind(ServerConfig {
        timeout_ms: 60,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.local_addr());

    let line = Json::Obj(vec![
        ("id".into(), Json::Num(1.0)),
        ("op".into(), Json::Str("verify".into())),
        ("spec".into(), Json::Str(spec_text("combuf1"))),
    ])
    .to_string();
    let v = client.roundtrip(&line);
    assert_eq!(
        v.get("code").and_then(Json::as_u64),
        Some(504),
        "expected a deadline kill, got {v}"
    );

    let partial = v
        .get("partial_timing")
        .expect("504 must carry partial_timing for completed stages");
    let Json::Obj(entries) = partial else {
        panic!("partial_timing must be an object, got {partial}");
    };
    assert!(!entries.is_empty(), "no completed stages recorded");
    // A verify request runs the synthesis stages plus model_check (and
    // possibly monte_carlo fallback), so validate against the full span
    // vocabulary, not just the seven synthesis stages.
    let known: Vec<&str> = nshot_obs::STAGES.iter().map(|s| s.name()).collect();
    for (stage, us) in entries {
        assert!(
            known.contains(&stage.as_str()),
            "unknown stage '{stage}' in partial_timing"
        );
        assert!(us.as_u64().is_some(), "non-numeric timing for {stage}");
    }
    // The synthesis front half always beats a 60 ms deadline.
    assert!(
        entries.iter().any(|(k, _)| k == "parse"),
        "parse stage missing from {partial}"
    );

    // Timeouts are counted, and a 504 is never cached.
    let m = client.roundtrip(r#"{"id":2,"op":"metrics"}"#);
    let expo = m.get("exposition").and_then(Json::as_str).unwrap();
    assert!(
        expo.contains("nshot_responses_total{outcome=\"timeout\"} 1"),
        "timeout not counted"
    );

    server.shutdown();
    server.wait();
}

/// One exhaustive `verify` populates the model-checker's registry series:
/// run counters, cumulative state/edge/violation-check totals, the
/// eagerly-registered verdict family, and the exploration gauges all show
/// up in the Prometheus exposition (the parse test above already proves
/// every line is well-formed).
#[test]
fn verify_populates_model_checker_series() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr());

    let line = Json::Obj(vec![
        ("id".into(), Json::Num(1.0)),
        ("op".into(), Json::Str("verify".into())),
        ("spec".into(), Json::Str(spec_text("hazard"))),
    ])
    .to_string();
    let v = client.roundtrip(&line);
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(200), "{v}");
    assert_eq!(v.get("proved").and_then(Json::as_bool), Some(true));

    let m = client.roundtrip(r#"{"id":2,"op":"metrics"}"#);
    let expo = m.get("exposition").and_then(Json::as_str).unwrap();
    for series in [
        "nshot_mc_runs_total",
        "nshot_mc_states_total",
        "nshot_mc_edges_total",
        "nshot_mc_violation_checks_total",
        "nshot_mc_peak_frontier",
        "nshot_mc_max_depth",
        "nshot_mc_visited_bytes",
        "nshot_mc_verdicts_total{verdict=\"proved\"}",
        "nshot_mc_verdicts_total{verdict=\"violated\"}",
        "nshot_mc_verdicts_total{verdict=\"budget_exceeded\"}",
    ] {
        assert!(expo.contains(series), "missing model-checker series {series}");
    }

    server.shutdown();
    server.wait();
}

/// Requests slower than the configured threshold are counted in the
/// server's `nshot_slow_requests_total`.
#[test]
fn slow_requests_are_counted() {
    // 1 ms threshold: an uncached synthesis of a big circuit trips it.
    // wrdatab is used by no other test in this binary, so the process-wide
    // espresso cache cannot have pre-solved its covers and turned the
    // request sub-millisecond.
    let server = Server::bind(ServerConfig {
        slow_ms: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.local_addr());

    let v = client.roundtrip(&synth_line(1, &spec_text("wrdatab")));
    assert_eq!(v.get("code").and_then(Json::as_u64), Some(200));

    let m = client.roundtrip(r#"{"id":2,"op":"metrics"}"#);
    let expo = m.get("exposition").and_then(Json::as_str).unwrap();
    assert!(
        expo.contains("nshot_slow_requests_total 1"),
        "slow request not counted:\n{expo}"
    );

    server.shutdown();
    server.wait();
}

/// Turning the NDJSON trace sink on must not change synthesis output by a
/// single byte, and a traced run covers every pipeline stage. The sink is
/// installed programmatically (`set_trace`) because `NSHOT_TRACE` is only
/// read once per process.
#[test]
fn trace_sink_does_not_change_netlist_bytes() {
    let spec = spec_text("qr42");
    let opts = SynthesisOptions::default();

    // Baseline with tracing off.
    let sg = nshot_sg::parse_sg(&spec).expect("parse");
    let baseline = synthesize(&sg, &opts).expect("synthesize").netlist.to_blif();

    // Same pipeline with the sink writing to a temp file, attributed to a
    // request context so span lines carry a trace id.
    let path = std::env::temp_dir().join(format!(
        "nshot_trace_determinism_{}.ndjson",
        std::process::id()
    ));
    nshot_obs::set_trace(Some(nshot_obs::TraceTarget::File(path.clone())))
        .expect("open trace sink");
    let (traced, _timings) = nshot_obs::with_request(nshot_obs::next_trace_id(), || {
        let sg = nshot_sg::parse_sg(&spec).expect("parse");
        synthesize(&sg, &opts).expect("synthesize").netlist.to_blif()
    });
    nshot_obs::set_trace(None).expect("close trace sink"); // flushes and closes the sink

    assert_eq!(baseline, traced, "trace sink changed synthesis output");

    let trace = std::fs::read_to_string(&path).expect("trace file");
    let _ = std::fs::remove_file(&path);
    for line in trace.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad trace line ({e}): {line}"));
        assert!(v.get("span").is_some() && v.get("us").is_some());
    }
    for stage in nshot_obs::PIPELINE_STAGES {
        let needle = format!("\"span\":\"{}\"", stage.name());
        assert!(
            trace.contains(&needle),
            "stage {} missing from trace",
            stage.name()
        );
    }
}
