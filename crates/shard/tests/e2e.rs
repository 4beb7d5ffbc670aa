//! End-to-end shard-tier tests: in-process backends behind an in-process
//! front, driven over real sockets.
//!
//! The load-bearing assertions: responses proxied through the front are
//! **byte-identical** (deterministic prefix) to direct library execution;
//! killing one backend degrades **only that shard's keys** to 503s naming
//! the shard while every other key keeps its exact bytes; `metrics` merges
//! per-shard series; `shutdown` fans out as a graceful drain; a backend
//! that never answers costs the fan-out one IO timeout; invalid requests
//! get the same 400 over both transports, from a server and through a
//! front alike; and so does an NDJSON line past the runtime's cap, which
//! also closes its connection.

use nshot_server::client::Client;
use nshot_server::json::Json;
use nshot_server::protocol::MAX_VERIFY_STATES;
use nshot_server::runtime::MAX_LINE_BYTES;
use nshot_server::{
    process_synth, wirecodec, Deadline, Envelope, Method, OutputFormat, Request, Server,
    ServerConfig, SynthRequest, VerifyRequest,
};
use nshot_shard::{HashRing, ShardConfig, ShardFront};
use std::time::{Duration, Instant};

/// The four-state handshake used across the server tests, parameterized so
/// different signal names produce different request keys (and therefore
/// spread across shards).
fn handshake_spec(req_sig: &str, ack_sig: &str) -> String {
    format!(
        ".name hs_{req_sig}_{ack_sig}\n\
         .inputs {req_sig}\n\
         .outputs {ack_sig}\n\
         .initial 00\n\
         00 +{req_sig} 10\n\
         10 +{ack_sig} 11\n\
         11 -{req_sig} 01\n\
         01 -{ack_sig} 00\n"
    )
}

/// A synth request line plus everything needed to check it: the canonical
/// key (for ring placement) and the expected deterministic fields (from
/// direct library execution — no server involved).
struct Case {
    line: String,
    key: String,
    expected_fields: String,
}

fn cases() -> Vec<Case> {
    let names = [
        ("r", "g"),
        ("req", "ack"),
        ("a", "b"),
        ("ri", "ro"),
        ("x", "y"),
        ("p", "q"),
        ("din", "dout"),
        ("go", "done"),
    ];
    names
        .iter()
        .map(|(r, a)| {
            let spec = handshake_spec(r, a);
            // Field values mirror the wire defaults of a bare synth line
            // (notably `share: false`) so `req.cache_key()` is the exact
            // key the front computes from the parsed request.
            let req = SynthRequest {
                spec: spec.clone(),
                method: Method::Nshot,
                minimizer: nshot_core::Minimizer::Heuristic,
                trials: 0,
                format: OutputFormat::Blif,
                share: false,
            };
            let expected_fields =
                process_synth(&req, &Deadline::unlimited()).deterministic_fields();
            let escaped = spec.replace('\n', "\\n");
            Case {
                line: format!(
                    "{{\"op\":\"synth\",\"spec\":\"{escaped}\",\"format\":\"blif\"}}"
                ),
                key: req.cache_key(),
                expected_fields,
            }
        })
        .collect()
}

/// The deterministic slice of a raw response line (between the `id` echo
/// and the send-time stamps) — the same extraction the loopback tests use.
fn deterministic_part(raw: &str) -> &str {
    let start = raw.find(",\"code\":").expect("code field");
    let end = raw.rfind(",\"cached\":").expect("cached field");
    &raw[start + 1..end]
}

fn backend() -> Server {
    Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind backend")
}

#[test]
fn front_proxies_byte_identically_and_degrades_only_the_dead_shard() {
    let backend0 = backend();
    let backend1 = backend();
    let front = ShardFront::bind(ShardConfig {
        backends: vec![backend0.local_addr(), backend1.local_addr()],
        ..ShardConfig::default()
    })
    .expect("bind front");

    let cases = cases();
    let ring = HashRing::new(2, 0);
    // The case set must actually exercise both shards for the kill test
    // to mean anything.
    let shard_of = |c: &Case| ring.shard_for(&c.key).expect("routed");
    assert!(cases.iter().any(|c| shard_of(c) == 0), "no shard-0 keys");
    assert!(cases.iter().any(|c| shard_of(c) == 1), "no shard-1 keys");

    let mut client = Client::connect(front.local_addr()).expect("connect front");
    for case in &cases {
        let raw = client.roundtrip(&case.line).expect("roundtrip");
        assert_eq!(
            deterministic_part(&raw),
            case.expected_fields,
            "proxied response differs from direct synthesis for key {}",
            case.key
        );
    }

    // Kill shard 0's backend (graceful, but from the front's point of
    // view it is simply gone).
    backend0.shutdown();
    backend0.wait();

    for case in &cases {
        let raw = client.roundtrip(&case.line).expect("roundtrip");
        if shard_of(case) == 0 {
            let json = nshot_server::json::parse(&raw).expect("parse 503");
            assert_eq!(
                json.get("code").and_then(Json::as_u64),
                Some(503),
                "dead shard's key must degrade: {raw}"
            );
            assert_eq!(
                json.get("shard").and_then(Json::as_u64),
                Some(0),
                "degradation must name the shard: {raw}"
            );
        } else {
            // The surviving shard is untouched: still byte-identical.
            assert_eq!(
                deterministic_part(&raw),
                case.expected_fields,
                "surviving shard's response changed after the kill"
            );
        }
    }

    // The merged exposition reflects the outage and still carries both
    // shards' labelled series.
    let metrics = front.metrics_text();
    assert!(
        metrics.contains("nshot_shard_backend_up{shard=\"0\"} 0"),
        "shard 0 must be marked down:\n{metrics}"
    );
    assert!(
        metrics.contains("nshot_shard_backend_up{shard=\"1\"} 1"),
        "shard 1 must be marked up:\n{metrics}"
    );
    assert!(
        metrics.contains("nshot_requests_total{shard=\"1\"}"),
        "backend series must be merged under the shard label:\n{metrics}"
    );

    front.stop();
    front.wait();
    backend1.shutdown();
    backend1.wait();
}

#[test]
fn json_and_binary_clients_serve_identical_deterministic_fields() {
    // Client framing × the front's NDJSON hop: json×json (the verbatim
    // relay) and binary×json (canonical render out, frames back). Both
    // must produce the same deterministic fields as direct library
    // execution — the translation layers are pure re-encodings.
    let cases = cases();
    let backend0 = backend();
    let backend1 = backend();
    let front = ShardFront::bind(ShardConfig {
        backends: vec![backend0.local_addr(), backend1.local_addr()],
        ..ShardConfig::default()
    })
    .expect("bind front");

    let mut json_client = Client::connect(front.local_addr()).expect("connect");
    let mut bin_client = Client::connect(front.local_addr()).expect("connect");
    bin_client.upgrade_binary().expect("front accepts binary clients");

    for case in &cases {
        let raw = json_client.roundtrip(&case.line).expect("json roundtrip");
        assert_eq!(
            deterministic_part(&raw),
            case.expected_fields,
            "json client diverged for {}",
            case.key
        );

        let env = nshot_server::protocol::parse_request(&case.line).expect("parse");
        let obj = bin_client.roundtrip_binary(&env).expect("binary roundtrip");
        // Rendering the assembled object reproduces the NDJSON line
        // shape, so the same extraction applies.
        let rendered = obj.to_string();
        assert_eq!(
            deterministic_part(&rendered),
            case.expected_fields,
            "binary client diverged for {}",
            case.key
        );
    }

    front.stop();
    front.wait();
    backend0.shutdown();
    backend0.wait();
    backend1.shutdown();
    backend1.wait();
}

#[test]
fn fan_out_to_a_silent_backend_times_out() {
    // Nobody accepts from this listener: the kernel completes handshakes
    // into its backlog, so dials succeed, but no request is ever read or
    // answered.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind silent backend");
    let live = backend();
    let front = ShardFront::bind(ShardConfig {
        backends: vec![silent.local_addr().expect("addr"), live.local_addr()],
        io_timeout_ms: 200,
        ..ShardConfig::default()
    })
    .expect("bind front");

    let mut client = Client::connect(front.local_addr()).expect("connect front");
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .expect("client timeout");
    let t0 = Instant::now();
    let json = client
        .roundtrip_json(r#"{"id":1,"op":"metrics"}"#)
        .expect("metrics answers despite the silent shard");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "metrics took {:?}",
        t0.elapsed()
    );
    let expo = json.get("exposition").and_then(Json::as_str).expect("exposition");
    assert!(
        expo.contains("nshot_shard_backend_up{shard=\"0\"} 0"),
        "the silent shard must be marked down:\n{expo}"
    );
    assert!(
        expo.contains("nshot_shard_backend_up{shard=\"1\"} 1"),
        "the live shard must be marked up:\n{expo}"
    );

    // The shutdown fan-out is bounded the same way.
    let ack = client
        .roundtrip_json(r#"{"id":2,"op":"shutdown"}"#)
        .expect("shutdown answers despite the silent shard");
    assert_eq!(ack.get("shards_drained").and_then(Json::as_u64), Some(1));
    assert!(live.wait().served >= 1);
    front.wait();
}

/// One invalid request in both spellings, with the 400 message each
/// transport must answer. The limit messages are identical; an unknown
/// value is named in NDJSON and given as a byte in binary.
struct Refusal {
    line: String,
    frame: Vec<u8>,
    json_message: String,
    binary_message: String,
}

fn refusals() -> Vec<Refusal> {
    let synth = |trials| {
        Request::Synth(SynthRequest {
            spec: "x".into(),
            method: Method::Nshot,
            minimizer: nshot_core::Minimizer::Heuristic,
            trials,
            format: OutputFormat::Blif,
            share: false,
        })
    };
    let verify = |max_states| {
        Request::Verify(VerifyRequest {
            spec: "x".into(),
            minimizer: nshot_core::Minimizer::Heuristic,
            max_states,
        })
    };
    let encoded = |id: u64, request| {
        wirecodec::encode_request(&Envelope {
            id: Json::Num(id as f64),
            request,
        })
        .expect("encode")
    };
    // Payloads no encoder produces: the id, then raw bytes.
    let crafted = |id: u64, bytes: &[u8]| {
        let mut payload = Vec::new();
        wirecodec::encode_value(&mut payload, &Json::Num(id as f64));
        payload.extend_from_slice(bytes);
        nshot_wire::encode_frame(nshot_wire::tags::REQUEST, &payload)
    };
    let same = |line: String, frame, message: String| Refusal {
        line,
        frame,
        json_message: message.clone(),
        binary_message: message,
    };
    let states_message = format!("'max_states' must be an integer in 1..={MAX_VERIFY_STATES}");
    vec![
        same(
            r#"{"id":1,"op":"synth","spec":"x","trials":10001}"#.into(),
            encoded(1, synth(10_001)),
            "'trials' must be an integer ≤ 10000".into(),
        ),
        same(
            r#"{"id":2,"op":"verify","spec":"x","max_states":0}"#.into(),
            encoded(2, verify(0)),
            states_message.clone(),
        ),
        same(
            format!(
                r#"{{"id":3,"op":"verify","spec":"x","max_states":{}}}"#,
                MAX_VERIFY_STATES + 1
            ),
            encoded(3, verify(MAX_VERIFY_STATES + 1)),
            states_message,
        ),
        Refusal {
            line: r#"{"id":4,"op":"synth","spec":"x","minimizer":"quantum"}"#.into(),
            // op synth, method nshot, minimizer byte 9.
            frame: crafted(4, &[1, 1, 9]),
            json_message: "unknown minimizer 'quantum'".into(),
            binary_message: "unknown minimizer byte 9".into(),
        },
        Refusal {
            line: r#"{"id":5,"op":"stats"}"#.into(),
            frame: crafted(5, &[3]),
            json_message: "unknown op 'stats'".into(),
            binary_message: "unknown op byte 3".into(),
        },
    ]
}

/// Send every refusal over both transports to `addr`; each must come back
/// as a 400 carrying the request's id and message, and leave its
/// connection open. Returns the deterministic fields seen, in order.
fn refusal_fields(addr: std::net::SocketAddr) -> Vec<String> {
    let mut json_client = Client::connect(addr).expect("connect");
    let mut bin_client = Client::connect(addr).expect("connect");
    bin_client.upgrade_binary().expect("binary upgrade");
    let ping = Envelope {
        id: Json::Str("p".into()),
        request: Request::Ping,
    };
    let mut seen = Vec::new();
    for (i, r) in refusals().iter().enumerate() {
        let id = i as u64 + 1;
        let answers = [
            (json_client.roundtrip_json(&r.line).expect("json refusal"), &r.json_message),
            (bin_client.roundtrip_frame(&r.frame).expect("binary refusal"), &r.binary_message),
        ];
        for (obj, message) in answers {
            assert_eq!(obj.get("code").and_then(Json::as_u64), Some(400), "{obj}");
            assert_eq!(obj.get("id").and_then(Json::as_u64), Some(id), "{obj}");
            assert_eq!(obj.get("error").and_then(Json::as_str), Some(message.as_str()));
            seen.push(deterministic_part(&obj.to_string()).to_owned());
        }
        // Both connections stay open and keep serving.
        let pong = json_client
            .roundtrip_json(r#"{"op":"ping"}"#)
            .expect("json connection open");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        let pong = bin_client.roundtrip_binary(&ping).expect("binary connection open");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    }
    seen
}

#[test]
fn invalid_requests_get_the_same_400_on_both_transports() {
    let server = backend();
    let front = ShardFront::bind(ShardConfig {
        backends: vec![server.local_addr()],
        ..ShardConfig::default()
    })
    .expect("bind front");
    let direct = refusal_fields(server.local_addr());
    let proxied = refusal_fields(front.local_addr());
    assert_eq!(direct, proxied, "the front's refusals differ from the server's");

    front.stop();
    front.wait();
    server.shutdown();
    server.wait();
}

/// Send [`MAX_LINE_BYTES`] + 1 bytes with no newline to `addr`: the answer
/// is one 400 line, then EOF. Returns the deterministic fields.
fn over_long_line_refusal(addr: std::net::SocketAddr) -> String {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // A server that keeps reading past the cap never answers: fail, not hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_LINE_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len() as u64) as usize;
        stream.write_all(&chunk[..n]).expect("send");
        left -= n as u64;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal line");
    let obj = nshot_server::json::parse(line.trim_end()).expect("json refusal");
    assert_eq!(obj.get("code").and_then(Json::as_u64), Some(400), "{line}");
    assert_eq!(
        obj.get("error").and_then(Json::as_str),
        Some(format!("request line exceeds {MAX_LINE_BYTES} bytes").as_str())
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("connection closed");
    assert!(rest.is_empty(), "nothing follows the refusal");
    deterministic_part(line.trim_end()).to_owned()
}

#[test]
fn over_long_lines_get_a_400_and_close_the_connection() {
    let server = backend();
    let front = ShardFront::bind(ShardConfig {
        backends: vec![server.local_addr()],
        ..ShardConfig::default()
    })
    .expect("bind front");
    let direct = over_long_line_refusal(server.local_addr());
    let proxied = over_long_line_refusal(front.local_addr());
    assert_eq!(direct, proxied);
    // Both services keep serving new connections.
    for addr in [server.local_addr(), front.local_addr()] {
        let mut client = Client::connect(addr).expect("connect");
        let pong = client.roundtrip_json(r#"{"op":"ping"}"#).expect("ping");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    }

    front.stop();
    front.wait();
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_fans_out_and_drains_the_backends() {
    let backend0 = backend();
    let backend1 = backend();
    let front = ShardFront::bind(ShardConfig {
        backends: vec![backend0.local_addr(), backend1.local_addr()],
        ..ShardConfig::default()
    })
    .expect("bind front");

    let mut client = Client::connect(front.local_addr()).expect("connect front");
    let json = client
        .roundtrip_json("{\"op\":\"shutdown\"}")
        .expect("shutdown");
    assert_eq!(json.get("code").and_then(Json::as_u64), Some(200));
    assert_eq!(
        json.get("shards_drained").and_then(Json::as_u64),
        Some(2),
        "both backends must acknowledge the drain"
    );

    // The fan-out drained the backends, so their wait() returns promptly;
    // the front stopped itself after replying.
    assert!(backend0.wait().served >= 1);
    assert!(backend1.wait().served >= 1);
    front.wait();
}

#[test]
fn shared_warm_store_hits_on_every_shard() {
    // One writer populates a store directory…
    let dir = std::env::temp_dir().join(format!("nshot-shard-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cases = cases();
    {
        let writer = Server::bind(ServerConfig {
            workers: 1,
            store_dir: Some(dir.clone()),
            store_fsync: nshot_server::FsyncPolicy::Never,
            ..ServerConfig::default()
        })
        .expect("bind writer");
        let mut client = Client::connect(writer.local_addr()).expect("connect");
        for case in &cases {
            let raw = client.roundtrip(&case.line).expect("roundtrip");
            assert!(raw.contains("\"code\":200"), "warm fill failed: {raw}");
        }
        writer.shutdown();
        writer.wait();
    }

    // …and two shared-nothing backends warm from it read-only (this is
    // `--warm-store`): every request through the front is a cache hit on
    // its owning shard, byte-identical to the writer's responses.
    let warm = |_: usize| {
        Server::bind(ServerConfig {
            workers: 1,
            warm_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .expect("bind warm backend")
    };
    let backend0 = warm(0);
    let backend1 = warm(1);
    let front = ShardFront::bind(ShardConfig {
        backends: vec![backend0.local_addr(), backend1.local_addr()],
        ..ShardConfig::default()
    })
    .expect("bind front");

    let mut client = Client::connect(front.local_addr()).expect("connect front");
    for case in &cases {
        let raw = client.roundtrip(&case.line).expect("roundtrip");
        assert_eq!(deterministic_part(&raw), case.expected_fields);
        let json = nshot_server::json::parse(&raw).expect("parse");
        assert_eq!(
            json.get("cached").and_then(Json::as_bool),
            Some(true),
            "a warmed shard must answer from cache: {raw}"
        );
    }

    front.stop();
    front.wait();
    backend0.shutdown();
    backend0.wait();
    backend1.shutdown();
    backend1.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
