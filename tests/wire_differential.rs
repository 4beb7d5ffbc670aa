//! Differential proof of the binary wire protocol.
//!
//! Three layers of evidence that `nshot-wire` framing and the `wirecodec`
//! record encodings are a faithful second transport, not a fork of the
//! protocol:
//!
//! 1. **Encode→decode identity** — every Table 2 suite circuit and 200
//!    `nshot-gen` seeded specs ride through request frames and come back
//!    byte-identical (decode → re-encode is the identity on valid frames).
//! 2. **Transport equivalence** — a live server answers the same synth
//!    request over NDJSON and over negotiated binary framing with the same
//!    response object (all fields except the per-call `cached`/
//!    `service_us`/`trace`/`timing`), at 1 worker and at 8 workers under
//!    8 concurrent client pairs.
//! 3. **Golden fixtures** — FNV-1a digests of the deterministic wire
//!    encodings for three circuits are pinned under `tests/golden/wire/`;
//!    any change to the frame layout or record encodings shows up as a
//!    one-line diff and demands a `WIRE_VERSION` bump. Re-bless with
//!    `NSHOT_BLESS=1 cargo test --test wire_differential` and review the
//!    diff like any other code.

use nshot::core::Minimizer;
use nshot::server::wirecodec;
use nshot::server::{
    client::Client, process_synth, Deadline, Envelope, Json, Method, OutputFormat, Request,
    Server, ServerConfig, SynthRequest,
};
use nshot::wire::{decode_frame, tags, WIRE_VERSION};
use std::fmt::Write as _;
use std::path::PathBuf;

/// FNV-1a, the same stable hash the golden netlist artifacts use.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn synth_request(spec: &str) -> SynthRequest {
    SynthRequest {
        spec: spec.into(),
        method: Method::Nshot,
        minimizer: Minimizer::Heuristic,
        trials: 0,
        format: OutputFormat::Blif,
        share: false,
    }
}

fn synth_envelope(id: &str, spec: &str) -> Envelope {
    Envelope {
        id: Json::Str(id.into()),
        request: Request::Synth(synth_request(spec)),
    }
}

/// The NDJSON form of the same request `synth_envelope` encodes.
fn synth_line(id: &str, spec: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Str(id.into())),
        ("op".into(), Json::Str("synth".into())),
        ("spec".into(), Json::Str(spec.into())),
        ("format".into(), Json::Str("blif".into())),
    ])
    .to_string()
}

/// The request encoding must survive a decode→re-encode roundtrip byte for
/// byte, and the decoded spec text must be untouched.
fn assert_spec_identity(name: &str, spec: &str) {
    let frame = wirecodec::encode_request(&synth_envelope(name, spec))
        .unwrap_or_else(|e| panic!("{name}: encode request: {e}"));
    let (decoded, used) =
        decode_frame(&frame).unwrap_or_else(|e| panic!("{name}: decode request frame: {e}"));
    assert_eq!(used, frame.len(), "{name}: request frame has trailing bytes");
    assert_eq!(decoded.tag, tags::REQUEST, "{name}");
    let env = match wirecodec::decode_request(&decoded.payload) {
        Ok(env) => env,
        Err(e) => panic!("{name}: decode request payload: {e:?}"),
    };
    match &env.request {
        Request::Synth(req) => assert_eq!(req.spec, spec, "{name}: spec text drifted"),
        other => panic!("{name}: decoded to {other:?}"),
    }
    let reencoded = wirecodec::encode_request(&env).expect("re-encode");
    assert_eq!(reencoded, frame, "{name}: request re-encode is not the identity");
}

#[test]
fn suite_specs_roundtrip_byte_identically() {
    for bench in nshot::benchmarks::suite() {
        let spec = bench.build().to_text();
        assert_spec_identity(bench.name, &spec);
    }
}

#[test]
fn generated_specs_roundtrip_byte_identically() {
    let cfg = nshot::gen::GenConfig::default();
    let mut accepted = 0usize;
    for seed in 0..1000u64 {
        if accepted == 200 {
            break;
        }
        let Ok(spec) = nshot::gen::draw(seed, &cfg) else {
            continue; // rejected draw — not a spec, nothing to encode
        };
        accepted += 1;
        assert_spec_identity(&format!("gen{seed}"), &spec.sg.to_text());
    }
    assert_eq!(accepted, 200, "generator dried up before 200 specs");
}

/// Store values and full response encodings, on circuits that are cheap
/// enough to synthesize in a debug test run.
#[test]
fn response_encodings_roundtrip() {
    for name in ["chu133", "hybridf", "vbe10b"] {
        let spec = nshot::benchmarks::by_name(name).expect("in suite").build().to_text();
        let resp = process_synth(&synth_request(&spec), &Deadline::unlimited());
        assert_eq!(resp.code, 200, "{name}");

        // Store value encoding (segment `value_version` 2).
        let value = wirecodec::encode_response_value(resp.code, resp.status, &resp.body);
        let back = wirecodec::decode_response_value(&value)
            .unwrap_or_else(|e| panic!("{name}: decode store value: {e}"));
        assert_eq!(back.code, resp.code, "{name}");
        assert_eq!(back.status, resp.status, "{name}");
        assert_eq!(back.body, resp.body, "{name}: store value body drifted");

        // The framed response stream a binary connection receives.
        let stream = wirecodec::encode_response_frames(
            &Json::Str(name.into()),
            resp.code,
            resp.status,
            &resp.body,
            false,
            0,
            0,
            "",
        )
        .concat();
        let obj = wirecodec::read_response(&mut std::io::Cursor::new(&stream))
            .unwrap_or_else(|e| panic!("{name}: read response stream: {e}"));
        for (key, expected) in &resp.body {
            assert_eq!(
                obj.get(key),
                Some(expected),
                "{name}: response field `{key}` drifted across framing"
            );
        }
    }
}

/// Strip the per-call fields and render: two transports answered the same
/// request iff these strings are equal.
fn canonical(mut obj: Json) -> String {
    if let Json::Obj(pairs) = &mut obj {
        pairs.retain(|(k, _)| {
            !matches!(k.as_str(), "cached" | "service_us" | "trace" | "timing")
        });
    }
    obj.to_string()
}

/// One connection pair (NDJSON + negotiated binary) replaying `specs`
/// against a live server, asserting transport equivalence per request.
fn compare_transports(addr: std::net::SocketAddr, specs: &[(String, String)]) {
    let mut json_conn = Client::connect(addr).expect("connect json");
    let mut bin_conn = Client::connect(addr).expect("connect binary");
    bin_conn.upgrade_binary().expect("upgrade");
    for (name, spec) in specs {
        let via_json = json_conn
            .roundtrip_json(&synth_line(name, spec))
            .unwrap_or_else(|e| panic!("{name}: json roundtrip: {e}"));
        let via_binary = bin_conn
            .roundtrip_binary(&synth_envelope(name, spec))
            .unwrap_or_else(|e| panic!("{name}: binary roundtrip: {e}"));
        assert_eq!(
            canonical(via_json),
            canonical(via_binary),
            "{name}: transports disagree"
        );
    }
}

#[test]
fn binary_and_json_transports_answer_identically() {
    let specs: Vec<(String, String)> = ["chu133", "hybridf", "vbe10b"]
        .iter()
        .map(|n| {
            let spec = nshot::benchmarks::by_name(n).expect("in suite").build().to_text();
            ((*n).to_owned(), spec)
        })
        .collect();

    // Single worker: strictly ordered service.
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    compare_transports(server.local_addr(), &specs);
    server.shutdown();
    server.wait();

    // Eight workers, eight concurrent connection pairs: equivalence must
    // hold under contention and cache hits alike.
    let server = Server::bind(ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let specs = &specs;
            s.spawn(move || compare_transports(addr, specs));
        }
    });
    server.shutdown();
    server.wait();
}

fn golden_wire_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("wire")
}

/// Digest every deterministic wire encoding of one circuit: the request
/// frame, the store value and the framed response stream (with the
/// per-call head fields pinned to zero).
fn render_wire_fixture(name: &str) -> String {
    let spec = nshot::benchmarks::by_name(name).expect("in suite").build().to_text();
    let request = wirecodec::encode_request(&synth_envelope(name, &spec)).expect("encode");
    let resp = process_synth(&synth_request(&spec), &Deadline::unlimited());
    let value = wirecodec::encode_response_value(resp.code, resp.status, &resp.body);
    let stream = wirecodec::encode_response_frames(
        &Json::Str(name.into()),
        resp.code,
        resp.status,
        &resp.body,
        false,
        0,
        0,
        "",
    )
    .concat();

    let mut out = String::new();
    writeln!(out, "circuit: {name}").unwrap();
    writeln!(out, "wire_version: {WIRE_VERSION}").unwrap();
    writeln!(out, "request_fnv1a: {:#018x}", fnv1a(&request)).unwrap();
    writeln!(out, "request_bytes: {}", request.len()).unwrap();
    writeln!(out, "store_value_fnv1a: {:#018x}", fnv1a(&value)).unwrap();
    writeln!(out, "store_value_bytes: {}", value.len()).unwrap();
    writeln!(out, "response_stream_fnv1a: {:#018x}", fnv1a(&stream)).unwrap();
    writeln!(out, "response_stream_bytes: {}", stream.len()).unwrap();
    out
}

/// The pinned circuits: small enough to synthesize in a debug test run,
/// diverse enough to cover small and large response bodies.
const GOLDEN_WIRE_CIRCUITS: [&str; 3] = ["chu133", "hybridf", "vbe10b"];

#[test]
fn golden_wire_fixtures_match() {
    let bless = std::env::var("NSHOT_BLESS").is_ok_and(|v| v == "1");
    let dir = golden_wire_dir();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }

    let mut drifted = Vec::new();
    let mut expected_files = Vec::new();
    for name in GOLDEN_WIRE_CIRCUITS {
        let actual = render_wire_fixture(name);
        let path = dir.join(format!("{name}.txt"));
        expected_files.push(format!("{name}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == actual => {}
            Ok(golden) => {
                if bless {
                    std::fs::write(&path, &actual).unwrap();
                } else {
                    let diff: Vec<String> = golden
                        .lines()
                        .zip(actual.lines())
                        .filter(|(g, a)| g != a)
                        .map(|(g, a)| format!("  - {g}\n  + {a}"))
                        .collect();
                    drifted.push(format!("{name}:\n{}", diff.join("\n")));
                }
            }
            Err(_) => {
                if bless {
                    std::fs::write(&path, &actual).unwrap();
                } else {
                    drifted.push(format!("{name}: golden wire fixture missing"));
                }
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "{} wire fixture(s) drifted — an unversioned wire-format change? \
         Bump WIRE_VERSION, then NSHOT_BLESS=1 to re-bless:\n{}",
        drifted.len(),
        drifted.join("\n")
    );

    // Stale fixtures are drift too.
    let mut stale = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/golden/wire/ must exist") {
        let file = entry.unwrap().file_name().into_string().unwrap();
        if !expected_files.iter().any(|e| e == &file) {
            stale.push(file);
        }
    }
    assert!(stale.is_empty(), "stale golden wire fixtures: {stale:?}");
}

/// Fixture rendering is a pure function of the circuit: encoding twice
/// (CRC stamping included) yields identical digests.
#[test]
fn wire_fixture_rendering_is_deterministic() {
    assert_eq!(
        render_wire_fixture("chu133"),
        render_wire_fixture("chu133")
    );
}
