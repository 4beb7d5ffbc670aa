//! Malformed-input corpus: every file under `tests/corpus/malformed/` must
//! produce a structured `Err` from the parsers — never a panic — and a
//! structured 400 from the service, on both the library and the wire path.

use nshot::server::{
    json, load_spec, process_synth, process_verify, Deadline, Json, Method, OutputFormat,
    Server, ServerConfig, SynthRequest, VerifyRequest,
};
use nshot::sg::SgError;
use nshot::stg::StgError;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("malformed")
}

/// Every corpus file as `(stem, bytes)`, sorted for stable test order.
/// Subdirectories (the binary-frame corpus under `wire/`) have their own
/// replay tests below.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            if path.is_dir() {
                return None;
            }
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            Some((name, std::fs::read(&path).expect("read corpus file")))
        })
        .collect();
    entries.sort();
    assert!(entries.len() >= 10, "corpus went missing");
    entries
}

/// The minimized malformed-frame witnesses `nshot-fuzz --wire-mutations`
/// archived, as `(stem, bytes)`, sorted for stable test order.
fn wire_corpus() -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(corpus_dir().join("wire"))
        .expect("wire corpus dir")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            if path.extension().is_none_or(|x| x != "bin") {
                return None;
            }
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            Some((name, std::fs::read(&path).expect("read wire corpus file")))
        })
        .collect();
    entries.sort();
    assert!(entries.len() >= 5, "wire corpus went missing");
    entries
}

fn synth_request(spec: &str) -> SynthRequest {
    SynthRequest {
        spec: spec.into(),
        method: Method::Nshot,
        minimizer: nshot::core::Minimizer::Heuristic,
        trials: 0,
        format: OutputFormat::Blif,
        share: false,
    }
}

#[test]
fn parsers_return_structured_errors_never_panic() {
    for (name, bytes) in corpus() {
        let Ok(text) = String::from_utf8(bytes) else {
            continue; // non-UTF-8 is rejected at the service boundary
        };
        // The combined loader (same dispatch the server uses).
        let loaded = load_spec(&text);
        assert!(loaded.is_err(), "{name}: loader accepted malformed input");

        // And the individual parsers, with typed errors where the corpus
        // entry targets a specific failure mode.
        match name.as_str() {
            "too_many_signals.sg" => {
                assert!(matches!(
                    nshot::sg::parse_sg(&text),
                    Err(SgError::TooManySignals(65))
                ));
            }
            "undefined_signal.sg" => {
                assert!(matches!(
                    nshot::sg::parse_sg(&text),
                    Err(SgError::UnknownReference(_))
                ));
            }
            "inconsistent.sg" => {
                assert!(matches!(
                    nshot::sg::parse_sg(&text),
                    Err(SgError::InconsistentAssignment { .. })
                ));
            }
            "nondeterministic.sg" => {
                assert!(matches!(
                    nshot::sg::parse_sg(&text),
                    Err(SgError::NonDeterministic { .. })
                ));
            }
            "too_many_signals.g" => {
                // Parses fine; the elaboration guard must fire *before* the
                // u64 code packing would overflow.
                let stg = nshot::stg::parse_stg(&text).expect("structurally valid");
                assert!(matches!(
                    stg.elaborate(),
                    Err(StgError::Sg(SgError::TooManySignals(64)))
                ));
            }
            "unbounded.g" => {
                // A cyclic net whose marking grows without bound: elaboration
                // must stop with a structured error, not spin or overflow.
                let stg = nshot::stg::parse_stg(&text).expect("structurally valid");
                assert!(matches!(
                    stg.elaborate(),
                    Err(StgError::Unbounded { .. } | StgError::TooManyStates(_))
                ));
            }
            "duplicate_transitions.g" => {
                // The `.g` format has no arc weights — a repeated arc is an
                // authoring mistake the parser must name, not dedupe.
                assert!(matches!(
                    nshot::stg::parse_stg(&text),
                    Err(StgError::Parse { line: 6, .. })
                ));
            }
            "unmarked_cycle.g" => {
                // One ring marked, the other tokenless: its transitions can
                // never fire and the signal would freeze at 0.
                match nshot::stg::parse_stg(&text)
                    .expect("structurally valid")
                    .elaborate()
                {
                    Err(StgError::DeadTransition(t)) => assert_eq!(t, "z+"),
                    other => panic!("expected a dead transition, got {other:?}"),
                }
            }
            "empty_marking.g" => {
                // `.marking { }`: nothing is ever enabled.
                assert!(matches!(
                    nshot::stg::parse_stg(&text)
                        .expect("structurally valid")
                        .elaborate(),
                    Err(StgError::DeadTransition(_))
                ));
            }
            "crlf.g" => {
                // CRLF line endings must not confuse tokenizing or the
                // 1-based line numbers in the error.
                assert!(matches!(
                    nshot::stg::parse_stg(&text),
                    Err(StgError::Parse { line: 9, .. })
                ));
            }
            _ => {} // truncated/garbage/empty: any structured Err will do
        }
    }
}

/// CRLF endings on a *well-formed* spec are cosmetic: the corpus entry
/// above proves the reject path, this proves the accept path.
#[test]
fn crlf_line_endings_do_not_reject_valid_specs() {
    let unix = ".model hs\n.inputs r\n.outputs g\n.graph\nr+ g+\ng+ r-\nr- g-\ng- r+\n.marking { <g-,r+> }\n.end\n";
    let dos = unix.replace('\n', "\r\n");
    let a = nshot::stg::parse_stg(unix).unwrap().elaborate().unwrap();
    let b = nshot::stg::parse_stg(&dos).unwrap().elaborate().unwrap();
    assert_eq!(a.num_states(), b.num_states());
}

#[test]
fn service_answers_the_corpus_with_400() {
    for (name, bytes) in corpus() {
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        let response = process_synth(&synth_request(&text), &Deadline::unlimited());
        assert_eq!(response.code, 400, "{name}: expected a spec error");
        assert_eq!(response.status, "error");
        assert!(
            response.body.iter().any(|(k, _)| k == "error"),
            "{name}: error response carries a message"
        );
    }
}

/// The `verify` op shares the loader with `synth`: the whole corpus must
/// come back as a structured 400 before any model checking is attempted.
#[test]
fn verify_op_answers_the_corpus_with_400() {
    for (name, bytes) in corpus() {
        let Ok(text) = String::from_utf8(bytes) else {
            continue;
        };
        let request = VerifyRequest {
            spec: text,
            minimizer: nshot::core::Minimizer::Heuristic,
            max_states: 1_000,
        };
        let response = process_verify(&request, &Deadline::unlimited());
        assert_eq!(response.code, 400, "{name}: expected a spec error");
        assert_eq!(response.status, "error");
        assert!(
            response.body.iter().any(|(k, _)| k == "error"),
            "{name}: error response carries a message"
        );
    }
}

#[test]
fn wire_path_survives_the_corpus() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut roundtrip = |bytes: &[u8]| -> Json {
        writer.write_all(bytes).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        json::parse(line.trim_end()).expect("response is json")
    };

    for (name, bytes) in corpus() {
        let response = match String::from_utf8(bytes.clone()) {
            // Valid text rides inside a well-formed synth request…
            Ok(text) => {
                let request = Json::Obj(vec![
                    ("id".into(), Json::Str(name.clone())),
                    ("op".into(), Json::Str("synth".into())),
                    ("spec".into(), Json::Str(text)),
                ]);
                roundtrip(request.to_string().as_bytes())
            }
            // …non-UTF-8 goes on the wire raw (the corpus keeps it newline-free).
            Err(_) => roundtrip(&bytes),
        };
        assert_eq!(
            response.get("code").and_then(Json::as_u64),
            Some(400),
            "{name}: {response}"
        );
    }

    // The connection and the service survive the whole corpus.
    let pong = roundtrip(br#"{"op":"ping"}"#);
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    server.shutdown();
    server.wait();
}

/// Decode one malformed byte stream the way a binary connection would:
/// frame by frame, each payload through the record decoder for its tag.
/// `Ok(())` means every frame decoded cleanly; `Err` names the typed
/// failure. Panics and over-reads are what the corpus exists to rule out.
fn decode_wire_bytes(bytes: &[u8]) -> Result<(), String> {
    use nshot::server::wirecodec::{self, RequestDecodeError};
    use nshot::wire::{read_frame, tags};
    let mut cursor = std::io::Cursor::new(bytes);
    loop {
        let frame = match read_frame(&mut cursor) {
            Ok(None) => return Ok(()),
            Ok(Some(frame)) => frame,
            Err(e) => return Err(format!("frame: {e}")),
        };
        let result = match frame.tag {
            tags::REQUEST => match wirecodec::decode_request(&frame.payload) {
                Ok(_) => Ok(()),
                Err(RequestDecodeError::Frame(e)) => Err(format!("request: {e}")),
                Err(RequestDecodeError::Invalid { message, .. }) => {
                    Err(format!("request invalid: {message}"))
                }
            },
            tags::RESPONSE_HEAD => wirecodec::decode_response_head(&frame.payload)
                .map(|_| ())
                .map_err(|e| format!("head: {e}")),
            tags::FIELD => wirecodec::decode_field(&frame.payload)
                .map(|_| ())
                .map_err(|e| format!("field: {e}")),
            tags::END => wirecodec::decode_end(&frame.payload)
                .map(|_| ())
                .map_err(|e| format!("end: {e}")),
            other => Err(format!("unknown tag {other}")),
        };
        result?;
    }
}

/// Every archived malformed-frame witness must come back as a typed
/// `WireError`/`RequestDecodeError` — the decode path must neither panic
/// (the harness would abort the test) nor accept the damage silently.
#[test]
fn wire_corpus_decodes_to_typed_errors_never_panics() {
    let before = nshot::wire::decode_errors_total();
    for (name, bytes) in wire_corpus() {
        let result = decode_wire_bytes(&bytes);
        assert!(
            result.is_err(),
            "{name}: malformed witness decoded cleanly — regenerate the corpus \
             (nshot-fuzz --wire-mutations) if the wire format changed"
        );
    }
    // Framing damage is counted in the `nshot_wire_decode_errors_total`
    // series the metrics endpoint exposes (semantic rejects are not).
    assert!(
        nshot::wire::decode_errors_total() > before,
        "replaying the wire corpus must note decode errors"
    );
}

/// A live binary-upgraded connection fed each witness must fail that
/// connection only: the server stays up and answers a fresh NDJSON ping.
#[test]
fn server_survives_the_wire_corpus() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    for (name, bytes) in wire_corpus() {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer
            .write_all(b"{\"op\":\"hello\",\"format\":\"binary\"}\n")
            .expect("write hello");
        writer.flush().expect("flush");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("read ack");
        assert!(ack.contains("\"code\":200"), "{name}: upgrade refused: {ack}");
        // The malformed frames, then EOF so truncated witnesses terminate.
        writer.write_all(&bytes).expect("write corpus bytes");
        writer.flush().expect("flush");
        writer
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown write");
        // Drain whatever the server answers (an error response stream or
        // an immediate close) until it hangs up.
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut reader, &mut sink);
    }
    let pong = nshot::server::client::request(
        server.local_addr(),
        r#"{"op":"ping"}"#,
    )
    .expect("service survives the wire corpus");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    server.shutdown();
    server.wait();
}
