//! Byte-identity of synthesis artifacts through the persistent store.
//!
//! Every circuit in the benchmark suite goes through the full persistence
//! cycle — synthesize, store, close, reopen, read — and must come back
//! byte-identical to what was written *and* byte-identical to a direct
//! `synthesize` call. This is the property that makes the store safe to
//! serve from: a warm-started server answers with exactly the bytes a
//! cold compilation would have produced, or not at all.

use nshot::server::client::Client;
use nshot::server::protocol::parse_request;
use nshot::server::{
    json, load_spec, process_synth, wirecodec, Deadline, Json, Method, OutputFormat, Server,
    ServerConfig, SynthRequest, RESPONSE_STORE_VERSION,
};
use nshot::store::{FsyncPolicy, Store, StoreConfig};
use nshot_core::{synthesize, Minimizer, SynthesisOptions};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nshot-roundtrip-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request_for(spec: &str) -> SynthRequest {
    SynthRequest {
        spec: spec.to_owned(),
        method: Method::Nshot,
        minimizer: Minimizer::Heuristic,
        trials: 0,
        format: OutputFormat::Blif,
        share: false,
    }
}

#[test]
fn every_suite_circuit_round_trips_byte_identically() {
    let dir = temp_dir("suite");
    let suite = nshot::benchmarks::suite();
    assert!(!suite.is_empty());

    // Synthesize every circuit through the service path and persist the
    // deterministic response fields — exactly what `nshot-serve --store`
    // persists.
    let mut artifacts: Vec<(String, String, String)> = Vec::new(); // (key, fields, name)
    {
        let mut store = Store::open(StoreConfig::new(&dir)).expect("open");
        for b in &suite {
            let spec = b.build().to_text();
            let request = request_for(&spec);
            let response = process_synth(&request, &Deadline::unlimited());
            assert_eq!(response.code, 200, "{} must synthesize", b.name);
            let fields = response.deterministic_fields();
            let key = request.cache_key();
            store.put(&key, fields.as_bytes()).expect("put");
            artifacts.push((key, fields, b.name.to_owned()));
        }
        store.flush().expect("flush");
    }

    // Reopen: every record must be recovered and read back byte-identical
    // to what was written.
    let mut store = Store::open(StoreConfig::new(&dir)).expect("reopen");
    assert_eq!(
        store.stats().recovered_records as usize,
        artifacts.len(),
        "every artifact survives the restart"
    );
    assert_eq!(store.stats().dropped_records, 0);
    let stored: std::collections::HashMap<String, Vec<u8>> = store.entries().into_iter().collect();
    for (key, fields, name) in &artifacts {
        let value = stored
            .get(key)
            .unwrap_or_else(|| panic!("{name}: lost artifact"));
        assert_eq!(
            value.as_slice(),
            fields.as_bytes(),
            "{name}: stored artifact differs from the response written"
        );
    }

    // And byte-identical to direct library calls: the BLIF inside each
    // stored response equals `synthesize` on the same specification text the
    // service parsed. (Parsing the text, not re-building the benchmark: the
    // text round-trip can renumber signals, which renames netlist nodes.)
    for (b, (key, _, name)) in suite.iter().zip(&artifacts) {
        let fields = std::str::from_utf8(&stored[key]).expect("utf-8 artifact");
        let response =
            json::parse(&format!("{{{fields}}}")).expect("stored fields parse as json");
        let stored_blif = response
            .get("blif")
            .and_then(json::Json::as_str)
            .unwrap_or_else(|| panic!("{name}: stored response has no blif"))
            .to_owned();
        let sg = load_spec(&b.build().to_text()).expect("spec text parses");
        let imp = synthesize(&sg, &SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{name}: direct synthesis failed: {e}"));
        assert_eq!(
            stored_blif,
            imp.netlist.to_blif(),
            "{name}: stored netlist differs from a direct synthesize call"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rewriting_the_same_artifacts_is_stable() {
    // Store idempotence: writing the same suite twice (the incremental
    // `nshot-batch --force` path) leaves the same live records and the
    // reread bytes unchanged.
    let dir = temp_dir("stable");
    let b = nshot::benchmarks::by_name("chu133").expect("in suite");
    let spec = b.build().to_text();
    let request = request_for(&spec);
    let fields = process_synth(&request, &Deadline::unlimited()).deterministic_fields();
    let key = request.cache_key();

    {
        let mut store = Store::open(StoreConfig::new(&dir)).expect("open");
        store.put(&key, fields.as_bytes()).expect("first put");
        store.put(&key, fields.as_bytes()).expect("second put");
        assert_eq!(store.len(), 1, "same key, one live record");
    }
    let mut store = Store::open(StoreConfig::new(&dir)).expect("reopen");
    assert_eq!(store.len(), 1);
    assert_eq!(store.entries(), vec![(key, fields.into_bytes())]);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strip the per-call fields and render: two transports answered the same
/// request iff these strings are equal.
fn canonical(mut obj: Json) -> String {
    if let Json::Obj(pairs) = &mut obj {
        pairs.retain(|(k, _)| !matches!(k.as_str(), "cached" | "service_us" | "trace" | "timing"));
    }
    obj.to_string()
}

#[test]
fn warm_starts_from_legacy_and_binary_stores_serve_direct_synthesis() {
    // A server warming from a store written at value version 1 (the bare
    // rendered response fields) or at the current binary version must
    // answer every stored request from its cache, with exactly the bytes
    // cold synthesis produces, over either transport.
    let circuits = ["chu133", "full", "hazard"];
    let specs: Vec<(&str, String, String)> = circuits
        .iter()
        .map(|&name| {
            let spec = nshot::benchmarks::by_name(name)
                .expect("in suite")
                .build()
                .to_text();
            let sg = load_spec(&spec).expect("spec text parses");
            let imp = synthesize(&sg, &SynthesisOptions::default())
                .unwrap_or_else(|e| panic!("{name}: direct synthesis failed: {e}"));
            (name, spec, imp.netlist.to_blif())
        })
        .collect();

    for version in [1, RESPONSE_STORE_VERSION] {
        let dir = temp_dir(&format!("warm-v{version}"));
        {
            let mut store = Store::open(StoreConfig {
                fsync: FsyncPolicy::Never,
                value_version: version,
                ..StoreConfig::new(&dir)
            })
            .expect("open");
            for (name, spec, _) in &specs {
                let request = request_for(spec);
                let resp = process_synth(&request, &Deadline::unlimited());
                assert_eq!(resp.code, 200, "{name} must synthesize");
                let value = if version == RESPONSE_STORE_VERSION {
                    wirecodec::encode_response_value(resp.code, resp.status, &resp.body)
                } else {
                    resp.deterministic_fields().into_bytes()
                };
                store.put(&request.cache_key(), &value).expect("put");
            }
            store.flush().expect("flush");
        }

        let server = Server::bind(ServerConfig {
            warm_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .expect("bind");
        let mut json_conn = Client::connect(server.local_addr()).expect("connect json");
        let mut bin_conn = Client::connect(server.local_addr()).expect("connect binary");
        bin_conn.upgrade_binary().expect("upgrade");
        for (name, spec, blif) in &specs {
            let line = Json::Obj(vec![
                ("id".into(), Json::Str((*name).into())),
                ("op".into(), Json::Str("synth".into())),
                ("spec".into(), Json::Str(spec.clone())),
                ("format".into(), Json::Str("blif".into())),
            ])
            .to_string();
            let env = parse_request(&line).expect("request parses");
            let via_json = json_conn
                .roundtrip_json(&line)
                .unwrap_or_else(|e| panic!("v{version} {name}: json roundtrip: {e}"));
            let via_binary = bin_conn
                .roundtrip_binary(&env)
                .unwrap_or_else(|e| panic!("v{version} {name}: binary roundtrip: {e}"));
            for (transport, obj) in [("json", &via_json), ("binary", &via_binary)] {
                let what = format!("v{version} {name} over {transport}");
                assert_eq!(obj.get("code").and_then(Json::as_u64), Some(200), "{what}");
                assert_eq!(
                    obj.get("cached").and_then(Json::as_bool),
                    Some(true),
                    "{what}: not served from the warmed cache"
                );
                assert_eq!(
                    obj.get("blif").and_then(Json::as_str),
                    Some(blif.as_str()),
                    "{what}: netlist differs from a direct synthesize call"
                );
            }
            assert_eq!(
                canonical(via_json),
                canonical(via_binary),
                "v{version} {name}: transports disagree"
            );
        }
        server.shutdown();
        server.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
