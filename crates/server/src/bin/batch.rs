//! `nshot-batch` — incremental batch compilation into the artifact store.
//!
//! ```text
//! nshot-batch --store DIR [--circuits a,b,c] [--manifest FILE]
//!             [--format blif|verilog|none] [--minimizer heuristic|exact|multi]
//!             [--trials N] [--share] [--fsync always|batch|never] [--force]
//! ```
//!
//! Compiles a set of specifications — benchmark-suite circuits by name
//! and/or a manifest file listing `.g`/SG spec paths, one per line — and
//! persists the responses into the store a subsequent
//! `nshot-serve --store DIR` warms its cache from. The run is
//! **incremental**: a spec whose artifact is already present (same
//! canonical `(options|spec)` key, valid record, current format version)
//! is skipped, so re-running after adding one circuit compiles only that
//! one. `--force` recompiles everything. Without `--circuits` and
//! `--manifest`, the whole 25-circuit suite is compiled.
//!
//! Responses are persisted for every deterministic outcome (success and
//! spec rejections alike — the same codes the server caches), so a known
//! -bad spec is not re-attempted on the next run. The exit summary prints
//! the compile tally and the store report; the exit code is non-zero only
//! for operational failures (bad flags, store I/O), not for specs that
//! fail synthesis.

use nshot_core::Minimizer;
use nshot_server::{
    cacheable, process_synth, wirecodec, Deadline, Method, OutputFormat, SynthRequest,
    RESPONSE_STORE_LEGACY, RESPONSE_STORE_VERSION,
};
use nshot_store::{FsyncPolicy, Store, StoreConfig};
use std::process::ExitCode;

struct Options {
    store: String,
    circuits: Option<Vec<String>>,
    manifest: Option<String>,
    format: OutputFormat,
    minimizer: Minimizer,
    trials: usize,
    share: bool,
    fsync: FsyncPolicy,
    force: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    // The batch tally and store summary above are the report; the trace
    // tail must not be lost behind them.
    nshot_obs::flush_trace();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("nshot-batch: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut store = None;
    let mut opts = Options {
        store: String::new(),
        circuits: None,
        manifest: None,
        format: OutputFormat::Blif,
        minimizer: Minimizer::Heuristic,
        trials: 0,
        share: false,
        fsync: FsyncPolicy::Batch,
        force: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--store" => store = Some(value("--store")?),
            "--circuits" => {
                opts.circuits =
                    Some(value("--circuits")?.split(',').map(str::to_owned).collect());
            }
            "--manifest" => opts.manifest = Some(value("--manifest")?),
            "--format" => {
                opts.format = match value("--format")?.as_str() {
                    "blif" => OutputFormat::Blif,
                    "verilog" => OutputFormat::Verilog,
                    "none" => OutputFormat::None,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--minimizer" => {
                opts.minimizer = match value("--minimizer")?.as_str() {
                    "heuristic" => Minimizer::Heuristic,
                    "exact" => Minimizer::Exact,
                    "multi" => Minimizer::MultiOutput,
                    other => return Err(format!("unknown minimizer '{other}'")),
                };
            }
            "--trials" => {
                opts.trials = value("--trials")?
                    .parse()
                    .map_err(|_| "--trials must be an integer".to_string())?;
            }
            "--share" => opts.share = true,
            "--fsync" => opts.fsync = FsyncPolicy::parse(&value("--fsync")?)?,
            "--force" => opts.force = true,
            "--help" | "-h" => {
                println!(
                    "usage: nshot-batch --store DIR [--circuits a,b,c] [--manifest FILE] \
                     [--format blif|verilog|none] [--minimizer heuristic|exact|multi] \
                     [--trials N] [--share] [--fsync always|batch|never] [--force]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    opts.store = store.ok_or("--store DIR is required")?;
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;

    // The work list: named suite circuits and/or manifest spec files.
    let mut specs: Vec<(String, String)> = Vec::new();
    match (&opts.circuits, &opts.manifest) {
        (None, None) => {
            for b in nshot_benchmarks::suite() {
                specs.push((b.name.to_owned(), b.build().to_text()));
            }
        }
        (circuits, manifest) => {
            if let Some(names) = circuits {
                for n in names {
                    let b = nshot_benchmarks::by_name(n)
                        .ok_or_else(|| format!("unknown circuit '{n}'"))?;
                    specs.push((n.clone(), b.build().to_text()));
                }
            }
            if let Some(path) = manifest {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                for line in text.lines().map(str::trim) {
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    let spec = std::fs::read_to_string(line)
                        .map_err(|e| format!("{line}: {e}"))?;
                    specs.push((line.to_owned(), spec));
                }
            }
        }
    }

    let mut config = StoreConfig::new(&opts.store);
    config.fsync = opts.fsync;
    config.value_version = RESPONSE_STORE_VERSION;
    // A record persisted by an older release still counts as present for
    // the incremental skip — the server serves it byte-identically.
    config.legacy_versions = RESPONSE_STORE_LEGACY.to_vec();
    let mut store = Store::open(config).map_err(|e| format!("store {}: {e}", opts.store))?;
    let recovery = store.stats();
    if recovery.dropped_records > 0 || recovery.stale_records > 0 {
        eprintln!(
            "nshot-batch: store recovery: recovered {}, dropped {}, stale {}",
            recovery.recovered_records, recovery.dropped_records, recovery.stale_records
        );
    }

    let (mut compiled, mut cached, mut failed) = (0u64, 0u64, 0u64);
    for (name, spec) in &specs {
        let request = SynthRequest {
            spec: spec.clone(),
            method: Method::Nshot,
            minimizer: opts.minimizer,
            trials: opts.trials,
            format: opts.format,
            share: opts.share,
        };
        let key = request.cache_key();
        if !opts.force && store.contains(&key) {
            cached += 1;
            eprintln!("nshot-batch: {name}: cached");
            continue;
        }
        let response = process_synth(&request, &Deadline::unlimited());
        if cacheable(response.code) {
            let value =
                wirecodec::encode_response_value(response.code, response.status, &response.body);
            store
                .put(&key, &value)
                .map_err(|e| format!("store put {name}: {e}"))?;
        }
        if response.code == 200 {
            compiled += 1;
            eprintln!("nshot-batch: {name}: compiled");
        } else {
            failed += 1;
            eprintln!("nshot-batch: {name}: failed (code {})", response.code);
        }
    }

    store.flush().map_err(|e| format!("store flush: {e}"))?;
    println!("nshot-batch: compiled {compiled}, cached {cached}, failed {failed}");
    println!("nshot-batch: store {}", store.report());
    Ok(())
}
