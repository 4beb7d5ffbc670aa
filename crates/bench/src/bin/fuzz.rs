//! `nshot-fuzz` — generate → synthesize → verify fuzz loop over the seeded
//! specification generator in `nshot-gen`.
//!
//! ```text
//! nshot-fuzz [--seeds A..B] [--budget STATES] [--out PATH]
//!            [--archive DIR] [--archive-anchors N] [--deadline-ms MS]
//! nshot-fuzz --corpus [--archive DIR] [--budget STATES] [--out PATH]
//! nshot-fuzz --wire-mutations N [--wire-archive DIR] [--out PATH]
//! ```
//!
//! `--wire-mutations N` switches to the binary-protocol robustness mode:
//! a deterministic set of valid `nshot-wire` frames (requests, artifact
//! records, a full response stream) is mutated N times — truncations,
//! flipped version/tag/length/CRC bytes, inflated declared lengths, and
//! payload corruption re-framed under a valid CRC — and every mutant is
//! pushed through the real decode entry points. The invariant: **every
//! mutant yields a typed `WireError`/`RequestDecodeError` or decodes
//! cleanly; none may panic or over-read.** The first (tail-trim
//! minimized) witness of each outcome class is archived under
//! `--wire-archive` so the malformed-corpus regression replays it
//! forever.
//!
//! For every seed in the range the driver draws a specification
//! ([`nshot_gen::draw`]), synthesizes it, and verifies the implementation
//! with the exhaustive model checker ([`nshot_mc::verify_budgeted`]) —
//! circuits past the state budget are honestly tallied as `mc_fallback`
//! (Monte-Carlo sampled), never as proved. A violation is delta-debugged
//! down to a 1-minimal recipe ([`nshot_gen::shrink`]) and archived as a
//! commented `.g` file (plus the seed) under `--archive`, so the failure
//! reproduces from the file alone. `--archive-anchors N` additionally
//! archives the first N accepted specs as regression anchors.
//!
//! `--corpus` switches to regression mode: every `.g` file already in the
//! archive directory is re-parsed, re-elaborated, re-synthesized and
//! re-verified; any violation fails the run. CI runs both modes with fixed
//! seeds and a wall-clock deadline (see `scripts/tier1.sh`).
//!
//! Everything is deterministic: the same seed range and knobs produce the
//! same specs, the same verdicts and the same report, byte for byte
//! (modulo wall-clock fields).
//!
//! Telemetry: every seed's generate/synthesize/verify phase is timed into
//! the `nshot_fuzz_phase_us{phase=…}` histograms and the outcome counted
//! in the `nshot_fuzz_*` series (see `nshot_bench::telemetry`); the report
//! folds the phase aggregates in as `phase_us`. With `NSHOT_PROGRESS` set,
//! a heartbeat line (`{"hb":"fuzz",…}`) reports `seeds_done`/`seeds_total`,
//! `accepted` and `violations` live between chunks.

use nshot_bench::telemetry::{timed, FuzzMetrics};
use nshot_core::{synthesize, SynthesisOptions};
use nshot_gen::{build_recipe, draw, shrink, GenConfig, Recipe};
use nshot_mc::{verify_budgeted, Verdict};
use nshot_obs::Progress;
use nshot_par::par_map;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as FmtWrite;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Options {
    seeds: (u64, u64),
    budget: usize,
    out: String,
    archive: PathBuf,
    archive_anchors: usize,
    corpus: bool,
    deadline_ms: u64,
    /// The generator configuration: always the default, so an archived
    /// artifact reproduces from the `--seeds` and `--budget` of its header.
    cfg: GenConfig,
    /// Number of frame mutations to run (`--wire-mutations`; 0 = off).
    wire_mutations: usize,
    /// Archive directory for minimized malformed-frame witnesses.
    wire_archive: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seeds: (0, 1000),
            budget: 200_000,
            out: "BENCH_fuzz.json".into(),
            archive: PathBuf::from("tests/corpus/generated"),
            archive_anchors: 0,
            corpus: false,
            deadline_ms: 0,
            cfg: GenConfig::default(),
            wire_mutations: 0,
            wire_archive: PathBuf::from("tests/corpus/malformed/wire"),
        }
    }
}

/// What happened to one seed.
enum Outcome {
    Rejected(&'static str),
    /// Accepted and clean; `proved` is false when the model checker fell
    /// back to Monte-Carlo sampling.
    Clean {
        request_key: String,
        structure: String,
        proved: bool,
    },
    /// Accepted but synthesis or verification flagged it.
    Violation {
        request_key: String,
        structure: String,
        detail: String,
    },
}

fn main() -> std::process::ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("nshot-fuzz: {msg}");
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
        let parse_usize = |name: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|_| format!("{name} must be an integer"))
        };
        match flag.as_str() {
            "--seeds" => {
                let v = value("--seeds")?;
                opts.seeds = match v.split_once("..") {
                    Some((a, b)) => {
                        let lo = a.parse().map_err(|_| format!("bad seed range '{v}'"))?;
                        let hi = b.parse().map_err(|_| format!("bad seed range '{v}'"))?;
                        (lo, hi)
                    }
                    None => (0, v.parse().map_err(|_| format!("bad seed range '{v}'"))?),
                };
                if opts.seeds.0 >= opts.seeds.1 {
                    return Err(format!("empty seed range '{v}'"));
                }
            }
            "--budget" => opts.budget = parse_usize("--budget", value("--budget")?)?,
            "--out" => opts.out = value("--out")?,
            "--archive" => opts.archive = PathBuf::from(value("--archive")?),
            "--archive-anchors" => {
                opts.archive_anchors =
                    parse_usize("--archive-anchors", value("--archive-anchors")?)?;
            }
            "--corpus" => opts.corpus = true,
            "--wire-mutations" => {
                opts.wire_mutations =
                    parse_usize("--wire-mutations", value("--wire-mutations")?)?;
            }
            "--wire-archive" => {
                opts.wire_archive = PathBuf::from(value("--wire-archive")?);
            }
            "--deadline-ms" => {
                opts.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms must be an integer".to_string())?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: nshot-fuzz [--seeds A..B] [--budget STATES] [--out PATH] \
                     [--archive DIR] [--archive-anchors N] [--deadline-ms MS] [--corpus] \
                     [--wire-mutations N] [--wire-archive DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

/// The spec text modulo its `.model` line: two seeds that draw the same
/// shape share a structure even though their names (hence request keys)
/// differ.
fn structure_of(g_text: &str) -> String {
    g_text
        .lines()
        .filter(|l| !l.starts_with(".model"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn request_key_of(g_text: &str) -> String {
    nshot_logic::request_key("nshot", "heuristic", 0, "blif", false, g_text)
}

/// Does this recipe still produce a failing spec? The shrink predicate:
/// recipes that no longer build (or no longer fail) are not adopted.
/// Memoized per process — violating seeds from the same failure family
/// shrink through largely the same candidate recipes.
fn spec_fails(recipe: &Recipe, cfg: &GenConfig, budget: usize) -> bool {
    use std::sync::OnceLock;
    static MEMO: OnceLock<std::sync::Mutex<std::collections::HashMap<String, bool>>> =
        OnceLock::new();
    FuzzMetrics::global().shrink_steps.inc();
    let memo = MEMO.get_or_init(Default::default);
    let key = format!("{:?}", recipe.fragments);
    if let Some(&hit) = memo.lock().unwrap().get(&key) {
        return hit;
    }
    let fails = (|| {
        let Ok((sg, _)) = build_recipe(recipe, cfg) else {
            return false;
        };
        match synthesize(&sg, &SynthesisOptions::default()) {
            Err(_) => true,
            Ok(imp) => match verify_budgeted(&sg, &imp, budget) {
                Ok(report) => !report.hazard_free,
                Err(_) => true,
            },
        }
    })();
    memo.lock().unwrap().insert(key, fails);
    fails
}

/// Generate, synthesize and verify one seed, recording each phase's
/// latency and the outcome in the `nshot_fuzz_*` registry series.
fn run_seed(seed: u64, cfg: &GenConfig, budget: usize) -> Outcome {
    let m = FuzzMetrics::global();
    m.seeds.inc();
    let spec = match timed(&m.generate_us, || draw(seed, cfg)) {
        Ok(spec) => spec,
        Err(r) => {
            m.rejected.inc();
            return Outcome::Rejected(r.reason());
        }
    };
    m.accepted.inc();
    let request_key = request_key_of(&spec.g_text);
    let structure = structure_of(&spec.g_text);
    let imp = match timed(&m.synthesize_us, || {
        synthesize(&spec.sg, &SynthesisOptions::default())
    }) {
        Ok(imp) => imp,
        Err(e) => {
            m.violations.inc();
            return Outcome::Violation {
                request_key,
                structure,
                detail: format!("synthesis failed: {e}"),
            };
        }
    };
    let outcome = match timed(&m.verify_us, || verify_budgeted(&spec.sg, &imp, budget)) {
        Ok(report) if report.hazard_free => Outcome::Clean {
            request_key,
            structure,
            proved: matches!(report.verdict, Some(Verdict::Proved(_))),
        },
        Ok(report) => Outcome::Violation {
            request_key,
            structure,
            detail: match &report.verdict {
                Some(Verdict::Violated(c)) => format!("model checker: {}", c.render()),
                _ => "monte-carlo fallback observed a violation".to_string(),
            },
        },
        Err(e) => Outcome::Violation {
            request_key,
            structure,
            detail: format!("model build failed: {e}"),
        },
    };
    match &outcome {
        Outcome::Clean { proved: true, .. } => m.proved.inc(),
        Outcome::Clean { proved: false, .. } => m.mc_fallback.inc(),
        Outcome::Violation { .. } => m.violations.inc(),
        Outcome::Rejected(_) => {}
    }
    outcome
}

/// The structural content of an archived artifact: every line that is not
/// a comment or the `.model` header.
fn file_structure(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#') && !l.starts_with(".model"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Shrink a violating seed's recipe to a 1-minimal failing recipe and
/// archive it (minimized `.g` plus the seed) for the regression corpus.
/// Returns the artifact path and whether this failure was already on file
/// (an archived `violation_*.g` with the same minimized structure): known
/// violations are reported but do not fail the run — the corpus regression
/// mode tracks them until the underlying bug is fixed.
fn archive_violation(
    seed: u64,
    detail: &str,
    opts: &Options,
) -> Result<(PathBuf, bool), String> {
    let spec = draw(seed, &opts.cfg).map_err(|r| format!("seed {seed} re-draw: {r}"))?;
    let minimized = shrink(&spec.recipe, |r| spec_fails(r, &opts.cfg, opts.budget));
    // The shrinker may return the input unchanged if no candidate still
    // fails (e.g. a flaky environment); archive whatever we have.
    let (_, g_text) = build_recipe(&minimized, &opts.cfg)
        .map_err(|r| format!("seed {seed} minimized rebuild: {r}"))?;

    // Already on file? Compare minimized structures against the archive.
    let structure = file_structure(&g_text);
    if let Ok(entries) = std::fs::read_dir(&opts.archive) {
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let is_violation = path
                .file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("violation_") && f.ends_with(".g"));
            if !is_violation {
                continue;
            }
            if let Ok(existing) = std::fs::read_to_string(&path) {
                if file_structure(&existing) == structure {
                    return Ok((path, true));
                }
            }
        }
    }

    let mut body = String::new();
    let _ = writeln!(body, "# nshot-fuzz violation artifact");
    let _ = writeln!(body, "# seed: {seed}");
    let _ = writeln!(body, "# original recipe: {}", spec.recipe.describe());
    let _ = writeln!(body, "# minimized recipe: {}", minimized.describe());
    let _ = writeln!(body, "# detail: {}", detail.lines().next().unwrap_or(""));
    let _ = writeln!(
        body,
        "# reproduce: nshot-fuzz --seeds {seed}..{} --budget {}",
        seed + 1,
        opts.budget
    );
    body.push_str(&g_text);
    let path = opts.archive.join(format!("violation_seed{seed}.g"));
    std::fs::create_dir_all(&opts.archive)
        .map_err(|e| format!("{}: {e}", opts.archive.display()))?;
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, false))
}

/// Archive an accepted spec verbatim as a regression anchor.
fn archive_anchor(seed: u64, opts: &Options) -> Result<(), String> {
    let spec = draw(seed, &opts.cfg).map_err(|r| format!("seed {seed} re-draw: {r}"))?;
    let mut body = String::new();
    let _ = writeln!(body, "# nshot-fuzz regression anchor");
    let _ = writeln!(body, "# seed: {seed}");
    let _ = writeln!(body, "# recipe: {}", spec.recipe.describe());
    body.push_str(&spec.g_text);
    let path = opts.archive.join(format!("anchor_seed{seed}.g"));
    std::fs::create_dir_all(&opts.archive)
        .map_err(|e| format!("{}: {e}", opts.archive.display()))?;
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = parse_args(args)?;
    if opts.wire_mutations > 0 {
        return run_wire_mutations(&opts);
    }
    if opts.corpus {
        return run_corpus(&opts);
    }

    let t0 = Instant::now();
    let all_seeds: Vec<u64> = (opts.seeds.0..opts.seeds.1).collect();
    eprintln!(
        "nshot-fuzz: seeds {}..{}, verify budget {} states",
        opts.seeds.0, opts.seeds.1, opts.budget
    );

    // Live heartbeats (`NSHOT_PROGRESS`): N/M seeds, violations so far.
    // Gauges are refreshed between chunks — cheap relative to a chunk of
    // 32 synthesize+verify runs, and silent when progress is off.
    let progress = Progress::new("fuzz");
    let seeds_done_g = progress.rate("seeds_done");
    let seeds_total_g = progress.field("seeds_total");
    let accepted_g = progress.field("accepted");
    let violations_g = progress.field("violations");
    seeds_total_g.set(all_seeds.len() as u64);
    let _heartbeat = progress.start_reporter();

    // Chunked fan-out so the wall-clock deadline is honoured between
    // chunks; within a chunk results come back in seed order.
    let mut outcomes: Vec<(u64, Outcome)> = Vec::with_capacity(all_seeds.len());
    let mut deadline_hit = false;
    let mut live_accepted = 0u64;
    let mut live_violations = 0u64;
    for chunk in all_seeds.chunks(32) {
        if opts.deadline_ms > 0 && t0.elapsed().as_millis() as u64 > opts.deadline_ms {
            deadline_hit = true;
            break;
        }
        let results = par_map(chunk, |&seed| run_seed(seed, &opts.cfg, opts.budget));
        for outcome in &results {
            match outcome {
                Outcome::Clean { .. } => live_accepted += 1,
                Outcome::Violation { .. } => {
                    live_accepted += 1;
                    live_violations += 1;
                }
                Outcome::Rejected(_) => {}
            }
        }
        outcomes.extend(chunk.iter().copied().zip(results));
        seeds_done_g.set(outcomes.len() as u64);
        accepted_g.set(live_accepted);
        violations_g.set(live_violations);
    }
    if deadline_hit {
        eprintln!(
            "nshot-fuzz: deadline of {} ms hit after {} of {} seeds",
            opts.deadline_ms,
            outcomes.len(),
            all_seeds.len()
        );
    }

    // Aggregate.
    let mut accepted = 0u64;
    let mut rejected: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut request_keys: HashSet<String> = HashSet::new();
    let mut structures: HashSet<String> = HashSet::new();
    let mut proved = 0u64;
    let mut mc_fallback = 0u64;
    let mut violations: Vec<(u64, String)> = Vec::new();
    for (seed, outcome) in &outcomes {
        match outcome {
            Outcome::Rejected(reason) => *rejected.entry(reason).or_insert(0) += 1,
            Outcome::Clean {
                request_key,
                structure,
                proved: p,
            } => {
                accepted += 1;
                request_keys.insert(request_key.clone());
                structures.insert(structure.clone());
                if *p {
                    proved += 1;
                } else {
                    mc_fallback += 1;
                }
            }
            Outcome::Violation {
                request_key,
                structure,
                detail,
            } => {
                accepted += 1;
                request_keys.insert(request_key.clone());
                structures.insert(structure.clone());
                violations.push((*seed, detail.clone()));
            }
        }
    }

    // Shrink and archive each violation; split known (already on file)
    // from new. Archiving failures count the violation as new — a failure
    // the corpus cannot track must fail the run.
    let mut archived: Vec<String> = Vec::new();
    let mut known_violations = 0u64;
    let mut new_violations = 0u64;
    for (seed, detail) in &violations {
        eprintln!("nshot-fuzz: seed {seed} VIOLATION: {detail}");
        match archive_violation(*seed, detail, &opts) {
            Ok((path, known)) => {
                if known {
                    known_violations += 1;
                    FuzzMetrics::global().known_violations.inc();
                    eprintln!(
                        "nshot-fuzz: known failure, already archived as {}",
                        path.display()
                    );
                } else {
                    new_violations += 1;
                    eprintln!("nshot-fuzz: archived {}", path.display());
                    archived.push(path.display().to_string());
                }
            }
            Err(e) => {
                new_violations += 1;
                eprintln!("nshot-fuzz: archive failed: {e}");
            }
        }
    }

    // Regression anchors: the first N accepted seeds.
    let mut anchors = 0usize;
    if opts.archive_anchors > 0 {
        for (seed, outcome) in &outcomes {
            if anchors >= opts.archive_anchors {
                break;
            }
            if matches!(outcome, Outcome::Clean { .. }) {
                archive_anchor(*seed, &opts)?;
                anchors += 1;
            }
        }
        eprintln!(
            "nshot-fuzz: archived {anchors} anchors under {}",
            opts.archive.display()
        );
    }

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Per-phase wall-clock aggregates from the registry histograms: the
    // process is single-purpose, so process totals are run totals.
    let metrics = FuzzMetrics::global();
    let phase_json = |h: &nshot_obs::Histogram| {
        format!(
            "{{\"count\": {}, \"sum_us\": {}, \"p50\": {}, \"p99\": {}}}",
            h.count(),
            h.sum_us(),
            h.p50_us(),
            h.p99_us()
        )
    };
    let phase_generate = phase_json(&metrics.generate_us);
    let phase_synthesize = phase_json(&metrics.synthesize_us);
    let phase_verify = phase_json(&metrics.verify_us);
    let shrink_steps = metrics.shrink_steps.get();
    let rejected_json = rejected
        .iter()
        .map(|(reason, n)| format!("\"{reason}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let violation_seeds = violations
        .iter()
        .map(|(s, _)| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let archived_json = archived
        .iter()
        .map(|p| format!("\"{p}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let report = format!(
        "{{\n\
         \x20 \"generated_by\": \"cargo run --release -p nshot-bench --bin nshot-fuzz\",\n\
         \x20 \"seeds\": \"{lo}..{hi}\",\n\
         \x20 \"seeds_processed\": {processed},\n\
         \x20 \"deadline_hit\": {deadline_hit},\n\
         \x20 \"budget_states\": {budget},\n\
         \x20 \"config\": {{\"max_signals\": {ms}, \"max_states\": {mst}, \"max_fragments\": {mf}}},\n\
         \x20 \"accepted\": {accepted},\n\
         \x20 \"rejected\": {{{rejected_json}}},\n\
         \x20 \"distinct_request_keys\": {keys},\n\
         \x20 \"distinct_structures\": {structs},\n\
         \x20 \"proved\": {proved},\n\
         \x20 \"mc_fallback\": {mc_fallback},\n\
         \x20 \"violations\": {nviol},\n\
         \x20 \"known_violations\": {known_violations},\n\
         \x20 \"new_violations\": {new_violations},\n\
         \x20 \"violation_seeds\": [{violation_seeds}],\n\
         \x20 \"archived\": [{archived_json}],\n\
         \x20 \"anchors_archived\": {anchors},\n\
         \x20 \"shrink_steps\": {shrink_steps},\n\
         \x20 \"phase_us\": {{\"generate\": {phase_generate}, \
         \"synthesize\": {phase_synthesize}, \"verify\": {phase_verify}}},\n\
         \x20 \"wall_ms\": {wall_ms:.2}\n\
         }}\n",
        lo = opts.seeds.0,
        hi = opts.seeds.1,
        processed = outcomes.len(),
        budget = opts.budget,
        ms = opts.cfg.max_signals,
        mst = opts.cfg.max_states,
        mf = opts.cfg.max_fragments,
        keys = request_keys.len(),
        structs = structures.len(),
        nviol = violations.len(),
    );
    std::fs::write(&opts.out, &report).map_err(|e| format!("{}: {e}", opts.out))?;
    eprintln!(
        "nshot-fuzz: {accepted} accepted ({} distinct keys, {} structures), \
         {proved} proved, {mc_fallback} mc fallback, {} violations \
         ({known_violations} known, {new_violations} new) -> {}",
        request_keys.len(),
        structures.len(),
        violations.len(),
        opts.out
    );
    Ok(new_violations == 0)
}

/// Deterministic xorshift64 step (the PRNG behind the frame mutations —
/// no external randomness so a run is reproducible byte for byte).
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Name a [`nshot_wire::WireError`] for outcome bucketing.
fn wire_class(e: &nshot_wire::WireError) -> &'static str {
    use nshot_wire::WireError;
    match e {
        WireError::Truncated { .. } => "truncated",
        WireError::BadVersion(_) => "bad_version",
        WireError::BadTag(_) => "bad_tag",
        WireError::BadCrc { .. } => "bad_crc",
        WireError::BadVarint => "bad_varint",
        WireError::TooLong { .. } => "too_long",
        WireError::Malformed(_) => "malformed",
        WireError::Io(_) => "io",
    }
}

/// Decode a mutant byte stream exactly the way a connection would: frame
/// by frame via [`nshot_wire::read_frame`], each payload dispatched to the
/// real record decoder for its tag. Returns the outcome class — either a
/// typed-error name or `clean_eof` when every frame decoded.
fn decode_wire_mutant(bytes: &[u8]) -> &'static str {
    use nshot_server::wirecodec::{self, RequestDecodeError};
    use nshot_wire::tags;
    let mut cursor = std::io::Cursor::new(bytes);
    loop {
        let frame = match nshot_wire::read_frame(&mut cursor) {
            Ok(None) => return "clean_eof",
            Ok(Some(frame)) => frame,
            Err(e) => return wire_class(&e),
        };
        let outcome = match frame.tag {
            tags::REQUEST => match wirecodec::decode_request(&frame.payload) {
                Ok(_) => None,
                Err(RequestDecodeError::Frame(e)) => Some(wire_class(&e)),
                Err(RequestDecodeError::Invalid { .. }) => Some("invalid_request"),
            },
            tags::RESPONSE_HEAD => wirecodec::decode_response_head(&frame.payload)
                .err()
                .map(|e| wire_class(&e)),
            tags::FIELD => wirecodec::decode_field(&frame.payload)
                .err()
                .map(|e| wire_class(&e)),
            tags::END => wirecodec::decode_end(&frame.payload)
                .err()
                .map(|e| wire_class(&e)),
            _ => Some("unknown_tag"),
        };
        if let Some(class) = outcome {
            return class;
        }
    }
}

/// Apply mutation class `class` (0..8) to a copy of `base`, drawing
/// offsets and xor masks from the xorshift state.
fn mutate_frame(base: &[u8], class: usize, s: &mut u64) -> Vec<u8> {
    use nshot_wire::{put_varint, Frame, MAX_FRAME_PAYLOAD, WIRE_VERSION};
    let mut bytes = base.to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    match class {
        // Truncation anywhere, including mid-header and mid-CRC.
        0 => {
            let k = (xorshift(s) as usize) % bytes.len();
            bytes.truncate(k);
        }
        // Flipped version byte (offset 1).
        1 => {
            if bytes.len() > 1 {
                bytes[1] ^= (xorshift(s) as u8) | 1;
            }
        }
        // Random tag byte (offset 0; half the draws set bit 7, which no
        // tag has).
        2 => {
            bytes[0] = xorshift(s) as u8;
        }
        // Flipped length-varint byte (offset 2 is always inside it).
        3 => {
            if bytes.len() > 2 {
                bytes[2] ^= (xorshift(s) as u8) | 1;
            }
        }
        // Flipped CRC trailer byte (last four bytes).
        4 => {
            let span = bytes.len().min(4);
            let k = bytes.len() - 1 - ((xorshift(s) as usize) % span);
            bytes[k] ^= (xorshift(s) as u8) | 1;
        }
        // Flipped byte anywhere.
        5 => {
            let k = (xorshift(s) as usize) % bytes.len();
            bytes[k] ^= (xorshift(s) as u8) | 1;
        }
        // Declared length inflated past the frame cap: a crafted header
        // claiming a payload the peer must refuse to allocate.
        6 => {
            let mut crafted = vec![bytes[0], WIRE_VERSION];
            put_varint(&mut crafted, MAX_FRAME_PAYLOAD + 1 + (xorshift(s) % 4096));
            for _ in 0..16 {
                crafted.push(xorshift(s) as u8);
            }
            bytes = crafted;
        }
        // Payload corruption re-framed under a valid CRC: the framing layer
        // accepts it, the record decoder must reject it (or decode cleanly)
        // without panicking.
        _ => {
            if let Ok((frame, _)) = nshot_wire::decode_frame(base) {
                let mut payload = frame.payload;
                if payload.is_empty() {
                    payload.push(xorshift(s) as u8);
                } else {
                    let k = (xorshift(s) as usize) % payload.len();
                    payload[k] ^= (xorshift(s) as u8) | 1;
                }
                bytes = Frame {
                    tag: frame.tag,
                    payload,
                }
                .encode();
            }
        }
    }
    bytes
}

/// Greedy tail-trim: drop trailing bytes while the outcome class is
/// unchanged. Keeps archived witnesses small without a full delta-debug.
fn tail_trim_wire(bytes: &[u8], class: &str) -> Vec<u8> {
    let mut cur = bytes.to_vec();
    while cur.len() > 1 {
        let cand = &cur[..cur.len() - 1];
        let same = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decode_wire_mutant(cand)
        }))
        .map(|c| c == class)
        .unwrap_or(false);
        if !same {
            break;
        }
        cur.pop();
    }
    cur
}

/// Binary-protocol robustness mode (`--wire-mutations N`): mutate valid
/// frames N ways and assert every mutant decodes to a typed error or a
/// clean result — never a panic, never an over-read. The first witness of
/// each error class is tail-trim minimized and archived for the
/// malformed-corpus regression.
fn run_wire_mutations(opts: &Options) -> Result<bool, String> {
    use nshot_server::wirecodec;
    use nshot_server::{
        process_synth, Deadline, Envelope, Json, Method, OutputFormat, Request, SynthRequest,
    };
    use nshot_core::Minimizer;

    let t0 = Instant::now();
    let spec = nshot_benchmarks::by_name("chu133")
        .ok_or("suite circuit chu133 missing")?
        .build()
        .to_text();
    let synth_req = SynthRequest {
        spec,
        method: Method::Nshot,
        minimizer: Minimizer::Heuristic,
        trials: 0,
        format: OutputFormat::Blif,
        share: false,
    };
    let resp = process_synth(&synth_req, &Deadline::unlimited());
    let wire_err = |e: nshot_wire::WireError| format!("encode base frame: {e}");
    let ping = Envelope {
        id: Json::Num(1.0),
        request: Request::Ping,
    };
    let synth_env = Envelope {
        id: Json::Num(2.0),
        request: Request::Synth(synth_req.clone()),
    };
    let response_stream: Vec<u8> = wirecodec::encode_response_frames(
        &Json::Num(3.0),
        resp.code,
        resp.status,
        &resp.body,
        false,
        0,
        0,
        "",
    )
    .concat();
    // One of each frame kind the protocol ships, mutated round-robin.
    let bases: Vec<(&'static str, Vec<u8>)> = vec![
        ("request_ping", wirecodec::encode_request(&ping).map_err(wire_err)?),
        (
            "request_synth",
            wirecodec::encode_request(&synth_env).map_err(wire_err)?,
        ),
        ("response_stream", response_stream),
    ];

    eprintln!(
        "nshot-fuzz: {} frame mutations over {} base frames -> {}",
        opts.wire_mutations,
        bases.len(),
        opts.wire_archive.display()
    );
    let errors_before = nshot_wire::decode_errors_total();
    // Silence the default panic hook for the duration: a caught panic is a
    // counted failure, not console noise.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut witnesses: Vec<(&'static str, Vec<u8>)> = Vec::new();
    let mut panics = 0u64;
    for i in 0..opts.wire_mutations {
        let (base_name, base) = &bases[i % bases.len()];
        let mut s = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x0123_4567_89AB_CDEF);
        let mutant = mutate_frame(base, (i / bases.len()) % 8, &mut s);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decode_wire_mutant(&mutant)
        })) {
            Ok(class) => {
                *outcomes.entry(class).or_insert(0) += 1;
                if class != "clean_eof" && !witnesses.iter().any(|(c, _)| *c == class) {
                    witnesses.push((class, mutant));
                }
            }
            Err(_) => {
                panics += 1;
                eprintln!(
                    "nshot-fuzz: PANIC decoding mutation {i} of base {base_name} \
                     ({} bytes)",
                    mutant.len()
                );
            }
        }
    }
    // Archive one minimized witness per error class.
    let mut archived: Vec<String> = Vec::new();
    std::fs::create_dir_all(&opts.wire_archive)
        .map_err(|e| format!("{}: {e}", opts.wire_archive.display()))?;
    witnesses.sort_by_key(|(c, _)| *c);
    for (class, bytes) in &witnesses {
        let minimized = tail_trim_wire(bytes, class);
        let path = opts.wire_archive.join(format!("{class}.bin"));
        std::fs::write(&path, &minimized).map_err(|e| format!("{}: {e}", path.display()))?;
        archived.push(path.display().to_string());
    }
    std::panic::set_hook(prev_hook);
    let decode_errors = nshot_wire::decode_errors_total() - errors_before;

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let outcomes_json = outcomes
        .iter()
        .map(|(class, n)| format!("\"{class}\": {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let archived_json = archived
        .iter()
        .map(|p| format!("\"{p}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let report = format!(
        "{{\n\
         \x20 \"generated_by\": \"cargo run --release -p nshot-bench --bin nshot-fuzz -- --wire-mutations\",\n\
         \x20 \"mutations\": {mutations},\n\
         \x20 \"base_frames\": {nbases},\n\
         \x20 \"panics\": {panics},\n\
         \x20 \"decode_errors_noted\": {decode_errors},\n\
         \x20 \"outcomes\": {{{outcomes_json}}},\n\
         \x20 \"archived\": [{archived_json}],\n\
         \x20 \"wall_ms\": {wall_ms:.2}\n\
         }}\n",
        mutations = opts.wire_mutations,
        nbases = bases.len(),
    );
    std::fs::write(&opts.out, &report).map_err(|e| format!("{}: {e}", opts.out))?;
    eprintln!(
        "nshot-fuzz: wire mutations: {} run, {panics} panics, {} outcome classes, \
         {} witnesses archived -> {}",
        opts.wire_mutations,
        outcomes.len(),
        archived.len(),
        opts.out
    );
    Ok(panics == 0)
}

/// Regression mode: re-verify every archived `.g` file.
fn run_corpus(opts: &Options) -> Result<bool, String> {
    let dir: &Path = &opts.archive;
    if !dir.is_dir() {
        eprintln!("nshot-fuzz: corpus dir {} missing, nothing to do", dir.display());
        return Ok(true);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "g"))
        .collect();
    files.sort();
    eprintln!(
        "nshot-fuzz: corpus regression over {} files in {}",
        files.len(),
        dir.display()
    );

    // Archived specs may exceed the generator's default sampling budgets;
    // only the hard limits apply here.
    let loose = GenConfig {
        max_signals: 63,
        max_states: opts.budget.max(1),
        ..GenConfig::default()
    };
    let mut failures: Vec<String> = Vec::new();
    for path in &files {
        let name = path.display();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
        let result = (|| -> Result<(), String> {
            let stg = nshot_stg::parse_stg(&text).map_err(|e| format!("parse: {e}"))?;
            let emitted = stg.to_g_text();
            let stg2 =
                nshot_stg::parse_stg(&emitted).map_err(|e| format!("re-parse: {e}"))?;
            if stg2.to_g_text() != emitted {
                return Err("canonical emission is not a fixpoint".into());
            }
            let sg = stg
                .elaborate_with_cap(loose.max_states)
                .map_err(|e| format!("elaborate: {e}"))?;
            nshot_gen::validate_spec(&sg, &loose).map_err(|e| format!("validate: {e}"))?;
            let imp = synthesize(&sg, &SynthesisOptions::default())
                .map_err(|e| format!("synthesize: {e}"))?;
            let report = verify_budgeted(&sg, &imp, opts.budget)
                .map_err(|e| format!("verify: {e}"))?;
            // Archived *violation* artifacts are expected to fail until the
            // underlying bug is fixed; anchors must stay clean.
            let is_violation_artifact = path
                .file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("violation_"));
            if !report.hazard_free && !is_violation_artifact {
                return Err("verification found a violation".into());
            }
            if report.hazard_free && is_violation_artifact {
                return Err(
                    "archived violation no longer reproduces (fixed? promote to anchor)"
                        .into(),
                );
            }
            Ok(())
        })();
        match result {
            Ok(()) => eprintln!("nshot-fuzz: {name}: ok"),
            Err(e) => {
                eprintln!("nshot-fuzz: {name}: FAILED: {e}");
                failures.push(format!("{name}: {e}"));
            }
        }
    }
    if files.is_empty() {
        eprintln!("nshot-fuzz: corpus empty");
    }
    eprintln!(
        "nshot-fuzz: corpus: {}/{} ok",
        files.len() - failures.len(),
        files.len()
    );
    let failures_json = failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace('"', "'")))
        .collect::<Vec<_>>()
        .join(", ");
    let report = format!(
        "{{\n\
         \x20 \"generated_by\": \"cargo run --release -p nshot-bench --bin nshot-fuzz -- --corpus\",\n\
         \x20 \"corpus_dir\": \"{}\",\n\
         \x20 \"files\": {},\n\
         \x20 \"ok\": {},\n\
         \x20 \"failures\": [{failures_json}]\n\
         }}\n",
        dir.display(),
        files.len(),
        files.len() - failures.len(),
    );
    std::fs::write(&opts.out, report).map_err(|e| format!("{}: {e}", opts.out))?;
    Ok(failures.is_empty())
}
