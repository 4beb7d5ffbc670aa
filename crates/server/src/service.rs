//! Request execution: one synthesis job in, one deterministic response out.
//!
//! This is the pure part of the service — no sockets, no queues. Everything
//! here is a function of the request (plus the deadline), so the whole
//! response prefix is cacheable and the loopback tests can compare it
//! byte-for-byte against direct library calls.
//!
//! Cancellation is **cooperative**: a job checks its deadline between
//! pipeline stages (parse → elaborate → synthesize → per-chunk Monte-Carlo)
//! and bails with a 504 as soon as it notices the budget is gone. A stage
//! in progress is never interrupted — the stages are the cancellation
//! granularity, which keeps every data structure valid and every partial
//! result discardable.

use crate::json::Json;
use crate::protocol::{Method, OutputFormat, Response, SynthRequest, VerifyRequest};
use nshot_core::{synthesize, NshotImplementation, SynthesisOptions};
use nshot_mc::Verdict;
use nshot_netlist::{DelayModel, Netlist};
use nshot_obs::Stage;
use nshot_sg::StateGraph;
use nshot_sim::{monte_carlo, ConformanceConfig, MonteCarloSummary};
use std::time::Instant;

/// Monte-Carlo trials run between two deadline checks.
const TRIAL_CHUNK: usize = 8;

/// A cooperative cancellation deadline (`None` = unlimited).
#[derive(Debug, Clone, Copy)]
pub struct Deadline(pub Option<Instant>);

impl Deadline {
    /// A deadline that never expires.
    pub fn unlimited() -> Self {
        Deadline(None)
    }

    /// A deadline `ms` milliseconds from now; the service convention
    /// `0 = unlimited` is interpreted here, in one place.
    pub fn after_ms(ms: u64) -> Self {
        if ms == 0 {
            Deadline(None)
        } else {
            Deadline(Some(
                Instant::now() + std::time::Duration::from_millis(ms),
            ))
        }
    }

    /// `true` once the wall clock has passed the deadline.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Check the budget between stages. The stage names are the same
    /// [`Stage`] vocabulary the spans use — cancellation and tracing share
    /// one set of pipeline boundaries.
    ///
    /// # Errors
    ///
    /// The 504 response naming the stage that found the deadline gone.
    fn check(&self, stage: &str) -> Result<(), Response> {
        if self.expired() {
            Err(Response::error(
                504,
                format!("deadline exceeded (noticed after {stage})"),
            ))
        } else {
            Ok(())
        }
    }
}

/// Parse a specification: `.g` STG text (detected by a `.graph` section,
/// as in the `assassin` CLI) or the SG text format.
///
/// # Errors
///
/// The parse/elaboration error message, for a 400 response.
pub fn load_spec(text: &str) -> Result<StateGraph, String> {
    if text.contains(".graph") {
        let stg = nshot_stg::parse_stg(text).map_err(|e| e.to_string())?;
        stg.elaborate().map_err(|e| e.to_string())
    } else {
        nshot_sg::parse_sg(text).map_err(|e| e.to_string())
    }
}

/// Render the requested netlist text.
fn netlist_text(netlist: &Netlist, format: OutputFormat) -> Option<Json> {
    match format {
        OutputFormat::Blif => Some(Json::Str(netlist.to_blif())),
        OutputFormat::Verilog => Some(Json::Str(netlist.to_verilog())),
        OutputFormat::None => None,
    }
}

/// Run `trials` Monte-Carlo conformance trials in deadline-checked chunks.
///
/// Chunking is invisible in the result: the per-trial seed schedule is
/// `trial_seed(base, i) = (base + i) · c`, so running chunk `[s, s+n)` with
/// the base seed advanced by `s` reproduces exactly the seeds a single
/// `monte_carlo(trials)` call would use, and the summaries fold the same
/// way (sums and first-failure).
///
/// # Errors
///
/// The 504 response when the deadline expires between chunks.
fn monte_carlo_chunked(
    sg: &StateGraph,
    imp: &NshotImplementation,
    trials: usize,
    deadline: &Deadline,
) -> Result<MonteCarloSummary, Response> {
    let base = ConformanceConfig::default();
    let mut done = 0;
    let mut clean = 0;
    let mut total_transitions = 0;
    let mut first_failure = None;
    while done < trials {
        deadline.check(Stage::MonteCarlo.name())?;
        let n = TRIAL_CHUNK.min(trials - done);
        let config = ConformanceConfig {
            seed: base.seed.wrapping_add(done as u64),
            ..base.clone()
        };
        let chunk = monte_carlo(sg, imp, &config, n);
        clean += chunk.clean_trials;
        total_transitions += chunk.total_transitions;
        if first_failure.is_none() {
            first_failure = chunk.first_failure;
        }
        done += n;
    }
    Ok(MonteCarloSummary {
        trials,
        clean_trials: clean,
        total_transitions,
        first_failure,
    })
}

/// Execute one synthesis request to completion (or deadline/error).
///
/// The returned [`Response`] is deterministic: same request, same response
/// prefix, regardless of worker, thread count, or cache state.
pub fn process_synth(req: &SynthRequest, deadline: &Deadline) -> Response {
    // Both arms of the inner Result are responses: `Err` short-circuits
    // through `?` at each deadline check or failed stage, `Ok` is the
    // success path. This is what keeps the per-stage cancellation flat.
    process_synth_checked(req, deadline).unwrap_or_else(|r| r)
}

fn process_synth_checked(
    req: &SynthRequest,
    deadline: &Deadline,
) -> Result<Response, Response> {
    deadline.check("dequeue")?;
    let sg = load_spec(&req.spec).map_err(|e| Response::error(400, format!("spec: {e}")))?;
    deadline.check(Stage::Parse.name())?;

    let mut body: Vec<(String, Json)> = vec![
        ("name".into(), Json::Str(sg.name().to_owned())),
        ("method".into(), Json::Str(req.method.name().into())),
        ("states".into(), Json::Num(sg.reachable().len() as f64)),
    ];

    match req.method {
        Method::Nshot => {
            let options = SynthesisOptions {
                minimizer: req.minimizer,
                delay_model: DelayModel::default(),
                share_products: req.share,
            };
            let imp = synthesize(&sg, &options)
                .map_err(|e| Response::error(422, format!("synthesis: {e}")))?;
            deadline.check("synthesize")?;
            body.push(("signals".into(), Json::Num(imp.signals.len() as f64)));
            body.push(("area".into(), Json::Num(f64::from(imp.area))));
            body.push(("delay_ns".into(), Json::Num(imp.delay_ns)));
            body.push((
                "product_terms".into(),
                Json::Num(imp.product_terms() as f64),
            ));
            body.push((
                "delay_compensation_free".into(),
                Json::Bool(imp.delay_compensation_free()),
            ));
            body.push((
                "triggers".into(),
                Json::Num(imp.signals.iter().map(|s| s.triggers.len()).sum::<usize>() as f64),
            ));
            if let Some(text) = netlist_text(&imp.netlist, req.format) {
                body.push((req.format.name().into(), text));
            }
            if req.trials > 0 {
                let summary = monte_carlo_chunked(&sg, &imp, req.trials, deadline)?;
                body.push(("trials".into(), Json::Num(summary.trials as f64)));
                body.push((
                    "clean_trials".into(),
                    Json::Num(summary.clean_trials as f64),
                ));
                body.push((
                    "total_transitions".into(),
                    Json::Num(summary.total_transitions as f64),
                ));
                body.push((
                    "hazard_free".into(),
                    Json::Bool(summary.clean_trials == summary.trials),
                ));
            }
        }
        Method::Syn => {
            let imp = nshot_baselines::syn(&sg, &DelayModel::default())
                .map_err(|e| Response::error(422, format!("syn: {e}")))?;
            body.push(("area".into(), Json::Num(f64::from(imp.area))));
            body.push(("delay_ns".into(), Json::Num(imp.delay_ns)));
            body.push(("ack_cubes".into(), Json::Num(imp.ack_cubes as f64)));
            if let Some(text) = netlist_text(&imp.netlist, req.format) {
                body.push((req.format.name().into(), text));
            }
        }
        Method::Sis => {
            let imp = nshot_baselines::sis(&sg, &DelayModel::default())
                .map_err(|e| Response::error(422, format!("sis: {e}")))?;
            body.push(("area".into(), Json::Num(f64::from(imp.area))));
            body.push(("delay_ns".into(), Json::Num(imp.delay_ns)));
            body.push(("delay_lines".into(), Json::Num(imp.delay_lines as f64)));
            if let Some(text) = netlist_text(&imp.netlist, req.format) {
                body.push((req.format.name().into(), text));
            }
        }
    }

    deadline.check("render")?;
    Ok(Response::ok(body))
}

/// Execute one verification request: synthesize the N-SHOT implementation
/// and run [`nshot_mc::verify_budgeted`] on it — an exhaustive model check
/// and, past the state budget, [`nshot_mc::FALLBACK_TRIALS`] Monte-Carlo
/// trials. The deadline is checked once it returns: the check before the
/// trials is the uninterruptible part, and the trials cost far less.
///
/// The response is deterministic like [`process_synth`]'s: the `method`
/// field says whether the verdict is a `"proof"` or a
/// `"monte_carlo_fallback"`, and `hazard_free` is the bottom line either
/// way.
pub fn process_verify(req: &VerifyRequest, deadline: &Deadline) -> Response {
    process_verify_checked(req, deadline).unwrap_or_else(|r| r)
}

fn process_verify_checked(
    req: &VerifyRequest,
    deadline: &Deadline,
) -> Result<Response, Response> {
    deadline.check("dequeue")?;
    let sg = load_spec(&req.spec).map_err(|e| Response::error(400, format!("spec: {e}")))?;
    deadline.check(Stage::Parse.name())?;

    let options = SynthesisOptions {
        minimizer: req.minimizer,
        delay_model: DelayModel::default(),
        share_products: false,
    };
    let imp = synthesize(&sg, &options)
        .map_err(|e| Response::error(422, format!("synthesis: {e}")))?;
    deadline.check("synthesize")?;

    let report = nshot_mc::verify_budgeted(&sg, &imp, req.max_states)
        .map_err(|e| Response::error(422, format!("model: {e}")))?;
    deadline.check(Stage::ModelCheck.name())?;
    let verdict = report
        .verdict
        .ok_or_else(|| Response::error(500, "model: no verdict"))?;

    let mut body: Vec<(String, Json)> = vec![
        ("name".into(), Json::Str(sg.name().to_owned())),
        ("states".into(), Json::Num(sg.reachable().len() as f64)),
        ("proved".into(), Json::Bool(verdict.is_proved())),
    ];
    match &verdict {
        Verdict::Proved(c) => {
            body.push(("method".into(), Json::Str("proof".into())));
            body.push(("explored_states".into(), Json::Num(c.stats.states as f64)));
            body.push(("edges".into(), Json::Num(c.stats.edges as f64)));
            body.push(("max_depth".into(), Json::Num(f64::from(c.stats.max_depth))));
            body.push((
                "peak_frontier".into(),
                Json::Num(c.stats.peak_frontier as f64),
            ));
            body.push((
                "visited_bytes".into(),
                Json::Num(c.stats.visited_bytes as f64),
            ));
            body.push((
                "eq1_assumed".into(),
                Json::Bool(c.assumed_delay_requirement),
            ));
        }
        Verdict::Violated(cex) => {
            body.push(("method".into(), Json::Str("proof".into())));
            body.push(("violation".into(), Json::Str(cex.violation.to_string())));
            body.push(("trace_depth".into(), Json::Num(cex.steps.len() as f64)));
            body.push(("counterexample".into(), Json::Str(cex.render())));
        }
        Verdict::BudgetExceeded(c) => {
            body.push((
                "method".into(),
                Json::Str("monte_carlo_fallback".into()),
            ));
            body.push(("explored_states".into(), Json::Num(c.stats.states as f64)));
            body.push((
                "peak_frontier".into(),
                Json::Num(c.stats.peak_frontier as f64),
            ));
            body.push((
                "final_frontier".into(),
                Json::Num(c.stats.final_frontier as f64),
            ));
            body.push((
                "visited_bytes".into(),
                Json::Num(c.stats.visited_bytes as f64),
            ));
            let summary = report
                .monte_carlo
                .as_ref()
                .ok_or_else(|| Response::error(500, "model: no fallback trials"))?;
            body.push(("trials".into(), Json::Num(summary.trials as f64)));
            body.push((
                "clean_trials".into(),
                Json::Num(summary.clean_trials as f64),
            ));
        }
    }
    body.push(("hazard_free".into(), Json::Bool(report.hazard_free)));
    deadline.check("render")?;
    Ok(Response::ok(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const HANDSHAKE_SG: &str = "
        .name hs
        .inputs r
        .outputs g
        .initial 00
        00 +r 10
        10 +g 11
        11 -r 01
        01 -g 00
    ";

    const HANDSHAKE_G: &str = "
        .model hs
        .inputs r
        .outputs g
        .graph
        r+ g+
        g+ r-
        r- g-
        g- r+
        .marking { <g-,r+> }
        .end
    ";

    fn req(spec: &str) -> SynthRequest {
        SynthRequest {
            spec: spec.into(),
            method: Method::Nshot,
            minimizer: nshot_core::Minimizer::Heuristic,
            trials: 0,
            format: OutputFormat::Blif,
            share: true,
        }
    }

    #[test]
    fn synthesizes_both_spec_formats_identically() {
        let a = process_synth(&req(HANDSHAKE_SG), &Deadline::unlimited());
        let b = process_synth(&req(HANDSHAKE_G), &Deadline::unlimited());
        assert_eq!(a.code, 200);
        assert_eq!(b.code, 200);
        // Same area/delay either way (states and netlist details may differ
        // by signal ordering, but the handshake is symmetric).
        assert_eq!(
            a.body.iter().find(|(k, _)| k == "area"),
            b.body.iter().find(|(k, _)| k == "area")
        );
    }

    #[test]
    fn response_matches_direct_library_call() {
        let r = process_synth(&req(HANDSHAKE_SG), &Deadline::unlimited());
        let sg = nshot_sg::parse_sg(HANDSHAKE_SG).unwrap();
        let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
        let blif = r
            .body
            .iter()
            .find(|(k, _)| k == "blif")
            .and_then(|(_, v)| v.as_str())
            .unwrap();
        assert_eq!(blif, imp.netlist.to_blif(), "byte-identical netlist");
        let area = r
            .body
            .iter()
            .find(|(k, _)| k == "area")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert_eq!(area as u32, imp.area);
    }

    #[test]
    fn trials_chunking_matches_single_call() {
        let sg = nshot_sg::parse_sg(HANDSHAKE_SG).unwrap();
        let imp = synthesize(&sg, &SynthesisOptions::default()).unwrap();
        // 19 trials: 2 full chunks + a ragged tail.
        let direct = monte_carlo(&sg, &imp, &ConformanceConfig::default(), 19);
        let chunked =
            monte_carlo_chunked(&sg, &imp, 19, &Deadline::unlimited()).unwrap();
        assert_eq!(chunked.trials, direct.trials);
        assert_eq!(chunked.clean_trials, direct.clean_trials);
        assert_eq!(chunked.total_transitions, direct.total_transitions);
    }

    #[test]
    fn parse_failure_is_400_synthesis_failure_is_422() {
        let bad = process_synth(&req(".inputs r\n.initial 0\n"), &Deadline::unlimited());
        assert_eq!(bad.code, 400);
        // Semi-modularity violation: a valid SG the method cannot implement
        // (+y enabled in 00 but withdrawn by +a without firing).
        let smv = process_synth(
            &req(".inputs a\n.outputs y\n.initial 00\n00 +y 01\n00 +a 10\n10 -a 00\n"),
            &Deadline::unlimited(),
        );
        assert_eq!(smv.code, 422, "{:?}", smv.body);
    }

    #[test]
    fn expired_deadline_is_a_504() {
        let past = Deadline(Some(Instant::now() - Duration::from_millis(1)));
        let r = process_synth(&req(HANDSHAKE_SG), &past);
        assert_eq!(r.code, 504);
        assert_eq!(r.status, "error");
    }

    fn verify_req(spec: &str, max_states: usize) -> VerifyRequest {
        VerifyRequest {
            spec: spec.into(),
            minimizer: nshot_core::Minimizer::Heuristic,
            max_states,
        }
    }

    fn field<'a>(r: &'a Response, key: &str) -> &'a Json {
        &r.body.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no field {key}")).1
    }

    #[test]
    fn verify_proves_the_handshake() {
        let r = process_verify(
            &verify_req(HANDSHAKE_SG, nshot_core::DEFAULT_PROOF_STATES),
            &Deadline::unlimited(),
        );
        assert_eq!(r.code, 200, "{:?}", r.body);
        assert_eq!(field(&r, "proved").as_bool(), Some(true));
        assert_eq!(field(&r, "method").as_str(), Some("proof"));
        assert_eq!(field(&r, "hazard_free").as_bool(), Some(true));
        assert!(field(&r, "explored_states").as_u64().unwrap() > 4);
    }

    #[test]
    fn verify_budget_exhaustion_falls_back_to_sampling() {
        let r = process_verify(&verify_req(HANDSHAKE_SG, 2), &Deadline::unlimited());
        assert_eq!(r.code, 200, "{:?}", r.body);
        assert_eq!(field(&r, "proved").as_bool(), Some(false));
        assert_eq!(field(&r, "method").as_str(), Some("monte_carlo_fallback"));
        assert_eq!(
            field(&r, "trials").as_u64(),
            Some(nshot_mc::FALLBACK_TRIALS as u64)
        );
        assert_eq!(field(&r, "hazard_free").as_bool(), Some(true));
    }

    #[test]
    fn verify_rejects_bad_and_unsynthesizable_specs() {
        let bad = process_verify(
            &verify_req(".inputs r\n.initial 0\n", 1000),
            &Deadline::unlimited(),
        );
        assert_eq!(bad.code, 400);
        let smv = process_verify(
            &verify_req(
                ".inputs a\n.outputs y\n.initial 00\n00 +y 01\n00 +a 10\n10 -a 00\n",
                1000,
            ),
            &Deadline::unlimited(),
        );
        assert_eq!(smv.code, 422, "{:?}", smv.body);
    }

    #[test]
    fn verify_response_is_deterministic() {
        let a = process_verify(&verify_req(HANDSHAKE_G, 100_000), &Deadline::unlimited());
        let b = process_verify(&verify_req(HANDSHAKE_G, 100_000), &Deadline::unlimited());
        assert_eq!(a.deterministic_fields(), b.deterministic_fields());
    }

    #[test]
    fn expired_deadline_fails_verify_with_504() {
        let past = Deadline(Some(Instant::now() - Duration::from_millis(1)));
        let r = process_verify(&verify_req(HANDSHAKE_SG, 1000), &past);
        assert_eq!(r.code, 504);
    }

    #[test]
    fn baselines_run_and_report() {
        let mut syn_req = req(HANDSHAKE_SG);
        syn_req.method = Method::Syn;
        let r = process_synth(&syn_req, &Deadline::unlimited());
        assert_eq!(r.code, 200);
        assert!(r.body.iter().any(|(k, _)| k == "ack_cubes"));

        let mut sis_req = req(HANDSHAKE_SG);
        sis_req.method = Method::Sis;
        sis_req.format = OutputFormat::None;
        let r = process_synth(&sis_req, &Deadline::unlimited());
        assert_eq!(r.code, 200);
        assert!(r.body.iter().all(|(k, _)| k != "blif" && k != "verilog"));
    }
}
