//! The end-to-end synthesis procedure (Section IV.E).
//!
//! 1. Check CSC and semi-modularity (the method's preconditions).
//! 2. Per non-input signal: derive the set/reset specification (Table 1),
//!    minimize with a conventional two-level minimizer, and — if the SG is
//!    not single-traversal — ensure a trigger cube corresponds with each
//!    trigger region (Theorem 1), adding the region's supercube when needed.
//! 3. Map the covers into the N-SHOT architecture and determine the Eq. 1
//!    delay value.

use crate::architecture::assemble_netlist;
use crate::delay_req::DelayRequirement;
use crate::derive::SetResetSpec;
use crate::error::SynthesisError;
use crate::init::{init_plan, InitPlan};
use crate::trigger::{check_trigger_requirement, TriggerCertificate};
use crate::verify::verify_covers;
use nshot_logic::{espresso_cached, minimize_exact, Cover};
use nshot_netlist::{DelayModel, Netlist};
use nshot_sg::{Dir, SignalId, StateGraph};

/// Which two-level minimizer to run on the set/reset functions.
///
/// The whole point of the architecture is that this choice is free: both
/// produce correct circuits, exact just trades runtime for a few gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Minimizer {
    /// The heuristic EXPAND/IRREDUNDANT/REDUCE loop (ESPRESSO analogue).
    #[default]
    Heuristic,
    /// Prime generation + exact covering (ESPRESSO-exact analogue). Falls
    /// back with [`SynthesisError::Logic`] on oversized tables.
    Exact,
    /// Multi-output minimization across *all* set/reset functions of the
    /// specification, sharing product terms between functions — the
    /// "multi-output two-level minimizer" the paper's procedure names.
    MultiOutput,
}

/// Options controlling [`synthesize`].
#[derive(Debug, Clone, Default)]
pub struct SynthesisOptions {
    /// Minimizer choice.
    pub minimizer: Minimizer,
    /// Delay model for Eq. 1 and the reported critical path.
    pub delay_model: DelayModel,
    /// Share structurally identical product terms across all set/reset
    /// networks (the paper allows this explicitly). Default `false`, so the
    /// reported per-network cover sizes match Table 2 accounting.
    pub share_products: bool,
}

impl SynthesisOptions {
    /// Options using the exact minimizer.
    pub fn exact() -> Self {
        SynthesisOptions {
            minimizer: Minimizer::Exact,
            ..SynthesisOptions::default()
        }
    }

    /// Options using the multi-output minimizer, with `share_products`
    /// left `false`.
    ///
    /// The minimizer may give one cube to several functions, but without
    /// netlist sharing each function still builds its own AND gate for it,
    /// so the area is that of the unshared heuristic (6,864 over the 21
    /// suite circuits of at most 300 states). Set `share_products: true`
    /// to build a shared cube once.
    pub fn multi_output() -> Self {
        SynthesisOptions {
            minimizer: Minimizer::MultiOutput,
            ..SynthesisOptions::default()
        }
    }
}

/// The synthesized implementation of a single non-input signal.
#[derive(Debug, Clone)]
pub struct SignalImplementation {
    /// The signal.
    pub signal: SignalId,
    /// Its name (for reporting).
    pub name: String,
    /// Minimized (and possibly trigger-repaired) set cover.
    pub set_cover: Cover,
    /// Minimized reset cover.
    pub reset_cover: Cover,
    /// Trigger-requirement certificates, one per trigger region.
    pub triggers: Vec<TriggerCertificate>,
    /// Initialization plan for the MHS flip-flop (Section IV.F).
    pub init: InitPlan,
    /// The evaluated Eq. 1 delay requirement.
    pub delay: DelayRequirement,
}

/// The result of N-SHOT synthesis for a complete specification.
#[derive(Debug, Clone)]
pub struct NshotImplementation {
    /// Specification name.
    pub name: String,
    /// Number of reachable specification states.
    pub num_states: usize,
    /// The assembled gate-level netlist (all signals share it).
    pub netlist: Netlist,
    /// Per-signal details.
    pub signals: Vec<SignalImplementation>,
    /// Total area in library units (netlist + initialization terms).
    pub area: u32,
    /// Critical path in ns under the option's delay model.
    pub delay_ns: f64,
}

impl NshotImplementation {
    /// `true` if no signal required an Eq. 1 delay line (the paper's
    /// observation on every benchmark).
    pub fn delay_compensation_free(&self) -> bool {
        self.signals.iter().all(|s| !s.delay.needs_delay_line())
    }

    /// Total product terms across all set/reset networks (before sharing).
    pub fn product_terms(&self) -> usize {
        self.signals
            .iter()
            .map(|s| s.set_cover.num_cubes() + s.reset_cover.num_cubes())
            .sum()
    }
}

/// Synthesize an externally hazard-free N-SHOT implementation of `sg`.
///
/// # Errors
///
/// * [`SynthesisError::Csc`] / [`SynthesisError::NotSemiModular`] when the
///   specification fails the method's preconditions;
/// * [`SynthesisError::TriggerRequirement`] when some trigger region admits
///   no trigger cube (Theorem 1 is *iff*, so such specifications genuinely
///   have no hazard-free implementation in this architecture);
/// * [`SynthesisError::Logic`] when the exact minimizer gives up.
pub fn synthesize(
    sg: &StateGraph,
    options: &SynthesisOptions,
) -> Result<NshotImplementation, SynthesisError> {
    let classify_span = nshot_obs::span(nshot_obs::Stage::Classify);
    sg.check_csc().map_err(SynthesisError::Csc)?;
    sg.check_semi_modular()
        .map_err(SynthesisError::NotSemiModular)?;

    // Derive all specifications up front (the multi-output mode minimizes
    // them jointly). Each is in point form: ON, reachable-DC and OFF codes,
    // with every unreachable code a don't-care.
    let specs: Vec<SetResetSpec> = crate::derive::derive_all(sg);
    drop(classify_span);
    let multi = match options.minimizer {
        Minimizer::MultiOutput => {
            let _minimize_span = nshot_obs::span(nshot_obs::Stage::Minimize);
            let functions: Vec<nshot_logic::Function> = specs
                .iter()
                .flat_map(|s| [s.set.clone(), s.reset.clone()])
                .collect();
            Some(nshot_logic::espresso_multi(&functions))
        }
        _ => None,
    };

    // Per-signal minimize → trigger-check → init-plan chains are mutually
    // independent (Section IV, Table 1): fan them out over the worker pool.
    // Results are merged back in signal order below, and each chain is a
    // deterministic function of (sg, spec), so the outcome — including which
    // error surfaces when several signals fail — is byte-identical to the
    // sequential loop at any thread count.
    type PerSignal = (
        SignalId,
        Cover,
        Cover,
        Vec<TriggerCertificate>,
        InitPlan,
    );
    let indexed: Vec<(usize, &SetResetSpec)> = specs.iter().enumerate().collect();
    let results: Vec<Result<PerSignal, SynthesisError>> =
        nshot_par::par_map(&indexed, |&(i, spec)| {
            let a = spec.signal;
            let minimize_span = nshot_obs::span(nshot_obs::Stage::Minimize);
            let (mut set_cover, mut reset_cover) = match options.minimizer {
                Minimizer::Heuristic => {
                    (espresso_cached(&spec.set), espresso_cached(&spec.reset))
                }
                Minimizer::Exact => {
                    (minimize_exact(&spec.set)?, minimize_exact(&spec.reset)?)
                }
                Minimizer::MultiOutput => {
                    let m = multi.as_ref().expect("computed above");
                    (m.cover_for(2 * i), m.cover_for(2 * i + 1))
                }
            };
            drop(minimize_span);

            // Theorem 1: one trigger cube per trigger region.
            let trigger_span = nshot_obs::span(nshot_obs::Stage::TriggerCheck);
            let regions = sg.regions_of(a);
            let mut triggers = Vec::new();
            for (dir, function, cover) in [
                (Dir::Rise, &spec.set, &mut set_cover),
                (Dir::Fall, &spec.reset, &mut reset_cover),
            ] {
                let certs = check_trigger_requirement(sg, &regions, dir, function, cover)
                    .map_err(|states| SynthesisError::TriggerRequirement {
                        signal: sg.signal_name(a).to_owned(),
                        states,
                    })?;
                triggers.extend(certs);
            }
            drop(trigger_span);

            debug_assert_eq!(
                verify_covers(sg, a, &set_cover, &reset_cover),
                Ok(()),
                "covers must satisfy Table 1"
            );

            let init = init_plan(sg, a, &set_cover, &reset_cover);
            Ok((a, set_cover, reset_cover, triggers, init))
        });

    let mut covers = Vec::new();
    let mut per_signal = Vec::new();
    for result in results {
        let (a, set_cover, reset_cover, triggers, init) = result?;
        per_signal.push((a, triggers, init));
        covers.push((a, set_cover, reset_cover));
    }

    // Netlist mapping (including the per-signal Eq. 1 delay evaluation the
    // architecture performs while placing compensation delays) is the emit
    // stage; the top-level delay/critical-path verdict below gets its own.
    let emit_span = nshot_obs::span(nshot_obs::Stage::Emit);
    let (mut netlist, assembled) = assemble_netlist(sg, &covers, &options.delay_model)?;
    if options.share_products {
        netlist.dedupe();
    }
    drop(emit_span);

    let mut signals = Vec::new();
    for (((a, triggers, init), (_, set_cover, reset_cover)), parts) in
        per_signal.into_iter().zip(covers).zip(&assembled)
    {
        signals.push(SignalImplementation {
            signal: a,
            name: sg.signal_name(a).to_owned(),
            set_cover,
            reset_cover,
            triggers,
            init,
            delay: parts.delay,
        });
    }

    let delay_span = nshot_obs::span(nshot_obs::Stage::DelayCheck);
    let area = netlist.area() + signals.iter().map(|s| s.init.area()).sum::<u32>();
    let delay_ns = netlist.critical_path_ns(&options.delay_model)?;
    drop(delay_span);
    Ok(NshotImplementation {
        name: sg.name().to_owned(),
        num_states: sg.reachable().len(),
        netlist,
        signals,
        area,
        delay_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::trigger::TriggerStatus;

    #[test]
    fn handshake_synthesizes_minimally() {
        let sg = fixtures::handshake();
        let result = synthesize(&sg, &SynthesisOptions::default()).unwrap();
        assert_eq!(result.signals.len(), 1);
        let g = &result.signals[0];
        assert_eq!(g.set_cover.num_cubes(), 1);
        assert_eq!(g.reset_cover.num_cubes(), 1);
        // set = r, reset = r̄: one literal each.
        assert_eq!(g.set_cover.literal_count(), 1);
        assert_eq!(g.reset_cover.literal_count(), 1);
        assert!(result.delay_compensation_free());
        // Critical path: wire/inv SOP + ack AND + MHS = 1.2 + 1.2 + 2.4
        // (inverter path) — well under 6 ns.
        assert!(result.delay_ns <= 6.0);
        assert!(result.area > 0);
    }

    #[test]
    fn figure1_csc_synthesizes_non_distributive() {
        // The headline claim: non-distributive specifications are handled
        // uniformly — no special casing.
        let sg = fixtures::figure1_csc();
        assert!(!sg.is_distributive());
        let result = synthesize(&sg, &SynthesisOptions::default()).unwrap();
        assert_eq!(result.signals.len(), 2); // c and d
        for s in &result.signals {
            assert!(!s.set_cover.is_empty());
            assert!(!s.reset_cover.is_empty());
        }
        assert!(result.delay_compensation_free());
    }

    #[test]
    fn figure7b_trigger_repair_path() {
        // Non-single-traversal: the two-state trigger regions must end up
        // covered by single cubes (repaired or already covered).
        let sg = fixtures::figure7b();
        assert!(!sg.is_single_traversal());
        let result = synthesize(&sg, &SynthesisOptions::default()).unwrap();
        let y = &result.signals[0];
        assert!(!y.triggers.is_empty());
        for cert in &y.triggers {
            let cover = match cert.dir {
                Dir::Rise => &y.set_cover,
                Dir::Fall => &y.reset_cover,
            };
            assert!(
                cover
                    .iter()
                    .any(|c| cert.states.iter().all(|&m| c.contains_minterm(m))),
                "certificate {cert:?} has a covering cube"
            );
        }
    }

    #[test]
    fn csc_violation_is_rejected() {
        // The raw Figure 1 SG (without the phase signal) violates CSC.
        let mut b = nshot_sg::SgBuilder::new();
        let a = b.signal("a", nshot_sg::SignalKind::Input);
        let y = b.signal("y", nshot_sg::SignalKind::Output);
        let s00 = b.fresh_state(0b00);
        let s01 = b.fresh_state(0b01);
        let t00 = b.fresh_state(0b00);
        let s10 = b.fresh_state(0b10);
        b.edge_states(s00, (a, true), s01).unwrap();
        b.edge_states(s01, (a, false), t00).unwrap();
        b.edge_states(t00, (y, true), s10).unwrap();
        let sg = b.build_with_initial(s00).unwrap();
        assert!(matches!(
            synthesize(&sg, &SynthesisOptions::default()),
            Err(SynthesisError::Csc(_))
        ));
    }

    #[test]
    fn non_semi_modular_is_rejected() {
        let mut b = nshot_sg::SgBuilder::new();
        let a = b.signal("a", nshot_sg::SignalKind::Input);
        let y = b.signal("y", nshot_sg::SignalKind::Output);
        b.edge_codes(0b00, (y, true), 0b10).unwrap();
        b.edge_codes(0b00, (a, true), 0b01).unwrap();
        b.edge_codes(0b01, (a, false), 0b00).unwrap();
        let sg = b.build(0b00).unwrap();
        assert!(matches!(
            synthesize(&sg, &SynthesisOptions::default()),
            Err(SynthesisError::NotSemiModular(_))
        ));
    }

    #[test]
    fn exact_minimizer_is_never_larger() {
        for sg in [
            fixtures::handshake(),
            fixtures::figure1_csc(),
            fixtures::figure7b(),
            fixtures::parallel_handshakes(),
        ] {
            let heur = synthesize(&sg, &SynthesisOptions::default()).unwrap();
            let exact = synthesize(&sg, &SynthesisOptions::exact()).unwrap();
            assert!(
                exact.product_terms() <= heur.product_terms(),
                "{}: exact {} > heuristic {}",
                sg.name(),
                exact.product_terms(),
                heur.product_terms()
            );
        }
    }

    #[test]
    fn multi_output_minimizer_is_correct_and_no_larger() {
        for sg in [
            fixtures::handshake(),
            fixtures::figure1_csc(),
            fixtures::figure7b(),
            fixtures::parallel_handshakes(),
        ] {
            let single = synthesize(&sg, &SynthesisOptions::default()).unwrap();
            let multi = synthesize(&sg, &SynthesisOptions::multi_output()).unwrap();
            // Correctness: covers verify per Table 1 (checked inside
            // synthesize via debug_assert) and conformance holds structurally;
            // here we check the economy claim: joint minimization with term
            // sharing never yields a larger netlist.
            assert!(
                multi.area <= single.area,
                "{}: multi {} > single {}",
                sg.name(),
                multi.area,
                single.area
            );
            assert_eq!(multi.signals.len(), single.signals.len());
        }
    }

    #[test]
    fn sharing_never_increases_area() {
        for sg in [fixtures::figure1_csc(), fixtures::parallel_handshakes()] {
            let sharing = SynthesisOptions {
                share_products: true,
                ..SynthesisOptions::default()
            };
            let shared = synthesize(&sg, &sharing).unwrap();
            let unshared = synthesize(&sg, &SynthesisOptions::default()).unwrap();
            assert!(shared.area <= unshared.area);
        }
    }

    #[test]
    fn single_traversal_certificates_are_covered_not_repaired() {
        // Corollary 1: single-traversal SGs need no repair.
        let sg = fixtures::parallel_handshakes();
        // (not single-traversal — use handshake instead)
        let sg2 = fixtures::handshake();
        let result = synthesize(&sg2, &SynthesisOptions::default()).unwrap();
        for s in &result.signals {
            for t in &s.triggers {
                assert!(matches!(t.status, TriggerStatus::Covered { .. }));
            }
        }
        let _ = sg;
    }
}
