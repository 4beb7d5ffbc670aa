//! The Q-module baseline (Rosenberger et al. \[9\]), as characterized in the
//! paper's Section II.
//!
//! In this architecture every external input *and* every feedback state
//! signal is bounded by a synchronizing **Q-flop**; an internally generated
//! clock is produced by a delay line at least as long as the longest path
//! through the combinational circuit; and an **N-way rendezvous** (a tree
//! of N C-elements, N = inputs + state signals) sequences the steps. The
//! combinational core is conventionally minimized next-state logic — like
//! N-SHOT, hazards inside it are harmless — but the paper's §II argument is
//! that the synchronizer count, the rendezvous tree and the worst-case
//! clock make the result "significantly more expensive in terms of both
//! area and performance". This module reproduces that cost model so the
//! claim can be measured.

use crate::error::BaselineError;
use crate::sis::next_state_cover;
use nshot_core::build_sop;
use nshot_logic::Cover;
use nshot_netlist::{DelayModel, GateKind, NetId, Netlist};
use nshot_sg::{SignalId, StateGraph};

/// Area of one Q-flop in library units: a metastability-hardened
/// master/slave synchronizer — two RS latches plus filter, per \[9\].
const QFLOP_AREA: u32 = 48;

/// Result of the Q-module flow.
#[derive(Debug, Clone)]
pub struct QModuleImplementation {
    /// Specification name.
    pub name: String,
    /// Reachable state count.
    pub num_states: usize,
    /// The combinational core (next-state SOPs).
    pub netlist: Netlist,
    /// Per-signal next-state covers.
    pub covers: Vec<(SignalId, Cover)>,
    /// Number of Q-flops (external inputs + feedback state signals).
    pub qflops: usize,
    /// C-elements in the N-way rendezvous tree.
    pub rendezvous_cells: usize,
    /// Length of the clock delay line in ps (≥ worst combinational path).
    pub clock_delay_ps: u64,
    /// Total area in library units.
    pub area: u32,
    /// Response time per output transition in ns (one internal clock step:
    /// Q-flop resolution + combinational worst case + rendezvous).
    pub delay_ns: f64,
}

/// Synthesize in the Q-module style and evaluate the §II cost model.
///
/// Unlike the SIS-like and SYN-like baselines this method has no
/// distributivity restriction (the local clock makes the logic effectively
/// synchronous), so it accepts the non-distributive circuits too — at the
/// §II price.
///
/// # Errors
///
/// [`BaselineError::Csc`] / [`BaselineError::NotSemiModular`] only.
pub fn qmodule(
    sg: &StateGraph,
    model: &DelayModel,
) -> Result<QModuleImplementation, BaselineError> {
    if let Err(v) = sg.check_csc() {
        return Err(BaselineError::Csc {
            violations: v.len(),
        });
    }
    if let Err(v) = sg.check_semi_modular() {
        return Err(BaselineError::NotSemiModular {
            violations: v.len(),
        });
    }

    // Conventionally minimized next-state logic (hazards are fine: the
    // Q-flops sample only after the clock step).
    let covers: Vec<(SignalId, Cover)> = sg
        .non_input_signals()
        .map(|a| (a, next_state_cover(sg, a)))
        .collect();

    // Combinational core netlist (all signals enter through Q-flops, so the
    // SOP inputs are the synchronizer outputs — modeled as inputs here).
    let mut nl = Netlist::new(sg.name());
    let nets: Vec<NetId> = sg
        .signal_ids()
        .map(|s| nl.add_input(sg.signal_name(s)))
        .collect();
    let net_of = |v: usize| nets[v];
    for (a, cover) in &covers {
        let name = sg.signal_name(*a);
        let mut out = build_sop(&mut nl, cover, &net_of, &format!("{name}.f"));
        if matches!(nl.kind(out.driver()), GateKind::Input) {
            out = nl.add_gate(GateKind::and(1), vec![out], &format!("{name}.buf"));
        }
        nl.mark_output(name, out);
    }

    // §II cost model.
    let num_inputs = sg.input_signals().count();
    let num_state = sg.non_input_signals().count();
    let qflops = num_inputs + num_state;
    let rendezvous_cells = qflops; // "a tree of N C-elements"
    let comb_worst_ns = nl.critical_path_ns(model)?;
    let clock_delay_ps = (comb_worst_ns.max(model.combinational_ns.1) * 1000.0).ceil() as u64;
    // Delay-line area: one 16-unit segment per combinational level's worth.
    let delay_segments = (clock_delay_ps as f64 / (model.combinational_ns.1 * 1000.0)).ceil();
    let area = nl.area()
        + QFLOP_AREA * qflops as u32
        + 32 * rendezvous_cells as u32
        + 16 * delay_segments as u32;
    // One internal step: Q-flop resolution + worst comb + rendezvous tree
    // (depth ⌈log₂ N⌉ C-element stages).
    let tree_depth = (qflops.max(2) as f64).log2().ceil();
    let delay_ns =
        model.storage_ns.1 + comb_worst_ns.max(model.combinational_ns.1) + tree_depth * model.storage_ns.1;

    Ok(QModuleImplementation {
        name: sg.name().to_owned(),
        num_states: sg.reachable().len(),
        netlist: nl,
        covers,
        qflops,
        rendezvous_cells,
        clock_delay_ps,
        area,
        delay_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use nshot_netlist::DelayModel;

    #[test]
    fn handshake_pays_synchronizer_tax() {
        let sg = fixtures::handshake();
        let imp = qmodule(&sg, &DelayModel::nominal()).unwrap();
        // 1 input + 1 state signal → 2 Q-flops, 2 rendezvous C-elements.
        assert_eq!(imp.qflops, 2);
        assert_eq!(imp.rendezvous_cells, 2);
        assert!(imp.clock_delay_ps >= 1_080);
        // §II: noticeably more expensive than the N-SHOT circuit.
        let nshot =
            nshot_core::synthesize(&sg, &nshot_core::SynthesisOptions::default()).unwrap();
        assert!(imp.area > nshot.area, "{} vs {}", imp.area, nshot.area);
        assert!(imp.delay_ns > nshot.delay_ns);
    }

    #[test]
    fn qflop_count_scales_with_inputs() {
        // The paper's §II point: inputs typically outnumber state signals,
        // and each costs a synchronizer.
        let sg = fixtures::parallel_handshakes();
        let imp = qmodule(&sg, &DelayModel::nominal()).unwrap();
        assert_eq!(imp.qflops, 4);
        let sg_big = nshot_sg::parse_sg(&sg.to_text()).unwrap();
        assert_eq!(sg_big.num_signals(), 4);
    }

    #[test]
    fn accepts_non_distributive_specs() {
        // The internally clocked scheme has no distributivity restriction.
        let sg = fixtures::figure1_csc();
        let imp = qmodule(&sg, &DelayModel::nominal()).unwrap();
        assert!(imp.area > 0);
        assert!(!imp.covers.is_empty());
    }

    #[test]
    fn covers_implement_next_state() {
        let sg = fixtures::figure1_csc();
        let imp = qmodule(&sg, &DelayModel::nominal()).unwrap();
        for (a, cover) in &imp.covers {
            for &s in sg.reachable() {
                let expect = sg.value(s, *a) != sg.is_excited(s, *a);
                assert_eq!(cover.contains_minterm(sg.code(s)), expect);
            }
        }
    }
}
