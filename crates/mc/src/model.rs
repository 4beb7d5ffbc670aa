//! Compilation of an N-SHOT netlist + state-graph specification into the
//! flat transition-system model the explorer runs on.
//!
//! The model has four kinds of components:
//!
//! * **sources** — primary inputs (driven by the specification environment)
//!   and constants;
//! * **delayed combinational gates** — AND/OR/NOT, each an unbounded
//!   pure-delay component: when its function value differs from its output
//!   net the gate is *excited* and may fire at any time (one interleaving
//!   transition per gate);
//! * **acknowledgement ANDs** — zero-delay per the library (merged into the
//!   flip-flop input stage), modeled as *derived* net values recomputed
//!   atomically whenever an input changes;
//! * **MHS flip-flops** — abstracted to their external contract: a rising
//!   acknowledgement rail may *commit* a pulse, a committed pulse may *fire*
//!   (the observable event checked against the specification) or, while the
//!   rail is back low and ω > 0, be *cancelled* (a runt absorbed by the
//!   pulse filter).
//!
//! The enable (feedback) rail of each signal is a separate state bit that
//! tracks the flip-flop output with unbounded lag, closing one
//! acknowledgement gate and opening the other when it updates. When the
//! Eq. 1 delay requirement is satisfied (physical delay line length plus the
//! ω absorption credit covers the computed requirement), the *opening*
//! update is constrained to fire only once the SOP cone it exposes has
//! settled — this is exactly what the Eq. 1 compensation guarantees in the
//! timed circuit, and without it *no* N-SHOT circuit is hazard-free under
//! fully unbounded delays (left-over pulses of the previous phase would
//! trespass through the freshly opened gate).

use nshot_core::delay_requirement_ns;
use nshot_netlist::{DelayModel, GateKind, Netlist};
use nshot_sg::{SignalId, SignalKind, StateGraph};

/// Configuration of a model-checking run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Explored-state budget; exceeding it aborts with
    /// [`crate::Verdict::BudgetExceeded`].
    pub max_states: usize,
    /// MHS pulse-filter threshold in ps. `0` disables runt absorption *and*
    /// voids the ω credit in the Eq. 1 delay-line check.
    pub omega_ps: u64,
    /// Delay model under which the Eq. 1 requirement is evaluated.
    pub delay_model: DelayModel,
    /// Force the Eq. 1 settle assumption on/off instead of deriving it from
    /// the netlist's delay lines (`None` = auto).
    pub assume_delay_requirement: Option<bool>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_states: nshot_core::DEFAULT_PROOF_STATES,
            omega_ps: 300,
            delay_model: DelayModel::nominal(),
            assume_delay_requirement: None,
        }
    }
}

/// Why a netlist cannot be model-checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A gate kind outside the N-SHOT architecture (C-elements, latches —
    /// the baseline architectures are not supported).
    UnsupportedGate {
        /// Gate name.
        gate: String,
        /// Debug rendering of the kind.
        kind: String,
    },
    /// A specification signal has no net in the netlist.
    MissingSignal(String),
    /// The netlist does not have the N-SHOT shape around a flip-flop.
    NotNshot(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnsupportedGate { gate, kind } => {
                write!(f, "gate {gate} has unsupported kind {kind}")
            }
            ModelError::MissingSignal(s) => write!(f, "signal {s} has no net in the netlist"),
            ModelError::NotNshot(msg) => write!(f, "netlist is not N-SHOT shaped: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Operator of a delayed combinational gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CombOp {
    /// AND with per-input bubbles.
    And,
    /// OR (no bubbles).
    Or,
    /// Inverter.
    Not,
}

/// One delayed combinational gate.
#[derive(Debug, Clone)]
pub(crate) struct CombGate {
    /// Gate index (== output net index) in the netlist.
    pub gate: u32,
    /// Operator.
    pub op: CombOp,
    /// `(net, inverted)` inputs.
    pub inputs: Vec<(u32, bool)>,
}

/// Per-non-input-signal structure (flip-flop and its two network cones).
#[derive(Debug, Clone)]
pub(crate) struct FfInfo {
    /// The specification signal.
    pub signal: SignalId,
    /// Net (== gate) index of the MHS flip-flop output.
    pub ff: u32,
    /// Gate index of the set-side acknowledgement AND.
    pub ack_set: u32,
    /// Gate index of the reset-side acknowledgement AND.
    pub ack_reset: u32,
    /// Net index of the set SOP output.
    pub set_sop: u32,
    /// Net index of the reset SOP output.
    pub reset_sop: u32,
    /// Net index of the Eq. 1 delay line, when present.
    pub delay_line: Option<u32>,
    /// Comb-gate indices in the transitive fanin of the set SOP.
    pub set_cone: Vec<u32>,
    /// Comb-gate indices in the transitive fanin of the reset SOP.
    pub reset_cone: Vec<u32>,
    /// Eq. 1 requirement in ps under the configured delay model.
    pub required_ps: u64,
    /// Physical delay-line length in ps (0 when absent).
    pub present_ps: u64,
}

/// The compiled model.
pub(crate) struct Model<'a> {
    pub sg: &'a StateGraph,
    pub nl: &'a Netlist,
    /// Delayed combinational gates, in gate-index order.
    pub comb: Vec<CombGate>,
    /// Per non-input signal (in `sg.non_input_signals()` order).
    pub ffs: Vec<FfInfo>,
    /// Signal index → net index (inputs: input gate; non-inputs: ff gate).
    pub signal_net: Vec<u32>,
    /// Signal index → `SignalId` (ids are opaque outside `nshot-sg`).
    pub signal_ids: Vec<SignalId>,
    /// Net index → positions in `ffs` whose set (`false`) / reset (`true`)
    /// SOP output this net is (for derived ack recomputation).
    pub sop_readers: Vec<Vec<(u16, bool)>>,
    /// `true` when the Eq. 1 settle assumption is in force.
    pub assume_delay_requirement: bool,
    /// `true` when runt absorption (cancel transitions) is modeled.
    pub absorption: bool,
    /// Words used for net bits in a packed state.
    pub net_words: usize,
    /// Words used for per-ff bits (enable + 2 pending bits each).
    pub ff_words: usize,
}

impl<'a> Model<'a> {
    /// Compile `netlist` against `sg` under `config`.
    pub fn build(
        sg: &'a StateGraph,
        nl: &'a Netlist,
        config: &McConfig,
    ) -> Result<Model<'a>, ModelError> {
        let num_nets = nl.num_gates();
        let mut signal_net: Vec<u32> = vec![u32::MAX; sg.num_signals()];

        // Inputs: the Input gate carrying the signal name.
        for g in nl.gate_ids() {
            if matches!(nl.kind(g), GateKind::Input) {
                if let Some(s) = sg.signal_by_name(nl.gate_name(g)) {
                    if sg.signal_kind(s) == SignalKind::Input {
                        signal_net[s.index()] = g.index() as u32;
                    }
                }
            }
        }
        // Non-inputs: the marked output net (the flip-flop).
        for s in sg.non_input_signals() {
            let net = nl
                .output_by_name(sg.signal_name(s))
                .ok_or_else(|| ModelError::MissingSignal(sg.signal_name(s).to_string()))?;
            signal_net[s.index()] = net.index() as u32;
        }
        for s in sg.signal_ids() {
            if signal_net[s.index()] == u32::MAX {
                return Err(ModelError::MissingSignal(sg.signal_name(s).to_string()));
            }
        }

        // Per-signal N-SHOT structure.
        let mut ffs = Vec::new();
        let mut ff_of_signal: Vec<Option<u16>> = vec![None; sg.num_signals()];
        for s in sg.non_input_signals() {
            let name = sg.signal_name(s);
            let ff_net = signal_net[s.index()];
            let ff_gate = nshot_netlist_gate(nl, ff_net);
            if !matches!(nl.kind(ff_gate), GateKind::MhsFlipFlop) {
                return Err(ModelError::NotNshot(format!(
                    "output {name} is not driven by an MHS flip-flop"
                )));
            }
            let ff_ins = nl.inputs(ff_gate);
            if ff_ins.len() != 2 {
                return Err(ModelError::NotNshot(format!(
                    "flip-flop {name} has {} inputs",
                    ff_ins.len()
                )));
            }
            let mut rails = [0u32; 2]; // [ack_set, ack_reset] gate indices
            let mut sops = [0u32; 2];
            let mut fb_nets = [0u32; 2];
            for (pos, rail_net) in ff_ins.iter().enumerate() {
                let rail_gate = rail_net.driver();
                let invert = match nl.kind(rail_gate) {
                    GateKind::AckAnd { invert_enable } => *invert_enable,
                    k => {
                        return Err(ModelError::NotNshot(format!(
                            "flip-flop {name} input {pos} driven by {k:?}, not AckAnd"
                        )))
                    }
                };
                // Set rail carries the bubble on the enable input.
                let expect_invert = pos == 0;
                if invert != expect_invert {
                    return Err(ModelError::NotNshot(format!(
                        "flip-flop {name} ack gate {pos} has invert_enable={invert}"
                    )));
                }
                let ins = nl.inputs(rail_gate);
                if ins.len() != 2 {
                    return Err(ModelError::NotNshot(format!(
                        "ack gate of {name} has {} inputs",
                        ins.len()
                    )));
                }
                rails[pos] = rail_gate.index() as u32;
                sops[pos] = ins[0].index() as u32;
                fb_nets[pos] = ins[1].index() as u32;
            }
            if fb_nets[0] != fb_nets[1] {
                return Err(ModelError::NotNshot(format!(
                    "ack gates of {name} see different feedback nets"
                )));
            }
            // Feedback: the flip-flop itself, or a delay line on it.
            let fb = fb_nets[0];
            let delay_line = if fb == ff_net {
                None
            } else {
                let fb_gate = nshot_netlist_gate(nl, fb);
                match nl.kind(fb_gate) {
                    GateKind::DelayLine { .. }
                        if nl.inputs(fb_gate).len() == 1
                            && nl.inputs(fb_gate)[0].index() as u32 == ff_net =>
                    {
                        Some(fb)
                    }
                    k => {
                        return Err(ModelError::NotNshot(format!(
                            "feedback of {name} is {k:?}, not the flip-flop or a delay line on it"
                        )))
                    }
                }
            };
            let present_ps = delay_line
                .map(|d| match nl.kind(nshot_netlist_gate(nl, d)) {
                    GateKind::DelayLine { ps } => *ps,
                    _ => 0,
                })
                .unwrap_or(0);
            // An unanalyzable cone (timing error) conservatively voids the
            // Eq. 1 assumption rather than granting it.
            let required_ps = delay_requirement_ns(
                nl,
                nl.net_id(sops[0] as usize),
                nl.net_id(sops[1] as usize),
                &config.delay_model,
            )
            .map(|req| req.delay_line_ps())
            .unwrap_or(u64::MAX);
            ff_of_signal[s.index()] = Some(ffs.len() as u16);
            ffs.push(FfInfo {
                signal: s,
                ff: ff_net,
                ack_set: rails[0],
                ack_reset: rails[1],
                set_sop: sops[0],
                reset_sop: sops[1],
                delay_line,
                set_cone: Vec::new(),
                reset_cone: Vec::new(),
                required_ps,
                present_ps,
            });
        }

        // Classify every gate; anything not accounted for must be a plain
        // delayed combinational gate.
        let mut comb: Vec<CombGate> = Vec::new();
        let mut comb_of_gate: Vec<Option<u32>> = vec![None; num_nets];
        let registered_ack: std::collections::HashSet<u32> = ffs
            .iter()
            .flat_map(|f| [f.ack_set, f.ack_reset])
            .collect();
        let registered_line: std::collections::HashSet<u32> =
            ffs.iter().filter_map(|f| f.delay_line).collect();
        let registered_ff: std::collections::HashSet<u32> = ffs.iter().map(|f| f.ff).collect();
        for g in nl.gate_ids() {
            let gi = g.index() as u32;
            match nl.kind(g) {
                GateKind::Input | GateKind::Const(_) => {}
                GateKind::And { inverted } => {
                    comb_of_gate[g.index()] = Some(comb.len() as u32);
                    comb.push(CombGate {
                        gate: gi,
                        op: CombOp::And,
                        inputs: nl
                            .inputs(g)
                            .iter()
                            .zip(inverted.iter())
                            .map(|(n, &inv)| (n.index() as u32, inv))
                            .collect(),
                    });
                }
                GateKind::Or => {
                    comb_of_gate[g.index()] = Some(comb.len() as u32);
                    comb.push(CombGate {
                        gate: gi,
                        op: CombOp::Or,
                        inputs: nl.inputs(g).iter().map(|n| (n.index() as u32, false)).collect(),
                    });
                }
                GateKind::Not => {
                    comb_of_gate[g.index()] = Some(comb.len() as u32);
                    comb.push(CombGate {
                        gate: gi,
                        op: CombOp::Not,
                        inputs: nl.inputs(g).iter().map(|n| (n.index() as u32, false)).collect(),
                    });
                }
                GateKind::AckAnd { .. } if registered_ack.contains(&gi) => {}
                GateKind::DelayLine { .. } if registered_line.contains(&gi) => {}
                GateKind::MhsFlipFlop if registered_ff.contains(&gi) => {}
                k => {
                    return Err(ModelError::UnsupportedGate {
                        gate: nl.gate_name(g).to_string(),
                        kind: format!("{k:?}"),
                    })
                }
            }
        }

        // Acknowledgement ANDs and delay lines are modelled as zero-delay
        // values derived from the SOP outputs and the enable rail, so a
        // combinational gate reading one would see a net the explorer
        // never treats as a delayed component. Synthesis never emits such a
        // netlist, but `check` takes any caller-built one (the public
        // `Netlist` API can add and rewire gates freely): comb fanins must
        // come from inputs, constants, flip-flop outputs or other
        // combinational gates.
        for c in &comb {
            for &(n, _) in &c.inputs {
                let ok = matches!(
                    nl.kind(nl.net_id(n as usize).driver()),
                    GateKind::Input
                        | GateKind::Const(_)
                        | GateKind::MhsFlipFlop
                        | GateKind::And { .. }
                        | GateKind::Or
                        | GateKind::Not
                );
                if !ok {
                    return Err(ModelError::NotNshot(format!(
                        "combinational gate {} reads non-combinational net {}",
                        nl.gate_name(nl.gate_id(c.gate as usize)),
                        nl.gate_name(nl.net_id(n as usize).driver())
                    )));
                }
            }
        }

        // Transitive comb fanin cones of every SOP output.
        let cone = |root: u32| -> Vec<u32> {
            let mut seen = vec![false; comb.len()];
            let mut out = Vec::new();
            let mut stack = Vec::new();
            if let Some(c) = comb_of_gate[root as usize] {
                stack.push(c);
            }
            while let Some(c) = stack.pop() {
                if std::mem::replace(&mut seen[c as usize], true) {
                    continue;
                }
                out.push(c);
                for &(n, _) in &comb[c as usize].inputs {
                    if let Some(up) = comb_of_gate[n as usize] {
                        stack.push(up);
                    }
                }
            }
            out.sort_unstable();
            out
        };
        for f in &mut ffs {
            f.set_cone = cone(f.set_sop);
            f.reset_cone = cone(f.reset_sop);
        }

        // Derived-value recomputation map: SOP net → ack rails to refresh.
        let mut sop_readers: Vec<Vec<(u16, bool)>> = vec![Vec::new(); num_nets];
        for (i, f) in ffs.iter().enumerate() {
            sop_readers[f.set_sop as usize].push((i as u16, false));
            sop_readers[f.reset_sop as usize].push((i as u16, true));
        }

        // Eq. 1: the settle assumption holds when every signal's physical
        // delay line plus the ω absorption credit covers the requirement
        // (a trespassing pulse shorter than ω is swallowed by the filter).
        let lines_ok = ffs
            .iter()
            .all(|f| f.present_ps + config.omega_ps >= f.required_ps);
        let assume = config.assume_delay_requirement.unwrap_or(lines_ok);

        let net_words = num_nets.div_ceil(64);
        let ff_words = (3 * ffs.len()).div_ceil(64);
        Ok(Model {
            sg,
            nl,
            comb,
            ffs,
            signal_net,
            signal_ids: sg.signal_ids().collect(),
            sop_readers,
            assume_delay_requirement: assume,
            absorption: config.omega_ps > 0,
            net_words,
            ff_words,
        })
    }

    /// Total packed-state length in words (nets + ff bits + spec state).
    pub fn state_words(&self) -> usize {
        self.net_words + self.ff_words + 1
    }
}

/// Net index → its driving `GateId` (1:1 in this netlist representation).
fn nshot_netlist_gate(nl: &Netlist, net: u32) -> nshot_netlist::GateId {
    nl.net_id(net as usize).driver()
}
