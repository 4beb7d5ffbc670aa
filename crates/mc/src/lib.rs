//! `nshot-mc` — exhaustive explicit-state model checking of external
//! hazard-freeness for N-SHOT implementations.
//!
//! The Monte-Carlo conformance oracle in `nshot-sim` samples delay
//! assignments; it can miss rare interleavings by construction. This crate
//! replaces sampling with proof for controller-sized circuits: it composes
//! the emitted netlist — gates as *unbounded pure-delay* components, MHS
//! flip-flops abstracted to their external pulse contract — with the
//! state-graph environment, and explores **every** reachable interleaving.
//!
//! * On full exploration it returns a [`Certificate`]: the circuit cannot
//!   produce an observable non-input transition the specification does not
//!   enable, under *any* gate-delay assignment consistent with the Eq. 1
//!   delay requirement.
//! * On a violation it returns a depth-minimal [`Counterexample`] whose
//!   input schedule replays through `nshot-sim`'s trace machinery (see
//!   [`replay`]).
//! * Past the state budget it returns [`Verdict::BudgetExceeded`]; callers
//!   fall back to Monte-Carlo sampling ([`verify_budgeted`] does this
//!   automatically).
//!
//! ## The Eq. 1 settle assumption
//!
//! Under *fully* unbounded delays no N-SHOT circuit is externally
//! hazard-free: a left-over SOP pulse from the previous phase would
//! eventually trespass through a freshly opened acknowledgement gate. The
//! paper's Eq. 1 delay compensation exists precisely to forbid that timing.
//! The checker therefore encodes Eq. 1 as an ordering assumption — the
//! enable-rail update that *opens* an acknowledgement gate fires only once
//! the exposed SOP cone has settled — and turns the assumption **off** when
//! the netlist does not earn it: a missing/zeroed delay line (shorter than
//! the computed requirement minus the ω absorption credit) or a pulse
//! filter with ω = 0. The seeded-mutation tests exercise exactly those two
//! paths.

#![warn(missing_docs)]

mod explore;
mod model;
pub mod replay;

pub use model::{McConfig, ModelError};

use nshot_core::NshotImplementation;
use nshot_netlist::Netlist;
use nshot_sg::StateGraph;
use nshot_sim::{monte_carlo, ConformanceConfig, MonteCarloSummary};

/// An observable specification violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McViolation {
    /// A non-input signal fired although no such transition was enabled.
    UnexpectedTransition {
        /// The offending signal.
        signal: String,
        /// Direction of the offending transition.
        rose: bool,
        /// Specification state code when it fired.
        state_code: u64,
    },
    /// The composed system is quiescent while the specification still
    /// expects a non-input transition.
    Deadlock {
        /// Specification state code at the deadlock.
        state_code: u64,
        /// The expected (enabled, non-input) transitions.
        expected: Vec<String>,
    },
}

impl std::fmt::Display for McViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McViolation::UnexpectedTransition {
                signal,
                rose,
                state_code,
            } => write!(
                f,
                "unexpected {}{signal} in state {state_code:b}",
                if *rose { '+' } else { '-' }
            ),
            McViolation::Deadlock {
                state_code,
                expected,
            } => write!(
                f,
                "deadlock in state {state_code:b} expecting {}",
                expected.join(", ")
            ),
        }
    }
}

/// A depth-minimal violating interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Circuit name.
    pub circuit: String,
    /// What went wrong at the end of the trace.
    pub violation: McViolation,
    /// Every interleaving step, rendered (inputs, gate firings, flip-flop
    /// pulse events, enable updates), in order.
    pub steps: Vec<String>,
    /// The environment's input schedule along the trace, in order — the
    /// projection [`replay`] drives through `nshot-sim`.
    pub inputs: Vec<(String, bool)>,
}

impl Counterexample {
    /// Deterministic multi-line rendering (stable across runs, thread
    /// counts and machines).
    pub fn render(&self) -> String {
        let mut out = format!(
            "counterexample: {} — {} ({} steps)\n",
            self.circuit,
            self.violation,
            self.steps.len()
        );
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!("  {:>3}. {s}\n", i + 1));
        }
        out
    }
}

/// Final exploration statistics of one model-checking run. Every field is
/// a pure function of the model and the budget — no wall-clock values —
/// so certificates stay byte-identical across runs, thread counts and
/// heartbeat settings. Timing-derived figures (states/sec) live in
/// heartbeat lines and bench reports only.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExplorationStats {
    /// Distinct composed states visited.
    pub states: u64,
    /// Transitions explored: every enabled action of every expanded state.
    pub edges: u64,
    /// Always 0: the explorer is a plain BFS that expands each state once.
    /// Kept so existing readers of the field still build.
    pub reopened: u64,
    /// Maximum BFS depth reached.
    pub max_depth: u32,
    /// Peak frontier length: states discovered but not yet expanded.
    pub peak_frontier: u64,
    /// Frontier length when exploration stopped (0 for a completed run;
    /// for a budget-exceeded run, how much unexplored work was left).
    pub final_frontier: u64,
    /// Deterministic estimate of the explorer's memory: `states` times the
    /// per-state cost (the packed state words in the arena and a 4-byte
    /// parent id), plus 4 bytes per visited-table slot: 2–4 slots per state
    /// once past the table's initial 256. The arena's unfilled last page is
    /// not counted.
    pub visited_bytes: u64,
    /// The state budget the run was given.
    pub max_states: u64,
    /// Spec-conformance checks per observable signal — every flip-flop
    /// fire is checked against the specification; the counts say which
    /// outputs dominate the interleaving space. Ordered by flip-flop
    /// index; covers every flip-flop (zeros included).
    pub violation_checks: Vec<(String, u64)>,
}

impl ExplorationStats {
    /// Fraction of the state budget consumed (1.0 on budget exhaustion).
    pub fn budget_fraction(&self) -> f64 {
        if self.max_states == 0 {
            0.0
        } else {
            self.states as f64 / self.max_states as f64
        }
    }

    /// Total spec-conformance checks across all signals.
    pub fn total_violation_checks(&self) -> u64 {
        self.violation_checks.iter().map(|(_, n)| n).sum()
    }
}

/// Proof of full exploration, with its exploration statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Circuit name.
    pub circuit: String,
    /// Whether the Eq. 1 settle assumption was in force.
    pub assumed_delay_requirement: bool,
    /// `true` for a finished exploration, `false` when the budget cut it.
    pub complete: bool,
    /// Final exploration statistics (deterministic; see
    /// [`ExplorationStats`]).
    pub stats: ExplorationStats,
}

impl Certificate {
    /// Deterministic multi-line rendering (stable across runs, thread
    /// counts and machines).
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut checks = s
            .violation_checks
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        if checks.is_empty() {
            checks.push_str("none");
        }
        format!(
            "certificate: {}\n  complete: {}\n  states: {}\n  edges: {}\n  \
             max_depth: {}\n  peak_frontier: {}\n  final_frontier: {}\n  \
             visited_bytes: {}\n  budget: {}/{} ({:.4})\n  \
             violation_checks: {}\n  eq1_assumed: {}\n",
            self.circuit,
            self.complete,
            s.states,
            s.edges,
            s.max_depth,
            s.peak_frontier,
            s.final_frontier,
            s.visited_bytes,
            s.states,
            s.max_states,
            s.budget_fraction(),
            checks,
            self.assumed_delay_requirement
        )
    }
}

/// Outcome of a model-checking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable interleaving explored; no violation exists.
    Proved(Certificate),
    /// A violating interleaving exists; the trace is depth-minimal.
    Violated(Box<Counterexample>),
    /// The state budget was exhausted before the frontier emptied.
    BudgetExceeded(Certificate),
}

impl Verdict {
    /// `true` only for [`Verdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved(_))
    }

    /// The certificate, when exploration produced one.
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            Verdict::Proved(c) | Verdict::BudgetExceeded(c) => Some(c),
            Verdict::Violated(_) => None,
        }
    }

    /// The counterexample, when one was found.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Violated(c) => Some(c),
            _ => None,
        }
    }

    /// Deterministic rendering of whichever payload the verdict carries.
    pub fn render(&self) -> String {
        match self {
            Verdict::Proved(c) | Verdict::BudgetExceeded(c) => c.render(),
            Verdict::Violated(c) => c.render(),
        }
    }
}

/// Model-check `netlist` against `sg` under `config`.
///
/// Exhaustively explores the composed transition system; see the crate
/// documentation for the semantics. The run is sequential and fully
/// deterministic.
pub fn check(sg: &StateGraph, netlist: &Netlist, config: &McConfig) -> Result<Verdict, ModelError> {
    let _span = nshot_obs::span(nshot_obs::Stage::ModelCheck);
    let model = model::Model::build(sg, netlist, config)?;
    let mut explorer = explore::Explorer::new(&model, config.max_states);
    // Heartbeats for long runs (NSHOT_PROGRESS): gauge updates and the
    // reporter thread only exist when someone is listening; the explorer
    // itself is identical either way, so verdicts and certificates are
    // byte-identical with progress on or off.
    let progress = nshot_obs::Progress::new(format!("mc:{}", netlist.name()));
    let _hb = if progress.enabled() {
        explorer.attach_progress(&progress);
        Some(progress.start_reporter())
    } else {
        None
    };
    Ok(explorer.run())
}

/// Result of [`verify_budgeted`]: the proof attempt and, past its budget,
/// the Monte-Carlo fallback.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// The model checker's verdict (always present).
    pub verdict: Option<Verdict>,
    /// The sampling summary, when the proof attempt exceeded its budget and
    /// [`FALLBACK_TRIALS`] trials ran instead.
    pub monte_carlo: Option<MonteCarloSummary>,
    /// `true` when nothing — proof or sampling — found a violation.
    pub hazard_free: bool,
}

/// Trials used when a proof attempt exceeds its budget and falls back to
/// Monte-Carlo sampling.
pub const FALLBACK_TRIALS: usize = 256;

/// The proof-or-sample entry point: model-check `implementation` within
/// `max_states` explored states and, when the budget is exceeded, sample
/// [`FALLBACK_TRIALS`] Monte-Carlo trials instead (sampling is the
/// fallback, not the default). The report's `hazard_free` is the honest
/// aggregate: `true` only when the proof (or the fallback sampling) saw no
/// violation. The `modelcheck` bin, the fuzzer and the server's `verify`
/// op all call this; none keeps a copy of the policy.
pub fn verify_budgeted(
    sg: &StateGraph,
    implementation: &NshotImplementation,
    max_states: usize,
) -> Result<ValidationReport, ModelError> {
    let config = McConfig {
        max_states,
        ..McConfig::default()
    };
    let verdict = check(sg, &implementation.netlist, &config)?;
    let monte_carlo = matches!(verdict, Verdict::BudgetExceeded(_)).then(|| {
        monte_carlo(sg, implementation, &ConformanceConfig::default(), FALLBACK_TRIALS)
    });
    let hazard_free = match &monte_carlo {
        Some(summary) => summary.all_clean(),
        None => verdict.is_proved(),
    };
    Ok(ValidationReport {
        verdict: Some(verdict),
        monte_carlo,
        hazard_free,
    })
}

#[cfg(test)]
mod tests;
#[cfg(all(test, feature = "proptest"))]
mod proptests;
