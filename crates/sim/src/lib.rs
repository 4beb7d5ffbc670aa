//! Event-driven gate-level simulation and hazard validation.
//!
//! This crate is the reproduction's stand-in for the paper's VERILOG and
//! SPICE validation (Section V). It provides:
//!
//! * [`Simulator`] — a discrete-event engine over [`nshot_netlist::Netlist`]
//!   under the **pure (transport) delay** model the paper assumes: pulses of
//!   any width propagate through gates; per-gate delays are sampled from the
//!   min/max [`nshot_netlist::DelayModel`] with a seeded RNG;
//! * [`MhsCell`] — the behavioral MHS flip-flop (Fig. 4): input pulses
//!   shorter than the threshold ω are absorbed, pulses ≥ ω produce exactly
//!   one output transition translated forward by τ;
//! * [`StructuralMhs`] — the three-stage master/filter/slave structure of
//!   Fig. 5, reproducing the Fig. 6 response to hazardous inputs;
//! * [`check_conformance`] / [`monte_carlo`] — an environment that walks the
//!   state-graph specification, drives enabled input transitions after
//!   random delays, observes every non-input transition, and flags any
//!   observable change not enabled in the specification — the literal
//!   definition of an **external hazard** — as well as deadlocks.
//!
//! # Example: absorbing a runt pulse
//!
//! ```
//! use nshot_sim::{MhsAction, MhsCell};
//!
//! let mut mhs = MhsCell::new(300, 600); // ω = 0.3 ns, τ = 0.6 ns
//! // A 200 ps set pulse: scheduled, then cancelled before commit.
//! let action = mhs.on_inputs(1_000, true, false);
//! assert!(matches!(action, MhsAction::Schedule { value: true, .. }));
//! mhs.on_inputs(1_200, false, false); // falls 200 ps later: too short
//! // The scheduled fire is now stale:
//! if let MhsAction::Schedule { token, fire_at, .. } = action {
//!     assert!(!mhs.confirm_fire(token, fire_at));
//! }
//! assert!(!mhs.output());
//! ```

mod conformance;
mod engine;
mod mhs;
mod structural;
mod trace;

pub use conformance::{
    check_conformance, check_conformance_traced, monte_carlo, ConformanceConfig,
    ConformanceReport, HazardViolation, MonteCarloSummary,
};
pub use engine::{SimConfig, Simulator};
pub use mhs::{MhsAction, MhsCell, PulseResponse};
pub use structural::{StructuralMhs, StructuralTrace};
pub use trace::{WaveSignal, Waveform};

#[cfg(test)]
mod proptests;
