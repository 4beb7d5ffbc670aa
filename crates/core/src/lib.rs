//! N-SHOT synthesis: externally hazard-free asynchronous circuits.
//!
//! This crate is the paper's primary contribution (Section IV): given a
//! semi-modular state graph with input choices that satisfies Complete State
//! Coding, produce — for every non-input signal — a sum-of-products
//! implementation of its *set* and *reset* functions with **conventional**
//! (hazard-oblivious) two-level minimization, and map them onto the N-SHOT
//! architecture:
//!
//! ```text
//!            ┌──────────┐ pulses  ┌─────┐
//!   inputs ─▶│ set SOP  │────────▶│ ack │──▶ set ──┐
//!   + fbk    └──────────┘         │ AND │          │  ┌────────┐
//!            ┌──────────┐         └─────┘          ├─▶│ MHS FF │──▶ a
//!   inputs ─▶│ reset SOP│────────▶[ack AND]──▶ reset┘  └────────┘
//!            └──────────┘              ▲                  │
//!                 enable-set/reset ────┴──[delay t_del]───┘
//! ```
//!
//! The SOP networks may glitch freely (streams of pulses); the MHS flip-flop
//! filters pulses shorter than its threshold ω, and the acknowledgement
//! AND gates plus the Eq. 1 delay compensation keep left-over pulses of one
//! phase from trespassing into the next. Externally — at the flip-flop
//! outputs — the circuit is hazard-free.
//!
//! Entry point: [`synthesize`]. The result carries the minimized covers, the
//! trigger-requirement certificates (Theorem 1), the initialization plan
//! (Section IV.F), the Eq. 1 delay compensation, and the assembled netlist.
//!
//! # Example
//!
//! ```
//! use nshot_sg::{SgBuilder, SignalKind};
//! use nshot_core::{synthesize, SynthesisOptions};
//!
//! let mut b = SgBuilder::named("handshake");
//! let r = b.signal("r", SignalKind::Input);
//! let g = b.signal("g", SignalKind::Output);
//! b.edge_codes(0b00, (r, true), 0b01)?;
//! b.edge_codes(0b01, (g, true), 0b11)?;
//! b.edge_codes(0b11, (r, false), 0b10)?;
//! b.edge_codes(0b10, (g, false), 0b00)?;
//! let sg = b.build(0b00)?;
//!
//! let result = synthesize(&sg, &SynthesisOptions::default())?;
//! assert_eq!(result.signals.len(), 1);          // only g is synthesized
//! assert!(result.netlist.area() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod architecture;
mod delay_req;
mod derive;
mod error;
mod init;
mod report;
mod synth;
mod trigger;
mod verify;

pub use architecture::{assemble_netlist, build_sop, AssembledSignal};
pub use delay_req::{delay_requirement_ns, DelayRequirement};
pub use derive::{derive_all, SetResetSpec};
pub use error::SynthesisError;
pub use init::InitPlan;
pub use synth::{
    synthesize, Minimizer, NshotImplementation, SignalImplementation, SynthesisOptions,
};
pub use trigger::{check_trigger_requirement, TriggerCertificate, TriggerStatus};
pub use verify::verify_covers;

/// Default explored-state budget for the `nshot-mc` proof of an
/// implementation's external hazard-freeness.
pub const DEFAULT_PROOF_STATES: usize = 4_000_000;

#[cfg(test)]
mod fixtures;
#[cfg(test)]
mod proptests;
