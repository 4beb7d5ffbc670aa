//! State graph (SG) model for asynchronous circuit specifications.
//!
//! Implements Section III of the paper: state graphs as finite automata over
//! signal transitions, together with the properties and objects the N-SHOT
//! synthesis method is characterized by —
//!
//! * consistent state assignment and determinism checks,
//! * Complete State Coding (**CSC**, Definition 1),
//! * semi-modularity with input choices (Definition 2),
//! * detonant states and the distributive / non-distributive classification
//!   (Definitions 3–4),
//! * excitation regions **ER** (Definition 5), quiescent regions **QR**
//!   (Definition 6), trigger regions **TR** (Definition 7),
//! * output trapping (Property 1) and trigger-region reachability
//!   (Property 2),
//! * the single-traversal classification (Definition 9).
//!
//! # Example
//!
//! ```
//! use nshot_sg::{SgBuilder, SignalKind};
//!
//! // A tiny handshake: input `r`, output `g`; r+ g+ r- g-.
//! let mut b = SgBuilder::new();
//! let r = b.signal("r", SignalKind::Input);
//! let g = b.signal("g", SignalKind::Output);
//! b.edge_codes(0b00, (r, true), 0b01)?;
//! b.edge_codes(0b01, (g, true), 0b11)?;
//! b.edge_codes(0b11, (r, false), 0b10)?;
//! b.edge_codes(0b10, (g, false), 0b00)?;
//! let sg = b.build(0b00)?;
//! assert!(sg.check_csc().is_ok());
//! assert!(sg.is_distributive());
//! # Ok::<(), nshot_sg::SgError>(())
//! ```

mod analysis;
mod builder;
mod check;
mod csc_repair;
mod dot;
mod error;
mod graph;
mod parse;
mod regions;
mod signal;
mod stateset;

pub use builder::SgBuilder;
pub use check::{CscViolation, SemiModularityViolation};
pub use csc_repair::CscRepairError;
pub use error::SgError;
pub use graph::{StateGraph, StateId};
pub use parse::parse_sg;
pub use regions::{
    ExcitationRegion, QuiescentRegion, RegionMode, SignalRegions, TransitionInstance,
    TriggerRegion,
};
pub use signal::{Dir, SignalId, SignalKind, TransitionLabel};
pub use stateset::StateSet;

#[cfg(test)]
mod fixtures;
#[cfg(test)]
mod proptests;
