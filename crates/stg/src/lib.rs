//! Signal Transition Graphs (STGs): the Petri-net front-end of the flow.
//!
//! The paper's method is formulated at the state-graph level precisely so it
//! applies to any higher-level formalism that elaborates to state graphs; the
//! most widely used one is Chu's Signal Transition Graph \[2\]. This crate
//! provides:
//!
//! * [`Stg`] — a labelled Petri net whose transitions are signal edges
//!   (`a+`, `a-`, with occurrence indices `a+/2`);
//! * a parser for the classic `.g` / astg interchange format
//!   ([`parse_stg`]);
//! * token-game semantics (enabledness, firing) and
//! * reachability elaboration into a validated
//!   [`nshot_sg::StateGraph`] ([`Stg::elaborate`]), inferring initial signal
//!   values from the first transition each signal can fire.
//!
//! # Example
//!
//! ```
//! let stg = nshot_stg::parse_stg("
//!     .model xyz
//!     .inputs a
//!     .outputs b
//!     .graph
//!     a+ b+
//!     b+ a-
//!     a- b-
//!     b- a+
//!     .marking { <b-,a+> }
//!     .end
//! ")?;
//! let sg = stg.elaborate()?;
//! assert_eq!(sg.num_states(), 4);
//! # Ok::<(), nshot_stg::StgError>(())
//! ```

mod analysis;
mod emit;
mod error;
mod parse;
mod petri;
mod reach;

pub use analysis::{NetClass, StgReport};
pub use emit::{sg_to_g_text, sg_to_stg};
pub use error::StgError;
pub use parse::parse_stg;
pub use petri::{Marking, PlaceId, Stg, TransId};

#[cfg(test)]
mod proptests;
