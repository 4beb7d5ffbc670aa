//! Gate-level netlists, the cell library, and area/delay estimation.
//!
//! This crate stands in for the SIS gate library used by the paper's
//! experimental comparison. It provides:
//!
//! * [`GateKind`] — the cell library: AND (with free input bubbles, per the
//!   paper's basic-gate assumption), OR, inverter, C-element, RS latch, the
//!   MHS flip-flop, and delay lines;
//! * [`Netlist`] — a single-driver gate graph with named primary inputs and
//!   observable outputs;
//! * area estimation in library units and min/max path timing under a
//!   configurable [`DelayModel`] (needed by the paper's Eq. 1 delay
//!   requirement);
//! * structural product-term sharing ([`Netlist::dedupe`]) — the paper
//!   explicitly allows sharing AND gates between set and reset networks of
//!   different signals.
//!
//! Delay figures follow the quantization visible in Table 2 of the paper:
//! one combinational level ≈ 1.2 ns, storage elements ≈ 2.4 ns, so a
//! two-level SOP in front of an MHS flip-flop costs 4.8 ns.
//!
//! # Example
//!
//! ```
//! use nshot_netlist::{DelayModel, GateKind, Netlist};
//!
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let and = n.add_gate(GateKind::and(2), vec![a, b], "p0");
//! n.mark_output("y", and);
//! assert_eq!(n.area(), 24); // 2-input AND = 8·(2+1)
//! let model = DelayModel::nominal();
//! assert!((n.critical_path_ns(&model).unwrap() - 1.2).abs() < 1e-9);
//! ```

mod blif;
mod delay;
mod gate;
mod graph;
mod verilog;

pub use delay::{DelayModel, TimingError};
pub use gate::GateKind;
pub use graph::{GateId, NetId, Netlist, NetlistStats};

#[cfg(test)]
mod proptests;
