//! Gate-level combinational netlist intermediate representation.
//!
//! This crate provides the data structure every other part of the GDO
//! reproduction is built on: a mutable DAG of logic gates with explicit
//! *stem* / *branch* distinction (a stem is a gate output, a branch is one
//! particular fanout connection of that output), incremental editing
//! primitives (rewiring single branches, substituting whole stems, inserting
//! gates, pruning dead logic), topological ordering, structural hashing, and
//! integrity validation.
//!
//! # Model
//!
//! Every signal is the output of exactly one [`Cell`]; primary inputs are
//! cells of kind [`GateKind::Input`]. A signal is identified by a
//! [`SignalId`]. A *branch* is identified by a (consumer cell, input pin)
//! pair; see [`Branch`].
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, GateKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The circuit of Fig. 1 of the paper: d = AND(a, b); e = NOT(c);
//! // f = OR(d, e).
//! let mut nl = Netlist::new("fig1");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let d = nl.add_gate(GateKind::And, &[a, b])?;
//! let e = nl.add_gate(GateKind::Not, &[c])?;
//! let f = nl.add_gate(GateKind::Or, &[d, e])?;
//! nl.add_output("f", f);
//!
//! assert_eq!(nl.stats().gates, 3);
//! assert_eq!(nl.stats().literals, 5);
//! nl.validate()?;
//! # Ok(())
//! # }
//! ```

mod bitset;
mod cell;
mod delta;
mod edit;
mod error;
mod eval;
mod extract;
mod id;
mod kind;
#[allow(clippy::module_inception)]
mod netlist;
mod raw;
mod stats;
mod strash;
mod topo;
mod validate;

pub use bitset::SignalSet;
pub use cell::{Branch, Cell, Fanout};
pub use delta::EditDelta;
pub use error::NetlistError;
pub use extract::RegionExtract;
pub use id::SignalId;
pub use kind::{Arity, GateKind};
pub use netlist::{Netlist, PrimaryOutput};
pub use raw::{RawCell, RawFanout, RawNetlist};
pub use stats::NetlistStats;
pub use validate::{ValidateError, CYCLE_MEMBER_CAP};
