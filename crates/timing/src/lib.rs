//! Static timing analysis on (mapped) combinational netlists.
//!
//! The paper's optimizer works on the *topological* critical path of a
//! mapped netlist, using the per-pin block delays of the bound library
//! cells. This crate computes:
//!
//! * arrival times, required times and slack per signal, held in a
//!   persistent [`TimingGraph`] that follows netlist edits incrementally
//!   via the `netlist` crate's [`EditDelta`](netlist::EditDelta) journal
//!   and always agrees bit for bit with a from-scratch analysis;
//! * the same analysis under boundary constraints (input arrival times,
//!   per-output required times), for partition regions and
//!   `gdo-opt --require`;
//! * the circuit delay (the "delay" column of Tables 1 and 2);
//! * the set of *critical gates* (slack ≈ 0), which is where the paper
//!   restricts its `a`-signals;
//! * **NCP**, the number of critical paths through each signal — the
//!   primary ranking key for substitutions (Section 5);
//! * one explicit worst path for reporting.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, GateKind};
//! use timing::{TimingGraph, UnitDelay};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g1 = nl.add_gate(GateKind::And, &[a, b])?;
//! let g2 = nl.add_gate(GateKind::Not, &[g1])?;
//! nl.add_output("y", g2);
//! let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay)?;
//! assert_eq!(tg.circuit_delay(), 2.0);
//! assert!(tg.is_critical(g1));
//!
//! // Edits recorded in the netlist journal update the graph in place,
//! // re-propagating only through the affected cones.
//! nl.record_edits();
//! let g3 = nl.add_gate(GateKind::Buf, &[g2])?;
//! nl.add_output("z", g3);
//! let delta = nl.take_delta();
//! tg.update(&nl, &UnitDelay, &delta);
//! assert_eq!(tg.circuit_delay(), 3.0);
//! # Ok(())
//! # }
//! ```

mod graph;
mod model;
mod ncp;

pub use graph::TimingGraph;
pub use model::{DelayModel, LibDelay, LoadDelay, UnitDelay};
pub use ncp::CriticalPaths;
