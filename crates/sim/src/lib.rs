//! Bit-parallel logic simulation and observability computation.
//!
//! This is the engine behind the paper's clause invalidation (Section 4):
//! `l` input vectors are simulated in parallel, one per bit of a machine
//! word, in the style of Waicukauski et al.'s bit-parallel fault simulator
//! \[16\]. On top of plain good-value simulation, the
//! [`ObservabilityEngine`] computes, for every simulated vector, whether a
//! signal is *observable* — whether flipping it would change at least one
//! primary output. A clause `(!O_a + l_1 + ... + l_k)` is invalidated by
//! any vector where `a` is observable and every literal evaluates to 0.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, GateKind};
//! use sim::{simulate, VectorSet, ObservabilityEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate(GateKind::And, &[a, b])?;
//! nl.add_output("y", g);
//!
//! let vectors = VectorSet::exhaustive(2);
//! let sim = simulate(&nl, &vectors)?;
//! let mut obs = ObservabilityEngine::new(&nl, &sim)?;
//! // Input a of an AND gate is observable exactly when b = 1.
//! assert_eq!(obs.observability(a)[0] & 0b1111, sim.value(b)[0] & 0b1111);
//! # Ok(())
//! # }
//! ```

mod engine;
mod row;
mod vectors;

pub use engine::{simulate, ObsPlan, ObservabilityEngine, SimResult};
pub use row::{eval_gate_row, split_row, OtherRows};
pub use vectors::VectorSet;
