//! Boolean satisfiability for clause proving and equivalence checking.
//!
//! The paper proves *potentially valid clause combinations* (PVCCs) either
//! by ATPG \[10\] or by BDD verification of the modified circuit. This
//! crate provides the ATPG-equivalent path:
//!
//! * [`Var`], [`Lit`] — variable and literal primitives;
//! * [`Solver`] — a from-scratch CDCL solver (two-watched literals, 1UIP
//!   learning, VSIDS decisions, phase saving, Luby restarts, incremental
//!   solving under assumptions);
//! * [`CircuitCnf`] — the Larrabee-style characteristic-formula encoding
//!   of Section 2 of the paper (each gate contributes the clauses of its
//!   consistency function);
//! * [`check_equiv`] — miter-based combinational equivalence;
//! * [`check_equiv_sweep`] — simulation-guided equivalence checking that
//!   merges proven-equal signals and proves candidates locally, for
//!   whole netlists of any size;
//! * [`ClauseProver`] — decides validity of the paper's observability
//!   clauses `(!O_a + l_1 + ... + l_k)` exactly, by building a faulty copy
//!   of the fanout cone of `a` and asking for a distinguishing vector.
//!
//! # Example
//!
//! ```
//! use sat::{Solver, Lit, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! solver.add_clause(&[Lit::neg(a)]);
//! match solver.solve(&[]) {
//!     SatResult::Sat(model) => {
//!         assert!(!model.value(Lit::pos(a)));
//!         assert!(model.value(Lit::pos(b)));
//!     }
//!     SatResult::Unsat => unreachable!("formula is satisfiable"),
//! }
//! ```

mod cnf;
mod encode;
mod miter;
mod prove;
mod solver;
pub mod sweep;

pub use cnf::{Lit, Var};
pub use encode::CircuitCnf;
pub use miter::{build_miter, check_equiv, EquivError};
pub use prove::{ClauseProver, ClauseVerdict, FaultSite};
pub use solver::{Model, SatResult, Solver, SolverStats};
pub use sweep::{check_equiv_sweep, check_equiv_sweep_stats, SweepStats};
