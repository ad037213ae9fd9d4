//! **GDO — Global Delay Optimization by logic clause analysis.**
//!
//! This crate is the core contribution of the reproduced paper
//! (Rohfleisch, Wurth, Antreich, *Logic Clause Analysis for Delay
//! Optimization*, DAC 1995): topological delay optimization of **mapped**
//! combinational netlists by incremental, provably permissible rewirings.
//!
//! # How it works
//!
//! 1. **Clauses.** For a signal `a`, observability clauses
//!    `(!O_a + l_1 + ... + l_k)` (with `O_a` the observability variable and
//!    `l_i` signal literals) describe global circuit dependencies
//!    (Section 2 of the paper). Specific *combinations* of valid clauses
//!    license netlist rewrites (Theorems 1 and 2):
//!    * a valid **C1** clause ⇔ a stuck-at redundancy ⇒ constant
//!      substitution;
//!    * a valid pair of **C2** clauses ⇔ `OS2`/`IS2` — substituting a stem
//!      or branch by another (possibly inverted) signal;
//!    * valid C2/C3 combinations ⇔ `OS3`/`IS3` — substituting by a *new*
//!      AND/OR/XOR/XNOR gate over two other signals.
//! 2. **Invalidate cheaply.** Random bit-parallel simulation discards the
//!    vast majority of candidate clauses ([`sim`]).
//! 3. **Prove exactly.** Surviving clause combinations are proved by an
//!    incremental SAT check on a faulty-cone construction
//!    ([`sat::ClauseProver`]) or by BDD/SAT equivalence of the modified
//!    circuit ([`ProverKind`]).
//! 4. **Optimize.** A two-phase loop ([`GdoEngine`]) first shortens
//!    critical paths (ranking candidates by NCP, then local delay save),
//!    then recovers area without touching the critical path, alternating
//!    until neither phase finds a substitution.
//!
//! # Quickstart
//!
//! ```
//! use library::{standard_library, MapGoal, Mapper};
//! use netlist::{GateKind, Netlist};
//! use gdo::prelude::*;
//! use timing::{LibDelay, TimingGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small circuit with an obviously redundant long path:
//! // y = OR(AND(a, b), AND(a, b)) computed two ways.
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let t1 = nl.add_gate(GateKind::And, &[a, b])?;
//! let n = nl.add_gate(GateKind::Not, &[t1])?;
//! let t2 = nl.add_gate(GateKind::Not, &[n])?;
//! let y = nl.add_gate(GateKind::Or, &[t1, t2])?;
//! nl.add_output("y", y);
//!
//! let lib = standard_library();
//! let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl)?;
//! let before = TimingGraph::from_scratch(&mapped, &LibDelay::new(&lib))?.circuit_delay();
//!
//! let cfg = GdoConfig::builder().build()?;
//! let stats = optimize(&lib, cfg, &mut mapped)?;
//! let after = TimingGraph::from_scratch(&mapped, &LibDelay::new(&lib))?.circuit_delay();
//! assert!(after <= before);
//! assert!(nl.equiv_exhaustive(&mapped)?, "optimization is permissible");
//! # Ok(())
//! # }
//! ```

mod bpfs;
mod budget;
mod candidates;
mod cex;
mod engine;
mod error;
mod optimizer;
mod prove;
mod pvcc;
mod redundancy;
mod report;
mod resub;
mod rewrite;
mod site;
pub mod snapshot;
mod transform;

pub use bpfs::{resolve_threads, run_c2, run_c3, PairEntry, SiteRound, TripleEntry};
pub use budget::{Budget, CancelHandle, Phase, VerifyPolicy};
pub use candidates::{
    pair_candidates, pair_candidates_counted, CandidateConfig, CandidateContext, CandidateCounts,
};
pub use cex::CexPool;
pub use engine::{
    netlists_equivalent, Engine, EngineCounters, EngineId, OptimizeContext, OptimizeRequest,
    Pipeline,
};
pub use error::GdoError;
pub use optimizer::{
    optimize, GdoConfig, GdoConfigBuilder, GdoEngine, GdoStats, RegionConstraints,
};
pub use prove::{prove_rewrite, ProverKind};
pub use pvcc::{
    and_or_triple_requests, const_candidates, site_arrival, site_ncp, site_required,
    sub2_candidates, sub3_candidates, xor_triple_requests, Pvcc, RankKey,
};
pub use redundancy::remove_redundancies;
pub use report::OptimizeReport;
pub use resub::ResubEngine;
pub use rewrite::{Gate3, Rewrite, RewriteKind};
pub use site::{SigLit, Site};
pub use snapshot::{CheckpointSpec, RunCursor, RunSnapshot, SnapshotError};
#[cfg(feature = "fault-inject")]
pub use transform::fault;
pub use transform::{apply_rewrite, estimate_area_delta, estimate_arrival, exact_area_delta};

/// The one-import surface for typical users: build an
/// [`OptimizeRequest`], run it through a [`Pipeline`] (or call
/// [`optimize`] for the one-engine default), inspect [`GdoStats`],
/// handle [`GdoError`].
pub mod prelude {
    pub use crate::{
        optimize, Budget, CancelHandle, EngineId, GdoConfig, GdoError, GdoStats, OptimizeRequest,
        Pipeline, VerifyPolicy,
    };
}
