//! **Partitioned delay optimization for 100k+-gate netlists.**
//!
//! GDO's per-rewrite proof machinery is exact but serial in spirit: a
//! single optimization run walks one netlist with one timing graph. This
//! crate scales it out by the route the clustering literature prescribes
//! (cluster combinational logic under size and fanout constraints,
//! freeze the cluster boundaries, optimize clusters independently):
//!
//! 1. [`cluster`] partitions the gates into convex, size/fanout-bounded
//!    regions with a deterministic seed-keyed processing schedule;
//! 2. [`optimize_partitioned`] extracts every region as a standalone
//!    sub-netlist ([`netlist::Netlist::extract_region`]), freezes its
//!    boundary timing ([`gdo::RegionConstraints`] from the parent's
//!    [`timing::TimingGraph`]), and runs the regular GDO optimizer per
//!    region on a worker pool under per-region [`gdo::Budget`] slices;
//! 3. accepted regions — constrained slack no worse, optionally proved
//!    equivalent — are stitched back serially in schedule order through
//!    the netlist's edit journal, and one incremental timing update
//!    re-times the whole parent.
//!
//! [`run`], the one entry point of `gdo-opt` and served jobs, runs a
//! [`RunPlan`] on the whole netlist or region by region.
//!
//! A region that fails its equivalence check is quarantined (skipped and
//! counted in [`PartitionStats::stitch_conflicts`]) rather than sinking
//! the run; a region whose rewrites would degrade the frozen boundary
//! slack is silently dropped, so the parent's critical path can only
//! shrink.
//!
//! # Example
//!
//! ```
//! use gdo::{Budget, GdoConfig};
//! use library::{standard_library, MapGoal, Mapper};
//! use partition::{optimize_partitioned, ClusterConfig, PartitionOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = standard_library();
//! let nl = workloads::datapath(8);
//! let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl)?;
//! let reference = mapped.clone();
//!
//! let cfg = GdoConfig::builder().vectors(256).build()?;
//! let opts = PartitionOptions {
//!     cluster: ClusterConfig::for_partitions(mapped.stats().gates, 4),
//!     threads: 2,
//!     ..PartitionOptions::default()
//! };
//! let stats = optimize_partitioned(&lib, &cfg, &mut mapped, &opts, &Budget::unlimited())?;
//! assert!(stats.regions >= 4);
//! assert!(sat::check_equiv(&reference, &mapped)?);
//! # Ok(())
//! # }
//! ```

mod cluster;
mod driver;
mod run;
mod snapshot;

pub use cluster::{cluster, ClusterConfig, Clustering, Region};
pub use driver::{optimize_partitioned, PartitionError, PartitionOptions, PartitionStats};
pub use run::{run, RunError, RunPlan, RunStats};
pub use snapshot::{PartitionSnapshot, RegionDone};
