//! The one run path of `gdo-opt` and served jobs: a whole-netlist
//! [`Pipeline`] or [`optimize_partitioned`], checkpointed and resumable.
//! The driver that wrote a resume snapshot decides whether it fits.

use crate::cluster::ClusterConfig;
use crate::driver::{optimize_partitioned, PartitionError, PartitionOptions, PartitionStats};
use crate::snapshot::PartitionSnapshot;
use gdo::{
    Budget, CheckpointSpec, EngineId, GdoConfig, GdoError, GdoStats, OptimizeRequest, Pipeline,
    RunSnapshot, SnapshotError,
};
use library::Library;
use netlist::Netlist;
use std::path::PathBuf;

/// What one [`run`] does.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Optimizer configuration; the run's [`Budget`] replaces its limits,
    /// but a partitioned run slices `cfg.work_limit` among its regions.
    pub cfg: GdoConfig,
    /// Engine pipeline, in order.
    pub engines: Vec<EngineId>,
    /// `Some((cluster, threads))` runs [`optimize_partitioned`] on that
    /// many region threads (`0` = one per core); `None` runs one
    /// [`Pipeline`] over the whole netlist.
    pub regions: Option<(ClusterConfig, usize)>,
    /// Where, and how often, to write snapshots.
    pub checkpoint: Option<CheckpointSpec>,
    /// A snapshot of the plan's kind to resume from; the caller passes
    /// the run's original input netlist.
    pub resume: Option<PathBuf>,
}

/// What a finished [`run`] reports.
#[derive(Debug, Clone)]
pub enum RunStats {
    /// A whole-netlist run.
    Whole(GdoStats),
    /// A partitioned run.
    Regions(PartitionStats),
}

impl RunStats {
    /// The optimizer statistics (summed over regions when partitioned).
    #[must_use]
    pub fn gdo(&self) -> &GdoStats {
        match self {
            RunStats::Whole(stats) => stats,
            RunStats::Regions(stats) => &stats.gdo,
        }
    }

    /// Folds the statistics, partition counters included, into `report`.
    pub fn merge_into_report(&self, report: &mut telemetry::RunReport) {
        match self {
            RunStats::Whole(stats) => stats.merge_into_report(report),
            RunStats::Regions(stats) => stats.merge_into_report(report),
        }
    }
}

/// Why a [`run`] produced no result.
#[derive(Debug)]
pub enum RunError {
    /// The resume snapshot at `path` cannot continue this run: it is
    /// unreadable, of the other kind, or the driver refused it
    /// ([`SnapshotError::Mismatch`]: another input, config or library).
    /// Nothing was optimized, but the netlist may hold the snapshot's.
    Rejected {
        /// The snapshot file.
        path: PathBuf,
        /// Why it was refused.
        error: SnapshotError,
    },
    /// The run failed, a checkpoint write included.
    Failed(PartitionError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Rejected { path, error } => {
                write!(f, "cannot resume from {}: {error}", path.display())
            }
            RunError::Failed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Optimizes `nl` in place as `plan` says, under `budget`.
///
/// # Errors
///
/// [`RunError`]; budget exhaustion is not an error.
pub fn run(
    lib: &Library,
    plan: &RunPlan,
    nl: &mut Netlist,
    budget: &Budget,
) -> Result<RunStats, RunError> {
    let rejected = |error| RunError::Rejected {
        path: plan.resume.clone().unwrap_or_default(),
        error,
    };
    // While resuming, a snapshot error other than a failed write is the
    // driver refusing the snapshot.
    let failed = |e| match e {
        PartitionError::Gdo(GdoError::Snapshot(error))
            if plan.resume.is_some() && !matches!(error, SnapshotError::Io { .. }) =>
        {
            rejected(error)
        }
        e => RunError::Failed(e),
    };
    let resume = plan.resume.as_deref();
    let Some((cluster, threads)) = plan.regions else {
        let req = OptimizeRequest {
            checkpoint: plan.checkpoint.clone(),
            resume_from: resume
                .map(RunSnapshot::read)
                .transpose()
                .map_err(rejected)?,
            ..OptimizeRequest::new(plan.cfg.clone()).engines(plan.engines.clone())
        };
        let stats = Pipeline::new(lib).run(&req, nl, budget);
        return stats.map(RunStats::Whole).map_err(|e| failed(e.into()));
    };
    let opts = PartitionOptions {
        cluster,
        threads,
        verify_regions: true,
        engines: plan.engines.clone(),
        checkpoint: plan.checkpoint.clone(),
        resume_from: resume
            .map(PartitionSnapshot::read)
            .transpose()
            .map_err(rejected)?,
    };
    optimize_partitioned(lib, &plan.cfg, nl, &opts, budget)
        .map(RunStats::Regions)
        .map_err(failed)
}
