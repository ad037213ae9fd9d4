//! The parallel region driver: extract every region as a sub-netlist,
//! optimize the regions concurrently against frozen boundary timing,
//! then stitch accepted rewrites back serially in schedule order.
//!
//! The two-phase shape is what makes the result deterministic: phase 1
//! only *computes* (each worker optimizes extracted copies against an
//! immutable parent snapshot), phase 2 mutates the parent in the fixed
//! seed-permuted schedule order. With a work-unit budget (no wall-clock
//! deadline) the stitched netlist is byte-identical for any worker
//! count.
//!
//! Safety comes in layers: a region is only stitched when its
//! region-constrained worst slack did not degrade (so the parent's
//! critical path cannot lengthen), an optional per-region equivalence
//! check quarantines a functionally wrong region instead of sinking the
//! run, and the whole stitched result can be re-proved against the
//! input with the sweeping checker.

use crate::cluster::{cluster, ClusterConfig, Clustering};
use crate::snapshot::{options_digest, PartitionSnapshot, RegionDone};
use gdo::snapshot::{netlist_digest, SnapshotError};
use gdo::{
    Budget, CheckpointSpec, EngineId, GdoConfig, GdoError, GdoStats, OptimizeRequest, Pipeline,
    RegionConstraints,
};
use library::Library;
use netlist::{GateKind, Netlist, NetlistError, RegionExtract, SignalId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use timing::{LibDelay, TimingGraph};

/// How a partitioned run is organized.
#[derive(Debug, Clone)]
pub struct PartitionOptions {
    /// Clustering constraints (region size/fanout bounds, schedule seed).
    pub cluster: ClusterConfig,
    /// Region worker threads (`0` = one per available core).
    pub threads: usize,
    /// Prove each accepted region equivalent to its extracted original
    /// before stitching; a failing region is quarantined (skipped and
    /// counted), not fatal.
    pub verify_regions: bool,
    /// Engine pipeline run inside every region, in order.
    pub engines: Vec<EngineId>,
    /// Where (and how often, in finished regions) to write phase-1
    /// snapshots. A snapshot is also written when the parent budget
    /// trips, so an exhausted or cancelled run leaves a resume point.
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume phase 1 from a previously written [`PartitionSnapshot`].
    /// The caller must pass the *original* input netlist (digest-checked)
    /// — phase 1 never mutates it, so re-clustering reproduces the same
    /// regions and only the unfinished ones are re-run.
    pub resume_from: Option<PartitionSnapshot>,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            cluster: ClusterConfig::default(),
            threads: 0,
            verify_regions: true,
            engines: vec![EngineId::Gdo],
            checkpoint: None,
            resume_from: None,
        }
    }
}

/// What a partitioned run did.
#[derive(Debug, Clone, Default)]
pub struct PartitionStats {
    /// Regions produced by clustering.
    pub regions: usize,
    /// Distinct signals frozen at region boundaries.
    pub boundary_signals: usize,
    /// Rewrites accepted and stitched across all regions.
    pub region_rewrites: usize,
    /// Regions rejected at acceptance/stitch time (slack degraded,
    /// equivalence quarantine, or a stitch error).
    pub stitch_conflicts: usize,
    /// Regions left unprocessed because the budget ran out.
    pub regions_skipped: usize,
    /// Work units charged across all region workers (also folded into
    /// the caller's [`Budget`], so `--work-ceiling` aggregation holds).
    pub work_done: u64,
    /// Aggregated per-region optimizer counters (mods from accepted
    /// regions; proofs/rounds/verify counters from every region run).
    pub gdo: GdoStats,
    /// Parent worst slack before/after stitching.
    pub slack_before: f64,
    /// See [`slack_before`](Self::slack_before).
    pub slack_after: f64,
    /// Parent circuit delay before/after stitching.
    pub delay_before: f64,
    /// See [`delay_before`](Self::delay_before).
    pub delay_after: f64,
    /// True when the run stopped early on the shared [`Budget`].
    pub budget_exhausted: bool,
}

impl PartitionStats {
    /// Folds the partition counters (and the aggregated optimizer stats)
    /// into a [`telemetry::RunReport`].
    pub fn merge_into_report(&self, report: &mut telemetry::RunReport) {
        self.gdo.merge_into_report(report);
        let c = &mut report.counters;
        c.insert("partition.regions".into(), self.regions as u64);
        c.insert(
            "partition.boundary_signals".into(),
            self.boundary_signals as u64,
        );
        c.insert(
            "partition.region_rewrites".into(),
            self.region_rewrites as u64,
        );
        c.insert(
            "partition.stitch_conflicts".into(),
            self.stitch_conflicts as u64,
        );
        c.insert(
            "partition.regions_skipped".into(),
            self.regions_skipped as u64,
        );
        c.insert(
            "partition.regions_done".into(),
            (self.regions - self.regions_skipped) as u64,
        );
        let s = &mut report.summary;
        s.insert("slack_before".into(), self.slack_before);
        s.insert("slack_after".into(), self.slack_after);
    }
}

/// Error from a partitioned run.
#[derive(Debug)]
pub enum PartitionError {
    /// A structural netlist failure (cyclic input).
    Netlist(NetlistError),
    /// A region optimizer failure.
    Gdo(GdoError),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Netlist(e) => write!(f, "netlist error: {e}"),
            PartitionError::Gdo(e) => write!(f, "optimizer error: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<NetlistError> for PartitionError {
    fn from(e: NetlistError) -> Self {
        PartitionError::Netlist(e)
    }
}

impl From<GdoError> for PartitionError {
    fn from(e: GdoError) -> Self {
        PartitionError::Gdo(e)
    }
}

/// Everything phase 1 computes for one region; phase 2 stitches it.
struct RegionOutcome {
    extract: RegionExtract,
    /// The optimized sub-netlist, present when the region was accepted
    /// (slack held and, if requested, equivalence was proven).
    optimized: Option<Netlist>,
    stats: GdoStats,
    quarantined: bool,
    /// True when the region's child budget never tripped: the outcome is
    /// then what an unconstrained run of the region produces, so it may
    /// be recorded in a snapshot and reused verbatim after a resume. A
    /// region cut short (slice exhausted or parent-cancelled) is still
    /// stitched this leg but re-run from scratch on resume.
    resumable: bool,
}

/// Phase-1 snapshot writer: serializes the resumable region outcomes
/// every `spec.every` finished regions and once more when the parent
/// budget trips.
struct PartCheckpointer<'a> {
    spec: &'a CheckpointSpec,
    config_digest: u64,
    input_digest: u64,
    n_regions: usize,
    finished: AtomicUsize,
}

impl PartCheckpointer<'_> {
    /// Serializes and atomically writes the current resumable outcomes.
    /// Called with the results lock held, so the outcome set is a
    /// consistent cut.
    fn write(
        &self,
        budget: &Budget,
        outcomes: &[Option<RegionOutcome>],
    ) -> Result<(), SnapshotError> {
        let done = outcomes
            .iter()
            .enumerate()
            .filter_map(|(region, slot)| {
                let o = slot.as_ref().filter(|o| o.resumable)?;
                Some(RegionDone {
                    region,
                    stats: o.stats,
                    quarantined: o.quarantined,
                    optimized: o.optimized.clone(),
                })
            })
            .collect();
        let snap = PartitionSnapshot {
            config_digest: self.config_digest,
            input_digest: self.input_digest,
            work_remaining: budget.remaining_work(),
            time_remaining_ms: budget
                .remaining_time()
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            n_regions: self.n_regions,
            done,
        };
        snap.write(&self.spec.path)
    }
}

/// Optimizes `nl` region by region under `budget` and stitches the
/// accepted rewrites back. The caller's budget is charged with every
/// region worker's work, so aggregate work ceilings keep holding across
/// partitioned runs. Per-region work budgets are carved from
/// `cfg.work_limit` (an equal slice per region); `cfg.deadline` is
/// ignored in favor of `budget`'s own deadline.
///
/// # Errors
///
/// [`PartitionError`] on structural failures. Budget exhaustion is not
/// an error: the run stitches what was accepted in time and reports
/// [`PartitionStats::budget_exhausted`].
pub fn optimize_partitioned(
    lib: &Library,
    cfg: &GdoConfig,
    nl: &mut Netlist,
    opts: &PartitionOptions,
    budget: &Budget,
) -> Result<PartitionStats, PartitionError> {
    let _span = telemetry::span("partition.optimize");
    let start = Instant::now();
    let model = LibDelay::new(lib);
    let mut stats = PartitionStats::default();

    // Digests are taken over the pristine parent, before the edit
    // journal is armed, so a resumed leg can be cross-checked against
    // the same original input the interrupted leg saw.
    let snapshotting = opts.checkpoint.is_some() || opts.resume_from.is_some();
    let (config_digest, input_digest) = if snapshotting {
        (
            options_digest(cfg, &opts.cluster, &opts.engines, opts.verify_regions),
            netlist_digest(nl),
        )
    } else {
        (0, 0)
    };
    if let Some(snap) = &opts.resume_from {
        if snap.config_digest != config_digest {
            return Err(GdoError::from(SnapshotError::Mismatch(format!(
                "snapshot config digest {:016x} != request {config_digest:016x}",
                snap.config_digest
            )))
            .into());
        }
        if snap.input_digest != input_digest {
            return Err(GdoError::from(SnapshotError::Mismatch(format!(
                "snapshot input digest {:016x} != netlist {input_digest:016x} \
                 (resume requires the original input netlist)",
                snap.input_digest
            )))
            .into());
        }
    }

    nl.record_edits();
    let mut tg = TimingGraph::from_scratch(nl, &model)?;
    stats.slack_before = tg.worst_slack();
    stats.delay_before = tg.circuit_delay();
    {
        let s = nl.stats();
        stats.gdo.gates_before = s.gates;
        stats.gdo.literals_before = s.literals;
        stats.gdo.delay_before = tg.circuit_delay();
    }

    let clustering = cluster(nl, &opts.cluster)?;
    stats.regions = clustering.regions.len();
    stats.boundary_signals = clustering.boundary_signals;
    telemetry::counter_add("partition.regions", clustering.regions.len() as u64);
    telemetry::counter_add(
        "partition.boundary_signals",
        clustering.boundary_signals as u64,
    );

    if let Some(snap) = &opts.resume_from {
        if snap.n_regions != clustering.regions.len() {
            return Err(GdoError::from(SnapshotError::Mismatch(format!(
                "snapshot has {} regions, clustering produced {}",
                snap.n_regions,
                clustering.regions.len()
            )))
            .into());
        }
        telemetry::counter_add("snapshot.resumed", 1);
    }
    let ckpt = opts.checkpoint.as_ref().map(|spec| PartCheckpointer {
        spec,
        config_digest,
        input_digest,
        n_regions: clustering.regions.len(),
        finished: AtomicUsize::new(0),
    });

    let outcomes = run_regions(lib, cfg, nl, &tg, &clustering, opts, budget, ckpt.as_ref())?;

    // An exhausted or cancelled leg leaves a resume point covering every
    // region that finished cleanly, whatever the write cadence was.
    if budget.tripped_phase().is_some() {
        if let Some(ck) = &ckpt {
            ck.write(budget, &outcomes).map_err(GdoError::from)?;
        }
    }

    // Phase 2: serial stitch in schedule order. `redirect` chases
    // boundary signals already replaced by earlier regions' stitches.
    let mut redirect: HashMap<SignalId, SignalId> = HashMap::new();
    for &r in &clustering.schedule {
        let Some(outcome) = &outcomes[r] else {
            stats.regions_skipped += 1;
            continue;
        };
        accumulate(&mut stats.gdo, &outcome.stats, outcome.optimized.is_some());
        if outcome.quarantined {
            stats.stitch_conflicts += 1;
            continue;
        }
        let Some(optimized) = &outcome.optimized else {
            continue; // nothing accepted for this region
        };
        match stitch_region(nl, optimized, &outcome.extract, &mut redirect) {
            Ok(()) => stats.region_rewrites += outcome.stats.total_mods(),
            Err(_) => stats.stitch_conflicts += 1,
        }
    }
    nl.prune_dangling();

    // One global incremental pass over the whole stitch journal.
    let delta = nl.take_delta();
    tg.update(nl, &model, &delta);
    nl.stop_recording();

    stats.slack_after = tg.worst_slack();
    stats.delay_after = tg.circuit_delay();
    {
        let s = nl.stats();
        stats.gdo.gates_after = s.gates;
        stats.gdo.literals_after = s.literals;
        stats.gdo.delay_after = tg.circuit_delay();
    }
    stats.gdo.cpu_seconds = start.elapsed().as_secs_f64();
    stats.budget_exhausted = budget.tripped_phase().is_some();
    stats.gdo.budget_exhausted = stats.budget_exhausted;
    stats.work_done = budget.work_done();
    telemetry::counter_add("partition.region_rewrites", stats.region_rewrites as u64);
    telemetry::counter_add("partition.stitch_conflicts", stats.stitch_conflicts as u64);
    Ok(stats)
}

/// Phase 1: optimize every region concurrently against the immutable
/// parent snapshot. Results land in region-index slots, so completion
/// order does not matter.
#[allow(clippy::too_many_arguments)]
fn run_regions(
    lib: &Library,
    cfg: &GdoConfig,
    nl: &Netlist,
    tg: &TimingGraph,
    clustering: &Clustering,
    opts: &PartitionOptions,
    budget: &Budget,
    ckpt: Option<&PartCheckpointer<'_>>,
) -> Result<Vec<Option<RegionOutcome>>, PartitionError> {
    let n_regions = clustering.regions.len();
    let threads = gdo::resolve_threads(opts.threads).min(n_regions.max(1));
    // Equal work slice per region; regions that finish under their slice
    // leave the headroom to the shared parent ceiling check.
    let work_slice = cfg.work_limit.map(|w| (w / n_regions.max(1) as u64).max(1));

    // Restored regions re-derive their extract from the (unmutated)
    // parent; their optimized sub-netlists come from the snapshot.
    let mut initial: Vec<Option<RegionOutcome>> = (0..n_regions).map(|_| None).collect();
    if let Some(snap) = &opts.resume_from {
        for rd in &snap.done {
            let extract = nl.extract_region(&clustering.regions[rd.region].members)?;
            initial[rd.region] = Some(RegionOutcome {
                extract,
                optimized: rd.optimized.clone(),
                stats: rd.stats,
                quarantined: rd.quarantined,
                resumable: true,
            });
        }
    }

    let results: Mutex<Vec<Option<RegionOutcome>>> = Mutex::new(initial);
    let errors: Mutex<Vec<PartitionError>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let children: Mutex<Vec<gdo::CancelHandle>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Supervisor: propagate parent exhaustion/cancel into every
        // in-flight region budget so workers unwind cooperatively, until
        // `joined` is dropped (no last tick to sit out).
        let (joined, wait) = mpsc::channel::<()>();
        let in_flight = &children;
        scope.spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(Duration::from_millis(5)) {
                if budget.is_exhausted() {
                    for h in in_flight.lock().unwrap().iter() {
                        h.cancel();
                    }
                }
            }
        });
        let mut workers = Vec::new();
        for _ in 0..threads {
            workers.push(scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_regions || budget.is_exhausted() {
                    break;
                }
                let region = clustering.schedule[i];
                if results.lock().unwrap()[region].is_some() {
                    continue; // restored from a snapshot
                }
                let members = &clustering.regions[region].members;
                match run_one_region(
                    lib, cfg, nl, tg, members, opts, budget, work_slice, &children,
                ) {
                    Ok(outcome) => {
                        let mut slots = results.lock().unwrap();
                        slots[region] = Some(outcome);
                        if let Some(ck) = ckpt {
                            let finished = ck.finished.fetch_add(1, Ordering::Relaxed) + 1;
                            if finished % ck.spec.every == 0 {
                                if let Err(e) = ck.write(budget, &slots) {
                                    errors.lock().unwrap().push(GdoError::from(e).into());
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        errors.lock().unwrap().push(e);
                        break;
                    }
                }
                telemetry::counter_add("partition.regions_done", 1);
            }));
        }
        for w in workers {
            let _ = w.join();
        }
        drop(joined);
    });

    if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
        return Err(e);
    }
    Ok(results.into_inner().unwrap())
}

#[allow(clippy::too_many_arguments)]
fn run_one_region(
    lib: &Library,
    cfg: &GdoConfig,
    nl: &Netlist,
    tg: &TimingGraph,
    members: &[SignalId],
    opts: &PartitionOptions,
    budget: &Budget,
    work_slice: Option<u64>,
    children: &Mutex<Vec<gdo::CancelHandle>>,
) -> Result<RegionOutcome, PartitionError> {
    let extract = nl.extract_region(members)?;
    let rc = RegionConstraints {
        input_arrivals: extract.inputs.iter().map(|&s| tg.arrival(s)).collect(),
        po_required: extract.outputs.iter().map(|&s| tg.required(s)).collect(),
    };
    if extract.outputs.is_empty() {
        // Nothing observable to optimize against.
        return Ok(RegionOutcome {
            extract,
            optimized: None,
            stats: GdoStats::default(),
            quarantined: false,
            resumable: true,
        });
    }
    let model = LibDelay::new(lib);
    let orig_slack = TimingGraph::from_scratch_region(
        &extract.sub,
        &model,
        Some(&rc.input_arrivals),
        &rc.po_required,
    )?
    .worst_slack();

    // Region worker: the outer region pool is the parallelism axis, so
    // each inner optimizer runs single-threaded and deterministic.
    let mut region_cfg = cfg.clone();
    region_cfg.threads = 1;
    let remaining = budget
        .deadline()
        .map(|d| d.saturating_duration_since(Instant::now()));
    let child = Budget::new(remaining, work_slice);
    children.lock().unwrap().push(child.cancel_handle());

    let mut sub = extract.sub.clone();
    let req = OptimizeRequest::new(region_cfg)
        .engines(opts.engines.clone())
        .region(rc.clone());
    let run = Pipeline::new(lib).run(&req, &mut sub, &child);
    // Satellite invariant: whatever a region consumed is visible on the
    // caller's budget, so `--work-ceiling` aggregates across regions.
    budget.charge(child.work_done());
    // A region whose own budget tripped (slice exhausted or cancelled by
    // the supervisor) produced a truncated result: good enough to stitch
    // this leg, but not equal to the unconstrained outcome a resumed run
    // must converge on — so it is not snapshot-recordable.
    let resumable = child.tripped_phase().is_none();
    let stats = run?;

    let mut optimized = None;
    let mut quarantined = false;
    if stats.total_mods() > 0 {
        let new_slack = TimingGraph::from_scratch_region(
            &sub,
            &model,
            Some(&rc.input_arrivals),
            &rc.po_required,
        )?
        .worst_slack();
        let eps = tg.eps();
        if new_slack + eps >= orig_slack {
            if opts.verify_regions {
                match sat::check_equiv_sweep(&extract.sub, &sub, cfg.vectors.min(256), cfg.seed) {
                    Ok(true) => optimized = Some(sub),
                    _ => quarantined = true,
                }
            } else {
                optimized = Some(sub);
            }
        }
        // Slack regressions are silently dropped: the unmodified parent
        // region stays in place, which is always sound.
    }
    Ok(RegionOutcome {
        extract,
        optimized,
        stats,
        quarantined,
        resumable,
    })
}

/// Rebuilds `optimized` inside the parent and reroutes every boundary
/// output through [`Netlist::substitute_stem`], journaling the edits.
/// `redirect` maps boundary signals already replaced by earlier regions
/// to their current implementation.
fn stitch_region(
    nl: &mut Netlist,
    optimized: &Netlist,
    extract: &RegionExtract,
    redirect: &mut HashMap<SignalId, SignalId>,
) -> Result<(), NetlistError> {
    let resolve = |redirect: &HashMap<SignalId, SignalId>, mut s: SignalId| {
        while let Some(&t) = redirect.get(&s) {
            s = t;
        }
        s
    };
    // Sub primary input i stands for parent signal extract.inputs[i],
    // possibly rerouted by an earlier stitch.
    let mut map: HashMap<SignalId, SignalId> = HashMap::new();
    for (i, &pi) in optimized.inputs().iter().enumerate() {
        map.insert(pi, resolve(redirect, extract.inputs[i]));
    }
    for s in optimized.topo_order()? {
        match optimized.kind(s) {
            GateKind::Input => {}
            GateKind::Const0 => {
                map.insert(s, nl.const0());
            }
            GateKind::Const1 => {
                map.insert(s, nl.const1());
            }
            kind => {
                let fanins: Vec<SignalId> = optimized.fanins(s).iter().map(|f| map[f]).collect();
                let g = nl.add_gate(kind, &fanins)?;
                nl.set_lib(g, optimized.cell(s).lib())?;
                map.insert(s, g);
            }
        }
    }
    for (j, po) in optimized.outputs().iter().enumerate() {
        let old = resolve(redirect, extract.outputs[j]);
        let new = map[&po.driver()];
        if old != new {
            nl.substitute_stem(old, new)?;
            redirect.insert(old, new);
        }
    }
    Ok(())
}

/// Folds one region run's counters into the aggregate. Modification
/// counts only land when the region was actually accepted (a rejected
/// region's rewrites never reach the parent).
fn accumulate(agg: &mut GdoStats, region: &GdoStats, accepted: bool) {
    if accepted {
        agg.sub2_mods += region.sub2_mods;
        agg.sub3_mods += region.sub3_mods;
        agg.const_mods += region.const_mods;
        agg.resub_mods += region.resub_mods;
    }
    for (agg_eng, region_eng) in agg.engines.iter_mut().zip(region.engines.iter()) {
        agg_eng.proposed += region_eng.proposed;
        agg_eng.filtered += region_eng.filtered;
        agg_eng.proved += region_eng.proved;
        if accepted {
            agg_eng.applied += region_eng.applied;
        }
    }
    agg.proofs += region.proofs;
    agg.proofs_valid += region.proofs_valid;
    agg.rounds += region.rounds;
    agg.verify_checks += region.verify_checks;
    agg.verify_failures += region.verify_failures;
    agg.verify_rollbacks += region.verify_rollbacks;
    agg.quarantined_kinds += region.quarantined_kinds;
}
