//! The engine pipeline: the request-shaped API every frontend (cli,
//! serve, bench, partition) calls, and the [`Engine`] trait optimization
//! algorithms implement.
//!
//! An [`OptimizeRequest`] names a configuration, an ordered list of
//! [`EngineId`]s, and optionally frozen [`RegionConstraints`]; a
//! [`Pipeline`] runs the engines in order over one shared
//! [`OptimizeContext`] (netlist + persistent [`TimingGraph`] fed by the
//! `EditDelta` journal + [`Budget`] + refutation cache + safety net).
//! The cross-cutting machinery lives *here*, not in any engine: budgets
//! and cancellation, checkpointed verify-with-rollback with rewrite-class
//! quarantine, region-constrained timing, and before/after statistics.
//! An engine only proposes, proves, and applies rewrites — it gets all of
//! the above for free.

use crate::budget::{Budget, Phase, VerifyPolicy};
use crate::optimizer::{total_area, GdoConfig, GdoEngine, GdoStats, RegionConstraints};
use crate::resub::ResubEngine;
use crate::snapshot::{self, CheckpointSpec, Checkpointer, RunSnapshot, SnapshotError};
use crate::{CexPool, GdoError, Rewrite, RewriteKind};
use library::Library;
use netlist::{GateKind, Netlist};
use std::collections::HashSet;
use timing::{LibDelay, TimingGraph};

/// Identifier of a registered optimization engine — the unit of
/// composition in an [`OptimizeRequest`] and the `--engine gdo,resub`
/// surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineId {
    /// The paper's clause-analysis optimizer (C1/C2/C3 delay + area
    /// phases).
    Gdo,
    /// Simulation-guided k-resubstitution (k ≤ 4): BPFS signatures
    /// propose divisor covers, [`netlists_equivalent`] validates them.
    Resub,
}

impl EngineId {
    /// Every registered engine, in canonical order.
    pub const ALL: [EngineId; 2] = [EngineId::Gdo, EngineId::Resub];

    /// Number of registered engines (sizes [`GdoStats::engines`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lower-case name used on the command line, in the serve
    /// protocol and in `engine.<name>.*` telemetry counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineId::Gdo => "gdo",
            EngineId::Resub => "resub",
        }
    }

    /// Dense index into per-engine tables ([`GdoStats::engines`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses one engine name. The error lists the valid names.
    ///
    /// # Errors
    ///
    /// [`GdoError::Config`] naming the unknown engine and every valid
    /// name.
    pub fn parse(name: &str) -> Result<EngineId, GdoError> {
        Self::ALL
            .iter()
            .copied()
            .find(|id| id.name() == name)
            .ok_or_else(|| {
                let valid: Vec<&str> = Self::ALL.iter().map(|id| id.name()).collect();
                GdoError::Config(format!(
                    "unknown engine {name:?} (valid engines: {})",
                    valid.join(", ")
                ))
            })
    }

    /// Parses a comma-separated engine list (`"gdo,resub"`). Empty input
    /// and empty items are rejected; duplicates are kept in order (an
    /// engine may deliberately run twice).
    ///
    /// # Errors
    ///
    /// [`GdoError::Config`] on an empty list or any unknown name, listing
    /// the valid names.
    pub fn parse_list(list: &str) -> Result<Vec<EngineId>, GdoError> {
        let ids: Result<Vec<EngineId>, GdoError> = list
            .split(',')
            .map(|item| EngineId::parse(item.trim()))
            .collect();
        let ids = ids?;
        if ids.is_empty() {
            return Err(GdoError::Config("empty engine list".into()));
        }
        Ok(ids)
    }

    /// Renders a list the way [`parse_list`](Self::parse_list) reads it.
    #[must_use]
    pub fn render_list(ids: &[EngineId]) -> String {
        ids.iter().map(|id| id.name()).collect::<Vec<_>>().join(",")
    }

    fn instantiate(self) -> Box<dyn Engine> {
        match self {
            EngineId::Gdo => Box::new(GdoEngine),
            EngineId::Resub => Box::new(ResubEngine),
        }
    }
}

impl std::fmt::Display for EngineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-engine stage counters: the candidate funnel every engine reports,
/// merged into the run report as `engine.<name>.{proposed,filtered,
/// proved,applied}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Candidate rewrites the engine generated.
    pub proposed: usize,
    /// Candidates that survived the engine's cheap filters (signature
    /// compatibility, applicability, timing gates) and were handed to the
    /// prover.
    pub filtered: usize,
    /// Candidates the prover confirmed valid.
    pub proved: usize,
    /// Rewrites actually applied and accepted.
    pub applied: usize,
}

/// One fully-specified optimization: what the [`Pipeline`] runs. This is
/// the single request-shaped entry point all frontends build; the
/// one-call [`crate::optimize`] builds a default request around a config.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Engine-shared configuration (vectors, seed, prover, caps,
    /// verify policy, ...).
    pub cfg: GdoConfig,
    /// Engines to run, in order. Each engine runs once and iterates
    /// internally to its own fixpoint.
    pub engines: Vec<EngineId>,
    /// Frozen boundary timing when optimizing an extracted region.
    pub region: Option<RegionConstraints>,
    /// Crash-safe checkpointing: write resumable snapshots per the spec
    /// while the run executes (`None` = off).
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume a previous run from its snapshot instead of starting
    /// fresh. The input netlist passed to [`Pipeline::run`] must be the
    /// *original* input (its digest is cross-checked); the pipeline
    /// swaps in the snapshot's working netlist itself.
    pub resume_from: Option<RunSnapshot>,
}

impl OptimizeRequest {
    /// A request running the default engine pipeline (`gdo`) with `cfg`.
    #[must_use]
    pub fn new(cfg: GdoConfig) -> OptimizeRequest {
        OptimizeRequest {
            cfg,
            engines: vec![EngineId::Gdo],
            region: None,
            checkpoint: None,
            resume_from: None,
        }
    }

    /// Replaces the engine list.
    #[must_use]
    pub fn engines(mut self, engines: Vec<EngineId>) -> OptimizeRequest {
        self.engines = engines;
        self
    }

    /// Optimizes against frozen region boundaries.
    #[must_use]
    pub fn region(mut self, rc: RegionConstraints) -> OptimizeRequest {
        self.region = Some(rc);
        self
    }

    /// Writes resumable snapshots per `spec` while running.
    #[must_use]
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> OptimizeRequest {
        self.checkpoint = Some(spec);
        self
    }

    /// Resumes from `snap` instead of optimizing from scratch.
    #[must_use]
    pub fn resume_from(mut self, snap: RunSnapshot) -> OptimizeRequest {
        self.resume_from = Some(snap);
        self
    }
}

/// Everything an [`Engine`] sees while it runs: the netlist under its
/// edit journal, the persistent timing graph, the shared budget, the
/// run statistics, and the pipeline-owned safety net. Engines mutate the
/// netlist only through journaled edits and fold every change into the
/// timing graph (`take_delta` → `update`) so the next engine — and the
/// final verification — start from consistent state.
pub struct OptimizeContext<'r, 'l> {
    pub(crate) lib: &'l Library,
    pub(crate) cfg: &'r GdoConfig,
    pub(crate) model: &'r LibDelay<'l>,
    pub(crate) nl: &'r mut Netlist,
    pub(crate) tg: &'r mut TimingGraph,
    pub(crate) budget: &'r Budget,
    pub(crate) stats: &'r mut GdoStats,
    pub(crate) net: &'r mut SafetyNet,
    pub(crate) seed: &'r mut u64,
    pub(crate) refuted: &'r mut HashSet<Rewrite>,
    pub(crate) cex: &'r mut CexPool,
    pub(crate) enable_xor: bool,
    pub(crate) ckpt: &'r mut Checkpointer,
}

impl OptimizeContext<'_, '_> {
    /// The library the netlist is mapped against.
    #[must_use]
    pub fn library(&self) -> &Library {
        self.lib
    }

    /// The shared configuration.
    #[must_use]
    pub fn config(&self) -> &GdoConfig {
        self.cfg
    }

    /// The shared run budget (check [`Budget::is_exhausted`]
    /// cooperatively).
    #[must_use]
    pub fn budget(&self) -> &Budget {
        self.budget
    }

    /// The run statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &GdoStats {
        &*self.stats
    }

    /// The iteration the running engine must start from: the resume
    /// cursor's when this engine is the one it points at, `0` otherwise.
    pub(crate) fn resume_start(&self) -> usize {
        self.ckpt.resume_start()
    }

    /// Engine-iteration boundary hook: captures a resumable snapshot of
    /// the current state as "about to execute iteration `iter`" and
    /// writes it out on the checkpoint cadence. Engines call this at the
    /// top of each iteration, right after the budget check.
    pub(crate) fn checkpoint_boundary(&mut self, iter: usize) -> Result<(), GdoError> {
        if !self.ckpt.capturing() {
            return Ok(());
        }
        let quarantine: Vec<String> = self
            .net
            .quarantined
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        self.ckpt
            .at_boundary(
                iter,
                self.nl,
                self.tg.circuit_delay(),
                self.budget,
                self.stats,
                *self.seed,
                self.refuted,
                quarantine,
            )
            .map_err(GdoError::from)
    }
}

/// One optimization algorithm, runnable as a pipeline stage. The
/// pipeline owns setup (timing graph, edit journal, checkpoints) and
/// teardown (final verification, statistics); an engine's `run` proposes
/// and applies individually-proved rewrites, keeping the invariant that
/// stopping between rewrites always leaves a valid, equivalent netlist.
pub trait Engine {
    /// The engine's identifier (names its telemetry counters).
    fn id(&self) -> EngineId;

    /// Runs the engine to its own fixpoint (or budget exhaustion),
    /// returning the number of rewrites applied.
    ///
    /// # Errors
    ///
    /// [`GdoError`] on structural failures; budget exhaustion is not an
    /// error.
    fn run(&self, ctx: &mut OptimizeContext<'_, '_>) -> Result<usize, GdoError>;
}

/// The engine runner: builds the shared context around a netlist and
/// runs an [`OptimizeRequest`]'s engines in order.
///
/// ```
/// use gdo::{EngineId, GdoConfig, OptimizeRequest, Pipeline, Budget};
/// use library::{standard_library, MapGoal, Mapper};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = workloads::sym_detector(5, 1, 3);
/// let lib = standard_library();
/// let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl)?;
/// let req = OptimizeRequest::new(GdoConfig::builder().vectors(256).build()?)
///     .engines(vec![EngineId::Gdo, EngineId::Resub]);
/// let stats = Pipeline::new(&lib).run(&req, &mut mapped, &Budget::unlimited())?;
/// assert!(stats.delay_after <= stats.delay_before + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<'a> {
    lib: &'a Library,
}

impl<'a> Pipeline<'a> {
    /// Creates a pipeline over `lib`.
    #[must_use]
    pub fn new(lib: &'a Library) -> Pipeline<'a> {
        Pipeline { lib }
    }

    /// Optimizes `nl` in place per `req`, under `budget` (the config's
    /// own `deadline`/`work_limit` are ignored in favor of `budget`).
    ///
    /// One full timing analysis for the whole run: every rewrite is
    /// journaled by the netlist and folded into the persistent graph
    /// incrementally, engines run in request order over the same graph,
    /// and the final checkpoint verification covers whatever the last
    /// engine left behind.
    ///
    /// # Errors
    ///
    /// [`GdoError`] on structural failures (cyclic input netlist, or a
    /// library with no cells for inserted gates).
    ///
    /// # Panics
    ///
    /// Panics if region constraint vectors do not match the netlist's
    /// pin counts or contain non-finite values.
    pub fn run(
        &self,
        req: &OptimizeRequest,
        nl: &mut Netlist,
        budget: &Budget,
    ) -> Result<GdoStats, GdoError> {
        let _span = telemetry::span("gdo.optimize");
        let start = std::time::Instant::now();
        budget.enter_phase(Phase::Setup);
        let model = LibDelay::new(self.lib);
        // Snapshot bookkeeping: digest the *input* netlist before any
        // edit (the digest identifies the run across suspend/resume
        // legs), then swap in the snapshot's working netlist if
        // resuming. Both digests are validated by the checkpointer.
        let snapshotting = req.checkpoint.is_some() || req.resume_from.is_some();
        let input_digest = if snapshotting {
            snapshot::netlist_digest(nl)
        } else {
            0
        };
        let mut ckpt = Checkpointer::new(req, input_digest)?;
        if let Some(snap) = &req.resume_from {
            *nl = Netlist::from_raw(&snap.netlist)
                .map_err(|e| SnapshotError::Malformed(format!("snapshot netlist: {e}")))?;
        }
        let mut stats = GdoStats::default();
        nl.record_edits();
        let mut tg = match &req.region {
            Some(rc) => TimingGraph::from_scratch_region(
                nl,
                &model,
                Some(&rc.input_arrivals),
                &rc.po_required,
            )?,
            None => TimingGraph::from_scratch(nl, &model)?,
        };
        let mut seed_counter = req.cfg.seed;
        // SAT refutations stay valid as long as the netlist is unchanged:
        // validity depends only on the circuit function, not on timing or
        // on the vector sample. Engines skip re-proving cached
        // refutations and clear the cache on every applied rewrite.
        let mut refuted: HashSet<Rewrite> = HashSet::new();
        // SAT counterexamples of this run, replayed against later proof
        // candidates. A pure cache: never snapshotted, so a resumed leg
        // starts empty and still reaches the same verdicts.
        let mut cex = CexPool::new();
        let mut quarantine_restore: Vec<RewriteClass> = Vec::new();
        if let Some(snap) = &req.resume_from {
            // Timing cross-check: the rebuilt graph must reproduce the
            // boundary delay bit-for-bit, or the resuming process runs a
            // different library / delay model than the one that wrote
            // the snapshot.
            if tg.circuit_delay().to_bits() != snap.delay_bits {
                return Err(SnapshotError::Mismatch(format!(
                    "circuit delay {} != snapshot's {} (library or delay-model skew)",
                    tg.circuit_delay(),
                    f64::from_bits(snap.delay_bits)
                ))
                .into());
            }
            stats = snap.stats;
            seed_counter = snap.seed;
            refuted = snap.refuted.iter().copied().collect();
            for name in &snap.quarantine {
                quarantine_restore.push(RewriteClass::from_name(name).ok_or_else(|| {
                    SnapshotError::Malformed(format!("unknown quarantine class {name:?}"))
                })?);
            }
            telemetry::counter_add("snapshot.resumed", 1);
        } else {
            let s = nl.stats();
            stats.gates_before = s.gates;
            stats.literals_before = s.literals;
            stats.delay_before = tg.circuit_delay();
            stats.area_before = total_area(nl, &model);
        }
        let cpu_base = stats.cpu_seconds;
        // XOR/XNOR inserted gates only when the library has both cells.
        let enable_xor = self.lib.cheapest(GateKind::Xor, 2).is_some()
            && self.lib.cheapest(GateKind::Xnor, 2).is_some();
        // The safety net clones its checkpoints here and right after
        // `TimingGraph::update` — the only places the edit journal is
        // guaranteed drained, so a restore never resurrects stale edits.
        // On resume it re-baselines at the boundary netlist, which is
        // sound: the boundary netlist is itself a verified-equivalent
        // descendant of the original input.
        let mut net = SafetyNet::new(req.cfg.verify_policy, nl, &tg);
        net.quarantined.extend(quarantine_restore);

        for (idx, &id) in req.engines.iter().enumerate() {
            if ckpt.engine_done(idx) {
                continue;
            }
            if budget.is_exhausted() {
                break;
            }
            ckpt.engine_idx = idx;
            let mut ctx = OptimizeContext {
                lib: self.lib,
                cfg: &req.cfg,
                model: &model,
                nl: &mut *nl,
                tg: &mut tg,
                budget,
                stats: &mut stats,
                net: &mut net,
                seed: &mut seed_counter,
                refuted: &mut refuted,
                cex: &mut cex,
                enable_xor,
                ckpt: &mut ckpt,
            };
            id.instantiate().run(&mut ctx)?;
        }

        // On exhaustion or cancel the latest boundary goes to disk
        // whatever the cadence: it is what the next leg resumes from.
        if budget.tripped_phase().is_some() {
            ckpt.write_latest()?;
        }

        // Verify any unverified tail of applied rewrites (the only check
        // `VerifyPolicy::Final` performs). Runs even after budget
        // exhaustion: a deadline must never skip a requested proof.
        budget.enter_phase(Phase::Verify);
        net.finalize(nl, &mut tg)?;

        nl.stop_recording();
        {
            let s = nl.stats();
            stats.gates_after = s.gates;
            stats.literals_after = s.literals;
            stats.delay_after = tg.circuit_delay();
            stats.area_after = total_area(nl, &model);
        }
        stats.cpu_seconds = cpu_base + start.elapsed().as_secs_f64();
        stats.budget_exhausted = budget.tripped_phase().is_some();
        stats.verify_checks = net.checks;
        stats.verify_failures = net.failures;
        stats.verify_rollbacks = net.rollbacks;
        stats.quarantined_kinds = net.quarantined.len();
        if let Some(phase) = budget.tripped_phase() {
            telemetry::counter_add("budget.exhausted", 1);
            telemetry::counter_add(cancelled_counter(phase), 1);
        }
        if net.skipped > 0 {
            telemetry::counter_add("quarantine.skipped", net.skipped);
        }
        Ok(stats)
    }
}

/// Rewrite classes for quarantine bookkeeping: when a checkpoint
/// verification fails, every class applied since the last good checkpoint
/// is disabled for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RewriteClass {
    Sub2,
    Sub3,
    SubConst,
    Resub,
}

impl RewriteClass {
    /// Stable lower-case name used in snapshots.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RewriteClass::Sub2 => "sub2",
            RewriteClass::Sub3 => "sub3",
            RewriteClass::SubConst => "const",
            RewriteClass::Resub => "resub",
        }
    }

    /// Parses [`name`](Self::name) back.
    pub(crate) fn from_name(name: &str) -> Option<RewriteClass> {
        match name {
            "sub2" => Some(RewriteClass::Sub2),
            "sub3" => Some(RewriteClass::Sub3),
            "const" => Some(RewriteClass::SubConst),
            "resub" => Some(RewriteClass::Resub),
            _ => None,
        }
    }
}

pub(crate) fn rewrite_class(rw: &Rewrite) -> RewriteClass {
    match rw.kind {
        RewriteKind::Sub2 { .. } => RewriteClass::Sub2,
        RewriteKind::Sub3 { .. } => RewriteClass::Sub3,
        RewriteKind::SubConst { .. } => RewriteClass::SubConst,
    }
}

/// Checkpointed verify-with-rollback state for one pipeline run, shared
/// by every engine through the [`OptimizeContext`].
///
/// Inactive policies cost nothing: no checkpoint is ever cloned and every
/// hook returns immediately. Checkpoints are cloned only at points where
/// the netlist's edit journal is drained (right after
/// `TimingGraph::update`), so restoring one never resurrects stale edits.
pub(crate) struct SafetyNet {
    policy: VerifyPolicy,
    checkpoint: Option<(Netlist, TimingGraph)>,
    /// Rewrites applied since the last verified checkpoint.
    applied_since: usize,
    /// Classes of those rewrites — the quarantine set on failure.
    classes_since: HashSet<RewriteClass>,
    pub(crate) quarantined: HashSet<RewriteClass>,
    pub(crate) checks: usize,
    pub(crate) failures: usize,
    pub(crate) rollbacks: usize,
    pub(crate) skipped: u64,
}

impl SafetyNet {
    pub(crate) fn new(policy: VerifyPolicy, nl: &Netlist, tg: &TimingGraph) -> SafetyNet {
        let checkpoint = policy.is_active().then(|| (nl.clone(), tg.clone()));
        SafetyNet {
            policy,
            checkpoint,
            applied_since: 0,
            classes_since: HashSet::new(),
            quarantined: HashSet::new(),
            checks: 0,
            failures: 0,
            rollbacks: 0,
            skipped: 0,
        }
    }

    /// True when the rewrite's class was quarantined by an earlier failed
    /// verification; counts the skip.
    pub(crate) fn is_quarantined(&mut self, rw: &Rewrite) -> bool {
        self.is_class_quarantined(rewrite_class(rw))
    }

    /// Class-level quarantine check for engines (like resub) whose
    /// rewrites are not [`Rewrite`] values.
    pub(crate) fn is_class_quarantined(&mut self, class: RewriteClass) -> bool {
        if self.quarantined.is_empty() {
            return false;
        }
        if self.quarantined.contains(&class) {
            self.skipped += 1;
            true
        } else {
            false
        }
    }

    /// Records an applied rewrite and, when the policy makes a checkpoint
    /// due, re-proves equivalence against the last verified netlist.
    /// Returns `true` when the check failed and `nl`/`tg` were rolled
    /// back — the caller must not count the rewrite as applied.
    ///
    /// Must be called with the edit journal drained (right after
    /// `TimingGraph::update`).
    pub(crate) fn check_after_apply(
        &mut self,
        nl: &mut Netlist,
        tg: &mut TimingGraph,
        class: RewriteClass,
    ) -> Result<bool, GdoError> {
        if self.checkpoint.is_none() {
            return Ok(false);
        }
        self.applied_since += 1;
        self.classes_since.insert(class);
        let due = match self.policy {
            VerifyPolicy::Off | VerifyPolicy::Final => false,
            VerifyPolicy::EveryN(k) => self.applied_since >= k,
            VerifyPolicy::EachSubstitution => true,
        };
        if !due {
            return Ok(false);
        }
        self.verify(nl, tg)
    }

    /// Verifies any unverified tail of applied rewrites at the end of the
    /// run (the only check [`VerifyPolicy::Final`] performs).
    pub(crate) fn finalize(
        &mut self,
        nl: &mut Netlist,
        tg: &mut TimingGraph,
    ) -> Result<bool, GdoError> {
        if self.checkpoint.is_none() || self.applied_since == 0 {
            return Ok(false);
        }
        self.verify(nl, tg)
    }

    fn verify(&mut self, nl: &mut Netlist, tg: &mut TimingGraph) -> Result<bool, GdoError> {
        let _span = telemetry::span("gdo.verify");
        self.checks += 1;
        let ok = match &self.checkpoint {
            Some((cp_nl, _)) => netlists_equivalent(cp_nl, nl)?,
            None => return Ok(false),
        };
        if ok {
            self.checkpoint = Some((nl.clone(), tg.clone()));
            self.applied_since = 0;
            self.classes_since.clear();
            return Ok(false);
        }
        self.failures += 1;
        self.rollbacks += 1;
        if let Some((cp_nl, cp_tg)) = &self.checkpoint {
            *nl = cp_nl.clone();
            *tg = cp_tg.clone();
        }
        self.quarantined.extend(self.classes_since.drain());
        self.applied_since = 0;
        if telemetry::enabled() {
            telemetry::event(
                "gdo.verify.rollback",
                &[("quarantined", format!("{:?}", self.quarantined).into())],
            );
        }
        Ok(true)
    }
}

/// Simulation vectors and seed guiding [`netlists_equivalent`]'s sweep.
/// They steer how candidates pair up, never the verdict.
const SWEEP_VECTORS: usize = 256;
const SWEEP_SEED: u64 = 0x5eed;

/// The whole-netlist equivalence check behind resub proofs, checkpoint
/// verification and `gdo-opt --verify`: exhaustive simulation for
/// interfaces of 12 inputs or fewer, a simulation-guided sweep
/// ([`sat::check_equiv_sweep_stats`]) otherwise. A netlist whose PI/PO
/// interface differs from the reference's is not equivalent.
///
/// # Errors
///
/// [`GdoError::Netlist`] if either netlist is cyclic.
///
/// # Panics
///
/// Panics if a reference of 12 inputs or fewer meets a candidate with a
/// different interface (the exhaustive check requires equal ones).
pub fn netlists_equivalent(reference: &Netlist, candidate: &Netlist) -> Result<bool, GdoError> {
    if reference.inputs().len() <= 12 {
        return Ok(reference.equiv_exhaustive(candidate)?);
    }
    match sat::check_equiv_sweep_stats(reference, candidate, SWEEP_VECTORS, SWEEP_SEED) {
        Ok((eq, stats)) => {
            record_sweep_stats(stats);
            Ok(eq)
        }
        Err(sat::EquivError::Netlist(e)) => Err(e.into()),
        // A changed PI/PO interface is by definition not equivalent.
        Err(_) => Ok(false),
    }
}

/// Accumulates one sweep's work on the `sweep.*` counters; the `sat`
/// crate itself carries no telemetry.
fn record_sweep_stats(s: sat::SweepStats) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("sweep.checks", 1);
    for (name, value) in [
        ("sweep.candidates", s.candidates),
        ("sweep.merged", s.merged),
        ("sweep.refuted", s.refuted),
        ("sweep.gave_up", s.gave_up),
        ("sweep.tt_merged", s.tt_merged),
        ("sweep.window_merged", s.window_merged),
        ("sweep.sat_calls", s.sat_calls),
    ] {
        telemetry::counter_add(name, value as u64);
    }
}

/// Static counter name for the phase where the budget first tripped.
fn cancelled_counter(phase: Phase) -> &'static str {
    match phase {
        Phase::Setup => "budget.cancelled_at_phase.setup",
        Phase::Delay => "budget.cancelled_at_phase.delay",
        Phase::Area => "budget.cancelled_at_phase.area",
        Phase::Verify => "budget.cancelled_at_phase.verify",
        Phase::Resub => "budget.cancelled_at_phase.resub",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_round_trip() {
        for id in EngineId::ALL {
            assert_eq!(EngineId::parse(id.name()).unwrap(), id);
        }
        assert_eq!(
            EngineId::parse_list("gdo,resub").unwrap(),
            vec![EngineId::Gdo, EngineId::Resub]
        );
        assert_eq!(
            EngineId::parse_list(" resub , gdo ").unwrap(),
            vec![EngineId::Resub, EngineId::Gdo]
        );
        assert_eq!(
            EngineId::render_list(&[EngineId::Gdo, EngineId::Resub]),
            "gdo,resub"
        );
    }

    #[test]
    fn unknown_engine_lists_valid_names() {
        let err = EngineId::parse("aop").unwrap_err().to_string();
        assert!(err.contains("aop"), "{err}");
        assert!(err.contains("gdo"), "{err}");
        assert!(err.contains("resub"), "{err}");
        assert!(EngineId::parse_list("gdo,,resub").is_err());
        assert!(EngineId::parse_list("").is_err());
    }

    #[test]
    fn request_defaults_to_gdo() {
        let req = OptimizeRequest::new(GdoConfig::default());
        assert_eq!(req.engines, vec![EngineId::Gdo]);
        assert!(req.region.is_none());
    }

    #[test]
    fn pipeline_runs_engine_list_end_to_end() {
        use library::{standard_library, MapGoal, Mapper};
        let nl = workloads::sym_detector(6, 2, 4);
        let lib = standard_library();
        let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        let cfg = GdoConfig::builder().vectors(256).build().unwrap();
        let req = OptimizeRequest::new(cfg).engines(vec![EngineId::Gdo, EngineId::Resub]);
        let stats = Pipeline::new(&lib)
            .run(&req, &mut mapped, &Budget::unlimited())
            .unwrap();
        mapped.validate().unwrap();
        assert!(nl.equiv_exhaustive(&mapped).unwrap());
        assert!(stats.delay_after <= stats.delay_before + 1e-9);
        assert!(stats.proofs_valid >= stats.total_mods());
    }
}
