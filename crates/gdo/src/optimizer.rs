//! The two-phase optimization loop of Section 5: a *delay reduction
//! phase* that substitutes outputs and inputs of critical gates (ranked
//! by NCP, then LDS), and an *area optimization phase* that shrinks
//! non-critical logic without creating new critical paths, returning to
//! the delay phase after every batch of area substitutions.

use crate::bpfs::{run_c2, run_c3, SiteRound, TripleEntry};
use crate::budget::{Budget, Phase, VerifyPolicy};
use crate::candidates::{pair_candidates_counted, CandidateConfig, CandidateContext};
use crate::engine::{
    rewrite_class, Engine, EngineCounters, EngineId, OptimizeContext, OptimizeRequest, Pipeline,
};
use crate::prove::prove_rewrite;
use crate::pvcc::{
    and_or_triple_requests, const_candidates, site_arrival, site_ncp, site_required,
    sub2_candidates, sub3_candidates, xor_triple_requests, Pvcc, RankKey,
};
use crate::transform::{
    apply_rewrite, dead_cone_area, estimate_area_delta, estimate_arrival, exact_area_delta,
};
use crate::{GdoError, ProverKind, Rewrite, RewriteKind, Site};
use library::Library;
use netlist::{Branch, Netlist, SignalId};
use sim::{simulate, VectorSet};
use std::time::Duration;
use timing::{CriticalPaths, DelayModel};

/// Area substitutions per batch before returning to the delay phase.
const AREA_BATCH: usize = 12;
/// Cap on `a`-signal sites per round (highest NCP first); the resub
/// engine examines a multiple of it.
pub(crate) const MAX_SITES_PER_ROUND: usize = 96;
/// Cap on validity proofs per round — keeps rounds bounded when many
/// candidates survive simulation on adversarial circuits.
const MAX_PROOFS_PER_ROUND: usize = 4096;
/// Safety bound on outer delay/area alternations.
const MAX_OUTER_ROUNDS: usize = 25;

/// Configuration of the optimizer. [`GdoConfig::default`] reproduces the
/// paper's setup; the ablation benchmarks toggle individual features.
#[derive(Debug, Clone, PartialEq)]
pub struct GdoConfig {
    /// Random vectors per BPFS round (rounded up to a multiple of 64).
    /// Wide-input circuits need generous budgets: with too few vectors,
    /// most candidates that survive simulation are false and the proof
    /// stage drowns in refutations before reaching the valid ones.
    pub vectors: usize,
    /// Seed of the reproducible vector stream.
    pub seed: u64,
    /// Enable `OS3`/`IS3` substitutions (inserted AND/OR/XOR gates).
    /// XOR/XNOR inserted gates are used exactly when the library has
    /// XOR/XNOR cells, as the paper prescribes.
    pub enable_sub3: bool,
    /// Enumerate XOR triples structurally — XOR combinations have no
    /// valid C2 clauses, so the C2-exploitation filter cannot see them
    /// (the paper notes exactly this loss). Costs extra simulation time;
    /// on XOR-rich arithmetic it is where most OS3 gains live.
    pub xor_direct: bool,
    /// Candidate generation filters.
    pub candidates: CandidateConfig,
    /// Validity prover.
    pub prover: ProverKind,
    /// SAT conflict budget per clause query; exhaustion counts as "not
    /// proven" (bounds time/memory on adversarial cones).
    pub conflict_budget: u64,
    /// Run the area optimization phase.
    pub area_phase: bool,
    /// Safety bound on delay-phase iterations per visit.
    pub max_delay_rounds: usize,
    /// Worker threads for the BPFS fan-out (`0` = one per available
    /// core). Per-site clause invalidation is independent work, and
    /// results are merged in site order, so any thread count produces
    /// bit-identical survival masks.
    pub threads: usize,
    /// Wall-clock budget for the whole run: past the deadline every
    /// pipeline stage unwinds at its next cooperative check and the
    /// optimizer returns the best netlist accepted so far (`None` =
    /// no deadline).
    pub deadline: Option<Duration>,
    /// Ceiling on abstract work units (BPFS sites surveyed plus validity
    /// proofs issued) before the run unwinds like a passed deadline
    /// (`None` = unlimited). A deterministic alternative to
    /// [`deadline`](Self::deadline) for tests and reproducible runs.
    pub work_limit: Option<u64>,
    /// Checkpointed verify-with-rollback safety net (default
    /// [`VerifyPolicy::Off`]): re-proves equivalence against the last
    /// verified checkpoint, rolls back the netlist and timing graph on a
    /// failed check, and quarantines the offending rewrite kind.
    pub verify_policy: VerifyPolicy,
}

impl Default for GdoConfig {
    fn default() -> Self {
        GdoConfig {
            vectors: 2048,
            seed: 1995,
            enable_sub3: true,
            xor_direct: true,
            candidates: CandidateConfig::default(),
            prover: ProverKind::SatClause,
            conflict_budget: 100_000,
            area_phase: true,
            max_delay_rounds: 40,
            threads: 0,
            deadline: None,
            work_limit: None,
            verify_policy: VerifyPolicy::Off,
        }
    }
}

impl GdoConfig {
    /// Starts a validating builder seeded with the default configuration.
    ///
    /// # Example
    ///
    /// ```
    /// use gdo::GdoConfig;
    ///
    /// let cfg = GdoConfig::builder()
    ///     .vectors(512)
    ///     .area_phase(false)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.vectors, 512);
    /// assert!(GdoConfig::builder().vectors(0).build().is_err());
    /// ```
    #[must_use]
    pub fn builder() -> GdoConfigBuilder {
        GdoConfigBuilder {
            cfg: GdoConfig::default(),
        }
    }
}

/// Builder for [`GdoConfig`] that validates budgets before handing out a
/// configuration. Every setter overrides one field of
/// [`GdoConfig::default`]; [`build`](Self::build) rejects configurations
/// the optimizer cannot run (zero simulation vectors, zero delay rounds,
/// zero conflict budget).
#[derive(Debug, Clone)]
pub struct GdoConfigBuilder {
    cfg: GdoConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, $name: $ty) -> Self {
                self.cfg.$name = $name;
                self
            }
        )*
    };
}

impl GdoConfigBuilder {
    builder_setters! {
        /// Random vectors per BPFS round (must be positive).
        vectors: usize,
        /// Seed of the reproducible vector stream.
        seed: u64,
        /// Enable `OS3`/`IS3` substitutions.
        enable_sub3: bool,
        /// Enumerate XOR triples structurally.
        xor_direct: bool,
        /// Candidate generation filters.
        candidates: CandidateConfig,
        /// Validity prover.
        prover: ProverKind,
        /// SAT conflict budget per clause query (must be positive).
        conflict_budget: u64,
        /// Run the area optimization phase.
        area_phase: bool,
        /// Bound on delay-phase iterations per visit (must be positive).
        max_delay_rounds: usize,
        /// Worker threads for the BPFS fan-out (`0` = one per core).
        threads: usize,
        /// Checkpointed verify-with-rollback policy.
        verify_policy: VerifyPolicy,
    }

    /// Gives the whole run a wall-clock budget; on exhaustion the
    /// pipeline unwinds gracefully and returns the best netlist
    /// accepted so far.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.cfg.deadline = Some(deadline);
        self
    }

    /// Caps the run's abstract work units (sites surveyed + proofs
    /// issued) — a deterministic stand-in for a deadline.
    #[must_use]
    pub fn work_limit(mut self, work_limit: u64) -> Self {
        self.cfg.work_limit = Some(work_limit);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`GdoError::Config`] naming the offending field when a budget is
    /// zero where the optimizer needs at least one unit of work.
    pub fn build(self) -> Result<GdoConfig, GdoError> {
        let cfg = self.cfg;
        for (name, value) in [
            ("vectors", cfg.vectors),
            ("max_delay_rounds", cfg.max_delay_rounds),
        ] {
            if value == 0 {
                return Err(GdoError::Config(format!("{name} must be positive")));
            }
        }
        if cfg.conflict_budget == 0 {
            return Err(GdoError::Config("conflict_budget must be positive".into()));
        }
        if cfg.candidates.max_pairs_per_site == 0 {
            return Err(GdoError::Config(
                "candidates.max_pairs_per_site must be positive".into(),
            ));
        }
        if cfg.verify_policy == VerifyPolicy::EveryN(0) {
            return Err(GdoError::Config(
                "verify_policy EveryN interval must be positive".into(),
            ));
        }
        Ok(cfg)
    }
}

/// Outcome counters of one optimization run — the columns of the paper's
/// result tables plus proof statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GdoStats {
    /// Gate count before optimization.
    pub gates_before: usize,
    /// Gate count after optimization.
    pub gates_after: usize,
    /// Literal (gate-input) count before.
    pub literals_before: usize,
    /// Literal count after.
    pub literals_after: usize,
    /// Circuit delay before (library units).
    pub delay_before: f64,
    /// Circuit delay after.
    pub delay_after: f64,
    /// Total cell area before.
    pub area_before: f64,
    /// Total cell area after.
    pub area_after: f64,
    /// Applied `OS2`/`IS2` substitutions (paper column "#mod OS/IS2").
    pub sub2_mods: usize,
    /// Applied `OS3`/`IS3` substitutions (paper column "#mod OS/IS3").
    pub sub3_mods: usize,
    /// Applied constant substitutions (redundancy removals).
    pub const_mods: usize,
    /// Applied k-resubstitutions (the `resub` engine).
    pub resub_mods: usize,
    /// Validity proofs attempted.
    pub proofs: usize,
    /// Proofs that confirmed validity.
    pub proofs_valid: usize,
    /// Outer delay/area alternations executed.
    pub rounds: usize,
    /// Wall-clock seconds (the paper's CPU-seconds column).
    pub cpu_seconds: f64,
    /// True when the run stopped early because the [`Budget`] (deadline,
    /// work ceiling, or external cancel) ran out. The returned netlist is
    /// still valid — it is the best one accepted before exhaustion.
    pub budget_exhausted: bool,
    /// Checkpoint verifications performed under the [`VerifyPolicy`].
    pub verify_checks: usize,
    /// Checkpoint verifications that found a non-equivalent netlist.
    pub verify_failures: usize,
    /// Rollbacks to the last verified checkpoint.
    pub verify_rollbacks: usize,
    /// Rewrite classes quarantined after failed verifications.
    pub quarantined_kinds: usize,
    /// Per-engine candidate-funnel counters, indexed by
    /// [`EngineId::index`] (reported as `engine.<name>.*`).
    pub engines: [EngineCounters; EngineId::COUNT],
}

impl GdoStats {
    /// Fractional delay reduction (`0.23` = 23 %).
    #[must_use]
    pub fn delay_reduction(&self) -> f64 {
        if self.delay_before > 0.0 {
            1.0 - self.delay_after / self.delay_before
        } else {
            0.0
        }
    }

    /// Fractional literal reduction.
    #[must_use]
    pub fn literal_reduction(&self) -> f64 {
        if self.literals_before > 0 {
            1.0 - self.literals_after as f64 / self.literals_before as f64
        } else {
            0.0
        }
    }

    /// Total applied modifications.
    #[must_use]
    pub fn total_mods(&self) -> usize {
        self.sub2_mods + self.sub3_mods + self.const_mods + self.resub_mods
    }

    /// Writes every field (plus the derived reductions) into a
    /// [`telemetry::RunReport`] summary — the bridge between the
    /// optimizer's return value and `--report-json` / the bench tooling.
    pub fn merge_into_report(&self, report: &mut telemetry::RunReport) {
        let s = &mut report.summary;
        s.insert("gates_before".into(), self.gates_before as f64);
        s.insert("gates_after".into(), self.gates_after as f64);
        s.insert("literals_before".into(), self.literals_before as f64);
        s.insert("literals_after".into(), self.literals_after as f64);
        s.insert("delay_before".into(), self.delay_before);
        s.insert("delay_after".into(), self.delay_after);
        s.insert("area_before".into(), self.area_before);
        s.insert("area_after".into(), self.area_after);
        s.insert("sub2_mods".into(), self.sub2_mods as f64);
        s.insert("sub3_mods".into(), self.sub3_mods as f64);
        s.insert("const_mods".into(), self.const_mods as f64);
        s.insert("resub_mods".into(), self.resub_mods as f64);
        s.insert("proofs".into(), self.proofs as f64);
        s.insert("proofs_valid".into(), self.proofs_valid as f64);
        s.insert("rounds".into(), self.rounds as f64);
        s.insert("cpu_seconds".into(), self.cpu_seconds);
        s.insert("delay_reduction".into(), self.delay_reduction());
        s.insert("literal_reduction".into(), self.literal_reduction());
        s.insert("total_mods".into(), self.total_mods() as f64);
        // Fail-safe outcomes go into the counter section so report
        // consumers always see them, even as explicit zeros.
        let c = &mut report.counters;
        c.insert("budget.exhausted".into(), u64::from(self.budget_exhausted));
        c.insert("verify.checks".into(), self.verify_checks as u64);
        c.insert("verify.failures".into(), self.verify_failures as u64);
        c.insert("verify.rollbacks".into(), self.verify_rollbacks as u64);
        c.insert("quarantine.kinds".into(), self.quarantined_kinds as u64);
        // Per-engine funnel counters, always present as explicit zeros so
        // report consumers can rely on the keys.
        for id in EngineId::ALL {
            let e = &self.engines[id.index()];
            for (stage, value) in [
                ("proposed", e.proposed),
                ("filtered", e.filtered),
                ("proved", e.proved),
                ("applied", e.applied),
            ] {
                c.insert(format!("engine.{}.{stage}", id.name()), value as u64);
            }
        }
    }
}

/// Frozen boundary timing for optimizing an extracted region in
/// isolation: arrival times at the region's primary inputs and required
/// times at its primary outputs, both in pin order and taken from the
/// parent netlist's timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionConstraints {
    /// Arrival time of each region primary input (parent arrival of the
    /// boundary signal it stands for).
    pub input_arrivals: Vec<f64>,
    /// Required time of each region primary output (parent required time
    /// of the boundary signal it recomputes).
    pub po_required: Vec<f64>,
}

/// The paper's two-phase clause-analysis optimizer as a pipeline
/// [`Engine`]: alternates the delay-reduction and area-recovery phases
/// until neither finds a substitution (or the outer-round cap / budget
/// cuts the run short).
///
/// The optimizer never prints. Progress and statistics are reported
/// through the [`telemetry`] crate: enable it (e.g. via `gdo-opt -v` or
/// `--trace-out`) to observe per-round `gdo.*` events, phase spans, and
/// the candidate funnel counters (`gdo.funnel.{c2,c3,const}.*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct GdoEngine;

impl Engine for GdoEngine {
    fn id(&self) -> EngineId {
        EngineId::Gdo
    }

    fn run(&self, ctx: &mut OptimizeContext<'_, '_>) -> Result<usize, GdoError> {
        let cfg = ctx.cfg;
        let mut total = 0;
        for outer in ctx.resume_start()..MAX_OUTER_ROUNDS {
            if ctx.budget.is_exhausted() {
                break;
            }
            ctx.checkpoint_boundary(outer)?;
            ctx.stats.rounds += 1;
            let t = std::time::Instant::now();
            let delay_applied = {
                let _phase = telemetry::span("gdo.delay_phase");
                ctx.budget.enter_phase(Phase::Delay);
                delay_phase(ctx)?
            };
            let t_delay = t.elapsed();
            let t = std::time::Instant::now();
            let area_applied = if cfg.area_phase && !ctx.budget.is_exhausted() {
                let _phase = telemetry::span("gdo.area_phase");
                ctx.budget.enter_phase(Phase::Area);
                area_round(ctx)?
            } else {
                0
            };
            if telemetry::enabled() {
                telemetry::event(
                    "gdo.outer",
                    &[
                        ("outer", outer.into()),
                        ("delay_mods", delay_applied.into()),
                        ("delay_s", t_delay.as_secs_f64().into()),
                        ("area_mods", area_applied.into()),
                        ("area_s", t.elapsed().as_secs_f64().into()),
                        ("proofs", ctx.stats.proofs.into()),
                    ],
                );
            }
            total += delay_applied + area_applied;
            if delay_applied == 0 && area_applied == 0 {
                break;
            }
            if !cfg.area_phase && delay_applied == 0 {
                break;
            }
        }
        Ok(total)
    }
}

/// Delay reduction phase: C2 rounds until dry, then C3 rounds, until
/// neither improves anything.
fn delay_phase(ctx: &mut OptimizeContext<'_, '_>) -> Result<usize, GdoError> {
    let cfg = ctx.cfg;
    let mut total = 0;
    for _ in 0..cfg.max_delay_rounds {
        if ctx.budget.is_exhausted() {
            break;
        }
        let n2 = delay_round(ctx, false)?;
        total += n2;
        if n2 > 0 {
            continue;
        }
        if cfg.enable_sub3 && !ctx.budget.is_exhausted() {
            let n3 = delay_round(ctx, true)?;
            total += n3;
            if n3 > 0 {
                continue;
            }
        }
        break;
    }
    Ok(total)
}

/// One delay-phase simulate/rank/prove/apply round. `use_c3` selects
/// `OS3`/`IS3` candidates (run after C2 candidates dry up, as in the
/// paper, since C2 simulation is cheaper).
fn delay_round(ctx: &mut OptimizeContext<'_, '_>, use_c3: bool) -> Result<usize, GdoError> {
    let (cfg, lib) = (ctx.cfg, ctx.lib);
    if ctx.nl.outputs().is_empty() || ctx.nl.inputs().is_empty() {
        return Ok(0);
    }
    if ctx.tg.circuit_delay() <= 0.0 {
        return Ok(0);
    }
    // Another engine may have edited the netlist since the last round.
    ctx.cex.invalidate();
    let (nl, tg) = (&*ctx.nl, &*ctx.tg);
    let cp = CriticalPaths::count(nl, tg)?;
    let cands = CandidateContext::build(nl)?;

    // a-signal sites: critical gate stems and critical in-edges.
    let mut sites: Vec<Site> = Vec::new();
    for g in tg.critical_gates(nl) {
        if nl.fanout_count(g) > 0 {
            sites.push(Site::Stem(g));
        }
        for pin in 0..nl.fanins(g).len() {
            if tg.is_critical_edge(nl, g, pin)
                && !nl.kind(nl.fanins(g)[pin]).is_source()
                && nl.fanout_count(nl.fanins(g)[pin]) > 1
            {
                sites.push(Site::Branch(Branch {
                    cell: g,
                    pin: pin as u32,
                }));
            }
        }
    }
    sites.sort_by(|&x, &y| site_ncp(nl, y, &cp).total_cmp(&site_ncp(nl, x, &cp)));
    sites.truncate(MAX_SITES_PER_ROUND);

    let t0 = std::time::Instant::now();
    let site_cands: Vec<(Site, Vec<SignalId>)> = {
        let _span = telemetry::span("gdo.round.candidates");
        let mut enumerated = 0u64;
        let mut kept = 0u64;
        let sc: Vec<(Site, Vec<SignalId>)> = sites
            .into_iter()
            .map(|site| {
                let max_arrival = site_arrival(nl, site, tg) - tg.eps();
                let (bs, counts) =
                    pair_candidates_counted(nl, tg, &cands, site, &cfg.candidates, max_arrival);
                enumerated += counts.considered;
                kept += counts.kept;
                (site, bs)
            })
            .collect();
        telemetry::counter_add("gdo.funnel.c2.enumerated", enumerated);
        telemetry::counter_add("gdo.funnel.c2.filtered", kept);
        sc
    };
    let t_cand = t0.elapsed();

    let t0 = std::time::Instant::now();
    let bpfs_span = telemetry::span("gdo.round.bpfs");
    let rounds = bpfs_pass(ctx, site_cands, use_c3)?;
    drop(bpfs_span);
    let t_bpfs = t0.elapsed();

    let (nl, tg) = (&*ctx.nl, &*ctx.tg);
    let mut pvccs: Vec<Pvcc> = Vec::new();
    let mut survived = 0u64;
    for round in &rounds {
        let rewrites: Vec<Rewrite> = if use_c3 {
            sub3_candidates(round)
                .into_iter()
                .filter(|rw| {
                    ctx.enable_xor
                        || !matches!(
                            rw.kind,
                            RewriteKind::Sub3 {
                                gate: crate::Gate3::Xor | crate::Gate3::Xnor,
                                ..
                            }
                        )
                })
                .collect()
        } else {
            sub2_candidates(round)
        };
        survived += rewrites.len() as u64;
        let ncp = site_ncp(nl, round.site, &cp);
        for rw in rewrites {
            let lds = site_arrival(nl, rw.site, tg) - estimate_arrival(nl, lib, tg, &rw, true);
            if lds > tg.eps() {
                pvccs.push(Pvcc {
                    rewrite: rw,
                    rank: RankKey { ncp, lds },
                });
            }
        }
    }
    telemetry::counter_add(
        if use_c3 {
            "gdo.funnel.c3.bpfs_survived"
        } else {
            "gdo.funnel.c2.bpfs_survived"
        },
        survived,
    );
    pvccs.sort_by(|x, y| x.rank.cmp_desc(&y.rank));
    ctx.stats.engines[EngineId::Gdo.index()].proposed += pvccs.len();
    if telemetry::enabled() {
        let pair_survivors: usize = rounds.iter().map(|r| r.pairs.len()).sum();
        telemetry::event(
            "gdo.round",
            &[
                ("phase", "delay".into()),
                ("c3", use_c3.into()),
                ("sites", rounds.len().into()),
                ("pair_survivors", pair_survivors.into()),
                ("ranked_pvccs", pvccs.len().into()),
            ],
        );
    }

    // Prove and apply, best first; several modifications per simulation,
    // revalidating against the evolving netlist. The persistent graph
    // follows each applied rewrite incrementally, so the revalidation is
    // against fresh timing without any full recompute.
    let t0 = std::time::Instant::now();
    let apply_span = telemetry::span("gdo.round.apply");
    let mut applied = 0;
    let proofs_before = ctx.stats.proofs;
    for pvcc in pvccs {
        if ctx.stats.proofs - proofs_before >= MAX_PROOFS_PER_ROUND || ctx.budget.is_exhausted() {
            break;
        }
        let rw = pvcc.rewrite;
        if ctx.net.is_quarantined(&rw) || !rw.is_applicable(ctx.nl) {
            continue;
        }
        let src = rw.site.source(ctx.nl);
        if !ctx.tg.is_critical(src) {
            continue;
        }
        let new_arrival = estimate_arrival(ctx.nl, lib, ctx.tg, &rw, true);
        if new_arrival + ctx.tg.eps() >= ctx.tg.arrival(src) {
            continue;
        }
        let verdict = prove_and_apply(ctx, rw, Phase::Delay, Some(pvcc.rank), |ctx| {
            apply_journaled(ctx, &rw, true)?;
            Ok(true)
        })?;
        match verdict {
            Verdict::Applied => applied += 1,
            Verdict::Rejected => {}
            Verdict::OutOfBudget => break,
        }
    }
    drop(apply_span);
    if telemetry::enabled() {
        telemetry::event(
            "gdo.round.end",
            &[
                ("c3", use_c3.into()),
                ("cand_s", t_cand.as_secs_f64().into()),
                ("bpfs_s", t_bpfs.as_secs_f64().into()),
                ("apply_s", t0.elapsed().as_secs_f64().into()),
                ("applied", applied.into()),
            ],
        );
    }
    Ok(applied)
}

/// One area-phase batch: redundancy removal plus area-saving
/// substitutions of non-critical gates, each verified not to degrade
/// the circuit delay.
fn area_round(ctx: &mut OptimizeContext<'_, '_>) -> Result<usize, GdoError> {
    let (cfg, lib) = (ctx.cfg, ctx.lib);
    if ctx.nl.outputs().is_empty() || ctx.nl.inputs().is_empty() {
        return Ok(0);
    }
    ctx.cex.invalidate();
    let (nl, tg) = (&*ctx.nl, &*ctx.tg);
    let cands = CandidateContext::build(nl)?;
    let baseline_delay = tg.circuit_delay();

    // Rank sites coarsely by prospective pruning gain, one dead-cone walk
    // per gate, and keep the per-round site cap before enumerating any
    // candidates.
    let mut ranked: Vec<(f64, SignalId)> = nl
        .gates()
        .filter(|&g| nl.fanout_count(g) > 0)
        .map(|g| (dead_cone_area(nl, lib, g), g))
        .collect();
    ranked.sort_by(|(gx, _), (gy, _)| gy.total_cmp(gx));
    ranked.truncate(MAX_SITES_PER_ROUND);
    let mut c2_enumerated = 0u64;
    let mut c2_kept = 0u64;
    let site_cands: Vec<(Site, Vec<SignalId>)> = ranked
        .into_iter()
        .map(|(_, g)| {
            let site = Site::Stem(g);
            // Non-critical gates only (the delay phase owns critical
            // ones), but every gate is a redundancy-removal candidate.
            let bs = if tg.is_critical(g) {
                Vec::new()
            } else {
                let budget = site_required(site, tg) - tg.eps();
                let (bs, counts) =
                    pair_candidates_counted(nl, tg, &cands, site, &cfg.candidates, budget);
                c2_enumerated += counts.considered;
                c2_kept += counts.kept;
                bs
            };
            (site, bs)
        })
        .collect();
    telemetry::counter_add("gdo.funnel.c2.enumerated", c2_enumerated);
    telemetry::counter_add("gdo.funnel.c2.filtered", c2_kept);
    // Every surveyed site doubles as a C1 (constant-substitution)
    // candidate; there is no dedicated pre-filter for them.
    telemetry::counter_add("gdo.funnel.const.enumerated", site_cands.len() as u64);
    telemetry::counter_add("gdo.funnel.const.filtered", site_cands.len() as u64);

    let rounds = bpfs_pass(ctx, site_cands, cfg.enable_sub3)?;

    let nl = &*ctx.nl;
    let mut pvccs: Vec<(f64, Rewrite)> = Vec::new();
    let mut surv_const = 0u64;
    let mut surv_c2 = 0u64;
    let mut surv_c3 = 0u64;
    for round in &rounds {
        let mut rewrites = const_candidates(round);
        surv_const += rewrites.len() as u64;
        let subs2 = sub2_candidates(round);
        surv_c2 += subs2.len() as u64;
        rewrites.extend(subs2);
        if cfg.enable_sub3 {
            let subs3 = sub3_candidates(round);
            surv_c3 += subs3.len() as u64;
            rewrites.extend(subs3);
        }
        for rw in rewrites {
            let gain = estimate_area_delta(nl, lib, &rw, false);
            if gain > 1e-9 {
                pvccs.push((gain, rw));
            }
        }
    }
    telemetry::counter_add("gdo.funnel.const.bpfs_survived", surv_const);
    telemetry::counter_add("gdo.funnel.c2.bpfs_survived", surv_c2);
    telemetry::counter_add("gdo.funnel.c3.bpfs_survived", surv_c3);
    pvccs.sort_by(|(gx, _), (gy, _)| gy.total_cmp(gx));
    ctx.stats.engines[EngineId::Gdo.index()].proposed += pvccs.len();

    let mut applied = 0;
    let proofs_before = ctx.stats.proofs;
    for (_, rw) in pvccs {
        if applied >= AREA_BATCH
            || ctx.stats.proofs - proofs_before >= MAX_PROOFS_PER_ROUND
            || ctx.budget.is_exhausted()
        {
            break;
        }
        if ctx.net.is_quarantined(&rw) || !rw.is_applicable(ctx.nl) {
            continue;
        }
        // Trial-evaluate against the persistent graph FIRST (cheap): the
        // substitution must not lengthen the critical path and must
        // actually save area. Only then pay for the validity proof. The
        // replacement's arrival is exact (it mirrors `apply_rewrite`'s
        // realization, inverter reuse included) and the site's downstream
        // cone is untouched by a substitution, so comparing arrival
        // against the site's required time decides the delay question
        // without cloning the netlist or re-running timing analysis per
        // candidate.
        let required = site_required(rw.site, ctx.tg);
        let new_arrival = estimate_arrival(ctx.nl, lib, ctx.tg, &rw, false);
        if new_arrival > required + ctx.tg.eps() {
            continue;
        }
        // The exact area change on the evolved netlist: earlier
        // applications in this batch may have claimed the savings, and
        // the signals the replacement reads often lie in the site's dead
        // cone, so the ranking estimate over-counts. Only a rewrite that
        // saves area is worth a proof.
        if exact_area_delta(ctx.nl, lib, &rw, false) <= 1e-9 {
            continue;
        }
        let verdict = prove_and_apply(ctx, rw, Phase::Area, None, |ctx| {
            // One backup per *proved* candidate guards the checks end to
            // end: constant substitutions sweep and rebind downstream
            // logic, which the area delta does not model. Unproved
            // candidates never clone, and reverting restores the cloned
            // graph instead of paying for a recompute.
            let backup = ctx.nl.clone();
            let backup_tg = ctx.tg.clone();
            apply_journaled(ctx, &rw, false)?;
            if ctx.tg.circuit_delay() > baseline_delay + ctx.tg.eps()
                || total_area(ctx.nl, ctx.model) >= total_area(&backup, ctx.model)
            {
                *ctx.nl = backup;
                *ctx.tg = backup_tg;
                return Ok(false);
            }
            Ok(true)
        })?;
        match verdict {
            Verdict::Applied => applied += 1,
            Verdict::Rejected => {}
            Verdict::OutOfBudget => break,
        }
    }
    Ok(applied)
}

/// One BPFS pass over a fresh vector batch: the C1/C2 invalidation of
/// every site in `site_cands`, then, with `with_c3`, the C3 invalidation
/// of each site's triple requests — AND/OR combinations of its pairs,
/// plus structural XOR triples when XOR cells are usable — tallied on
/// the C3 funnel.
fn bpfs_pass(
    ctx: &mut OptimizeContext<'_, '_>,
    site_cands: Vec<(Site, Vec<SignalId>)>,
    with_c3: bool,
) -> Result<Vec<SiteRound>, GdoError> {
    let cfg = ctx.cfg;
    *ctx.seed += 1;
    let vectors = VectorSet::random(ctx.nl.inputs().len(), cfg.vectors, *ctx.seed);
    let sim = simulate(ctx.nl, &vectors)?;
    let mut rounds = run_c2(ctx.nl, &sim, site_cands, cfg.threads, Some(ctx.budget))?;
    if with_c3 {
        let max = cfg.candidates.max_triples_per_site;
        let xor = ctx.enable_xor && cfg.xor_direct;
        let requests: Vec<Vec<TripleEntry>> = rounds
            .iter()
            .map(|round| {
                let mut triples = and_or_triple_requests(round, max);
                if xor {
                    triples.extend(xor_triple_requests(round, max));
                }
                triples
            })
            .collect();
        let n_triples: u64 = requests.iter().map(|r| r.len() as u64).sum();
        telemetry::counter_add("gdo.funnel.c3.enumerated", n_triples);
        telemetry::counter_add("gdo.funnel.c3.filtered", n_triples);
        run_c3(
            ctx.nl,
            &sim,
            &mut rounds,
            requests,
            cfg.threads,
            Some(ctx.budget),
        );
    }
    Ok(rounds)
}

/// What became of one ranked candidate in [`prove_and_apply`].
enum Verdict {
    /// Proved, applied and kept.
    Applied,
    /// Refuted (now or by an earlier proof), reverted by the apply step,
    /// or rolled back by the safety net.
    Rejected,
    /// The budget ran out mid-proof: the round stops.
    OutOfBudget,
}

/// The prove → refutation cache → apply bookkeeping both phases share.
///
/// A rewrite the cache already refuted is rejected without a proof; the
/// rest are charged to the budget and proved, first by replaying the
/// run's counterexample pool, then by SAT. A genuine refutation is
/// cached, one the budget caused is not. A proved rewrite goes to
/// `apply`, which edits the netlist, folds the edit into the timing
/// graph and returns `false` if it had to revert; the pool's simulation
/// is dropped after every attempt. A kept rewrite clears the cache (the
/// circuit changed), passes the safety net, and is tallied and
/// journaled.
fn prove_and_apply(
    ctx: &mut OptimizeContext<'_, '_>,
    rw: Rewrite,
    phase: Phase,
    rank: Option<RankKey>,
    apply: impl FnOnce(&mut OptimizeContext<'_, '_>) -> Result<bool, GdoError>,
) -> Result<Verdict, GdoError> {
    if ctx.refuted.contains(&rw) {
        return Ok(Verdict::Rejected);
    }
    let cfg = ctx.cfg;
    ctx.stats.proofs += 1;
    ctx.stats.engines[EngineId::Gdo.index()].filtered += 1;
    ctx.budget.charge(1);
    telemetry::counter_add(funnel_counter(&rw, FunnelStage::Proofs), 1);
    if !prove_rewrite(
        ctx.nl,
        ctx.lib,
        &rw,
        cfg.prover,
        cfg.conflict_budget,
        Some(ctx.budget),
        Some(ctx.cex),
    )? {
        if ctx.budget.is_exhausted() {
            // An interrupted proof is not a genuine refutation: do not
            // poison the cache with it.
            return Ok(Verdict::OutOfBudget);
        }
        ctx.refuted.insert(rw);
        return Ok(Verdict::Rejected);
    }
    ctx.stats.proofs_valid += 1;
    ctx.stats.engines[EngineId::Gdo.index()].proved += 1;
    telemetry::counter_add(funnel_counter(&rw, FunnelStage::Proved), 1);
    let kept = apply(ctx);
    // Kept, reverted or (below) rolled back, the netlist is a new version.
    ctx.cex.invalidate();
    if !kept? {
        return Ok(Verdict::Rejected);
    }
    ctx.refuted.clear();
    if ctx
        .net
        .check_after_apply(ctx.nl, ctx.tg, rewrite_class(&rw))?
    {
        // Verification failed: everything since the last good checkpoint
        // was rolled back and the class quarantined.
        return Ok(Verdict::Rejected);
    }
    telemetry::counter_add(funnel_counter(&rw, FunnelStage::Applied), 1);
    if telemetry::enabled() {
        let mut fields = vec![
            ("phase", phase.name().into()),
            ("rewrite", format!("{rw}").into()),
        ];
        if let Some(rank) = rank {
            fields.push(("ncp", rank.ncp.into()));
            fields.push(("lds", rank.lds.into()));
        }
        telemetry::event("gdo.applied", &fields);
    }
    ctx.ckpt.record_applied(|| format!("{rw}"));
    count_mod(ctx.stats, &rw);
    ctx.stats.engines[EngineId::Gdo.index()].applied += 1;
    Ok(Verdict::Applied)
}

/// Applies `rw` and folds the edits it journaled into the timing graph.
fn apply_journaled(
    ctx: &mut OptimizeContext<'_, '_>,
    rw: &Rewrite,
    fast: bool,
) -> Result<(), GdoError> {
    apply_rewrite(ctx.nl, ctx.lib, rw, fast)?;
    let delta = ctx.nl.take_delta();
    ctx.tg.update(ctx.nl, ctx.model, &delta);
    Ok(())
}

fn count_mod(stats: &mut GdoStats, rw: &Rewrite) {
    match rw.kind {
        RewriteKind::Sub2 { .. } => stats.sub2_mods += 1,
        RewriteKind::Sub3 { .. } => stats.sub3_mods += 1,
        RewriteKind::SubConst { .. } => stats.const_mods += 1,
    }
}

/// Prove/apply stages of the per-class candidate funnel.
#[derive(Debug, Clone, Copy)]
enum FunnelStage {
    Proofs,
    Proved,
    Applied,
}

/// Static funnel-counter name for a rewrite's clause class — resolved by
/// `match` so the disabled-telemetry path never formats a string.
fn funnel_counter(rw: &Rewrite, stage: FunnelStage) -> &'static str {
    use FunnelStage::{Applied, Proofs, Proved};
    match (&rw.kind, stage) {
        (RewriteKind::Sub2 { .. }, Proofs) => "gdo.funnel.c2.proofs",
        (RewriteKind::Sub2 { .. }, Proved) => "gdo.funnel.c2.proved",
        (RewriteKind::Sub2 { .. }, Applied) => "gdo.funnel.c2.applied",
        (RewriteKind::Sub3 { .. }, Proofs) => "gdo.funnel.c3.proofs",
        (RewriteKind::Sub3 { .. }, Proved) => "gdo.funnel.c3.proved",
        (RewriteKind::Sub3 { .. }, Applied) => "gdo.funnel.c3.applied",
        (RewriteKind::SubConst { .. }, Proofs) => "gdo.funnel.const.proofs",
        (RewriteKind::SubConst { .. }, Proved) => "gdo.funnel.const.proved",
        (RewriteKind::SubConst { .. }, Applied) => "gdo.funnel.const.applied",
    }
}

pub(crate) fn total_area<M: DelayModel>(nl: &Netlist, model: &M) -> f64 {
    nl.gates().map(|g| model.area(nl, g)).sum()
}

/// Optimizes `nl` in place under `lib` with the default engine pipeline
/// (`gdo`) — the one-call entry point of the crate
/// ([`gdo::prelude`](crate::prelude) re-exports it together with
/// everything it needs). Build an [`OptimizeRequest`] and call
/// [`Pipeline::run`] directly to select engines or region constraints.
///
/// # Errors
///
/// Propagates [`Pipeline::run`]'s errors.
pub fn optimize(lib: &Library, cfg: GdoConfig, nl: &mut Netlist) -> Result<GdoStats, GdoError> {
    let budget = Budget::new(cfg.deadline, cfg.work_limit);
    Pipeline::new(lib).run(&OptimizeRequest::new(cfg), nl, &budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use library::{standard_library, MapGoal, Mapper};
    use netlist::GateKind;

    fn optimize_and_check(nl: &Netlist, cfg: GdoConfig) -> (Netlist, GdoStats) {
        let lib = standard_library();
        let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(nl).unwrap();
        let stats = optimize(&lib, cfg, &mut mapped).unwrap();
        mapped.validate().unwrap();
        assert!(
            nl.equiv_exhaustive(&mapped).unwrap(),
            "optimization changed the function"
        );
        assert!(stats.delay_after <= stats.delay_before + 1e-9);
        (mapped, stats)
    }

    /// A circuit recomputing an existing signal through a deep
    /// XOR-cancellation detour (which survives structural hashing and
    /// sweeping, unlike inverter chains): GDO should rewire the consumer
    /// to the short version.
    #[test]
    fn removes_duplicate_logic_chain() {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let short = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        // deep = (a^c) ^ (b^c) == a^b, but structurally distinct.
        let t1 = nl.add_gate(GateKind::Xor, &[a, c]).unwrap();
        let t2 = nl.add_gate(GateKind::Xor, &[b, c]).unwrap();
        let deep = nl.add_gate(GateKind::Xor, &[t1, t2]).unwrap();
        let y = nl.add_gate(GateKind::And, &[deep, d]).unwrap();
        nl.add_output("s", short);
        nl.add_output("y", y);
        let (_, stats) = optimize_and_check(&nl, GdoConfig::default());
        assert!(stats.total_mods() > 0, "no modification found");
        assert!(stats.delay_after < stats.delay_before);
    }

    /// Absorption redundancy: y = a + a·b collapses to a.
    #[test]
    fn removes_absorption_redundancy() {
        let mut nl = Netlist::new("absorb");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.add_output("y", y);
        let (mapped, stats) = optimize_and_check(&nl, GdoConfig::default());
        assert!(stats.total_mods() > 0);
        assert!(mapped.stats().gates <= 1);
    }

    #[test]
    fn sub3_inserts_a_new_gate() {
        // A hand-mapped NOR-of-inverters computing AND(a,b) slowly: no
        // single existing signal equals it, but a *new* AND gate over the
        // primary inputs is faster — exactly an OS3 with an AND. A
        // single-strength-inverter library rules out the alternative of
        // just upsizing the inverters with IS2.
        let lib = library::parse_genlib(
            "one-inv",
            "GATE inv1  1.0 O=!a;     PIN * INV 1 999 1.0 0.0 1.0 0.0\n\
             GATE nand2 2.0 O=!(a*b); PIN * INV 1 999 1.0 0.0 1.0 0.0\n\
             GATE nor2  2.0 O=!(a+b); PIN * INV 1 999 1.2 0.0 1.2 0.0\n\
             GATE and2  3.0 O=a*b;    PIN * INV 1 999 1.6 0.0 1.6 0.0\n\
             GATE or2   3.0 O=a+b;    PIN * INV 1 999 1.8 0.0 1.8 0.0\n",
        )
        .unwrap();
        let mut nl = Netlist::new("s3");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let na = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let nb = nl.add_gate(GateKind::Not, &[b]).unwrap();
        let deep = nl.add_gate(GateKind::Nor, &[na, nb]).unwrap();
        nl.set_lib(na, Some(lib.find("inv1").unwrap().tag()))
            .unwrap();
        nl.set_lib(nb, Some(lib.find("inv1").unwrap().tag()))
            .unwrap();
        nl.set_lib(deep, Some(lib.find("nor2").unwrap().tag()))
            .unwrap();
        nl.add_output("y", deep);
        let reference = nl.clone();
        let mut opt = nl.clone();
        let stats = optimize(&lib, GdoConfig::default(), &mut opt).unwrap();
        opt.validate().unwrap();
        assert!(reference.equiv_exhaustive(&opt).unwrap());
        // inv1+nor2 arrival = 2.2; a fresh and2 arrives at 1.6.
        assert!(stats.sub3_mods >= 1, "OS3 not applied: {stats:?}");
        assert!(stats.delay_after < stats.delay_before);
    }

    #[test]
    fn xor_direct_finds_nor_structured_xor() {
        // deep = b XOR c built from NOR/INV (the C6288 cell style). No
        // single signal equals it and no AND/OR recombination is valid --
        // only the XOR-type OS3 applies, and it is invisible to
        // C2-exploitation (the paper notes exactly this loss). With
        // xor_direct the optimizer must find it.
        let lib = standard_library();
        let mut nl = Netlist::new("norxor");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let nb = nl.add_gate(GateKind::Not, &[b]).unwrap();
        let nc = nl.add_gate(GateKind::Not, &[c]).unwrap();
        let and_bc = nl.add_gate(GateKind::Nor, &[nb, nc]).unwrap();
        let nor_bc = nl.add_gate(GateKind::Nor, &[b, c]).unwrap();
        let deep = nl.add_gate(GateKind::Nor, &[and_bc, nor_bc]).unwrap();
        let y = nl.add_gate(GateKind::And, &[deep, d]).unwrap();
        for (g, cell) in [
            (nb, "inv1"),
            (nc, "inv1"),
            (and_bc, "nor2"),
            (nor_bc, "nor2"),
            (deep, "nor2"),
            (y, "and2"),
        ] {
            nl.set_lib(g, Some(lib.find(cell).unwrap().tag())).unwrap();
        }
        nl.add_output("y", y);
        let reference = nl.clone();
        let cfg = GdoConfig {
            xor_direct: true,
            ..GdoConfig::default()
        };
        let mut opt = nl.clone();
        let stats = optimize(&lib, cfg, &mut opt).unwrap();
        opt.validate().unwrap();
        assert!(reference.equiv_exhaustive(&opt).unwrap());
        assert!(stats.sub3_mods >= 1, "XOR OS3 not found: {stats:?}\n{opt}");
        assert!(stats.delay_after < stats.delay_before);
        // An xor2 cell now computes deep.
        assert!(opt
            .gates()
            .any(|g| matches!(opt.kind(g), GateKind::Xor | GateKind::Xnor)));
    }

    #[test]
    fn respects_disable_flags() {
        let mut nl = Netlist::new("flags");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.add_output("y", y);
        let cfg = GdoConfig {
            enable_sub3: false,
            area_phase: false,
            ..GdoConfig::default()
        };
        // Must still terminate and stay permissible.
        let (_, stats) = optimize_and_check(&nl, cfg);
        assert_eq!(stats.sub3_mods, 0);
    }

    #[test]
    fn stats_are_consistent() {
        let mut nl = Netlist::new("stats");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::And, &[t, a]).unwrap();
        nl.add_output("y", y);
        let (_, stats) = optimize_and_check(&nl, GdoConfig::default());
        assert!(stats.proofs >= stats.proofs_valid);
        assert!(stats.proofs_valid >= stats.total_mods());
        assert!(stats.cpu_seconds >= 0.0);
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn builder_validates_budgets() {
        let cfg = GdoConfig::builder()
            .vectors(256)
            .seed(7)
            .enable_sub3(false)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(cfg.vectors, 256);
        assert_eq!(cfg.seed, 7);
        assert!(!cfg.enable_sub3);
        assert_eq!(cfg.threads, 2);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.max_delay_rounds, GdoConfig::default().max_delay_rounds);

        for bad in [
            GdoConfig::builder().vectors(0).build(),
            GdoConfig::builder().max_delay_rounds(0).build(),
            GdoConfig::builder().conflict_budget(0).build(),
        ] {
            match bad {
                Err(GdoError::Config(msg)) => assert!(msg.contains("positive"), "{msg}"),
                other => panic!("expected Config error, got {other:?}"),
            }
        }
        // threads = 0 is legal (auto-detect), unlike the budgets.
        assert!(GdoConfig::builder().threads(0).build().is_ok());
    }

    #[test]
    fn free_optimize_matches_the_struct_api() {
        let mut nl = Netlist::new("free");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.add_output("y", y);
        let lib = standard_library();
        let mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        let cfg = GdoConfig::builder().build().unwrap();
        let mut free = mapped.clone();
        let stats = optimize(&lib, cfg.clone(), &mut free).unwrap();
        assert!(stats.total_mods() > 0);
        assert!(nl.equiv_exhaustive(&free).unwrap());
        let mut piped = mapped;
        let piped_stats = Pipeline::new(&lib)
            .run(&OptimizeRequest::new(cfg), &mut piped, &Budget::unlimited())
            .unwrap();
        assert_eq!(free.to_string(), piped.to_string());
        assert_eq!(stats.total_mods(), piped_stats.total_mods());
    }

    #[test]
    fn optimize_leaves_no_journal_behind() {
        let mut nl = Netlist::new("clean");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.add_output("y", t);
        let lib = standard_library();
        let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        assert!(!mapped.is_recording());
        optimize(&lib, GdoConfig::default(), &mut mapped).unwrap();
        assert!(
            !mapped.is_recording(),
            "optimize must stop the edit journal it started"
        );
    }

    #[test]
    fn trivial_netlists_are_no_ops() {
        let lib = standard_library();
        // No outputs.
        let mut nl = Netlist::new("empty");
        let _ = nl.add_input("a");
        let stats = optimize(&lib, GdoConfig::default(), &mut nl).unwrap();
        assert_eq!(stats.total_mods(), 0);
        // Input straight to output.
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        nl.add_output("y", a);
        let stats = optimize(&lib, GdoConfig::default(), &mut nl).unwrap();
        assert_eq!(stats.total_mods(), 0);
    }

    /// A circuit GDO normally improves — shared by the fail-safe tests.
    fn improvable_netlist() -> Netlist {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let short = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let t1 = nl.add_gate(GateKind::Xor, &[a, c]).unwrap();
        let t2 = nl.add_gate(GateKind::Xor, &[b, c]).unwrap();
        let deep = nl.add_gate(GateKind::Xor, &[t1, t2]).unwrap();
        let y = nl.add_gate(GateKind::And, &[deep, d]).unwrap();
        nl.add_output("s", short);
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn builder_rejects_every_n_zero() {
        match GdoConfig::builder()
            .verify_policy(VerifyPolicy::EveryN(0))
            .build()
        {
            Err(GdoError::Config(msg)) => assert!(msg.contains("positive"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(GdoConfig::builder()
            .verify_policy(VerifyPolicy::EveryN(3))
            .build()
            .is_ok());
    }

    #[test]
    fn zero_deadline_returns_valid_untouched_netlist() {
        let nl = improvable_netlist();
        let lib = standard_library();
        let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        let cfg = GdoConfig::builder()
            .deadline(std::time::Duration::ZERO)
            .build()
            .unwrap();
        let stats = optimize(&lib, cfg, &mut mapped).unwrap();
        assert!(stats.budget_exhausted, "zero deadline must trip the budget");
        assert_eq!(stats.total_mods(), 0);
        assert!(!mapped.is_recording());
        mapped.validate().unwrap();
        assert!(nl.equiv_exhaustive(&mapped).unwrap());
    }

    #[test]
    fn work_limit_exhausts_gracefully() {
        let nl = improvable_netlist();
        let lib = standard_library();
        let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        // One work unit: the first BPFS site survey spends it.
        let cfg = GdoConfig::builder().work_limit(1).build().unwrap();
        let stats = optimize(&lib, cfg, &mut mapped).unwrap();
        assert!(stats.budget_exhausted);
        mapped.validate().unwrap();
        assert!(
            nl.equiv_exhaustive(&mapped).unwrap(),
            "partial run must still be equivalent"
        );
    }

    #[test]
    fn cancel_handle_stops_the_run_up_front() {
        let nl = improvable_netlist();
        let lib = standard_library();
        let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let stats = Pipeline::new(&lib)
            .run(
                &OptimizeRequest::new(GdoConfig::default()),
                &mut mapped,
                &budget,
            )
            .unwrap();
        assert!(stats.budget_exhausted);
        assert_eq!(stats.total_mods(), 0);
        assert!(budget.was_cancelled_externally());
        assert!(nl.equiv_exhaustive(&mapped).unwrap());
    }

    #[test]
    fn verified_run_matches_unverified_result() {
        let nl = improvable_netlist();
        let (_, plain) = optimize_and_check(&nl, GdoConfig::default());
        let cfg = GdoConfig::builder()
            .verify_policy(VerifyPolicy::EachSubstitution)
            .build()
            .unwrap();
        let (_, verified) = optimize_and_check(&nl, cfg);
        assert!(verified.verify_checks > 0, "policy must actually check");
        assert_eq!(verified.verify_failures, 0);
        assert_eq!(verified.verify_rollbacks, 0);
        assert_eq!(verified.quarantined_kinds, 0);
        assert_eq!(verified.delay_after, plain.delay_after);
        assert_eq!(verified.total_mods(), plain.total_mods());
    }

    #[test]
    fn final_policy_verifies_once_at_the_end() {
        let nl = improvable_netlist();
        let cfg = GdoConfig::builder()
            .verify_policy(VerifyPolicy::Final)
            .build()
            .unwrap();
        let (_, stats) = optimize_and_check(&nl, cfg);
        assert!(stats.total_mods() > 0);
        assert_eq!(stats.verify_checks, 1);
        assert_eq!(stats.verify_failures, 0);
    }
}
