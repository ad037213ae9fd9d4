//! Simulation-guided k-resubstitution (k ≤ 4): the second [`Engine`]
//! of the pipeline.
//!
//! Where GDO's clause analysis stops at substitutions expressible with
//! one inserted two-input gate, this engine re-expresses a target signal
//! as an OR (or, dually, a complemented OR) of up to four product legs
//! over up to four *divisor* signals — functions GDO's C2/C3 clause
//! combinations cannot reach.
//!
//! The funnel mirrors GDO's invalidate-cheaply / prove-exactly split:
//!
//! 1. **Signatures.** One round of bit-parallel random simulation over a
//!    128-vector prefix of the round's vectors gives every signal a
//!    signature; the target's observability mask (its care set under
//!    those vectors) splits the signature into an on-set and an off-set.
//! 2. **Propose.** Targets are ranked by signature skew (balanced
//!    signatures are wide arithmetic functions no small cover can
//!    express) and by the literal count of their exclusive dead cone.
//!    Divisors are drawn from signals outside the target's fanout cone
//!    and outside its dead cone — so an accepted cover lets the whole
//!    cone die — with at most one of the target's own fanins. Covers
//!    are assembled greedily from legs (single literals and two-literal
//!    products) whose signature prefixes avoid the off-set; targets
//!    expressible with ≤ 2 divisors are rejected — those belong to GDO.
//! 3. **Prove.** A winning cover is realized on the netlist in
//!    NAND-native form (`OR(legs)` becomes one wide NAND of the leg
//!    complements) and the result is validated against the pre-edit
//!    netlist with [`netlists_equivalent`]: exhaustive simulation at 12
//!    inputs or fewer, otherwise the representative-based equivalence
//!    sweep. Signatures are necessary, never sufficient.
//! 4. **Accept.** The edit is kept only if it strictly decreases the
//!    literal count and, after an incremental
//!    [`timing::TimingGraph::update`], leaves the worst slack no
//!    worse. Otherwise both netlist and
//!    timing graph are restored from the pre-edit snapshot.
//!
//! One accepted resubstitution ends the round: signatures and
//! observability masks are recomputed from fresh vectors before the
//! next proposal, so stale masks can never license an unsound edit
//! (unsound *covers* are caught by the equivalence check regardless).

use std::cmp::Ordering;

use crate::budget::Phase;
use crate::candidates::CandidateContext;
use crate::engine::{netlists_equivalent, Engine, EngineId, OptimizeContext, RewriteClass};
use crate::optimizer::MAX_SITES_PER_ROUND;
use crate::transform::{dead_cone, pick, pick_or_err, realize_literal};
use crate::GdoError;
use library::Library;
use netlist::{GateKind, Netlist, SignalId, SignalSet};
use sim::{simulate, ObservabilityEngine, SimResult, VectorSet};

/// Divisor pool size per target.
const MAX_DIVISORS: usize = 32;
/// Maximum OR legs in a cover.
const MAX_LEGS: usize = 4;
/// Maximum distinct divisors referenced by a cover (the "k" in
/// k-resubstitution).
const MAX_DISTINCT_DIVISORS: usize = 4;
/// Minimum distinct divisors — covers below this are GDO territory.
const MIN_DISTINCT_DIVISORS: usize = 3;
/// Minimum literals in the target's exclusive dead cone for the site to
/// be worth proposing; the post-apply strict literal check is the real
/// profit gate, this only skips sites that cannot possibly pay.
const MIN_DEAD_LITERALS: usize = 2;
/// Examined sites per round, as a multiple of GDO's per-round site cap
/// ([`MAX_SITES_PER_ROUND`]). A resub site costs only a pool scan and a
/// greedy cover — no proof unless the realized cover strictly wins
/// literals — so the engine can afford to look much further down the
/// ranking than GDO's clause sites, and a wide sweep keeps the winners
/// inside the budget no matter how input ordering shuffles the
/// tie-breaks.
const SITES_PER_ROUND_FACTOR: usize = 8;
/// Signature words (64 vectors each) used to *propose* covers: each
/// round simulates only this prefix of its vectors. Exact agreement over
/// every sampled vector almost never happens for wide-support targets,
/// so proposals match on this prefix only — the equivalence check, not
/// the signature, owns soundness, and a 128-bit prefix keeps the
/// false-proposal rate low enough that proofs stay cheap.
const RESUB_SIG_WORDS: usize = 2;

/// The simulation-guided k-resubstitution engine. Stateless; all run
/// state lives in the [`OptimizeContext`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ResubEngine;

impl Engine for ResubEngine {
    fn id(&self) -> EngineId {
        EngineId::Resub
    }

    fn run(&self, ctx: &mut OptimizeContext<'_, '_>) -> Result<usize, GdoError> {
        ctx.budget.enter_phase(Phase::Resub);
        let _span = telemetry::span("gdo.resub");
        if ctx.net.is_class_quarantined(RewriteClass::Resub) {
            return Ok(0);
        }
        let mut applied = 0usize;
        for iter in ctx.resume_start()..ctx.cfg.max_delay_rounds {
            if ctx.budget.is_exhausted() {
                break;
            }
            ctx.checkpoint_boundary(iter)?;
            if ctx.nl.inputs().is_empty() || ctx.nl.outputs().is_empty() {
                break;
            }
            match run_round(ctx)? {
                RoundOutcome::Applied => applied += 1,
                // Dry round: no target accepted, signatures would repeat.
                // Rolled back: the safety net restored a checkpoint and
                // quarantined this class; stop rather than re-propose.
                RoundOutcome::Dry | RoundOutcome::RolledBack => break,
            }
        }
        Ok(applied)
    }
}

enum RoundOutcome {
    Applied,
    Dry,
    RolledBack,
}

enum TargetOutcome {
    Applied,
    NoChange,
    RolledBack,
}

/// One resubstitution round: fresh vectors, fresh signatures, targets in
/// dead-cone order, first accepted edit wins.
fn run_round(ctx: &mut OptimizeContext<'_, '_>) -> Result<RoundOutcome, GdoError> {
    // The snapshot doubles as the simulation subject (so signature
    // borrows never alias the netlist under edit) and as the rollback /
    // equivalence-check reference.
    let snapshot = ctx.nl.clone();
    *ctx.seed = ctx.seed.wrapping_add(1);
    // Only the signature prefix is ever read, and word `w` of every row
    // depends only on word `w` of the inputs: simulating the prefix of
    // the round's vectors gives exactly the bits a full-width run would.
    let vectors = VectorSet::random(snapshot.inputs().len(), ctx.cfg.vectors, *ctx.seed)
        .prefix(RESUB_SIG_WORDS);
    let sim = simulate(&snapshot, &vectors)?;
    let mut obs = ObservabilityEngine::new(&snapshot, &sim)?;
    let support = CandidateContext::build(&snapshot)?;

    // Select targets by signature skew, rank by dead-cone literals.
    // A skewed signature (minority share of the care set below ~40%)
    // signals a simple on- or off-set structure that a ≤ MAX_LEGS cover
    // can plausibly express, so skewed sites get the first half of the
    // site budget; near-balanced sites (wide arithmetic functions,
    // rarely coverable — but majority-like exceptions exist) fill the
    // rest. Both halves are ranked by the literal count of the target's
    // exclusive dead cone — the literals a successful resubstitution
    // would free.
    let nw = sim.n_words();
    let mut skewed: Vec<(usize, SignalId)> = Vec::new();
    let mut balanced: Vec<(usize, SignalId)> = Vec::new();
    for g in snapshot.gates().filter(|&g| snapshot.fanout_count(g) > 0) {
        let lits = dead_cone_literals(&snapshot, g);
        if lits < MIN_DEAD_LITERALS {
            continue;
        }
        let care = obs.observability(g);
        let tval = sim.value(g);
        let onb: u32 = (0..nw).map(|w| (tval[w] & care[w]).count_ones()).sum();
        let offb: u32 = (0..nw).map(|w| (!tval[w] & care[w]).count_ones()).sum();
        if onb == 0 || offb == 0 {
            // Unobservable or constant-under-care: GDO's
            // redundancy-removal territory, not resubstitution's.
            continue;
        }
        if onb.min(offb) * 5 <= (onb + offb) * 2 {
            skewed.push((lits, g));
        } else {
            balanced.push((lits, g));
        }
    }
    let by_cone = |x: &(usize, SignalId), y: &(usize, SignalId)| {
        y.0.cmp(&x.0).then_with(|| x.1.index().cmp(&y.1.index()))
    };
    skewed.sort_by(by_cone);
    balanced.sort_by(by_cone);
    let cap = MAX_SITES_PER_ROUND * SITES_PER_ROUND_FACTOR;
    skewed.truncate(cap - (cap / 2).min(balanced.len()));
    balanced.truncate(cap - skewed.len());
    let targets = skewed.into_iter().chain(balanced);

    for (_, target) in targets {
        if ctx.budget.is_exhausted() {
            break;
        }
        ctx.budget.charge(1);
        match try_target(ctx, &snapshot, &sim, &mut obs, &support, target)? {
            TargetOutcome::Applied => return Ok(RoundOutcome::Applied),
            TargetOutcome::RolledBack => return Ok(RoundOutcome::RolledBack),
            TargetOutcome::NoChange => {}
        }
    }
    Ok(RoundOutcome::Dry)
}

fn try_target(
    ctx: &mut OptimizeContext<'_, '_>,
    snapshot: &Netlist,
    sim: &SimResult,
    obs: &mut ObservabilityEngine<'_>,
    support: &CandidateContext,
    target: SignalId,
) -> Result<TargetOutcome, GdoError> {
    let nw = sim.n_words();
    let care = obs.observability(target).to_vec();
    let tval = sim.value(target);
    let on: Vec<u64> = (0..nw).map(|w| tval[w] & care[w]).collect();
    let off: Vec<u64> = (0..nw).map(|w| !tval[w] & care[w]).collect();
    if on.iter().all(|&w| w == 0) || off.iter().all(|&w| w == 0) {
        // Unobservable or constant under care: redundancy removal or a
        // C1 constant substitution, GDO's job — or too little evidence
        // on the signature to propose from.
        return Ok(TargetOutcome::NoChange);
    }

    let fanout_cone = snapshot.transitive_fanout(target);
    let cone = dead_cone(snapshot, target, &[]);
    let divs = divisor_pool(ctx, snapshot, support, target, &fanout_cone, &cone);
    if divs.len() < MIN_DISTINCT_DIVISORS {
        return Ok(TargetOutcome::NoChange);
    }
    let dvals: Vec<&[u64]> = divs.iter().map(|&d| sim.value(d)).collect();

    // Anything a single literal or one two-input gate over the
    // *non-fanin* pool can express is GDO's domain; the target's own
    // fanins don't count (every gate is trivially 2-expressible by
    // them). Covers that merely rebuild the gate from both fanins die
    // at the k ≥ 3 distinct-divisor gate below.
    let fanins = snapshot.fanins(target).to_vec();
    let ext_dvals: Vec<&[u64]> = divs
        .iter()
        .zip(&dvals)
        .filter(|(d, _)| !fanins.contains(d))
        .map(|(_, v)| *v)
        .collect();
    if expressible_with_two(&ext_dvals, tval, &care, nw) {
        return Ok(TargetOutcome::NoChange);
    }

    let legs_or = build_legs(&dvals, &on, &off, nw);
    let legs_and = build_legs(&dvals, &off, &on, nw);
    // At most one direct-fanin divisor per cover: with both fanins in
    // play the greedy maximum is always the De Morgan rebuild of the
    // gate itself, which frees nothing and is < 3 divisors anyway.
    let fanin_divs: Vec<usize> = divs
        .iter()
        .enumerate()
        .filter_map(|(i, d)| fanins.contains(d).then_some(i))
        .collect();
    let cover_or = greedy_cover(&legs_or, &on, nw, &fanin_divs).map(|legs| mk_cover(legs, false));
    let cover_and = greedy_cover(&legs_and, &off, nw, &fanin_divs).map(|legs| mk_cover(legs, true));
    let cover = match (cover_or, cover_and) {
        (Some(a), Some(b)) => Some(if b.cost < a.cost { b } else { a }),
        (a, b) => a.or(b),
    };
    let Some(cover) = cover else {
        return Ok(TargetOutcome::NoChange);
    };
    if distinct_divisors(&cover.legs) < MIN_DISTINCT_DIVISORS {
        return Ok(TargetOutcome::NoChange);
    }
    ctx.stats.engines[EngineId::Resub.index()].proposed += 1;

    let pre_lits = ctx.nl.stats().literals;
    let pre_slack = ctx.tg.worst_slack();
    let backup_tg = ctx.tg.clone();
    let mut forbidden = fanout_cone;
    forbidden.insert(target);

    let realized = realize_cover(ctx.nl, ctx.lib, &divs, &cover, target, &forbidden)
        .and_then(|root| ctx.nl.substitute_stem(target, root).map_err(GdoError::from));
    if let Err(e) = realized {
        *ctx.nl = snapshot.clone();
        return Err(e);
    }
    ctx.nl.prune_dangling();
    if ctx.nl.stats().literals >= pre_lits {
        *ctx.nl = snapshot.clone();
        return Ok(TargetOutcome::NoChange);
    }
    ctx.stats.engines[EngineId::Resub.index()].filtered += 1;

    // Signatures proposed; the equivalence sweep decides.
    ctx.stats.proofs += 1;
    ctx.budget.charge(1);
    if !netlists_equivalent(snapshot, ctx.nl)? {
        *ctx.nl = snapshot.clone();
        return Ok(TargetOutcome::NoChange);
    }
    ctx.stats.proofs_valid += 1;
    ctx.stats.engines[EngineId::Resub.index()].proved += 1;

    let delta = ctx.nl.take_delta();
    ctx.tg.update(ctx.nl, ctx.model, &delta);
    if ctx.tg.worst_slack() + ctx.tg.eps() < pre_slack {
        *ctx.nl = snapshot.clone();
        *ctx.tg = backup_tg;
        return Ok(TargetOutcome::NoChange);
    }
    if ctx
        .net
        .check_after_apply(ctx.nl, ctx.tg, RewriteClass::Resub)?
    {
        return Ok(TargetOutcome::RolledBack);
    }
    ctx.ckpt
        .record_applied(|| format!("resub n{}", target.index()));
    ctx.stats.resub_mods += 1;
    ctx.stats.engines[EngineId::Resub.index()].applied += 1;
    if telemetry::enabled() {
        telemetry::event(
            "gdo.resub.apply",
            &[
                ("target", target.index().into()),
                ("divisors", distinct_divisors(&cover.legs).into()),
                ("legs", cover.legs.len().into()),
                ("complement", cover.complement.into()),
            ],
        );
    }
    Ok(TargetOutcome::Applied)
}

/// Candidate divisors: live signals outside the target's fanout cone
/// (cycle safety). The target's own fanins and deeper cone signals ARE
/// eligible — classic resubstitution keeps a fanin and swaps the rest —
/// because a cover may reuse part of the target's dead cone: whatever
/// it keeps alive is charged by the strict literal-decrease check, and
/// the rest still dies. Fanins and grandfanins get guaranteed slots at
/// the head of the pool (they carry the two-level collapse identities;
/// ranked by support they'd lose their seats to wide TFI signals), then
/// the rest of the TFI by shared support, then externals.
fn divisor_pool(
    ctx: &OptimizeContext<'_, '_>,
    snapshot: &Netlist,
    support: &CandidateContext,
    target: SignalId,
    fanout_cone: &SignalSet,
    cone: &SignalSet,
) -> Vec<SignalId> {
    let tsup = support.support(target);
    let tfi = snapshot.transitive_fanin(target);
    let mut family: Vec<SignalId> = Vec::new();
    for &f in snapshot.fanins(target) {
        if !family.contains(&f) {
            family.push(f);
        }
        for &gf in snapshot.fanins(f) {
            if gf != target && !family.contains(&gf) {
                family.push(gf);
            }
        }
    }
    let mut pool: Vec<(u32, u32, SignalId)> = snapshot
        .signals()
        .filter(|&s| s != target && !fanout_cone.contains(s) && !cone.contains(s))
        .filter(|&s| {
            let k = snapshot.kind(s);
            k == GateKind::Input || (!k.is_source() && snapshot.fanout_count(s) > 0)
        })
        .filter_map(|s| {
            let shared = (support.support(s) & tsup).count_ones();
            if shared == 0 && !family.contains(&s) {
                return None;
            }
            let tier = if family.contains(&s) {
                0
            } else if tfi.contains(s) {
                1
            } else {
                2
            };
            Some((tier, shared, s))
        })
        .collect();
    pool.sort_by(|x, y| {
        x.0.cmp(&y.0)
            .then_with(|| y.1.cmp(&x.1))
            .then_with(|| {
                ctx.tg
                    .arrival(x.2)
                    .partial_cmp(&ctx.tg.arrival(y.2))
                    .unwrap_or(Ordering::Equal)
            })
            .then_with(|| x.2.index().cmp(&y.2.index()))
    });
    pool.truncate(MAX_DIVISORS);
    pool.into_iter().map(|(_, _, s)| s).collect()
}

/// Whether the target (under its care mask) is a single pool literal or
/// any phased two-input AND/OR/XOR over the pool, possibly complemented.
fn expressible_with_two(dvals: &[&[u64]], tval: &[u64], care: &[u64], nw: usize) -> bool {
    for v in dvals {
        let mut pos = true;
        let mut neg = true;
        for w in 0..nw {
            if (v[w] ^ tval[w]) & care[w] != 0 {
                pos = false;
            }
            if (!v[w] ^ tval[w]) & care[w] != 0 {
                neg = false;
            }
        }
        if pos || neg {
            return true;
        }
    }
    for i in 0..dvals.len() {
        for j in (i + 1)..dvals.len() {
            for phases in 0..4u32 {
                for op in 0..3u32 {
                    let mut pos = true;
                    let mut neg = true;
                    for w in 0..nw {
                        let a = if phases & 1 == 0 {
                            dvals[i][w]
                        } else {
                            !dvals[i][w]
                        };
                        let b = if phases & 2 == 0 {
                            dvals[j][w]
                        } else {
                            !dvals[j][w]
                        };
                        let z = match op {
                            0 => a & b,
                            1 => a | b,
                            _ => a ^ b,
                        };
                        if (z ^ tval[w]) & care[w] != 0 {
                            pos = false;
                        }
                        if (!z ^ tval[w]) & care[w] != 0 {
                            neg = false;
                        }
                        if !pos && !neg {
                            break;
                        }
                    }
                    if pos || neg {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// A phased reference to a pool divisor.
#[derive(Debug, Clone, Copy)]
struct Lit {
    div: usize,
    positive: bool,
}

/// One OR leg: a single literal or a two-literal product, with its
/// signature.
#[derive(Debug, Clone)]
struct Leg {
    a: Lit,
    b: Option<Lit>,
    words: Vec<u64>,
}

/// A candidate cover: `OR(legs)` when `complement` is false, else
/// `NOT(OR(legs))` (the dual, covering the off-set).
struct Cover {
    legs: Vec<Leg>,
    complement: bool,
    cost: usize,
}

fn mk_cover(legs: Vec<Leg>, complement: bool) -> Cover {
    // Mirrors the NAND-native realization: a pair leg is one NAND2
    // (plus an inverter per negative member), a positive single is an
    // inverter, a negative single is a bare wire; the final combine is
    // one wide NAND (or an AND2 chain for the dual form).
    let mut cost = 0;
    for leg in &legs {
        match leg.b {
            None => cost += usize::from(leg.a.positive),
            Some(b) => {
                cost += 2;
                cost += usize::from(!leg.a.positive) + usize::from(!b.positive);
            }
        }
    }
    cost += if complement {
        3 * legs.len().saturating_sub(1)
    } else {
        legs.len()
    };
    Cover {
        legs,
        complement,
        cost,
    }
}

fn distinct_divisors(legs: &[Leg]) -> usize {
    let mut seen: Vec<usize> = Vec::new();
    for leg in legs {
        if !seen.contains(&leg.a.div) {
            seen.push(leg.a.div);
        }
        if let Some(b) = leg.b {
            if !seen.contains(&b.div) {
                seen.push(b.div);
            }
        }
    }
    seen.len()
}

/// All legs whose signature avoids `avoid` and intersects `cover`:
/// single literals first (so equal-gain greedy ties prefer them), then
/// two-literal products.
fn build_legs(dvals: &[&[u64]], cover: &[u64], avoid: &[u64], nw: usize) -> Vec<Leg> {
    let mut legs = Vec::new();
    let keep = |words: &[u64]| {
        (0..nw).all(|w| words[w] & avoid[w] == 0) && (0..nw).any(|w| words[w] & cover[w] != 0)
    };
    for (i, v) in dvals.iter().enumerate() {
        for positive in [true, false] {
            let words: Vec<u64> = (0..nw)
                .map(|w| if positive { v[w] } else { !v[w] })
                .collect();
            if keep(&words) {
                legs.push(Leg {
                    a: Lit { div: i, positive },
                    b: None,
                    words,
                });
            }
        }
    }
    for i in 0..dvals.len() {
        for j in (i + 1)..dvals.len() {
            for phases in 0..4u32 {
                let pi = phases & 1 == 0;
                let pj = phases & 2 == 0;
                let words: Vec<u64> = (0..nw)
                    .map(|w| {
                        let a = if pi { dvals[i][w] } else { !dvals[i][w] };
                        let b = if pj { dvals[j][w] } else { !dvals[j][w] };
                        a & b
                    })
                    .collect();
                if keep(&words) {
                    legs.push(Leg {
                        a: Lit {
                            div: i,
                            positive: pi,
                        },
                        b: Some(Lit {
                            div: j,
                            positive: pj,
                        }),
                        words,
                    });
                }
            }
        }
    }
    legs
}

/// Greedy set cover of `on` by legs, bounded by [`MAX_LEGS`] legs,
/// [`MAX_DISTINCT_DIVISORS`] distinct divisors, and at most one divisor
/// from `fanin_divs`. Deterministic: strictly greater gain wins, ties
/// keep the earliest leg.
fn greedy_cover(legs: &[Leg], on: &[u64], nw: usize, fanin_divs: &[usize]) -> Option<Vec<Leg>> {
    let mut uncovered = on[..nw].to_vec();
    let mut chosen: Vec<Leg> = Vec::new();
    let mut used: Vec<usize> = Vec::new();
    while uncovered.iter().any(|&w| w != 0) {
        if chosen.len() == MAX_LEGS {
            return None;
        }
        let mut best: Option<(u32, usize)> = None;
        for (li, leg) in legs.iter().enumerate() {
            let mut extra = usize::from(!used.contains(&leg.a.div));
            if let Some(b) = leg.b {
                if b.div != leg.a.div && !used.contains(&b.div) {
                    extra += 1;
                }
            }
            if used.len() + extra > MAX_DISTINCT_DIVISORS {
                continue;
            }
            let fanins_used = used.iter().filter(|d| fanin_divs.contains(d)).count()
                + usize::from(fanin_divs.contains(&leg.a.div) && !used.contains(&leg.a.div))
                + leg.b.map_or(0, |b| {
                    usize::from(
                        b.div != leg.a.div && fanin_divs.contains(&b.div) && !used.contains(&b.div),
                    )
                });
            if fanins_used > 1 {
                continue;
            }
            let gain: u32 = (0..nw)
                .map(|w| (leg.words[w] & uncovered[w]).count_ones())
                .sum();
            if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                best = Some((gain, li));
            }
        }
        let (_, li) = best?;
        let leg = legs[li].clone();
        if !used.contains(&leg.a.div) {
            used.push(leg.a.div);
        }
        if let Some(b) = leg.b {
            if !used.contains(&b.div) {
                used.push(b.div);
            }
        }
        for (w, word) in uncovered.iter_mut().enumerate().take(nw) {
            *word &= !leg.words[w];
        }
        chosen.push(leg);
    }
    Some(chosen)
}

/// Realizes a cover on the netlist in NAND-native form:
/// `OR(legs) = NAND(comp(leg), ...)` where the complement of a negative
/// single literal is the divisor wire itself (free), of a positive
/// single an inverter (reused when one exists), and of a two-literal
/// product one NAND2. The dual cover is the complement of the OR, i.e.
/// the AND of the complements, reduced with AND2 cells.
fn realize_cover(
    nl: &mut Netlist,
    lib: &Library,
    divs: &[SignalId],
    cover: &Cover,
    target: SignalId,
    forbidden: &SignalSet,
) -> Result<SignalId, GdoError> {
    let fast = false; // resubstitution is literal-oriented: smallest cells
    let mut nodes: Vec<SignalId> = Vec::with_capacity(cover.legs.len());
    for leg in &cover.legs {
        let node = match leg.b {
            // comp(single literal) = the opposite-phase literal.
            None => realize_literal(
                nl,
                lib,
                divs[leg.a.div],
                !leg.a.positive,
                fast,
                forbidden,
                target,
            )?,
            // comp(a & b) = NAND(a, b).
            Some(b) => {
                let a = realize_literal(
                    nl,
                    lib,
                    divs[leg.a.div],
                    leg.a.positive,
                    fast,
                    forbidden,
                    target,
                )?;
                let bs =
                    realize_literal(nl, lib, divs[b.div], b.positive, fast, forbidden, target)?;
                let cell = pick_or_err(lib, GateKind::Nand, 2, fast)?;
                let g = nl.add_gate(GateKind::Nand, &[a, bs])?;
                nl.set_lib(g, Some(cell.tag()))?;
                g
            }
        };
        nodes.push(node);
    }
    if cover.complement {
        // NOT(OR(legs)) = AND(comp(leg), ...).
        while nodes.len() > 1 {
            let y = nodes.pop().expect("len > 1");
            let x = nodes.pop().expect("len > 1");
            let cell = pick_or_err(lib, GateKind::And, 2, fast)?;
            let g = nl.add_gate(GateKind::And, &[x, y])?;
            nl.set_lib(g, Some(cell.tag()))?;
            nodes.push(g);
        }
        return Ok(nodes[0]);
    }
    // OR(legs) = NAND(comp(leg), ...): one wide NAND when the library
    // has the arity, otherwise AND2-reduce down to a final NAND2.
    while nodes.len() > 2 && pick(lib, GateKind::Nand, nodes.len(), fast).is_none() {
        let y = nodes.pop().expect("len > 2");
        let x = nodes.pop().expect("len > 2");
        let cell = pick_or_err(lib, GateKind::And, 2, fast)?;
        let g = nl.add_gate(GateKind::And, &[x, y])?;
        nl.set_lib(g, Some(cell.tag()))?;
        nodes.push(g);
    }
    let cell = pick_or_err(lib, GateKind::Nand, nodes.len(), fast)?;
    let g = nl.add_gate(GateKind::Nand, &nodes)?;
    nl.set_lib(g, Some(cell.tag()))?;
    Ok(g)
}

fn dead_cone_literals(nl: &Netlist, stem: SignalId) -> usize {
    dead_cone(nl, stem, &[])
        .iter()
        .map(|g| nl.fanins(g).len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OptimizeRequest, Pipeline};
    use crate::{Budget, GdoConfig};
    use library::{standard_library, MapGoal, Mapper};
    use netlist::Netlist;

    /// A majority-of-three computed as a wide, redundant two-level form:
    /// y = ab + ac + bc + abc, with every product built from scratch.
    /// GDO's 2-divisor gates cannot collapse it, but a 3-divisor cover
    /// (ab + ac + bc over divisors a, b, c... realized as AND-pair legs)
    /// can re-express the stem with fewer literals once the redundant
    /// abc product is absorbed.
    fn redundant_majority() -> Netlist {
        let mut nl = Netlist::new("maj3_redundant");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let ac = nl.add_gate(GateKind::And, &[a, c]).unwrap();
        let bc = nl.add_gate(GateKind::And, &[b, c]).unwrap();
        let ab2 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let abc = nl.add_gate(GateKind::And, &[ab2, c]).unwrap();
        let o1 = nl.add_gate(GateKind::Or, &[ab, ac]).unwrap();
        let o2 = nl.add_gate(GateKind::Or, &[bc, abc]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[o1, o2]).unwrap();
        nl.add_output("y", y);
        nl
    }

    #[test]
    fn dead_cone_set_marks_exclusive_logic() {
        let nl = redundant_majority();
        let y = nl.outputs()[0].driver();
        // The whole circuit below y is exclusive to y.
        let cone = dead_cone(&nl, y, &[]);
        assert!(cone.contains(y));
        assert!(dead_cone_literals(&nl, y) >= 10);
    }

    #[test]
    fn expressible_with_two_accepts_pair_functions() {
        // The full 8-row truth table over three divisors.
        let a = [0b1111_0000u64];
        let b = [0b1100_1100u64];
        let c = [0b1010_1010u64];
        let care = [0xFFu64];
        // t = a & b is 2-expressible over pool [a, b, c].
        let t = [a[0] & b[0]];
        let pool: Vec<&[u64]> = vec![&a, &b, &c];
        assert!(expressible_with_two(&pool, &t, &care, 1));
        // Majority(a, b, c) over full care is not.
        let m = [(a[0] & b[0]) | (a[0] & c[0]) | (b[0] & c[0])];
        assert!(!expressible_with_two(&pool, &m, &care, 1));
    }

    #[test]
    fn greedy_cover_finds_three_divisor_majority() {
        let a = 0b11110000u64;
        let b = 0b11001100u64;
        let c = 0b10101010u64;
        let on = [(a & b) | (a & c) | (b & c)];
        let off = [!on[0] & 0xFF];
        let av = [a];
        let bv = [b];
        let cv = [c];
        let pool: Vec<&[u64]> = vec![&av, &bv, &cv];
        let legs = build_legs(&pool, &on, &off, 1);
        let cover = greedy_cover(&legs, &on, 1, &[]).expect("majority is coverable");
        assert!(cover.len() <= MAX_LEGS);
        assert_eq!(distinct_divisors(&cover), 3);
    }

    #[test]
    fn resub_collapses_redundant_majority() {
        let lib = standard_library();
        let mut mapped = Mapper::new(&lib)
            .goal(MapGoal::Area)
            .map(&redundant_majority())
            .unwrap();
        let reference = mapped.clone();
        let before = mapped.stats().literals;

        let cfg = GdoConfig::builder().vectors(256).seed(7).build().unwrap();
        let req = OptimizeRequest::new(cfg).engines(vec![EngineId::Resub]);
        let budget = Budget::unlimited();
        let stats = Pipeline::new(&lib).run(&req, &mut mapped, &budget).unwrap();

        assert!(
            stats.resub_mods >= 1,
            "resub must fire on the redundant majority: {stats:?}"
        );
        assert!(mapped.stats().literals < before, "literals must decrease");
        assert!(reference.equiv_exhaustive(&mapped).unwrap());
        let funnel = stats.engines[EngineId::Resub.index()];
        assert!(funnel.proposed >= funnel.filtered);
        assert!(funnel.filtered >= funnel.proved);
        assert!(funnel.proved >= funnel.applied);
        assert_eq!(funnel.applied, stats.resub_mods);
    }
}
