//! Bit-parallel clause invalidation — the BPFS engine of Section 4.
//!
//! Every candidate clause starts out *potentially valid*; each simulated
//! vector that makes the site observable while all signal literals are 0
//! kills it. Clause polarities are packed into small bitmasks so one pass
//! over the simulation words updates all phase combinations of a
//! candidate at once:
//!
//! * C1 masks have 2 bits (`a` phase),
//! * C2 masks have 4 bits (`a`,`b` phases),
//! * C3 masks have 8 bits (`a`,`b`,`c` phases),
//!
//! with bit index `pa | pb<<1 | pc<<2` and phase `1` meaning the positive
//! literal.

use crate::{Budget, Gate3, Site};
use netlist::{Netlist, NetlistError, SignalId};
use sim::{ObsPlan, ObservabilityEngine, SimResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One pair candidate's surviving C2 clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEntry {
    /// The `b`-signal.
    pub b: SignalId,
    /// Surviving-clause mask, bit `pa | pb<<1`.
    pub alive: u8,
}

/// One triple candidate: the `OS3`/`IS3` gate it would realize and its
/// surviving C3 clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleEntry {
    /// First new-gate input.
    pub b: SignalId,
    /// Second new-gate input.
    pub c: SignalId,
    /// The gate function (with phases) this triple would realize.
    pub gate: Gate3,
    /// The C3 clause bits this gate needs (bit `pa | pb<<1 | pc<<2`).
    pub needed: u8,
    /// The still-alive subset of `needed`.
    pub alive: u8,
}

impl TripleEntry {
    /// `true` while every needed clause is still potentially valid.
    #[must_use]
    pub fn survives(&self) -> bool {
        self.alive == self.needed
    }
}

/// All per-site BPFS state of one simulation round.
#[derive(Debug)]
pub struct SiteRound {
    /// The `a`-signal site.
    pub site: Site,
    /// Cached observability words of the site.
    pub obs: Vec<u64>,
    /// C1 mask, bit `pa` = clause `(!O_a + a^pa)` still alive.
    pub c1_alive: u8,
    /// Pair candidates with C2 masks.
    pub pairs: Vec<PairEntry>,
    /// Triple candidates with C3 masks (filled by [`run_c3`]).
    pub triples: Vec<TripleEntry>,
}

/// Resolves a thread-count knob: `0` means one worker per available
/// core, anything else is taken literally.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// The per-site C1/C2 worker: computes one [`SiteRound`] from the site's
/// observability and the simulation words. Sites are independent — no
/// worker reads another site's state — which is what makes the fan-out
/// in [`run_c2`] safe and bit-exact.
fn compute_site_round(
    nl: &Netlist,
    sim: &SimResult,
    engine: &mut ObservabilityEngine<'_>,
    site: Site,
    bs: &[SignalId],
) -> SiteRound {
    let n_words = sim.n_words();
    let obs: Vec<u64> = match site {
        Site::Stem(a) => engine.observability(a).to_vec(),
        Site::Branch(br) => engine.observability_branch(br).to_vec(),
    };
    let a_vals = sim.value(site.source(nl));
    // C1: clause (!O_a + a^pa) dies when O & (pa ? !A : A) != 0.
    let mut c1_alive: u8 = 0b11;
    for w in 0..n_words {
        let o = obs[w];
        if o == 0 {
            continue;
        }
        if o & a_vals[w] != 0 {
            c1_alive &= !0b01; // literal !a was 0 somewhere observable
        }
        if o & !a_vals[w] != 0 {
            c1_alive &= !0b10;
        }
        if c1_alive == 0 {
            break;
        }
    }
    let mut pairs = Vec::with_capacity(bs.len());
    for &b in bs {
        let b_vals = sim.value(b);
        let mut alive: u8 = 0b1111;
        for w in 0..n_words {
            let o = obs[w];
            if o == 0 {
                continue;
            }
            let a = a_vals[w];
            let bv = b_vals[w];
            // Literal a^pa is 0 on (pa ? !a : a); same for b.
            for bit in 0..4u8 {
                if alive & (1 << bit) == 0 {
                    continue;
                }
                let am = if bit & 1 != 0 { !a } else { a };
                let bm = if bit & 2 != 0 { !bv } else { bv };
                if o & am & bm != 0 {
                    alive &= !(1 << bit);
                }
            }
            if alive == 0 {
                break;
            }
        }
        // Keep even fully-dead entries: XOR-type OS3 candidates have
        // no valid C2 clause by nature (b alone never determines
        // a = b xor c), so the triple enumeration must still see them.
        pairs.push(PairEntry { b, alive });
    }
    SiteRound {
        site,
        obs,
        c1_alive,
        pairs,
        triples: Vec::new(),
    }
}

/// Runs the C1/C2 invalidation for every site against one simulation,
/// fanned out over `threads` workers (`0` = one per available core).
///
/// `sites` pairs each site with its pre-filtered `b`-candidates. Each
/// worker owns an [`ObservabilityEngine`] over a shared [`ObsPlan`] (the
/// netlist is levelized once, not per worker) and claims sites from an
/// atomic cursor. Results are merged back in site order, so the output
/// is **bit-identical for every thread count and schedule**: per-site
/// computation touches no cross-site state, and ordering is restored by
/// original index.
///
/// Under a `budget`, workers check it before claiming each site and stop
/// claiming once it is exhausted, so the fan-out unwinds within one
/// site's work. Sites left unclaimed are dropped from the result — sound,
/// because a [`SiteRound`] only *proposes* candidates that the prove
/// stage would have to validate anyway. With `budget: None` (or a budget
/// that never trips) every site is surveyed.
///
/// # Errors
///
/// [`NetlistError::CycleDetected`] if `nl` is cyclic.
pub fn run_c2(
    nl: &Netlist,
    sim: &SimResult,
    sites: Vec<(Site, Vec<SignalId>)>,
    threads: usize,
    budget: Option<&Budget>,
) -> Result<Vec<SiteRound>, NetlistError> {
    let threads = resolve_threads(threads).min(sites.len().max(1));
    if threads <= 1 {
        let mut engine = ObservabilityEngine::new(nl, sim)?;
        let mut rounds: Vec<SiteRound> = Vec::with_capacity(sites.len());
        for (site, bs) in sites {
            if budget.is_some_and(Budget::is_exhausted) {
                break;
            }
            if let Some(b) = budget {
                b.charge(1);
            }
            rounds.push(compute_site_round(nl, sim, &mut engine, site, &bs));
        }
        return Ok(rounds);
    }
    let plan = Arc::new(ObsPlan::new(nl)?);
    let next = AtomicUsize::new(0);
    let sites = &sites;
    let mut merged: Vec<Option<SiteRound>> =
        std::iter::repeat_with(|| None).take(sites.len()).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let plan = Arc::clone(&plan);
                let next = &next;
                scope.spawn(move || {
                    let mut engine = ObservabilityEngine::with_plan(nl, sim, plan);
                    let mut local: Vec<(usize, SiteRound)> = Vec::new();
                    loop {
                        if budget.is_some_and(Budget::is_exhausted) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((site, bs)) = sites.get(i) else {
                            break;
                        };
                        if let Some(b) = budget {
                            b.charge(1);
                        }
                        local.push((i, compute_site_round(nl, sim, &mut engine, *site, bs)));
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            for (i, round) in worker.join().expect("BPFS worker panicked") {
                merged[i] = Some(round);
            }
        }
    });
    // Unclaimed slots (budget exhaustion only) drop out; claimed sites
    // keep their original relative order.
    Ok(merged.into_iter().flatten().collect())
}

/// The per-site C3 worker: kills clause bits of `triples` against the
/// observability cached in `round`, returning only survivors. Reads the
/// round immutably so many sites can be processed concurrently.
fn invalidate_triples(
    nl: &Netlist,
    sim: &SimResult,
    round: &SiteRound,
    mut triples: Vec<TripleEntry>,
) -> Vec<TripleEntry> {
    let n_words = sim.n_words();
    let a_vals = sim.value(round.site.source(nl));
    for t in &mut triples {
        let b_vals = sim.value(t.b);
        let c_vals = sim.value(t.c);
        for w in 0..n_words {
            let o = round.obs[w];
            if o == 0 {
                continue;
            }
            let a = a_vals[w];
            for bit in 0..8u8 {
                if t.alive & (1 << bit) == 0 {
                    continue;
                }
                let am = if bit & 1 != 0 { !a } else { a };
                let bm = if bit & 2 != 0 { !b_vals[w] } else { b_vals[w] };
                let cm = if bit & 4 != 0 { !c_vals[w] } else { c_vals[w] };
                if o & am & bm & cm != 0 {
                    t.alive &= !(1 << bit);
                }
            }
            if !t.survives() {
                break;
            }
        }
    }
    triples.retain(TripleEntry::survives);
    triples
}

/// Runs the C3 invalidation for many sites at once, using the
/// observability cached by [`run_c2`], fanned out over `threads` workers
/// (`0` = one per available core). Dead triples are removed.
///
/// `requests[i]` holds the triple candidates of `rounds[i]`. Workers
/// read rounds immutably and claim (round, request) pairs from an atomic
/// cursor; surviving triples are written back by index, so the result is
/// bit-identical for every thread count.
///
/// Under a `budget`, workers stop claiming work once it is exhausted;
/// rounds whose requests were never processed keep an empty `triples`
/// list (they simply propose no `OS3`/`IS3` candidates).
///
/// # Panics
///
/// Panics if `requests.len() != rounds.len()`.
pub fn run_c3(
    nl: &Netlist,
    sim: &SimResult,
    rounds: &mut [SiteRound],
    requests: Vec<Vec<TripleEntry>>,
    threads: usize,
    budget: Option<&Budget>,
) {
    assert_eq!(requests.len(), rounds.len(), "one request set per round");
    let threads = resolve_threads(threads).min(rounds.len().max(1));
    if threads <= 1 {
        for (round, triples) in rounds.iter_mut().zip(requests) {
            if budget.is_some_and(Budget::is_exhausted) {
                break;
            }
            if let Some(b) = budget {
                b.charge(1);
            }
            round.triples = invalidate_triples(nl, sim, round, triples);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let work: Vec<(usize, &SiteRound, Vec<TripleEntry>)> = rounds
        .iter()
        .zip(requests)
        .enumerate()
        .map(|(i, (round, triples))| (i, round, triples))
        .collect();
    let work = std::sync::Mutex::new(
        work.into_iter()
            .map(Some)
            .collect::<Vec<Option<(usize, &SiteRound, Vec<TripleEntry>)>>>(),
    );
    let n = rounds.len();
    let mut survivors: Vec<Option<Vec<TripleEntry>>> =
        std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let work = &work;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Vec<TripleEntry>)> = Vec::new();
                    loop {
                        if budget.is_some_and(Budget::is_exhausted) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(b) = budget {
                            b.charge(1);
                        }
                        let (idx, round, triples) = work.lock().expect("poisoned")[i]
                            .take()
                            .expect("each work item claimed once");
                        local.push((idx, invalidate_triples(nl, sim, round, triples)));
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            for (i, t) in worker.join().expect("C3 worker panicked") {
                survivors[i] = Some(t);
            }
        }
    });
    for (round, t) in rounds.iter_mut().zip(survivors) {
        if let Some(t) = t {
            round.triples = t;
        }
        // An unclaimed round (budget exhaustion only) keeps its empty
        // triples list and proposes no OS3/IS3 candidates.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;
    use sim::{simulate, VectorSet};

    /// Exhaustive simulation makes BPFS survival equal to exact validity.
    fn exhaustive_round(nl: &Netlist, site: Site, bs: Vec<SignalId>) -> (SiteRound, SimResult) {
        let vectors = VectorSet::exhaustive(nl.inputs().len());
        let sim = simulate(nl, &vectors).unwrap();
        let mut rounds = run_c2(nl, &sim, vec![(site, bs)], 1, None).unwrap();
        (rounds.pop().unwrap(), sim)
    }

    #[test]
    fn c2_masks_match_clause_prover() {
        // d = AND(a, b); y = OR(d, c): compare BPFS-exhaustive masks with
        // the SAT prover for every candidate and phase.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[d, c]).unwrap();
        nl.add_output("y", y);
        for site_sig in [a, b, d] {
            let cands: Vec<SignalId> = [a, b, c, d]
                .into_iter()
                .filter(|&s| s != site_sig)
                .collect();
            let (round, _) = exhaustive_round(&nl, Site::Stem(site_sig), cands.clone());
            let mut prover = sat::ClauseProver::new(&nl, site_sig.into()).unwrap();
            for &cand in &cands {
                if nl.transitive_fanout(site_sig).contains(cand) {
                    continue;
                }
                let entry = round.pairs.iter().find(|p| p.b == cand);
                for bit in 0..4u8 {
                    let pa = bit & 1 != 0;
                    let pb = bit & 2 != 0;
                    let exact = prover.is_valid(&[(site_sig, pa), (cand, pb)]);
                    let bpfs = entry.is_some_and(|e| e.alive & (1 << bit) != 0);
                    assert_eq!(
                        bpfs, exact,
                        "site {site_sig} cand {cand} phases ({pa},{pb})"
                    );
                }
            }
        }
    }

    #[test]
    fn c1_mask_detects_redundancy() {
        // t = AND(a, b); y = OR(a, t): t is stuck-at-0 redundant.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.add_output("y", y);
        let (round, _) = exhaustive_round(&nl, Site::Stem(t), vec![]);
        // (!O_t + !t) valid (bit 0), (!O_t + t) invalid (bit 1).
        assert_eq!(round.c1_alive, 0b01);
    }

    #[test]
    fn c3_masks_match_clause_prover() {
        // y = AOI21(a, b, c) as separate gates: t = AND(a,b), s = OR(t,c),
        // y = NOT(s). Check triple masks for site s against the prover.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let s = nl.add_gate(GateKind::Or, &[t, c]).unwrap();
        let y = nl.add_gate(GateKind::Not, &[s]).unwrap();
        nl.add_output("y", y);
        let vectors = VectorSet::exhaustive(3);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut rounds =
            run_c2(&nl, &sim, vec![(Site::Stem(s), vec![t, c, a, b])], 1, None).unwrap();
        // One probe per clause phase of (s, t, c): each survives iff its
        // single C3 clause is valid.
        let probes: Vec<TripleEntry> = (0..8u8)
            .map(|bit| TripleEntry {
                b: t,
                c,
                gate: Gate3::Or(true, true),
                needed: 1 << bit,
                alive: 1 << bit,
            })
            .collect();
        run_c3(&nl, &sim, &mut rounds, vec![probes], 1, None);
        let round = rounds.pop().unwrap();
        let mut prover = sat::ClauseProver::new(&nl, s.into()).unwrap();
        for bit in 0..8u8 {
            let pa = bit & 1 != 0;
            let pb = bit & 2 != 0;
            let pc = bit & 4 != 0;
            let exact = prover.is_valid(&[(s, pa), (t, pb), (c, pc)]);
            let got = round.triples.iter().any(|e| e.needed == 1 << bit);
            assert_eq!(got, exact, "phases ({pa},{pb},{pc})");
        }
    }

    #[test]
    fn random_vectors_only_overapproximate() {
        // With very few random vectors, survivors are a superset of the
        // truly valid clauses — never a subset.
        let mut nl = Netlist::new("t");
        let ins: Vec<SignalId> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g1 = nl
            .add_gate(GateKind::And, &[ins[0], ins[1], ins[2]])
            .unwrap();
        let g2 = nl.add_gate(GateKind::Or, &[g1, ins[3]]).unwrap();
        let g3 = nl.add_gate(GateKind::Xor, &[g2, ins[4]]).unwrap();
        nl.add_output("y", g3);

        let sparse = VectorSet::random(8, 64, 3);
        let sim_sparse = simulate(&nl, &sparse).unwrap();
        let rounds_sparse = run_c2(
            &nl,
            &sim_sparse,
            vec![(Site::Stem(g2), vec![g1, ins[3], ins[4]])],
            1,
            None,
        )
        .unwrap();

        let full = VectorSet::exhaustive(8);
        let sim_full = simulate(&nl, &full).unwrap();
        let rounds_full = run_c2(
            &nl,
            &sim_full,
            vec![(Site::Stem(g2), vec![g1, ins[3], ins[4]])],
            1,
            None,
        )
        .unwrap();

        for full_pair in &rounds_full[0].pairs {
            let sparse_pair = rounds_sparse[0]
                .pairs
                .iter()
                .find(|p| p.b == full_pair.b)
                .expect("sparse must keep every truly-valid candidate");
            assert_eq!(
                sparse_pair.alive & full_pair.alive,
                full_pair.alive,
                "sparse lost a valid clause for {}",
                full_pair.b
            );
        }
    }
}
