//! Counterexample replay: refuting proof candidates with earlier SAT
//! witnesses before paying for a SAT call.
//!
//! When the SAT prover refutes a clause, its model is a primary-input
//! vector under which the site is observable and every literal of the
//! clause is false. That vector often tells later false candidates apart
//! too, as Lee et al.'s simulation-guided resubstitution observes. A
//! [`CexPool`] keeps the witnesses of one run and replays them,
//! bit-parallel, against each new candidate: a pool vector under which
//! the site is observable and every literal of one of the rewrite's
//! clauses is false is a concrete witness that the rewrite changes a
//! primary output. The verdict is therefore exact, never heuristic — a
//! rewrite the pool refutes is one every prover refutes.

use crate::{GdoError, Rewrite, Site};
use netlist::Netlist;
use sim::{simulate, ObsPlan, ObservabilityEngine, SimResult, VectorSet};
use std::collections::HashMap;
use std::sync::Arc;

/// Witnesses a pool holds: four simulation words. Replacement is in
/// ring order, oldest first.
const CAPACITY: usize = 256;
const WORDS: usize = CAPACITY / 64;

/// A bounded pool of SAT counterexamples, replayed by bit-parallel
/// simulation to refute proof candidates without a SAT call.
///
/// The pool is a pure cache of one run: [`prove_rewrite`] consults it
/// after its budget check and feeds it every witness the SAT prover
/// finds. It caches the simulation and levelization of its vectors on the
/// netlist it last saw; the caller must [`invalidate`](Self::invalidate)
/// that cache whenever the netlist changes.
///
/// [`prove_rewrite`]: crate::prove_rewrite
#[derive(Debug, Default)]
pub struct CexPool {
    /// One witness per lane, witness `i` in lane `i % CAPACITY`; built
    /// with the first witness.
    vectors: Option<VectorSet>,
    /// Witnesses pushed so far.
    pushed: usize,
    replay: Option<Replay>,
}

/// The pool's vectors simulated on one netlist version.
#[derive(Debug)]
struct Replay {
    plan: Arc<ObsPlan>,
    sim: SimResult,
    /// Observability rows of the sites queried so far: most sites have
    /// many candidates.
    obs: HashMap<Site, [u64; WORDS]>,
}

impl CexPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> CexPool {
        CexPool::default()
    }

    /// Drops the cached simulation: the netlist changed.
    pub fn invalidate(&mut self) {
        self.replay = None;
    }

    /// Adds a witness — a primary-input assignment of `nl` in
    /// [`Netlist::inputs`] order — overwriting the oldest one once the
    /// pool is full. A cached simulation of `nl` re-simulates only the
    /// witness's word.
    ///
    /// # Panics
    ///
    /// Panics if the witness's length differs from earlier witnesses':
    /// one pool serves one netlist's inputs.
    pub fn push(&mut self, nl: &Netlist, witness: &[bool]) {
        let vectors = self
            .vectors
            .get_or_insert_with(|| VectorSet::zeros(witness.len(), CAPACITY));
        let slot = self.pushed % CAPACITY;
        vectors.set_vector(slot, witness);
        self.pushed += 1;
        if let Some(replay) = &mut self.replay {
            replay
                .sim
                .resimulate_word(nl, &replay.plan, vectors, slot / 64);
            replay.obs.clear();
        }
    }

    /// Returns `true` if some pool vector makes the site of `rw`
    /// observable while every literal of one of its clauses is false —
    /// proof that `rw` is not permissible on `nl`.
    ///
    /// # Errors
    ///
    /// [`GdoError::Netlist`] if `nl` is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `nl` has another input count than the witnesses.
    pub fn refutes(&mut self, nl: &Netlist, rw: &Rewrite) -> Result<bool, GdoError> {
        let Some(vectors) = &self.vectors else {
            return Ok(false);
        };
        // Dead structure has no simulated value to replay.
        if !rw.site.is_live(nl) || rw.reads().iter().any(|&s| !nl.is_live(s)) {
            return Ok(false);
        }
        let mut held = [0u64; WORDS];
        for (w, lanes) in held.iter_mut().enumerate() {
            *lanes = match self.pushed.min(CAPACITY).saturating_sub(w * 64) {
                n if n >= 64 => !0,
                n => (1u64 << n) - 1,
            };
        }
        let replay = match &mut self.replay {
            Some(replay) => replay,
            None => self.replay.insert(Replay {
                plan: Arc::new(ObsPlan::new(nl)?),
                sim: simulate(nl, vectors)?,
                obs: HashMap::new(),
            }),
        };
        // Lanes where every literal of some clause is false.
        let mut falsified = [0u64; WORDS];
        for clause in rw.clauses(nl) {
            for (w, lanes) in falsified.iter_mut().enumerate() {
                let mut all_false = held[w];
                for &(s, positive) in &clause {
                    let v = replay.sim.value(s)[w];
                    all_false &= if positive { !v } else { v };
                }
                *lanes |= all_false;
            }
        }
        if falsified == [0; WORDS] {
            return Ok(false);
        }
        let obs = match replay.obs.get(&rw.site) {
            Some(obs) => *obs,
            None => {
                let mut engine =
                    ObservabilityEngine::with_plan(nl, &replay.sim, Arc::clone(&replay.plan));
                let row = match rw.site {
                    Site::Stem(s) => engine.observability(s),
                    Site::Branch(b) => engine.observability_branch(b),
                };
                let obs: [u64; WORDS] = row.try_into().expect("pool rows are WORDS wide");
                replay.obs.insert(rw.site, obs);
                obs
            }
        };
        Ok(obs.iter().zip(&falsified).any(|(o, f)| o & f != 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RewriteKind, SigLit};
    use netlist::{GateKind, SignalId};

    /// y = OR(a, AND(a, b)): t = AND(a, b) is observable exactly when
    /// a = 0.
    fn absorption() -> (Netlist, [SignalId; 3]) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.add_output("y", y);
        (nl, [a, b, t])
    }

    fn sub2(site: SignalId, b: SigLit) -> Rewrite {
        Rewrite {
            site: Site::Stem(site),
            kind: RewriteKind::Sub2 { b },
        }
    }

    #[test]
    fn empty_pool_refutes_nothing() {
        let (nl, [_, b, t]) = absorption();
        // t := b is impermissible: (a, b) = (0, 1) tells them apart
        // where t is observable; (1, 1) does not.
        let rw = sub2(t, SigLit::pos(b));
        let mut pool = CexPool::new();
        assert!(!pool.refutes(&nl, &rw).unwrap());
        pool.push(&nl, &[true, true]);
        assert!(!pool.refutes(&nl, &rw).unwrap());
        pool.push(&nl, &[false, true]);
        assert!(pool.refutes(&nl, &rw).unwrap());
    }

    #[test]
    fn push_into_a_live_cache_matches_a_rebuilt_one() {
        // y = OR(!a, AND(a, b)): t = AND(a, b) is observable exactly when
        // a = 1, so the empty lanes (all-zero vectors) never observe it.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let na = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[na, t]).unwrap();
        nl.add_output("y", y);
        // t := 1 is impermissible: (a, b) = (1, 0) observes t = 0.
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::SubConst { value: true },
        };
        let mut live = CexPool::new();
        // (0, 0) falsifies t but does not observe it: the query caches
        // the simulation and t's observability row without refuting.
        live.push(&nl, &[false, false]);
        assert!(!live.refutes(&nl, &rw).unwrap());
        // The push must refresh both the simulated word and that row.
        live.push(&nl, &[true, false]);
        assert!(live.refutes(&nl, &rw).unwrap());
        let mut rebuilt = CexPool::new();
        rebuilt.push(&nl, &[false, false]);
        rebuilt.push(&nl, &[true, false]);
        assert!(rebuilt.refutes(&nl, &rw).unwrap());
    }

    #[test]
    fn the_ring_overwrites_the_oldest_witness() {
        let (nl, [_, b, t]) = absorption();
        let rw = sub2(t, SigLit::pos(b));
        let mut pool = CexPool::new();
        pool.push(&nl, &[false, true]);
        for _ in 1..CAPACITY {
            pool.push(&nl, &[true, true]);
        }
        assert!(pool.refutes(&nl, &rw).unwrap());
        pool.push(&nl, &[true, true]);
        assert!(!pool.refutes(&nl, &rw).unwrap(), "oldest witness survived");
    }
}
