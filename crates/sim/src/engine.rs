use crate::row::{eval_gate_row, split_row};
use crate::VectorSet;
use netlist::{Branch, Fanout, GateKind, Netlist, NetlistError, SignalId};
use std::sync::Arc;

/// Good-value simulation result: one word row per signal slot.
#[derive(Debug, Clone)]
pub struct SimResult {
    n_words: usize,
    values: Vec<u64>,
}

impl SimResult {
    /// Number of 64-vector words per signal.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// The word row of signal `s`.
    #[must_use]
    pub fn value(&self, s: SignalId) -> &[u64] {
        &self.values[s.index() * self.n_words..(s.index() + 1) * self.n_words]
    }

    /// The value of signal `s` in vector `v`.
    #[must_use]
    pub fn bit(&self, s: SignalId, v: usize) -> bool {
        self.value(s)[v / 64] >> (v % 64) & 1 == 1
    }

    /// Re-simulates word `w` of every signal from `vectors`, leaving the
    /// other words alone — the update after
    /// [`VectorSet::set_vector`] rewrote a lane of that word. `plan` must
    /// levelize the netlist this result was simulated on.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` or `plan` do not match this result's netlist
    /// and word count.
    pub fn resimulate_word(&mut self, nl: &Netlist, plan: &ObsPlan, vectors: &VectorSet, w: usize) {
        assert_eq!(
            vectors.n_words(),
            self.n_words,
            "vector set of another size"
        );
        let n_words = self.n_words;
        for (i, &pi) in nl.inputs().iter().enumerate() {
            self.values[pi.index() * n_words + w] = vectors.input_words(i)[w];
        }
        for &s in &plan.topo {
            let kind = nl.kind(s);
            if kind != GateKind::Input {
                let (row, rows) = split_row(&mut self.values, n_words, s.index());
                let fanin_words = nl.fanins(s).iter().map(|f| &rows.row(f.index())[w..=w]);
                eval_gate_row(kind, fanin_words, &mut row[w..=w]);
            }
        }
    }
}

/// Simulates all vectors through the netlist, bit-parallel.
///
/// # Errors
///
/// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
///
/// # Panics
///
/// Panics if `vectors.n_inputs()` differs from the netlist's input count.
pub fn simulate(nl: &Netlist, vectors: &VectorSet) -> Result<SimResult, NetlistError> {
    assert_eq!(
        vectors.n_inputs(),
        nl.inputs().len(),
        "vector set built for a different input count"
    );
    telemetry::counter_add("sim.simulations", 1);
    telemetry::counter_add("sim.vectors", vectors.n_vectors() as u64);
    let n_words = vectors.n_words();
    let order = nl.topo_order()?;
    let mut values = vec![0u64; nl.capacity() * n_words];
    for (i, &pi) in nl.inputs().iter().enumerate() {
        values[pi.index() * n_words..(pi.index() + 1) * n_words]
            .copy_from_slice(vectors.input_words(i));
    }
    for &s in &order {
        let kind = nl.kind(s);
        if kind == GateKind::Input {
            continue;
        }
        let (row, rows) = split_row(&mut values, n_words, s.index());
        eval_gate_row(kind, nl.fanins(s).iter().map(|f| rows.row(f.index())), row);
    }
    Ok(SimResult { n_words, values })
}

/// Shared levelization of a netlist for observability queries: the
/// topological order plus each signal's topological level.
///
/// Building the plan walks the whole netlist once; every
/// [`ObservabilityEngine`] query then touches only the seed's fanout
/// cone, evaluated in level order. One plan can back many engines (e.g.
/// one engine per worker thread over the same netlist/simulation), so
/// the levelization cost is paid once per simulation round rather than
/// once per engine.
#[derive(Debug)]
pub struct ObsPlan {
    topo: Vec<SignalId>,
    level: Vec<u32>,
}

impl ObsPlan {
    /// Levelizes `nl`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    pub fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        let topo = nl.topo_order()?;
        let mut level = vec![0u32; nl.capacity()];
        for &s in &topo {
            let l = nl
                .fanins(s)
                .iter()
                .map(|f| level[f.index()] + 1)
                .max()
                .unwrap_or(0);
            level[s.index()] = l;
        }
        Ok(ObsPlan { topo, level })
    }

    /// The topological level of `s` (inputs and constants are level 0).
    #[must_use]
    pub fn level(&self, s: SignalId) -> u32 {
        self.level[s.index()]
    }
}

/// Per-vector observability computation by single-fault cone resimulation.
///
/// For a signal `a`, bit `v` of the observability row is 1 iff flipping
/// `a` under vector `v` changes at least one primary output — i.e. iff a
/// fault on `a` is observable, matching the paper's `O_a` variable.
///
/// The engine reuses internal buffers across queries; create it once per
/// simulation round and query many signals. It tallies its work in plain
/// integers and records them once, when it is dropped, on the
/// `sim.obs_queries` and `sim.obs_cone_gates` telemetry counters — so
/// every user (BPFS, the resub engine's ranking, counterexample replay)
/// is counted and no probe sits in the query path. Queries resimulate
/// only the seed's transitive fanout cone in level order ([`ObsPlan`]),
/// so the cost of a query is proportional to the cone, not the netlist.
/// The result is bit-identical to a full-netlist walk: gate evaluation
/// only requires fanins before fanouts, which any topological order —
/// global or cone-local — provides.
#[derive(Debug)]
pub struct ObservabilityEngine<'a> {
    nl: &'a Netlist,
    sim: &'a SimResult,
    plan: Arc<ObsPlan>,
    /// Evaluate the whole topological order per query instead of the
    /// cone. Same results; only the tests' reference engine sets it.
    full_walk: bool,
    /// Alternative values for cone members, stamped per query.
    alt: Vec<u64>,
    /// The inverted row a branch query feeds its consuming gate.
    flipped: Vec<u64>,
    stamp: Vec<u32>,
    current: u32,
    obs: Vec<u64>,
    /// Cone scratch, reused across queries.
    cone: Vec<SignalId>,
    /// Observability queries answered (stem + branch).
    queries: u64,
    /// Cone gates re-simulated across all queries.
    cone_gates: u64,
}

impl<'a> ObservabilityEngine<'a> {
    /// Prepares an engine for the given netlist and simulation snapshot.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    pub fn new(nl: &'a Netlist, sim: &'a SimResult) -> Result<Self, NetlistError> {
        Ok(Self::with_plan(nl, sim, Arc::new(ObsPlan::new(nl)?)))
    }

    /// Prepares an engine reusing an existing levelization of `nl`.
    ///
    /// # Panics
    ///
    /// Downstream queries misbehave if `plan` was built for a different
    /// netlist; debug builds assert the capacity matches.
    #[must_use]
    pub fn with_plan(nl: &'a Netlist, sim: &'a SimResult, plan: Arc<ObsPlan>) -> Self {
        debug_assert_eq!(plan.level.len(), nl.capacity(), "plan from another netlist");
        ObservabilityEngine {
            nl,
            sim,
            plan,
            full_walk: false,
            alt: vec![0; nl.capacity() * sim.n_words()],
            flipped: vec![0; sim.n_words()],
            stamp: vec![0; nl.capacity()],
            current: 0,
            obs: vec![0; sim.n_words()],
            cone: Vec::new(),
            queries: 0,
            cone_gates: 0,
        }
    }

    /// Prepares an engine that resimulates the whole netlist per query
    /// (the pre-levelization behaviour): the reference the cone-local
    /// default is tested against.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    #[cfg(test)]
    pub(crate) fn new_full_walk(nl: &'a Netlist, sim: &'a SimResult) -> Result<Self, NetlistError> {
        let mut engine = Self::new(nl, sim)?;
        engine.full_walk = true;
        Ok(engine)
    }

    /// Computes the observability word row of stem signal `a`: bit `v` is
    /// set iff flipping `a` under vector `v` changes some primary output.
    ///
    /// The returned slice is valid until the next call.
    pub fn observability(&mut self, a: SignalId) -> &[u64] {
        let nw = self.sim.n_words();
        self.current += 1;
        let stamp = self.current;
        self.obs.fill(0);

        // Seed: the flipped value of `a` itself.
        self.stamp[a.index()] = stamp;
        for w in 0..nw {
            self.alt[a.index() * nw + w] = !self.sim.value(a)[w];
        }
        self.propagate_and_compare(a, stamp)
    }

    /// Computes the observability of a single *branch*: only the given
    /// gate input sees the flipped value. This is the `O_a'` of the
    /// paper's input substitutions, which differs from stem observability
    /// under reconvergent fanout.
    ///
    /// # Panics
    ///
    /// Panics if the branch does not identify a live connection.
    pub fn observability_branch(&mut self, branch: Branch) -> &[u64] {
        let nw = self.sim.n_words();
        self.current += 1;
        let stamp = self.current;
        self.obs.fill(0);

        let c = branch.cell;
        let src = self
            .nl
            .branch_source(branch)
            .expect("branch must reference a live connection");
        // Seed: re-evaluate the consuming gate with the pin inverted.
        for (f, &v) in self.flipped.iter_mut().zip(self.sim.value(src)) {
            *f = !v;
        }
        self.stamp[c.index()] = stamp;
        let (sim, flipped, pin) = (self.sim, &self.flipped[..], branch.pin as usize);
        let fanins = self.nl.fanins(c).iter().enumerate();
        let fanin_rows = fanins.map(|(p, &f)| if p == pin { flipped } else { sim.value(f) });
        let row = &mut self.alt[c.index() * nw..(c.index() + 1) * nw];
        eval_gate_row(self.nl.kind(c), fanin_rows, row);
        self.propagate_and_compare(c, stamp)
    }

    /// Shared tail of the observability computations: marks the fanout
    /// cone of `seed`, resimulates it against the seeded `alt` values and
    /// ORs the primary-output differences into `obs`.
    fn propagate_and_compare(&mut self, seed: SignalId, stamp: u32) -> &[u64] {
        let nw = self.sim.n_words();
        self.queries += 1;
        // Mark the transitive fanout cone.
        let mut in_cone = std::mem::take(&mut self.cone);
        in_cone.clear();
        in_cone.push(seed);
        let mut i = 0;
        while i < in_cone.len() {
            let s = in_cone[i];
            i += 1;
            for fo in self.nl.fanouts(s) {
                if let Fanout::Gate { cell, .. } = *fo {
                    if self.stamp[cell.index()] != stamp {
                        self.stamp[cell.index()] = stamp;
                        in_cone.push(cell);
                    }
                }
            }
        }
        // Resimulate the cone against the seeded `alt` values. Any
        // topological order of the cone works; level order is one. The
        // legacy mode walks the global order instead, skipping non-cone
        // signals — identical results, O(netlist) per query.
        let plan = Arc::clone(&self.plan);
        if self.full_walk {
            for &s in &plan.topo {
                if self.stamp[s.index()] == stamp && s != seed {
                    self.eval_into_alt(s, stamp);
                }
            }
        } else {
            in_cone.sort_unstable_by_key(|&s| plan.level[s.index()]);
            for &s in &in_cone {
                if s != seed {
                    self.eval_into_alt(s, stamp);
                }
            }
        }
        self.cone_gates += (in_cone.len() - 1) as u64;
        self.cone = in_cone;
        // Compare primary outputs.
        for po in self.nl.outputs() {
            let d = po.driver();
            if self.stamp[d.index()] == stamp {
                for w in 0..nw {
                    self.obs[w] |= self.alt[d.index() * nw + w] ^ self.sim.value(d)[w];
                }
            }
        }
        &self.obs
    }

    /// Evaluates gate `s` against `alt` values of stamped fanins (and
    /// good values of everything else), storing the result in `alt`.
    fn eval_into_alt(&mut self, s: SignalId, stamp: u32) {
        let (row, alt) = split_row(&mut self.alt, self.sim.n_words(), s.index());
        let (sim, marks) = (self.sim, &self.stamp);
        let fanin_rows = self.nl.fanins(s).iter().map(|&f| {
            if marks[f.index()] == stamp {
                alt.row(f.index())
            } else {
                sim.value(f)
            }
        });
        eval_gate_row(self.nl.kind(s), fanin_rows, row);
    }
}

impl Drop for ObservabilityEngine<'_> {
    fn drop(&mut self) {
        telemetry::counter_add("sim.obs_queries", self.queries);
        telemetry::counter_add("sim.obs_cone_gates", self.cone_gates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> (Netlist, [SignalId; 6]) {
        // d = AND(a,b); e = NOT(c); f = OR(d,e)
        let mut nl = Netlist::new("fig1");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let e = nl.add_gate(GateKind::Not, &[c]).unwrap();
        let f = nl.add_gate(GateKind::Or, &[d, e]).unwrap();
        nl.add_output("f", f);
        (nl, [a, b, c, d, e, f])
    }

    #[test]
    fn simulation_matches_scalar_eval() {
        let (nl, _) = fig1();
        let vectors = VectorSet::exhaustive(3);
        let sim = simulate(&nl, &vectors).unwrap();
        for v in 0..8 {
            let ins: Vec<bool> = (0..3).map(|i| vectors.bit(i, v)).collect();
            let scalar = nl.eval(&ins).unwrap();
            for s in nl.signals() {
                if nl.kind(s) == GateKind::Input {
                    continue;
                }
                assert_eq!(sim.bit(s, v), scalar[s.index()], "signal {s} vector {v}");
            }
        }
    }

    #[test]
    fn observability_matches_definition() {
        let (nl, sigs) = fig1();
        let vectors = VectorSet::exhaustive(3);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
        let order = nl.topo_order().unwrap();
        for s in sigs {
            let obs = engine.observability(s)[0];
            for v in 0..8usize {
                let ins: Vec<bool> = (0..3).map(|i| vectors.bit(i, v)).collect();
                let base = nl.eval_outputs(&ins).unwrap();
                // Brute-force flip: recompute with s forced to its
                // complement by rebuilding values manually.
                let flipped = flipped_outputs(&nl, &order, &ins, Flip::Stem(s));
                let expect = base != flipped;
                assert_eq!(obs >> v & 1 == 1, expect, "signal {s} vector {v}");
            }
        }
    }

    /// A flipped value: a stem everywhere, or one gate pin only.
    #[derive(Clone, Copy)]
    enum Flip {
        Stem(SignalId),
        Pin(Branch),
    }

    /// The primary outputs of `nl` (levelized as `order`) under `inputs`
    /// with `flip` applied.
    fn flipped_outputs(nl: &Netlist, order: &[SignalId], inputs: &[bool], flip: Flip) -> Vec<bool> {
        let mut values = vec![false; nl.capacity()];
        for (i, &pi) in nl.inputs().iter().enumerate() {
            values[pi.index()] = inputs[i];
        }
        for &s in order {
            let kind = nl.kind(s);
            if kind != GateKind::Input {
                let ins: Vec<bool> = nl
                    .fanins(s)
                    .iter()
                    .enumerate()
                    .map(|(pin, f)| {
                        let hit =
                            matches!(flip, Flip::Pin(b) if b.cell == s && b.pin as usize == pin);
                        values[f.index()] ^ hit
                    })
                    .collect();
                values[s.index()] = kind.eval(&ins);
            }
            if matches!(flip, Flip::Stem(x) if x == s) {
                values[s.index()] = !values[s.index()];
            }
        }
        nl.outputs()
            .iter()
            .map(|po| values[po.driver().index()])
            .collect()
    }

    /// A seeded random netlist over every gate kind: AOI/OAI cells, 5-
    /// and 6-input AND/OR/XOR gates, constants, reconvergent fanout and
    /// four outputs.
    fn mixed_kinds(seed: u64) -> Netlist {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use GateKind::*;
        const SHAPES: [(GateKind, usize); 16] = [
            (And, 5),
            (Aoi21, 3),
            (Or, 6),
            (Oai22, 4),
            (Xor, 5),
            (Nand, 2),
            (Aoi22, 4),
            (Xnor, 6),
            (Oai21, 3),
            (Nor, 3),
            (And, 6),
            (Not, 1),
            (Or, 5),
            (Buf, 1),
            (Xor, 6),
            (Nand, 4),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nl = Netlist::new("mixed");
        let mut pool: Vec<SignalId> = (0..7).map(|i| nl.add_input(format!("x{i}"))).collect();
        pool.push(nl.const1());
        for i in 0..40 {
            let (kind, arity) = SHAPES[i % SHAPES.len()];
            // Mostly recent signals, so the netlist gets deep and its
            // fanout reconverges.
            let fanins: Vec<SignalId> = (0..arity)
                .map(|_| {
                    let lo = if rng.gen_range(0..4) == 0 {
                        0
                    } else {
                        pool.len().saturating_sub(10)
                    };
                    pool[rng.gen_range(lo..pool.len())]
                })
                .collect();
            pool.push(nl.add_gate(kind, &fanins).unwrap());
        }
        for (k, &s) in pool.iter().rev().step_by(5).take(4).enumerate() {
            nl.add_output(format!("y{k}"), s);
        }
        nl
    }

    #[test]
    fn mixed_kinds_simulate_and_observe_like_the_definition() {
        for seed in 0..2 {
            let nl = mixed_kinds(seed);
            assert!(
                nl.gates().any(|g| nl.fanout_count(g) > 1),
                "seed {seed}: no reconvergent fanout"
            );
            let order = nl.topo_order().unwrap();
            let mut flips: Vec<Flip> = nl.signals().map(Flip::Stem).collect();
            for g in nl.gates() {
                for pin in 0..nl.fanins(g).len() as u32 {
                    flips.push(Flip::Pin(Branch { cell: g, pin }));
                }
            }
            // Brute force per vector: good values, and whether each flip
            // changes some output.
            let n = nl.inputs().len();
            let all = VectorSet::random(n, 3 * 64, seed + 10);
            let expected: Vec<(Vec<bool>, Vec<bool>)> = (0..all.n_vectors())
                .map(|v| {
                    let ins: Vec<bool> = (0..n).map(|i| all.bit(i, v)).collect();
                    let base = nl.eval_outputs(&ins).unwrap();
                    let observed = flips
                        .iter()
                        .map(|&f| flipped_outputs(&nl, &order, &ins, f) != base)
                        .collect();
                    (nl.eval(&ins).unwrap(), observed)
                })
                .collect();
            for n_words in 1..=3 {
                let vectors = all.prefix(n_words);
                let sim = simulate(&nl, &vectors).unwrap();
                let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
                for (k, &flip) in flips.iter().enumerate() {
                    let row = match flip {
                        Flip::Stem(s) => engine.observability(s),
                        Flip::Pin(b) => engine.observability_branch(b),
                    };
                    for (v, (good, observed)) in expected.iter().enumerate().take(64 * n_words) {
                        let bit = row[v / 64] >> (v % 64) & 1 == 1;
                        assert_eq!(
                            bit, observed[k],
                            "seed {seed}, {n_words} words, flip {k}, vector {v}"
                        );
                        if let Flip::Stem(s) = flip {
                            assert_eq!(
                                sim.bit(s, v),
                                good[s.index()],
                                "seed {seed} {s} vector {v}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn and_input_observability_is_side_input() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.add_output("y", g);
        let vectors = VectorSet::exhaustive(2);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
        let mask = 0b1111u64;
        assert_eq!(engine.observability(a)[0] & mask, sim.value(b)[0] & mask);
        assert_eq!(engine.observability(b)[0] & mask, sim.value(a)[0] & mask);
        // The gate output itself is always observable (drives the PO).
        assert_eq!(engine.observability(g)[0] & mask, mask);
    }

    #[test]
    fn unobservable_signal() {
        // Signal blocked by a constant-0 AND leg is never observable.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let zero = nl.const0();
        let g = nl.add_gate(GateKind::And, &[a, zero]).unwrap();
        nl.add_output("y", g);
        let vectors = VectorSet::exhaustive(1);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
        assert_eq!(engine.observability(a)[0] & 0b11, 0);
    }

    #[test]
    fn reconvergent_fanout_handled() {
        // y = XOR(a, a) == 0; a is unobservable because both paths cancel.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b1 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let b2 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let g = nl.add_gate(GateKind::Xor, &[b1, b2]).unwrap();
        nl.add_output("y", g);
        let vectors = VectorSet::exhaustive(1);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
        // Flipping a flips both XOR legs: output unchanged.
        assert_eq!(engine.observability(a)[0] & 0b11, 0);
        // Flipping just one buffer output is observable.
        assert_eq!(engine.observability(b1)[0] & 0b11, 0b11);
    }

    #[test]
    fn branch_observability_differs_from_stem() {
        // y = XOR(a, a): the stem is never observable (flips cancel), but
        // each individual branch is always observable.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Xor, &[a, a]).unwrap();
        nl.add_output("y", g);
        let vectors = VectorSet::exhaustive(1);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
        assert_eq!(engine.observability(a)[0] & 0b11, 0);
        let b0 = engine.observability_branch(Branch { cell: g, pin: 0 })[0];
        let b1 = engine.observability_branch(Branch { cell: g, pin: 1 })[0];
        assert_eq!(b0 & 0b11, 0b11);
        assert_eq!(b1 & 0b11, 0b11);
    }

    #[test]
    fn branch_observability_of_and_side_input() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.add_output("y", g);
        let vectors = VectorSet::exhaustive(2);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
        // For a single-fanout signal, branch and stem observability agree.
        let stem = engine.observability(a)[0] & 0b1111;
        let br = engine.observability_branch(Branch { cell: g, pin: 0 })[0] & 0b1111;
        assert_eq!(stem, br);
    }

    #[test]
    fn cone_local_matches_full_walk() {
        // A reconvergent multi-output circuit exercising stem and branch
        // queries: cone-local evaluation must be bit-identical to the
        // full-topological-walk baseline for every signal.
        let mut nl = Netlist::new("t");
        let ins: Vec<SignalId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g1 = nl.add_gate(GateKind::And, &[ins[0], ins[1]]).unwrap();
        let g2 = nl.add_gate(GateKind::Or, &[g1, ins[2]]).unwrap();
        let g3 = nl.add_gate(GateKind::Xor, &[g1, ins[3]]).unwrap();
        let g4 = nl.add_gate(GateKind::Nand, &[g2, g3]).unwrap();
        let g5 = nl.add_gate(GateKind::Nor, &[g4, ins[4]]).unwrap();
        let g6 = nl.add_gate(GateKind::And, &[g2, ins[5]]).unwrap();
        nl.add_output("y1", g5);
        nl.add_output("y2", g6);
        let vectors = VectorSet::random(6, 256, 7);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut cone = ObservabilityEngine::new(&nl, &sim).unwrap();
        let mut full = ObservabilityEngine::new_full_walk(&nl, &sim).unwrap();
        for s in nl.signals() {
            assert_eq!(
                cone.observability(s),
                full.observability(s),
                "stem {s} differs"
            );
        }
        for g in [g1, g2, g3, g4, g5, g6] {
            for pin in 0..nl.fanins(g).len() {
                let br = Branch {
                    cell: g,
                    pin: pin as u32,
                };
                assert_eq!(
                    cone.observability_branch(br).to_vec(),
                    full.observability_branch(br).to_vec(),
                    "branch {g}/{pin} differs"
                );
            }
        }
    }

    #[test]
    fn shared_plan_across_engines() {
        let (nl, sigs) = fig1();
        let vectors = VectorSet::random(3, 128, 5);
        let sim = simulate(&nl, &vectors).unwrap();
        let plan = std::sync::Arc::new(ObsPlan::new(&nl).unwrap());
        let mut own = ObservabilityEngine::new(&nl, &sim).unwrap();
        let mut shared = ObservabilityEngine::with_plan(&nl, &sim, plan);
        for s in sigs {
            assert_eq!(own.observability(s), shared.observability(s));
        }
    }

    #[test]
    fn resimulate_word_matches_full_simulation() {
        let (nl, sigs) = fig1();
        let plan = ObsPlan::new(&nl).unwrap();
        let mut vectors = VectorSet::random(3, 192, 9);
        let mut sim = simulate(&nl, &vectors).unwrap();
        vectors.set_vector(70, &[true, true, false]);
        vectors.set_vector(71, &[false, false, false]);
        sim.resimulate_word(&nl, &plan, &vectors, 1);
        let full = simulate(&nl, &vectors).unwrap();
        for s in sigs {
            assert_eq!(sim.value(s), full.value(s), "signal {s}");
        }
    }

    #[test]
    fn multiple_queries_reuse_buffers() {
        let (nl, sigs) = fig1();
        let vectors = VectorSet::random(3, 128, 1);
        let sim = simulate(&nl, &vectors).unwrap();
        let mut engine = ObservabilityEngine::new(&nl, &sim).unwrap();
        let first: Vec<u64> = engine.observability(sigs[0]).to_vec();
        let _second = engine.observability(sigs[1]);
        let again: Vec<u64> = engine.observability(sigs[0]).to_vec();
        assert_eq!(first, again);
    }
}
