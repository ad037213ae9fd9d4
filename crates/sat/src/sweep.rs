//! Simulation-guided equivalence checking by sweeping into one merged
//! graph.
//!
//! The plain miter of [`crate::check_equiv`] hands the solver one
//! monolithic formula; on netlists with 10⁵ gates that search rarely
//! terminates. Sweeping exploits that the two sides are usually *mostly*
//! identical (the input and output of a mapping or optimization run):
//!
//! 1. both netlists are simulated bit-parallel on the same random
//!    vectors; signals with equal (or complementary) signatures are
//!    *candidate* equivalences;
//! 2. the reference is swept against itself first and then the other
//!    netlist against it, in topological order: a gate of the same kind
//!    over the same representatives as an earlier one merges at once,
//!    any other candidate meets the earliest signal with its signature —
//!    its *representative*;
//! 3. each candidate is proven locally on the merged graph, in which
//!    every fanin is replaced by its representative: by a 64-bit truth
//!    table when both cones close over at most six leaves, otherwise by a
//!    conflict-capped SAT query on a window of the two cones with its
//!    boundary left free;
//! 4. only what the local proofs cannot settle — mostly coincidental
//!    signature matches — goes to the whole-netlist formula, which is
//!    built lazily, cone by cone, as queries need it;
//! 5. a proven candidate is merged into its representative, so the cones
//!    of later candidates close over it.
//!
//! The verdict is exact whatever the vectors and caps. A merge is always
//! a proof: equal truth tables over free leaves, or an unsatisfiable
//! window whose free boundary over-approximates the cone. A refutation
//! is always a real input vector: a simulated one, a truth table or
//! window that closed at the primary inputs, or a model of the
//! whole-netlist formula. A candidate nothing decides stays unmerged,
//! which costs later candidates locality, never soundness.

use crate::encode::{encode_gate, encode_xor2};
use crate::miter::check_interfaces;
use crate::{EquivError, Lit, SatResult, Solver, Var};
use netlist::{GateKind, Netlist, SignalId};
use sim::{eval_gate_row, split_row, VectorSet};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Most leaves a truth-table proof closes over: 2⁶ rows fill one word.
const TABLE_LEAVES: usize = 6;
/// Most gates a truth-table attempt expands before a window takes over.
const TABLE_GATES: usize = 32;
/// Most merged-graph gates a window encodes.
const WINDOW_GATES: usize = 400;
/// Conflict cap of one window query.
const WINDOW_CONFLICTS: u64 = 1_000;
/// Conflict cap of one candidate query on the whole-netlist formula. A
/// candidate that reaches it stays unmerged; output checks are uncapped.
const CANDIDATE_CONFLICTS: u64 = 2_000;

/// The truth table of leaf `i` over six variables.
const LEAF_TABLES: [u64; TABLE_LEAVES] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// What a sweep did, for pipeline accounting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Signature-matched candidate pairs tried.
    pub candidates: usize,
    /// Candidates proven equal (or complementary) to their representative
    /// and merged into it.
    pub merged: usize,
    /// Candidates shown different (the signature match was coincidental).
    pub refuted: usize,
    /// Candidates left unmerged at the whole-netlist conflict cap.
    pub gave_up: usize,
    /// Merges proven by a truth table over at most six leaves, or by
    /// structure (the same gate over the same representatives).
    pub tt_merged: usize,
    /// Merges proven by a SAT query on a window.
    pub window_merged: usize,
    /// Queries on the whole-netlist formula, output checks included.
    pub sat_calls: usize,
}

/// Checks combinational equivalence by simulation-guided sweeping
/// (inputs and outputs matched positionally). `n_vectors` random vectors
/// drawn from `seed` guide candidate pairing; more vectors mean fewer
/// coincidental matches. The result is exact regardless of the sample.
///
/// # Errors
///
/// [`EquivError::InterfaceMismatch`] if the interfaces differ, or
/// [`EquivError::Netlist`] if either netlist is cyclic.
pub fn check_equiv_sweep(
    a: &Netlist,
    b: &Netlist,
    n_vectors: usize,
    seed: u64,
) -> Result<bool, EquivError> {
    check_equiv_sweep_stats(a, b, n_vectors, seed).map(|(eq, _)| eq)
}

/// [`check_equiv_sweep`] with the sweep's work breakdown.
///
/// # Errors
///
/// See [`check_equiv_sweep`].
pub fn check_equiv_sweep_stats(
    a: &Netlist,
    b: &Netlist,
    n_vectors: usize,
    seed: u64,
) -> Result<(bool, SweepStats), EquivError> {
    check_interfaces(a, b)?;
    let mut sw = Sweep::new(a, b)?;
    let vectors = VectorSet::random(a.inputs().len(), n_vectors.max(64), seed);
    let (sigs, phase) = sw.simulate(&vectors);
    let nw = vectors.n_words();
    let sig = |n: usize| &sigs[n * nw..(n + 1) * nw];

    // Gate kind and fanin representatives → the first node built so, and
    // normalized signature → the first node with it, the class's
    // representative. Inputs are representatives (nothing earlier can
    // equal them), so buffers of inputs merge into them.
    let mut structure: HashMap<(GateKind, Vec<Lit>), usize> = HashMap::new();
    let mut reps: HashMap<&[u64], usize> = HashMap::new();
    for i in 0..sw.order.len() {
        let n = sw.order[i];
        if sw.kind(n) == GateKind::Input {
            reps.entry(sig(n)).or_insert(n);
            continue;
        }
        // The same gate over the same representatives is the same
        // function: merged without a query.
        match structure.entry(sw.structure_key(n)) {
            Entry::Occupied(e) => {
                sw.repr[n] = sw.repr[*e.get()];
                sw.stats.candidates += 1;
                sw.stats.merged += 1;
                sw.stats.tt_merged += 1;
                continue;
            }
            Entry::Vacant(e) => {
                e.insert(n);
            }
        }
        let r = match reps.entry(sig(n)) {
            Entry::Vacant(e) => {
                e.insert(n);
                continue;
            }
            Entry::Occupied(e) => *e.get(),
        };
        sw.stats.candidates += 1;
        let inv = phase[n] != phase[r];
        match sw.prove(n, r, inv, CANDIDATE_CONFLICTS) {
            Verdict::Proved(how) => {
                sw.repr[n] = node_lit(r, inv);
                sw.stats.merged += 1;
                match how {
                    Proof::Table => sw.stats.tt_merged += 1,
                    Proof::Window => sw.stats.window_merged += 1,
                    Proof::Formula => {}
                }
            }
            Verdict::Refuted => sw.stats.refuted += 1,
            Verdict::Unknown => sw.stats.gave_up += 1,
        }
    }

    // Whether the node a literal stands for simulated to the complement
    // of its normalized signature.
    let flipped = |l: Lit| phase[l.var().index()] == l.is_pos();
    for (pa, pb) in a.outputs().iter().zip(b.outputs()) {
        let la = sw.repr[pa.driver().index()];
        let lb = sw.repr[sw.off + pb.driver().index()];
        let (ra, rb) = (la.var().index(), lb.var().index());
        if ra == rb {
            if la != lb {
                return Ok((false, sw.stats));
            }
            continue;
        }
        // Values that differ on a simulated vector are a counterexample.
        if sig(ra) != sig(rb) || flipped(la) != flipped(lb) {
            return Ok((false, sw.stats));
        }
        let inv = la.is_pos() != lb.is_pos();
        let (n, r) = if sw.pos[ra] > sw.pos[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        match sw.prove(n, r, inv, u64::MAX) {
            Verdict::Proved(_) => {}
            Verdict::Refuted => return Ok((false, sw.stats)),
            Verdict::Unknown => unreachable!("uncapped queries always conclude"),
        }
    }
    Ok((true, sw.stats))
}

/// How a candidate was settled.
enum Verdict {
    Proved(Proof),
    Refuted,
    Unknown,
}

/// Which rule proved a merge.
enum Proof {
    Table,
    Window,
    Formula,
}

/// A literal over nodes: the node is the variable, the sign says whether
/// the node is taken complemented.
fn node_lit(node: usize, inverted: bool) -> Lit {
    Lit::with_sign(Var::from_index(node), !inverted)
}

/// Both netlists as one graph and its representative map. Node `i` is
/// signal slot `i` of `a`, node `off + i` slot `i` of `b`; `b`'s inputs
/// are represented by `a`'s.
struct Sweep<'n> {
    a: &'n Netlist,
    b: &'n Netlist,
    off: usize,
    /// `a`'s topological order, then `b`'s without its inputs.
    order: Vec<usize>,
    /// Each node's index in `order`.
    pos: Vec<usize>,
    /// Each node's representative. A representative is its own and never
    /// changes once set, because nodes are visited in `order` and merge
    /// only into earlier ones.
    repr: Vec<Lit>,
    /// Marks for cone walks, reused across proofs: `mark[n] == epoch`
    /// means seen by the current walk.
    mark: Vec<u32>,
    epoch: u32,
    /// Truth tables and window variables, indexed by node and reused
    /// across proofs.
    table: Vec<u64>,
    local: Vec<Var>,
    /// The whole-netlist formula over representatives, built lazily.
    global: Solver,
    global_var: Vec<Option<Var>>,
    stats: SweepStats,
}

impl<'n> Sweep<'n> {
    fn new(a: &'n Netlist, b: &'n Netlist) -> Result<Self, EquivError> {
        let off = a.capacity();
        let nodes = off + b.capacity();
        let order: Vec<usize> = a
            .topo_order()?
            .into_iter()
            .map(SignalId::index)
            .chain(
                b.topo_order()?
                    .into_iter()
                    .filter(|&s| b.kind(s) != GateKind::Input)
                    .map(|s| off + s.index()),
            )
            .collect();
        let mut pos = vec![usize::MAX; nodes];
        for (i, &n) in order.iter().enumerate() {
            pos[n] = i;
        }
        let mut repr: Vec<Lit> = (0..nodes).map(|n| node_lit(n, false)).collect();
        for (pa, pb) in a.inputs().iter().zip(b.inputs()) {
            repr[off + pb.index()] = node_lit(pa.index(), false);
        }
        Ok(Sweep {
            a,
            b,
            off,
            order,
            pos,
            repr,
            mark: vec![0; nodes],
            epoch: 0,
            table: vec![0; nodes],
            local: vec![Var::from_index(0); nodes],
            global: Solver::new(),
            global_var: vec![None; nodes],
            stats: SweepStats::default(),
        })
    }

    fn kind(&self, n: usize) -> GateKind {
        if n < self.off {
            self.a.kind(SignalId::from_index(n))
        } else {
            self.b.kind(SignalId::from_index(n - self.off))
        }
    }

    /// The fanins of node `n` and the node id of their netlist's slot 0.
    fn fanins(&self, n: usize) -> (&'n [SignalId], usize) {
        if n < self.off {
            (self.a.fanins(SignalId::from_index(n)), 0)
        } else {
            (self.b.fanins(SignalId::from_index(n - self.off)), self.off)
        }
    }

    /// Node `n`'s gate kind and fanin representatives, in pin order or,
    /// for commutative kinds, sorted.
    fn structure_key(&self, n: usize) -> (GateKind, Vec<Lit>) {
        let kind = self.kind(n);
        let (fanins, base) = self.fanins(n);
        let mut key: Vec<Lit> = fanins.iter().map(|f| self.repr[base + f.index()]).collect();
        if kind.is_commutative() {
            key.sort_unstable();
        }
        (kind, key)
    }

    /// Simulates every node on `vectors` and returns the signatures,
    /// normalized so a signal and its complement share one (first bit
    /// clear), with the flag telling which nodes were complemented.
    fn simulate(&self, vectors: &VectorSet) -> (Vec<u64>, Vec<bool>) {
        let nw = vectors.n_words();
        let mut sigs = vec![0u64; self.repr.len() * nw];
        for (i, (pa, pb)) in self.a.inputs().iter().zip(self.b.inputs()).enumerate() {
            for n in [pa.index(), self.off + pb.index()] {
                sigs[n * nw..(n + 1) * nw].copy_from_slice(vectors.input_words(i));
            }
        }
        for &n in &self.order {
            let kind = self.kind(n);
            if kind == GateKind::Input {
                continue;
            }
            let (fanins, base) = self.fanins(n);
            let (row, rows) = split_row(&mut sigs, nw, n);
            eval_gate_row(kind, fanins.iter().map(|f| rows.row(base + f.index())), row);
        }
        let phase: Vec<bool> = (0..self.repr.len())
            .map(|n| sigs[n * nw] & 1 == 1)
            .collect();
        for (n, &flip) in phase.iter().enumerate() {
            if flip {
                for w in &mut sigs[n * nw..(n + 1) * nw] {
                    *w = !*w;
                }
            }
        }
        (sigs, phase)
    }

    /// Decides whether `n == r ^ inv`, cheapest rule first. The
    /// whole-netlist query gives up after `cap` conflicts.
    fn prove(&mut self, n: usize, r: usize, inv: bool, cap: u64) -> Verdict {
        match self.by_table(n, r, inv) {
            Some(true) => return Verdict::Proved(Proof::Table),
            Some(false) => return Verdict::Refuted,
            None => {}
        }
        match self.by_window(n, r, inv) {
            Some(true) => return Verdict::Proved(Proof::Window),
            Some(false) => return Verdict::Refuted,
            None => {}
        }
        match self.by_formula(n, r, inv, cap) {
            Some(true) => Verdict::Proved(Proof::Formula),
            Some(false) => Verdict::Refuted,
            None => Verdict::Unknown,
        }
    }

    fn new_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// Truth-table rule: expands the two cones on the merged graph, latest
    /// gate first, and compares their tables whenever they close over at
    /// most six leaves. `Some(true)` is a proof; `Some(false)` only comes
    /// when the leaves are primary inputs, where the tables are exact.
    fn by_table(&mut self, n: usize, r: usize, inv: bool) -> Option<bool> {
        let epoch = self.new_epoch();
        self.mark[n] = epoch;
        self.mark[r] = epoch;
        let mut leaves = vec![n, r];
        let mut gates = Vec::new();
        loop {
            let latest = leaves
                .iter()
                .enumerate()
                .filter(|&(_, &x)| self.kind(x) != GateKind::Input)
                .max_by_key(|&(_, &x)| self.pos[x])
                .map(|(i, _)| i);
            let Some(i) = latest else {
                // Closed at the primary inputs: the tables are exact.
                return Some(self.tables_agree(&leaves, &gates, n, r, inv));
            };
            if gates.len() == TABLE_GATES {
                return None;
            }
            let x = leaves.swap_remove(i);
            gates.push(x);
            let (fanins, base) = self.fanins(x);
            for f in fanins {
                let y = self.repr[base + f.index()].var().index();
                if self.mark[y] != epoch {
                    self.mark[y] = epoch;
                    leaves.push(y);
                }
            }
            if leaves.len() > TABLE_LEAVES {
                return None;
            }
            if self.tables_agree(&leaves, &gates, n, r, inv) {
                return Some(true);
            }
        }
    }

    /// Evaluates `gates` (in reverse expansion order, so fanins first)
    /// over free `leaves` and compares `n` with `r ^ inv`.
    fn tables_agree(
        &mut self,
        leaves: &[usize],
        gates: &[usize],
        n: usize,
        r: usize,
        inv: bool,
    ) -> bool {
        for (&x, &t) in leaves.iter().zip(&LEAF_TABLES) {
            self.table[x] = t;
        }
        let mut words = Vec::with_capacity(4);
        for &x in gates.iter().rev() {
            let (fanins, base) = self.fanins(x);
            words.clear();
            words.extend(fanins.iter().map(|f| {
                let l = self.repr[base + f.index()];
                let t = self.table[l.var().index()];
                if l.is_pos() {
                    t
                } else {
                    !t
                }
            }));
            self.table[x] = self.kind(x).eval_words(&words);
        }
        let flip = if inv { !0 } else { 0 };
        self.table[n] == self.table[r] ^ flip
    }

    /// Window rule: encodes up to [`WINDOW_GATES`] gates of the two cones,
    /// latest first, into a fresh solver with the rest of the cones left
    /// as free variables, and asks for an assignment where `n` and
    /// `r ^ inv` differ. Unsatisfiable is a proof, because free variables
    /// only add behaviours; satisfiable refutes only when the window
    /// closed at the primary inputs.
    fn by_window(&mut self, n: usize, r: usize, inv: bool) -> Option<bool> {
        let epoch = self.new_epoch();
        let mut frontier: BinaryHeap<(usize, usize)> = BinaryHeap::new();
        let mut inputs = Vec::new();
        let mut gates = Vec::new();
        for x in [n, r] {
            self.mark[x] = epoch;
            if self.kind(x) == GateKind::Input {
                inputs.push(x);
            } else {
                frontier.push((self.pos[x], x));
            }
        }
        while gates.len() < WINDOW_GATES {
            let Some((_, x)) = frontier.pop() else { break };
            gates.push(x);
            let (fanins, base) = self.fanins(x);
            for f in fanins {
                let y = self.repr[base + f.index()].var().index();
                if self.mark[y] != epoch {
                    self.mark[y] = epoch;
                    if self.kind(y) == GateKind::Input {
                        inputs.push(y);
                    } else {
                        frontier.push((self.pos[y], y));
                    }
                }
            }
        }
        let closed = frontier.is_empty();

        let mut solver = Solver::new();
        for x in inputs
            .into_iter()
            .chain(frontier.into_iter().map(|(_, x)| x))
        {
            self.local[x] = solver.new_var();
        }
        let mut ins = Vec::with_capacity(4);
        for &x in gates.iter().rev() {
            let (fanins, base) = self.fanins(x);
            ins.clear();
            ins.extend(fanins.iter().map(|f| {
                let l = self.repr[base + f.index()];
                Lit::with_sign(self.local[l.var().index()], l.is_pos())
            }));
            let y = solver.new_var();
            encode_gate(&mut solver, Lit::pos(y), self.kind(x), &ins);
            self.local[x] = y;
        }
        let differ = Lit::pos(solver.new_var());
        encode_xor2(
            &mut solver,
            differ,
            Lit::pos(self.local[n]),
            Lit::with_sign(self.local[r], !inv),
        );
        match solver.solve_limited(&[differ], WINDOW_CONFLICTS) {
            Some(SatResult::Unsat) => Some(true),
            Some(SatResult::Sat(_)) if closed => Some(false),
            _ => None,
        }
    }

    /// Whole-netlist rule: asks the lazily built formula of both cones for
    /// an input vector where `n` and `r ^ inv` differ, giving up after
    /// `cap` conflicts.
    fn by_formula(&mut self, n: usize, r: usize, inv: bool, cap: u64) -> Option<bool> {
        self.stats.sat_calls += 1;
        let vn = self.global_var(n);
        let vr = self.global_var(r);
        let differ = Lit::pos(self.global.new_var());
        encode_xor2(
            &mut self.global,
            differ,
            Lit::pos(vn),
            Lit::with_sign(vr, !inv),
        );
        match self.global.solve_limited(&[differ], cap)? {
            SatResult::Unsat => Some(true),
            SatResult::Sat(_) => Some(false),
        }
    }

    /// The whole-netlist formula's variable of node `n`, encoding its cone
    /// on the merged graph first where it is missing.
    fn global_var(&mut self, n: usize) -> Var {
        let mut stack = vec![n];
        while let Some(&x) = stack.last() {
            if self.global_var[x].is_some() {
                stack.pop();
                continue;
            }
            let (fanins, base) = self.fanins(x);
            let before = stack.len();
            for f in fanins {
                let y = self.repr[base + f.index()].var().index();
                if self.global_var[y].is_none() {
                    stack.push(y);
                }
            }
            if stack.len() > before {
                continue;
            }
            stack.pop();
            let ins: Vec<Lit> = fanins
                .iter()
                .map(|f| {
                    let l = self.repr[base + f.index()];
                    Lit::with_sign(
                        self.global_var[l.var().index()].expect("fanins first"),
                        l.is_pos(),
                    )
                })
                .collect();
            let kind = self.kind(x);
            let y = self.global.new_var();
            encode_gate(&mut self.global, Lit::pos(y), kind, &ins);
            self.global_var[x] = Some(y);
        }
        self.global_var[n].expect("just encoded")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wide AND two ways: a balanced tree and a linear chain.
    fn and_pair(n: usize) -> (Netlist, Netlist) {
        let mut t = Netlist::new("tree");
        let ins: Vec<_> = (0..n).map(|i| t.add_input(format!("x{i}"))).collect();
        let mut layer = ins;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    t.add_gate(GateKind::And, pair).unwrap()
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        t.add_output("y", layer[0]);

        let mut c = Netlist::new("chain");
        let ins: Vec<_> = (0..n).map(|i| c.add_input(format!("x{i}"))).collect();
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = c.add_gate(GateKind::And, &[acc, x]).unwrap();
        }
        c.add_output("y", acc);
        (t, c)
    }

    #[test]
    fn equivalent_restructured_netlists_verify() {
        let (t, c) = and_pair(16);
        let (eq, stats) = check_equiv_sweep_stats(&t, &c, 256, 1).unwrap();
        assert!(eq);
        // The output itself has a matching signature and must merge.
        assert!(stats.merged >= 1, "{stats:?}");
    }

    #[test]
    fn inequivalent_netlists_refute() {
        let (t, mut c) = and_pair(8);
        // Turn the final AND into NAND.
        let drv = c.outputs()[0].driver();
        let fanins = c.fanins(drv).to_vec();
        let nand = c.add_gate(GateKind::Nand, &fanins).unwrap();
        c.substitute_stem(drv, nand).unwrap();
        c.prune_dangling();
        assert!(!check_equiv_sweep(&t, &c, 256, 1).unwrap());
    }

    #[test]
    fn identical_netlists_merge_everything() {
        let (t, _) = and_pair(16);
        let (eq, stats) = check_equiv_sweep_stats(&t, &t.clone(), 128, 7).unwrap();
        assert!(eq);
        // Every gate of the copy is a candidate. Deep AND gates have
        // (coincidentally shared) near-zero signatures, so some gates of
        // the reference meet an inequivalent representative and are
        // refuted — but each candidate is merged or refuted, none is
        // given up, and no gate needs the whole-netlist formula.
        assert_eq!(stats.merged + stats.refuted, stats.candidates);
        assert!(stats.merged >= t.stats().gates);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(stats.sat_calls, 0, "{stats:?}");
    }

    #[test]
    fn inverted_signals_merge_through_complement_signatures() {
        // b computes the same output via double negation internals.
        let mut a = Netlist::new("a");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let g = a.add_gate(GateKind::And, &[x, y]).unwrap();
        a.add_output("o", g);

        let mut b = Netlist::new("b");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let n = b.add_gate(GateKind::Nand, &[x, y]).unwrap();
        let g = b.add_gate(GateKind::Not, &[n]).unwrap();
        b.add_output("o", g);

        let (eq, stats) = check_equiv_sweep_stats(&a, &b, 64, 3).unwrap();
        assert!(eq);
        // The NAND merges as the complement of a's AND, the NOT as a's AND.
        assert_eq!(stats.tt_merged, 2, "{stats:?}");

        // An output that is the complement of the reference's is refuted
        // without any search.
        let mut c = b.clone();
        let drv = c.outputs()[0].driver();
        let nand = c.fanins(drv)[0];
        c.substitute_stem(drv, nand).unwrap();
        c.prune_dangling();
        let (eq, stats) = check_equiv_sweep_stats(&a, &c, 64, 3).unwrap();
        assert!(!eq);
        assert_eq!(stats.sat_calls, 0);
    }

    #[test]
    fn duplicate_logic_in_the_reference_shares_a_representative() {
        // The reference computes x&y twice and ORs the copies; the other
        // side computes x&y once. Only after the reference's self-sweep
        // merges its copies does the OR close over two leaves.
        let mut a = Netlist::new("dup");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let g1 = a.add_gate(GateKind::And, &[x, y]).unwrap();
        let g2 = a.add_gate(GateKind::And, &[y, x]).unwrap();
        let o = a.add_gate(GateKind::Or, &[g1, g2]).unwrap();
        a.add_output("o", o);
        a.add_output("p", g2);

        let mut b = Netlist::new("once");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let g = b.add_gate(GateKind::And, &[x, y]).unwrap();
        b.add_output("o", g);
        b.add_output("p", g);

        let (eq, stats) = check_equiv_sweep_stats(&a, &b, 64, 5).unwrap();
        assert!(eq);
        // g2 and the OR merge into g1 within the reference, then b's AND.
        assert_eq!(stats.merged, 3, "{stats:?}");
        assert_eq!(stats.sat_calls, 0);
    }

    #[test]
    fn cones_over_more_than_six_leaves_merge_by_window() {
        let (t, c) = and_pair(8);
        let (eq, stats) = check_equiv_sweep_stats(&t, &c, 256, 1).unwrap();
        assert!(eq);
        // The outputs close over eight inputs: too many for a table.
        assert!(stats.window_merged >= 1, "{stats:?}");
        assert_eq!(stats.sat_calls, 0, "{stats:?}");
    }

    /// Parity of `n` inputs as a chain, in input order or reversed: no
    /// internal signal of one is a signal of the other.
    fn parity_chain(n: usize, reversed: bool) -> Netlist {
        let mut nl = Netlist::new("parity");
        let ins: Vec<_> = (0..n).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut order: Vec<_> = ins.clone();
        if reversed {
            order.reverse();
        }
        let mut acc = order[0];
        for &x in &order[1..] {
            acc = nl.add_gate(GateKind::Xor, &[acc, x]).unwrap();
        }
        nl.add_output("p", acc);
        nl
    }

    #[test]
    fn cones_past_the_window_cap_go_to_the_whole_formula() {
        let n = WINDOW_GATES + 50;
        let (a, b) = (parity_chain(n, false), parity_chain(n, true));
        let (eq, stats) = check_equiv_sweep_stats(&a, &b, 64, 2).unwrap();
        assert!(eq);
        // The window stops at its cap with a free boundary, so its
        // satisfiable answer is no refutation: the whole formula decides.
        assert_eq!(stats.window_merged, 0, "{stats:?}");
        assert!(stats.sat_calls >= 1, "{stats:?}");

        let mut c = parity_chain(n, true);
        let drv = c.outputs()[0].driver();
        let fanins = c.fanins(drv).to_vec();
        let flipped = c.add_gate(GateKind::Xnor, &fanins).unwrap();
        c.substitute_stem(drv, flipped).unwrap();
        c.prune_dangling();
        assert!(!check_equiv_sweep(&a, &c, 64, 2).unwrap());
    }

    /// Outputs `p = AND(x_0..x_23)` and `q`, an AND of 24 parities of 20
    /// inputs each, in the given order. Both are zero on every random
    /// vector, so their signatures match, but `q`'s cone passes the window
    /// cap: only the whole formula can tell them apart.
    fn wide_ands(swap: bool) -> Netlist {
        let mut nl = Netlist::new("wide");
        let xs: Vec<_> = (0..24).map(|i| nl.add_input(format!("x{i}"))).collect();
        let ys: Vec<_> = (0..24 * 20)
            .map(|i| nl.add_input(format!("y{i}")))
            .collect();
        let p = nl.add_gate(GateKind::And, &xs).unwrap();
        let parities: Vec<_> = ys
            .chunks(20)
            .map(|chunk| {
                let mut acc = chunk[0];
                for &y in &chunk[1..] {
                    acc = nl.add_gate(GateKind::Xor, &[acc, y]).unwrap();
                }
                acc
            })
            .collect();
        let q = nl.add_gate(GateKind::And, &parities).unwrap();
        let (first, second) = if swap { (q, p) } else { (p, q) };
        nl.add_output("first", first);
        nl.add_output("second", second);
        nl
    }

    #[test]
    fn coincidental_matches_are_refuted_by_the_whole_formula() {
        let a = wide_ands(false);
        let (eq, stats) = check_equiv_sweep_stats(&a, &a.clone(), 256, 9).unwrap();
        assert!(eq);
        // q meets p as a candidate in the reference's self-sweep.
        assert_eq!((stats.refuted, stats.sat_calls), (1, 1), "{stats:?}");

        // Swapping the outputs keeps every signature and flips the verdict.
        let (eq, stats) = check_equiv_sweep_stats(&a, &wide_ands(true), 256, 9).unwrap();
        assert!(!eq);
        assert_eq!(stats.sat_calls, 2, "{stats:?}");
    }

    #[test]
    fn agrees_with_plain_miter_on_interface_errors() {
        let (t, _) = and_pair(4);
        let mut one = Netlist::new("one");
        let x = one.add_input("x");
        one.add_output("o", x);
        assert!(matches!(
            check_equiv_sweep(&t, &one, 64, 0),
            Err(EquivError::InterfaceMismatch { .. })
        ));
    }
}
