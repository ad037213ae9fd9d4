//! The persistent, edit-driven timing engine.
//!
//! [`TimingGraph`] owns per-signal arrival times, path tails (the longest
//! delay from a signal to any primary output) and cached pin delays. It is
//! built once with [`TimingGraph::from_scratch`] (or
//! [`TimingGraph::from_scratch_region`] under boundary constraints) and
//! then kept in sync with netlist edits by [`TimingGraph::update`], which
//! consumes the [`EditDelta`] journal of `netlist` and re-propagates
//! timing only through the cones reachable from the touched signals:
//!
//! * **levels** are repaired first with a chaotic worklist (the netlist is
//!   a DAG, so the iteration reaches the unique fixpoint);
//! * **arrivals** flow forward through the transitive fanout of dirty
//!   signals, in level order, stopping where a recomputed arrival is
//!   unchanged;
//! * **tails** flow backward through the transitive fanin of signals whose
//!   fanout structure or pin delays changed, again stopping where a tail
//!   is unchanged.
//!
//! Every update is exact: it leaves the same bits a from-scratch analysis
//! of the edited netlist computes.
//!
//! Required times are *derived*: `required(s) = po_req − tail(s)`. Storing
//! tails instead of absolute required times is what makes the engine
//! incremental — when the circuit delay moves (every accepted delay
//! rewrite), every required time in the circuit shifts by the same
//! amount, and the tail representation absorbs that global shift in O(1)
//! instead of re-propagating the whole backward pass.

use crate::DelayModel;
use netlist::{EditDelta, Fanout, Netlist, NetlistError, SignalId, SignalSet};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Tolerance for "critical" comparisons, relative to the circuit delay.
const REL_EPS: f64 = 1e-9;

/// A persistent static-timing view of one evolving netlist.
///
/// Arrival times propagate forward from primary inputs (arrival 0 unless
/// constrained); required times propagate backward from primary outputs,
/// whose required time is the circuit delay unless constrained. A signal
/// is *critical* when its slack is (numerically) zero — critical gates
/// are the only `a`-signal candidates of the paper's delay-reduction
/// phase.
///
/// # Example
///
/// ```
/// use netlist::{GateKind, Netlist};
/// use timing::{TimingGraph, UnitDelay};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_gate(GateKind::Not, &[a])?;
/// nl.add_output("y", g);
/// let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay)?;
/// assert_eq!(tg.circuit_delay(), 1.0);
///
/// // Edit under a journal, then update incrementally.
/// nl.record_edits();
/// let h = nl.add_gate(GateKind::Buf, &[g])?;
/// nl.add_output("z", h);
/// let delta = nl.take_delta();
/// tg.update(&nl, &UnitDelay, &delta);
/// assert_eq!(tg.circuit_delay(), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimingGraph {
    arrival: Vec<f64>,
    /// Longest delay from the signal to any primary output;
    /// `NEG_INFINITY` for signals from which no output is reachable.
    tail: Vec<f64>,
    /// Topological level: 0 for sources, `1 + max(fanin levels)` for
    /// gates. Orders the update worklists.
    level: Vec<u32>,
    /// Cached per-pin block delays of every gate (empty for sources and
    /// dead slots). Queries never consult the delay model.
    delays: Vec<Vec<f64>>,
    /// Deduplicated primary-output drivers, cached so slack queries need
    /// no netlist.
    po_drivers: Vec<SignalId>,
    circuit_delay: f64,
    eps: f64,
    /// The base output required time that `required` subtracts tails
    /// from: the circuit delay, or the largest per-output requirement.
    po_req: f64,
    /// Per-primary-output required times (indexed by PO position); `None`
    /// requires every output at the circuit delay.
    po_required_times: Option<Vec<f64>>,
    /// Backward-pass seed per PO index (`po_req − required(po_j)`).
    /// Empty without per-output constraints, meaning "seed 0 everywhere".
    po_seed: Vec<f64>,
    /// Cached effective required time per `po_drivers` entry.
    endpoint_req: Vec<f64>,
    input_arrivals: Option<Vec<f64>>,
}

impl TimingGraph {
    /// Builds the graph with a full forward/backward analysis under the
    /// default boundary conditions: inputs arrive at 0, outputs are
    /// required at the circuit delay (so the worst paths have zero
    /// slack).
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    pub fn from_scratch<M: DelayModel>(
        nl: &Netlist,
        model: &M,
    ) -> Result<TimingGraph, NetlistError> {
        Self::analyzed(nl, model, None, None)
    }

    /// Builds the graph under *per-output* boundary constraints.
    /// `input_arrivals[i]` is the arrival time of primary input `i`
    /// (default 0); `po_required[j]` is the required time of primary
    /// output `j`. An extracted partition region passes the parent
    /// arrival of the frozen boundary signal feeding each input and the
    /// parent required time of the one each output drives, so downstream
    /// path tails outside the region keep shaping criticality inside it;
    /// `gdo-opt --require T` passes `T` for every output.
    ///
    /// Under explicit requirements, slacks can be genuinely negative (a
    /// constraint is violated) or uniformly positive (timing met with
    /// margin), and [`is_critical`](Self::is_critical) then reflects the
    /// *constraint*, not the topological worst path.
    ///
    /// The per-output requirements are folded into the shared backward
    /// pass by seeding output `j`'s tail with `max_k(po_required[k]) −
    /// po_required[j]`, so `required(s)` is `min_j(po_required[j] −
    /// delay(s → j))` and incremental [`update`](Self::update)s keep
    /// working unchanged. Constraints persist across updates; an output
    /// added after construction is required at `max_k(po_required[k])`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    ///
    /// # Panics
    ///
    /// Panics if a constraint slice has the wrong length or contains a
    /// non-finite value.
    pub fn from_scratch_region<M: DelayModel>(
        nl: &Netlist,
        model: &M,
        input_arrivals: Option<&[f64]>,
        po_required: &[f64],
    ) -> Result<TimingGraph, NetlistError> {
        if let Some(ia) = input_arrivals {
            assert_eq!(
                ia.len(),
                nl.inputs().len(),
                "one arrival time per primary input"
            );
        }
        assert_eq!(
            po_required.len(),
            nl.outputs().len(),
            "one required time per primary output"
        );
        assert!(
            po_required.iter().all(|r| r.is_finite()),
            "required times must be finite"
        );
        Self::analyzed(nl, model, input_arrivals, Some(po_required.to_vec()))
    }

    /// The full analysis behind both constructors.
    fn analyzed<M: DelayModel>(
        nl: &Netlist,
        model: &M,
        input_arrivals: Option<&[f64]>,
        po_required_times: Option<Vec<f64>>,
    ) -> Result<TimingGraph, NetlistError> {
        telemetry::counter_add("sta.full_recomputes", 1);
        let mut tg = TimingGraph {
            arrival: Vec::new(),
            tail: Vec::new(),
            level: Vec::new(),
            delays: Vec::new(),
            po_drivers: Vec::new(),
            circuit_delay: 0.0,
            eps: REL_EPS,
            po_req: 0.0,
            po_required_times,
            po_seed: Vec::new(),
            endpoint_req: Vec::new(),
            input_arrivals: input_arrivals.map(<[f64]>::to_vec),
        };
        tg.analyze_full(nl, model)?;
        Ok(tg)
    }

    /// The full forward/backward analysis shared by the constructors,
    /// the debug cross-check and
    /// [`deviation_from_scratch`](Self::deviation_from_scratch).
    fn analyze_full<M: DelayModel>(&mut self, nl: &Netlist, model: &M) -> Result<(), NetlistError> {
        let order = nl.topo_order()?;
        let cap = nl.capacity();
        self.arrival = vec![0.0; cap];
        self.tail = vec![f64::NEG_INFINITY; cap];
        self.level = vec![0; cap];
        self.delays = vec![Vec::new(); cap];
        if let Some(ia) = &self.input_arrivals {
            for (i, &pi) in nl.inputs().iter().enumerate() {
                self.arrival[pi.index()] = ia.get(i).copied().unwrap_or(0.0);
            }
        }
        for &s in &order {
            if nl.kind(s).is_source() {
                continue;
            }
            let fanins = nl.fanins(s);
            let delays: Vec<f64> = (0..fanins.len())
                .map(|pin| model.pin_delay(nl, s, pin))
                .collect();
            let mut at: f64 = 0.0;
            let mut lvl: u32 = 0;
            for (pin, &f) in fanins.iter().enumerate() {
                at = at.max(self.arrival[f.index()] + delays[pin]);
                lvl = lvl.max(self.level[f.index()] + 1);
            }
            self.arrival[s.index()] = at;
            self.level[s.index()] = lvl;
            self.delays[s.index()] = delays;
        }
        // Endpoints (and the per-output tail seeds) derive from arrivals
        // only, so they must be fresh before the backward pass reads
        // them through `tail_of`.
        self.refresh_endpoints(nl);
        for &s in order.iter().rev() {
            self.tail[s.index()] = self.tail_of(nl, s);
        }
        Ok(())
    }

    /// Recomputes one signal's tail from its fanouts and the cached
    /// delays.
    fn tail_of(&self, nl: &Netlist, s: SignalId) -> f64 {
        let mut t = f64::NEG_INFINITY;
        for fo in nl.fanouts(s) {
            match *fo {
                Fanout::Po(j) => t = t.max(self.po_seed_of(j)),
                Fanout::Gate { cell, pin } => {
                    t = t.max(self.tail[cell.index()] + self.delays[cell.index()][pin as usize]);
                }
            }
        }
        t
    }

    /// The backward-pass tail seed of primary output `j`:
    /// `po_req − required(po_j)`, which is 0 without per-output
    /// constraints and for an output added after construction.
    fn po_seed_of(&self, j: u32) -> f64 {
        self.po_seed.get(j as usize).copied().unwrap_or(0.0)
    }

    /// Re-derives the cached endpoint set, the circuit delay, eps and the
    /// output required times from the current arrivals.
    fn refresh_endpoints(&mut self, nl: &Netlist) {
        self.po_drivers.clear();
        let mut seen = SignalSet::with_capacity(nl.capacity());
        for po in nl.outputs() {
            if seen.insert(po.driver()) {
                self.po_drivers.push(po.driver());
            }
        }
        self.circuit_delay = self
            .po_drivers
            .iter()
            .map(|d| self.arrival[d.index()])
            .fold(0.0_f64, f64::max);
        self.eps = self.circuit_delay.abs().max(1.0) * REL_EPS;
        self.endpoint_req.clear();
        match &self.po_required_times {
            Some(req) => {
                // Base required = the latest per-output requirement;
                // seeding PO j's tail with `base − req[j]` folds the
                // per-output offsets into the one shared backward pass.
                let base = req.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                self.po_req = base;
                self.po_seed = req.iter().map(|&r| base - r).collect();
                self.endpoint_req.extend(self.po_drivers.iter().map(|&d| {
                    nl.outputs()
                        .iter()
                        .enumerate()
                        .filter(|(_, po)| po.driver() == d)
                        .map(|(j, _)| req.get(j).copied().unwrap_or(base))
                        .fold(f64::INFINITY, f64::min)
                }));
            }
            None => {
                self.po_req = self.circuit_delay;
                self.endpoint_req.resize(self.po_drivers.len(), self.po_req);
            }
        }
    }

    /// Applies a batch of recorded edits, re-propagating arrivals through
    /// the transitive fanout of the touched signals and tails through the
    /// transitive fanin of signals whose fanout structure or delays
    /// moved. `model` must be the same delay model the graph was built
    /// with.
    ///
    /// The edits must have left the netlist acyclic — every `netlist`
    /// editing primitive guarantees this, which is why no cycle check (and
    /// no error path) is needed here.
    pub fn update<M: DelayModel>(&mut self, nl: &Netlist, model: &M, delta: &EditDelta) {
        let cap = nl.capacity();
        if self.arrival.len() < cap {
            self.arrival.resize(cap, 0.0);
            self.tail.resize(cap, f64::NEG_INFINITY);
            self.level.resize(cap, 0);
            self.delays.resize(cap, Vec::new());
        }
        let dirty: Vec<SignalId> = delta
            .signals()
            .iter()
            .copied()
            .filter(|&s| {
                if nl.is_live(s) {
                    true
                } else {
                    // Deleted slot: neutralize it so later reads (and a
                    // possible recycled reallocation) start clean.
                    self.arrival[s.index()] = 0.0;
                    self.tail[s.index()] = f64::NEG_INFINITY;
                    self.level[s.index()] = 0;
                    self.delays[s.index()].clear();
                    false
                }
            })
            .collect();
        telemetry::counter_add("sta.incremental_updates", 1);
        telemetry::counter_add("sta.dirty_signals", dirty.len() as u64);

        // Refresh cached pin delays of dirty gates. A delay change must
        // force the backward pass into the gate's fanins even when the
        // gate's own tail is unchanged.
        let mut delay_changed = SignalSet::with_capacity(cap);
        for &s in &dirty {
            if nl.kind(s).is_source() {
                self.delays[s.index()].clear();
                continue;
            }
            let fresh: Vec<f64> = (0..nl.fanins(s).len())
                .map(|pin| model.pin_delay(nl, s, pin))
                .collect();
            if fresh != self.delays[s.index()] {
                self.delays[s.index()] = fresh;
                delay_changed.insert(s);
            }
        }

        self.repair_levels(nl, &dirty);
        self.propagate_arrivals(nl, &dirty);
        self.refresh_endpoints(nl);
        self.propagate_tails(nl, &dirty, &delay_changed);

        #[cfg(debug_assertions)]
        self.debug_cross_check(nl, model);
    }

    /// Chaotic-iteration level repair seeded at the dirty signals. The
    /// netlist is a DAG and levels were globally correct before the
    /// edits, so the worklist converges to the unique fixpoint.
    fn repair_levels(&mut self, nl: &Netlist, dirty: &[SignalId]) {
        let mut queue: VecDeque<SignalId> = VecDeque::new();
        let mut queued = SignalSet::with_capacity(nl.capacity());
        for &s in dirty {
            if queued.insert(s) {
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            queued.remove(s);
            let lvl = if nl.kind(s).is_source() {
                0
            } else {
                nl.fanins(s)
                    .iter()
                    .map(|f| self.level[f.index()] + 1)
                    .max()
                    .unwrap_or(0)
            };
            if lvl == self.level[s.index()] {
                continue;
            }
            self.level[s.index()] = lvl;
            for fo in nl.fanouts(s) {
                if let Fanout::Gate { cell, .. } = *fo {
                    if queued.insert(cell) {
                        queue.push_back(cell);
                    }
                }
            }
        }
    }

    /// Forward pass: levelized worklist over the transitive fanout of the
    /// dirty signals; propagation stops where an arrival is unchanged.
    fn propagate_arrivals(&mut self, nl: &Netlist, dirty: &[SignalId]) {
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        let mut queued = SignalSet::with_capacity(nl.capacity());
        for &s in dirty {
            if queued.insert(s) {
                heap.push(Reverse((self.level[s.index()], s.index())));
            }
        }
        // Lazily resolve constrained input arrivals (the common case has
        // none, so don't build the position map up front).
        let pi_pos = |s: SignalId| nl.inputs().iter().position(|&pi| pi == s);
        while let Some(Reverse((_, idx))) = heap.pop() {
            let s = SignalId::from_index(idx);
            let at = if nl.kind(s).is_source() {
                match &self.input_arrivals {
                    Some(ia) if nl.kind(s) == netlist::GateKind::Input => {
                        pi_pos(s).and_then(|i| ia.get(i)).copied().unwrap_or(0.0)
                    }
                    _ => 0.0,
                }
            } else {
                let delays = &self.delays[idx];
                nl.fanins(s)
                    .iter()
                    .enumerate()
                    .map(|(pin, f)| self.arrival[f.index()] + delays[pin])
                    .fold(0.0_f64, f64::max)
            };
            let old = std::mem::replace(&mut self.arrival[idx], at);
            if old == at {
                continue;
            }
            for fo in nl.fanouts(s) {
                if let Fanout::Gate { cell, .. } = *fo {
                    if queued.insert(cell) {
                        heap.push(Reverse((self.level[cell.index()], cell.index())));
                    }
                }
            }
        }
    }

    /// Backward pass: levelized worklist (deepest first) over the
    /// transitive fanin of signals whose fanout structure or pin delays
    /// changed.
    fn propagate_tails(&mut self, nl: &Netlist, dirty: &[SignalId], delay_changed: &SignalSet) {
        let mut heap: BinaryHeap<(u32, usize)> = BinaryHeap::new();
        let mut queued = SignalSet::with_capacity(nl.capacity());
        let mut seed = |s: SignalId, heap: &mut BinaryHeap<(u32, usize)>| {
            if queued.insert(s) {
                heap.push((self.level[s.index()], s.index()));
            }
        };
        for &s in dirty {
            seed(s, &mut heap);
            // A gate whose pin delays moved shifts the tail of each fanin
            // even when its own tail is unchanged.
            if delay_changed.contains(s) {
                for &f in nl.fanins(s) {
                    seed(f, &mut heap);
                }
            }
        }
        while let Some((_, idx)) = heap.pop() {
            let s = SignalId::from_index(idx);
            let t = self.tail_of(nl, s);
            let old = std::mem::replace(&mut self.tail[idx], t);
            if old == t {
                continue;
            }
            if !nl.kind(s).is_source() {
                for &f in nl.fanins(s) {
                    if queued.insert(f) {
                        heap.push((self.level[f.index()], f.index()));
                    }
                }
            }
        }
    }

    /// In debug builds every update is cross-checked against a
    /// from-scratch analysis, so any divergence of the incremental engine
    /// fails loudly in tests instead of silently mistiming rewrites.
    #[cfg(debug_assertions)]
    fn debug_cross_check<M: DelayModel>(&self, nl: &Netlist, model: &M) {
        let mut full = self.clone();
        full.analyze_full(nl, model)
            .expect("netlist edits keep the DAG acyclic");
        for s in nl.signals() {
            let i = s.index();
            assert!(
                self.arrival[i] == full.arrival[i] && self.tail[i] == full.tail[i],
                "incremental drift at {s}: arrival {} vs {}, tail {} vs {}",
                self.arrival[i],
                full.arrival[i],
                self.tail[i],
                full.tail[i],
            );
        }
    }

    /// Maximum absolute deviation of arrivals and required times from a
    /// fresh from-scratch analysis — 0.0 when the incremental state is
    /// exact. Exposed for tests and debugging; does not touch telemetry.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    pub fn deviation_from_scratch<M: DelayModel>(
        &self,
        nl: &Netlist,
        model: &M,
    ) -> Result<f64, NetlistError> {
        let mut full = self.clone();
        full.analyze_full(nl, model)?;
        let mut worst = 0.0_f64;
        for s in nl.signals() {
            let i = s.index();
            worst = worst.max((self.arrival[i] - full.arrival[i]).abs());
            let (a, b) = (self.tail[i], full.tail[i]);
            if a != b {
                worst = worst.max((a - b).abs());
            }
        }
        Ok(worst)
    }

    /// The worst (smallest) slack over the cached primary-output
    /// endpoints — negative iff a constraint is violated, `+inf` for
    /// netlists without outputs.
    #[must_use]
    pub fn worst_slack(&self) -> f64 {
        self.po_drivers
            .iter()
            .zip(&self.endpoint_req)
            .map(|(d, &r)| r - self.arrival[d.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Arrival time of a signal.
    #[must_use]
    pub fn arrival(&self, s: SignalId) -> f64 {
        self.arrival[s.index()]
    }

    /// Required time of a signal (`+inf` for signals driving nothing).
    #[must_use]
    pub fn required(&self, s: SignalId) -> f64 {
        self.po_req - self.tail[s.index()]
    }

    /// Slack of a signal: `required - arrival`.
    #[must_use]
    pub fn slack(&self, s: SignalId) -> f64 {
        self.required(s) - self.arrival[s.index()]
    }

    /// The topological circuit delay: the latest primary-output arrival.
    #[must_use]
    pub fn circuit_delay(&self) -> f64 {
        self.circuit_delay
    }

    /// The comparison tolerance used by the criticality tests.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Cached block delay from input `pin` of `gate` to its output.
    #[must_use]
    pub fn pin_delay(&self, gate: SignalId, pin: usize) -> f64 {
        self.delays[gate.index()][pin]
    }

    /// Returns `true` if `s` lies on a topological critical path.
    #[must_use]
    pub fn is_critical(&self, s: SignalId) -> bool {
        self.slack(s) <= self.eps
    }

    /// All critical *gates* (the paper's critical-gate set).
    #[must_use]
    pub fn critical_gates(&self, nl: &Netlist) -> Vec<SignalId> {
        nl.gates().filter(|&s| self.is_critical(s)).collect()
    }

    /// Returns `true` if the fanin edge (pin `pin` of `gate`) is a
    /// critical edge: both endpoints critical and the edge delay tight.
    #[must_use]
    pub fn is_critical_edge(&self, nl: &Netlist, gate: SignalId, pin: usize) -> bool {
        let src = nl.fanins(gate)[pin];
        self.is_critical(src)
            && self.is_critical(gate)
            && (self.arrival(src) + self.pin_delay(gate, pin) - self.arrival(gate)).abs()
                <= self.eps
    }

    /// Extracts one worst (topologically longest) path as a signal chain
    /// from a primary input to a primary output driver.
    ///
    /// Returns an empty vector for netlists without outputs.
    #[must_use]
    pub fn worst_path(&self, nl: &Netlist) -> Vec<SignalId> {
        let Some(&end) = self
            .po_drivers
            .iter()
            .max_by(|&&a, &&b| self.arrival(a).total_cmp(&self.arrival(b)))
        else {
            return Vec::new();
        };
        let mut path = vec![end];
        let mut cur = end;
        while !nl.kind(cur).is_source() {
            let (pin, _) = nl
                .fanins(cur)
                .iter()
                .enumerate()
                .max_by(|(pa, &a), (pb, &b)| {
                    (self.arrival(a) + self.pin_delay(cur, *pa))
                        .total_cmp(&(self.arrival(b) + self.pin_delay(cur, *pb)))
                })
                .expect("gates have fanins");
            cur = nl.fanins(cur)[pin];
            path.push(cur);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnitDelay;
    use netlist::{Branch, GateKind};

    /// Chain a -> g1 -> g2 -> y, plus a short side branch b -> g2.
    fn chain() -> (Netlist, [SignalId; 4]) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[g1, b]).unwrap();
        nl.add_output("y", g2);
        (nl, [a, b, g1, g2])
    }

    #[test]
    fn arrivals_and_delay() {
        let (nl, [a, b, g1, g2]) = chain();
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        assert_eq!(tg.arrival(a), 0.0);
        assert_eq!(tg.arrival(g1), 1.0);
        assert_eq!(tg.arrival(g2), 2.0);
        assert_eq!(tg.circuit_delay(), 2.0);
        assert_eq!(tg.required(g2), 2.0);
        assert_eq!(tg.required(g1), 1.0);
        assert_eq!(tg.required(b), 1.0);
        assert_eq!(tg.slack(b), 1.0);
        assert!(!tg.is_critical(b));
        for s in [a, g1, g2] {
            assert!(tg.is_critical(s), "{s} should be critical");
        }
    }

    #[test]
    fn critical_edges() {
        let (nl, [_, _, _, g2]) = chain();
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        assert!(tg.is_critical_edge(&nl, g2, 0)); // from g1
        assert!(!tg.is_critical_edge(&nl, g2, 1)); // from b
    }

    #[test]
    fn worst_path_walks_the_chain() {
        let (nl, [a, _, g1, g2]) = chain();
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        assert_eq!(tg.worst_path(&nl), vec![a, g1, g2]);
    }

    #[test]
    fn unused_signal_has_infinite_required() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let _dangling = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        nl.add_output("y", g);
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        assert!(tg.required(_dangling).is_infinite());
        assert!(!tg.is_critical(_dangling));
    }

    #[test]
    fn mapped_delays_respected() {
        use crate::LibDelay;
        use library::{standard_library, MapGoal, Mapper};
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.add_output("y", g);
        let mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&nl).unwrap();
        let tg = TimingGraph::from_scratch(&mapped, &LibDelay::new(&lib)).unwrap();
        // One xor2 cell with 2.0 ns pins.
        assert!((tg.circuit_delay() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_netlist() {
        let nl = Netlist::new("t");
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        assert_eq!(tg.circuit_delay(), 0.0);
        assert!(tg.worst_path(&nl).is_empty());
        assert_eq!(tg.worst_slack(), f64::INFINITY);
    }

    #[test]
    fn constrained_analysis_shifts_slack() {
        let (nl, [a, b, g1, g2]) = chain();
        // Tight requirement: everything is late.
        let tg = TimingGraph::from_scratch_region(&nl, &UnitDelay, None, &[1.0]).unwrap();
        assert!(tg.worst_slack() < 0.0);
        assert!(tg.slack(g1) < 0.0);
        // Loose requirement: nothing is critical.
        let tg = TimingGraph::from_scratch_region(&nl, &UnitDelay, None, &[10.0]).unwrap();
        assert!(tg.worst_slack() > 0.0);
        assert!(!tg.is_critical(g2));
        // Input arrival shifts downstream arrivals; the output is
        // required at the resulting circuit delay.
        let tg =
            TimingGraph::from_scratch_region(&nl, &UnitDelay, Some(&[5.0, 0.0]), &[7.0]).unwrap();
        assert_eq!(tg.arrival(a), 5.0);
        assert_eq!(tg.arrival(g1), 6.0);
        assert_eq!(tg.circuit_delay(), 7.0);
        // b's path is now very uncritical.
        assert!(tg.slack(b) > 5.0);
    }

    #[test]
    fn default_analysis_equals_unconstrained() {
        // Requiring every output at the circuit delay is the default
        // analysis, bit for bit.
        let (chain, _) = chain();
        for nl in [chain, workloads::datapath(8)] {
            let a = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
            let req = vec![a.circuit_delay(); nl.outputs().len()];
            let b = TimingGraph::from_scratch_region(&nl, &UnitDelay, None, &req).unwrap();
            assert_eq!(a.worst_slack().to_bits(), b.worst_slack().to_bits());
            for s in nl.signals() {
                assert_eq!(a.arrival(s).to_bits(), b.arrival(s).to_bits());
                assert_eq!(a.required(s).to_bits(), b.required(s).to_bits());
                assert_eq!(a.is_critical(s), b.is_critical(s));
            }
        }
    }

    #[test]
    fn worst_path_delays_telescope() {
        // Along the worst path, each step's arrival difference equals the
        // pin delay — on a mapped netlist with heterogeneous cells.
        use crate::LibDelay;
        use library::{standard_library, MapGoal, Mapper};
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Aoi21, &[g1, c, a]).unwrap();
        let g3 = nl.add_gate(GateKind::Nand, &[g2, b]).unwrap();
        nl.add_output("y", g3);
        let mapped = Mapper::new(&lib).goal(MapGoal::Delay).map(&nl).unwrap();
        let model = LibDelay::new(&lib);
        let tg = TimingGraph::from_scratch(&mapped, &model).unwrap();
        let path = tg.worst_path(&mapped);
        assert!(path.len() >= 2);
        for w in path.windows(2) {
            let (src, dst) = (w[0], w[1]);
            let pin = mapped
                .fanins(dst)
                .iter()
                .position(|&f| f == src)
                .expect("consecutive path nodes are connected");
            let step = tg.pin_delay(dst, pin);
            assert!(
                (tg.arrival(src) + step - tg.arrival(dst)).abs() < 1e-9,
                "non-tight worst-path step"
            );
        }
        assert!((tg.arrival(*path.last().unwrap()) - tg.circuit_delay()).abs() < 1e-9);
    }

    #[test]
    fn slack_is_never_negative_without_constraints() {
        // With required = circuit delay at every PO, min slack is 0.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Xor, &[g1, a]).unwrap();
        nl.add_output("y", g2);
        nl.add_output("z", g1);
        let tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        for s in nl.signals() {
            assert!(tg.slack(s) >= -tg.eps(), "negative slack at {s}");
        }
        assert!(tg.worst_slack().abs() <= tg.eps());
    }

    // ------------------------------------------------------------------
    // Incremental-update behavior.
    // ------------------------------------------------------------------

    #[test]
    fn incremental_extension_matches_scratch() {
        let (mut nl, [_, b, _, g2]) = chain();
        let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        nl.record_edits();
        let g3 = nl.add_gate(GateKind::Or, &[g2, b]).unwrap();
        nl.add_output("z", g3);
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.circuit_delay(), 3.0);
        assert_eq!(tg.arrival(g3), 3.0);
        assert_eq!(tg.deviation_from_scratch(&nl, &UnitDelay).unwrap(), 0.0);
    }

    #[test]
    fn required_times_shift_globally_when_delay_drops() {
        // Rewiring the critical path shorter shifts *every* required time;
        // the tail representation must absorb that without touching the
        // side branch.
        let (mut nl, [a, b, _g1, g2]) = chain();
        let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        assert_eq!(tg.required(b), 1.0);
        nl.record_edits();
        nl.rewire_branch(Branch { cell: g2, pin: 0 }, a).unwrap();
        nl.prune_dangling();
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.circuit_delay(), 1.0);
        assert_eq!(tg.required(b), 0.0, "required shifted with circuit delay");
        assert!(tg.is_critical(b));
        assert_eq!(tg.deviation_from_scratch(&nl, &UnitDelay).unwrap(), 0.0);
    }

    #[test]
    fn update_handles_substitution_and_pruning() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = nl.add_gate(GateKind::Or, &[g2, b]).unwrap();
        nl.add_output("y", g3);
        let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        nl.record_edits();
        nl.substitute_stem(g2, a).unwrap();
        nl.prune_dangling();
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.circuit_delay(), 1.0);
        assert_eq!(tg.deviation_from_scratch(&nl, &UnitDelay).unwrap(), 0.0);
    }

    #[test]
    fn update_tracks_po_driver_changes() {
        // substitute_stem can silently retarget a primary output; the
        // endpoint cache must follow (this is what lets worst_slack take
        // no netlist argument).
        let (mut nl, [a, _, _, g2]) = chain();
        let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        nl.record_edits();
        nl.substitute_stem(g2, a).unwrap();
        nl.prune_dangling();
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.circuit_delay(), 0.0);
        assert!(tg.worst_slack().abs() <= tg.eps());
    }

    #[test]
    fn update_reflects_load_dependent_delays() {
        // Adding a fanout to a gate changes its own pin delays under
        // LoadDelay; the cached delays and arrivals must follow.
        use crate::LoadDelay;
        use library::standard_library;
        let lib = standard_library();
        let model = LoadDelay::new(&lib, 0.5);
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let c1 = nl.add_gate(GateKind::Buf, &[g]).unwrap();
        nl.add_output("y", c1);
        let mut tg = TimingGraph::from_scratch(&nl, &model).unwrap();
        nl.record_edits();
        let c2 = nl.add_gate(GateKind::Buf, &[g]).unwrap();
        nl.add_output("z", c2);
        let delta = nl.take_delta();
        tg.update(&nl, &model, &delta);
        assert_eq!(tg.deviation_from_scratch(&nl, &model).unwrap(), 0.0);
    }

    #[test]
    fn update_survives_slot_recycling() {
        let (mut nl, [a, b, _, g2]) = chain();
        let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        nl.record_edits();
        nl.rewire_branch(Branch { cell: g2, pin: 0 }, a).unwrap();
        nl.prune_dangling(); // frees g1's slot
        let recycled = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.add_output("z", recycled);
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.arrival(recycled), 1.0);
        assert_eq!(tg.deviation_from_scratch(&nl, &UnitDelay).unwrap(), 0.0);
    }

    #[test]
    fn constrained_update_keeps_boundary_conditions() {
        let (mut nl, [_, b, _, g2]) = chain();
        let mut tg =
            TimingGraph::from_scratch_region(&nl, &UnitDelay, Some(&[2.0, 0.0]), &[6.0]).unwrap();
        assert_eq!(tg.circuit_delay(), 4.0);
        nl.record_edits();
        let g3 = nl.add_gate(GateKind::Not, &[g2]).unwrap();
        nl.add_output("z", g3);
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.circuit_delay(), 5.0);
        // The requirement persists, and `z`, added after construction,
        // falls back to it: slack measured against 6.0.
        assert!((tg.worst_slack() - 1.0).abs() < 1e-9);
        assert!(tg.slack(b) > 1.0);
    }

    #[test]
    fn batched_edits_in_one_update() {
        let mut nl = Netlist::new("t");
        let ins: Vec<SignalId> = (0..4).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g1 = nl.add_gate(GateKind::And, &[ins[0], ins[1]]).unwrap();
        let g2 = nl.add_gate(GateKind::Or, &[g1, ins[2]]).unwrap();
        nl.add_output("y", g2);
        let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        nl.record_edits();
        let h1 = nl.add_gate(GateKind::Xor, &[g2, ins[3]]).unwrap();
        let h2 = nl.add_gate(GateKind::Nand, &[h1, g1]).unwrap();
        nl.add_output("z", h2);
        nl.rewire_branch(Branch { cell: g2, pin: 1 }, ins[3])
            .unwrap();
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.deviation_from_scratch(&nl, &UnitDelay).unwrap(), 0.0);
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let (nl, _) = chain();
        let mut tg = TimingGraph::from_scratch(&nl, &UnitDelay).unwrap();
        let before = tg.clone();
        tg.update(&nl, &UnitDelay, &EditDelta::new());
        assert_eq!(tg.circuit_delay(), before.circuit_delay());
        assert_eq!(tg.deviation_from_scratch(&nl, &UnitDelay).unwrap(), 0.0);
    }

    #[test]
    fn per_output_required_times_shape_slack() {
        // One chain, tapped twice: y1 = NOT a (depth 1), y2 = NOT y1
        // (depth 2), with different requirements per output.
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let g1 = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1]).unwrap();
        nl.add_output("y1", g1);
        nl.add_output("y2", g2);
        let tg = TimingGraph::from_scratch_region(&nl, &UnitDelay, None, &[5.0, 3.0]).unwrap();
        assert_eq!(tg.required(g2), 3.0);
        // g1 must honour both its own output (5.0) and the path through
        // g2 (3.0 − 1.0): the tighter one wins.
        assert_eq!(tg.required(g1), 2.0);
        assert_eq!(tg.required(a), 1.0);
        assert_eq!(tg.worst_slack(), 1.0); // min(5 − 1, 3 − 2)
        assert_eq!(tg.slack(g1), 1.0);
    }

    #[test]
    fn region_constraints_persist_across_updates() {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.add_output("y", g);
        // Input b arrives late (a frozen boundary signal with parent
        // arrival 2.0); the output must settle by 4.0.
        let mut tg =
            TimingGraph::from_scratch_region(&nl, &UnitDelay, Some(&[0.0, 2.0]), &[4.0]).unwrap();
        assert_eq!(tg.arrival(g), 3.0);
        assert_eq!(tg.worst_slack(), 1.0);
        // An incremental edit keeps both constraints (the debug
        // cross-check inside update would catch any drift).
        nl.record_edits();
        let h = nl.add_gate(GateKind::Not, &[g]).unwrap();
        nl.add_output("z", h);
        // A new PO appeared after construction: it falls back to the
        // base requirement (the latest constrained output).
        let delta = nl.take_delta();
        tg.update(&nl, &UnitDelay, &delta);
        assert_eq!(tg.arrival(h), 4.0);
        assert_eq!(tg.required(h), 4.0);
        assert_eq!(tg.worst_slack(), 0.0);
    }
}
