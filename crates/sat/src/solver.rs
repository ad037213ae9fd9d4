//! A CDCL SAT solver: two-watched literals, first-UIP clause learning,
//! VSIDS decisions with an indexed heap, phase saving and Luby restarts.

use crate::{Lit, Var};

const NO_REASON: u32 = u32::MAX;
const UNDEF: i8 = 0;

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula is unsatisfiable (under the given assumptions).
    Unsat,
}

impl SatResult {
    /// `true` if the result is satisfiable.
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// A satisfying assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The truth value of a literal under this model.
    #[must_use]
    pub fn value(&self, lit: Lit) -> bool {
        self.values[lit.var().index()] == lit.is_pos()
    }

    /// The truth value of a variable.
    #[must_use]
    pub fn var_value(&self, v: Var) -> bool {
        self.values[v.index()]
    }
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// Cumulative search statistics of a [`Solver`].
///
/// Kept as plain integers bumped inside the search loop — the solver
/// deliberately carries no telemetry probes in its hot paths; callers
/// (e.g. `gdo`'s prove step) read these via [`Solver::stats`] and record
/// deltas at prove-call boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Clauses learned from conflict analysis.
    pub learned: u64,
    /// Restarts performed (Luby schedule).
    pub restarts: u64,
}

impl SolverStats {
    /// Component-wise difference `self - earlier` (for per-call deltas).
    #[must_use]
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions - earlier.decisions,
            conflicts: self.conflicts - earlier.conflicts,
            propagations: self.propagations - earlier.propagations,
            learned: self.learned - earlier.learned,
            restarts: self.restarts - earlier.restarts,
        }
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// See the [crate documentation](crate) for an example. The solver is
/// incremental: clauses may be added between [`solve`](Solver::solve)
/// calls, and each call may carry assumption literals that hold only for
/// that call.
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<u32>,
    heap_pos: Vec<i32>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    interrupt: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    deadline: Option<std::time::Instant>,
}

impl Solver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assign.len());
        self.assign.push(UNDEF);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.heap_pos.push(-1);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v.0);
        v
    }

    /// Number of allocated variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Total conflicts encountered so far (a cost metric for reporting).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.stats.conflicts
    }

    /// Cumulative search statistics (decisions, conflicts, propagations,
    /// learned clauses, restarts).
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Installs a shared interrupt flag: once it is raised, an in-flight
    /// [`solve_limited`](Self::solve_limited) gives up and returns
    /// `None` — this is how a run-level deadline or cancellation reaches
    /// into a SAT search. Do not combine with [`solve`](Self::solve),
    /// which has no way to report an interrupted search.
    pub fn set_interrupt(&mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Installs an absolute wall-clock deadline, polled every few
    /// hundred search steps by [`solve_limited`](Self::solve_limited)
    /// (which then returns `None`). Complements
    /// [`set_interrupt`](Self::set_interrupt) for callers that cannot
    /// poll the clock while a query runs.
    pub fn set_deadline(&mut self, deadline: std::time::Instant) {
        self.deadline = Some(deadline);
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (then further solving is pointless).
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level 0 (it
    /// always is between `solve` calls) or if a literal references an
    /// unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        if !self.ok {
            return false;
        }
        // Simplify: sort, dedup, drop tautologies and false-at-0 literals.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut simplified = Vec::with_capacity(c.len());
        for &l in &c {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
            if c.binary_search(&!l).is_ok() {
                return true; // tautology
            }
            match self.lit_value(l) {
                1 => return true, // already satisfied at level 0
                -1 => {}          // false at level 0: drop
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watch(simplified[0], idx, simplified[1]);
                self.watch(simplified[1], idx, simplified[0]);
                self.clauses.push(simplified);
                true
            }
        }
    }

    /// Decides satisfiability under the given assumption literals.
    ///
    /// Assumptions hold for this call only. The solver state (learned
    /// clauses, activities) persists across calls, making repeated queries
    /// on the same formula cheap.
    ///
    /// # Panics
    ///
    /// Panics if an interrupt ([`set_interrupt`](Self::set_interrupt) or
    /// [`set_deadline`](Self::set_deadline)) stops the search; a solver
    /// carrying one must be queried with
    /// [`solve_limited`](Self::solve_limited).
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_limited(assumptions, u64::MAX)
            .expect("unlimited solve always concludes")
    }

    /// Like [`solve`](Self::solve) but gives up after `max_conflicts`
    /// conflicts, returning `None`. Callers treating hard instances
    /// conservatively (e.g. "unknown means not proven valid") use this to
    /// bound worst-case time and memory.
    pub fn solve_limited(&mut self, assumptions: &[Lit], max_conflicts: u64) -> Option<SatResult> {
        if !self.ok {
            return Some(SatResult::Unsat);
        }
        debug_assert!(self.trail_lim.is_empty());
        let mut restart_count = 0u32;
        let mut budget = 64u64 * luby(restart_count);
        let mut conflicts_here = 0u64;
        let mut conflicts_total = 0u64;
        let mut steps = 0u64;
        loop {
            steps += 1;
            if conflicts_total >= max_conflicts {
                self.backtrack(0);
                return None;
            }
            if let Some(flag) = &self.interrupt {
                if flag.load(std::sync::atomic::Ordering::Relaxed) {
                    self.backtrack(0);
                    return None;
                }
            }
            if steps & 0x3FF == 0 {
                if let Some(d) = self.deadline {
                    if std::time::Instant::now() >= d {
                        self.backtrack(0);
                        return None;
                    }
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                conflicts_total += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SatResult::Unsat);
                }
                if self.decision_level() <= assumptions.len() as u32 {
                    // Only assumption decisions are on the trail: the
                    // conflict is forced by the assumptions.
                    self.backtrack(0);
                    return Some(SatResult::Unsat);
                }
                let (learnt, blevel) = self.analyze(confl);
                self.backtrack(blevel);
                self.stats.learned += 1;
                match learnt.len() {
                    1 => self.unchecked_enqueue(learnt[0], NO_REASON),
                    _ => {
                        let idx = self.clauses.len() as u32;
                        self.watch(learnt[0], idx, learnt[1]);
                        self.watch(learnt[1], idx, learnt[0]);
                        let first = learnt[0];
                        self.clauses.push(learnt);
                        self.unchecked_enqueue(first, idx);
                    }
                }
                self.var_inc /= 0.95;
                if self.var_inc > 1e100 {
                    for a in &mut self.activity {
                        *a *= 1e-100;
                    }
                    self.var_inc *= 1e-100;
                }
                if conflicts_here >= budget {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    budget = 64 * luby(restart_count);
                    conflicts_here = 0;
                    self.backtrack(0);
                }
            } else if (self.decision_level() as usize) < assumptions.len() {
                let a = assumptions[self.decision_level() as usize];
                match self.lit_value(a) {
                    1 => self.trail_lim.push(self.trail.len()), // dummy level
                    -1 => {
                        self.backtrack(0);
                        return Some(SatResult::Unsat);
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(a, NO_REASON);
                    }
                }
            } else if let Some(v) = self.pick_branch_var() {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = Lit::with_sign(Var(v), self.phase[v as usize]);
                self.unchecked_enqueue(lit, NO_REASON);
            } else {
                let model = Model {
                    values: self.assign.iter().map(|&a| a == 1).collect(),
                };
                self.backtrack(0);
                return Some(SatResult::Sat(model));
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> i8 {
        let a = self.assign[l.var().index()];
        if l.is_pos() {
            a
        } else {
            -a
        }
    }

    fn watch(&mut self, lit: Lit, clause: u32, blocker: Lit) {
        // A clause watching `lit` must be revisited when `!lit` becomes
        // true, i.e. when `lit` becomes false.
        self.watches[(!lit).code()].push(Watcher { clause, blocker });
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        let v = l.var().index();
        self.assign[v] = if l.is_pos() { 1 } else { -1 };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses watching a literal that just became false.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            while i < ws.len() {
                let Watcher { clause, blocker } = ws[i];
                if self.lit_value(blocker) == 1 {
                    i += 1;
                    continue;
                }
                let false_lit = !p;
                // Make sure the false literal is at position 1.
                {
                    let c = &mut self.clauses[clause as usize];
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                    debug_assert_eq!(c[1], false_lit);
                }
                let first = self.clauses[clause as usize][0];
                if first != blocker && self.lit_value(first) == 1 {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut new_watch = None;
                for k in 2..self.clauses[clause as usize].len() {
                    let l = self.clauses[clause as usize][k];
                    if self.lit_value(l) != -1 {
                        new_watch = Some(k);
                        break;
                    }
                }
                if let Some(k) = new_watch {
                    let c = &mut self.clauses[clause as usize];
                    c.swap(1, k);
                    let l = c[1];
                    self.watches[(!l).code()].push(Watcher {
                        clause,
                        blocker: first,
                    });
                    ws.swap_remove(i);
                    continue;
                }
                if self.lit_value(first) == -1 {
                    // Conflict: restore the remaining watchers.
                    self.qhead = self.trail.len();
                    self.watches[p.code()] = ws;
                    return Some(clause);
                }
                self.stats.propagations += 1;
                self.unchecked_enqueue(first, clause);
                i += 1;
            }
            self.watches[p.code()] = ws;
        }
        None
    }

    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut clause = confl;
        let current = self.decision_level();
        let mut to_clear: Vec<usize> = Vec::new();
        loop {
            let lits = self.clauses[clause as usize].clone();
            let skip_first = p.is_some();
            for (k, &q) in lits.iter().enumerate() {
                if skip_first && k == 0 {
                    continue;
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.activity[v] += self.var_inc;
                    self.heap_update(q.var().0);
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            clause = self.reason[lit.var().index()];
            debug_assert_ne!(clause, NO_REASON);
        }
        learnt[0] = !p.expect("at least one resolution");
        // Local clause minimization: a literal is redundant if its reason
        // clause is absorbed by the rest of the learnt clause (every other
        // literal already seen, or false at level 0). Conservative and
        // sound; shrinks learnt clauses noticeably on structured CNF.
        let mut j = 1;
        for i in 1..learnt.len() {
            let q = learnt[i];
            let r = self.reason[q.var().index()];
            let redundant = r != NO_REASON
                && self.clauses[r as usize].iter().all(|&l| {
                    l == !q || self.seen[l.var().index()] || self.level[l.var().index()] == 0
                });
            if !redundant {
                learnt[j] = q;
                j += 1;
            }
        }
        learnt.truncate(j);
        for v in to_clear {
            self.seen[v] = false;
        }
        // Backjump level: highest level among learnt[1..].
        if learnt.len() == 1 {
            (learnt, 0)
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            let blevel = self.level[learnt[1].var().index()];
            (learnt, blevel)
        }
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let limit = self.trail_lim[target as usize];
        while self.trail.len() > limit {
            let l = self.trail.pop().expect("trail non-empty");
            let v = l.var().index();
            self.phase[v] = l.is_pos();
            self.assign[v] = UNDEF;
            self.reason[v] = NO_REASON;
            self.heap_insert(l.var().0);
        }
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<u32> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    // --- indexed max-heap on activity ---

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] >= 0 {
            return;
        }
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: u32) {
        let pos = self.heap_pos[v as usize];
        if pos >= 0 {
            self.sift_up(pos as usize);
        }
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                self.heap_pos[self.heap[i] as usize] = i as i32;
                self.heap_pos[self.heap[parent] as usize] = parent as i32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            self.heap_pos[self.heap[i] as usize] = i as i32;
            self.heap_pos[self.heap[best] as usize] = best as i32;
            i = best;
        }
    }
}

fn luby(i: u32) -> u64 {
    // The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    let mut k = 1u32;
    while (1u64 << (k + 1)) <= i as u64 + 2 {
        k += 1;
    }
    let mut i = i;
    let mut kk = k;
    loop {
        if i as u64 + 2 == 1u64 << (kk + 1) {
            return 1u64 << kk;
        }
        if i as u64 + 1 < 1u64 << kk {
            kk -= 1;
            continue;
        }
        i -= (1u32 << kk) - 1;
        kk = 1;
        while (1u64 << (kk + 1)) <= i as u64 + 2 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: i32) -> Lit {
        let v = solver_vars[(i.unsigned_abs() - 1) as usize];
        Lit::with_sign(v, i > 0)
    }

    fn solve_clauses(n_vars: usize, clauses: &[&[i32]]) -> SatResult {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n_vars).map(|_| s.new_var()).collect();
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(&vars, i)).collect();
            s.add_clause(&lits);
        }
        s.solve(&[])
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert!(solve_clauses(1, &[&[1]]).is_sat());
        assert!(!solve_clauses(1, &[&[1], &[-1]]).is_sat());
        assert!(solve_clauses(0, &[]).is_sat());
    }

    #[test]
    fn model_satisfies_formula() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        let clauses: Vec<Vec<Lit>> = vec![
            vec![lit(&vars, 1), lit(&vars, 2)],
            vec![lit(&vars, -1), lit(&vars, 3)],
            vec![lit(&vars, -3), lit(&vars, -2), lit(&vars, 4)],
            vec![lit(&vars, -4), lit(&vars, 1)],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        match s.solve(&[]) {
            SatResult::Sat(m) => {
                for c in &clauses {
                    assert!(c.iter().any(|&l| m.value(l)));
                }
            }
            SatResult::Unsat => panic!("formula is satisfiable"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        // Under (!a, !b) the formula is unsat...
        assert_eq!(s.solve(&[Lit::neg(a), Lit::neg(b)]), SatResult::Unsat);
        // ...but the solver recovers without them.
        assert!(s.solve(&[]).is_sat());
        // Contradictory assumption against a level-0 unit.
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(&[Lit::neg(a)]), SatResult::Unsat);
        assert!(s.solve(&[Lit::pos(a)]).is_sat());
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert!(s.solve(&[]).is_sat());
        s.add_clause(&[Lit::neg(a)]);
        assert!(s.solve(&[]).is_sat());
        s.add_clause(&[Lit::neg(b)]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        // Once unsat at level 0, it stays unsat.
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::pos(a), Lit::neg(a)]); // tautology: ignored
        assert!(s.solve(&[]).is_sat());
    }

    /// Cross-checks the solver against brute force on many small random
    /// 3-SAT instances around the phase-transition density.
    #[test]
    fn random_3sat_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12345);
        for round in 0..200 {
            let n = 3 + (round % 8);
            let m = (4.3 * n as f64) as usize;
            let clauses: Vec<Vec<i32>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=n as i32);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for assignment in 0u32..(1 << n) {
                for c in &clauses {
                    let ok = c.iter().any(|&l| {
                        let val = assignment >> (l.unsigned_abs() - 1) & 1 == 1;
                        (l > 0) == val
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
            let got = solve_clauses(n, &refs).is_sat();
            assert_eq!(got, brute_sat, "round {round}: {clauses:?}");
        }
    }

    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let vars: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &vars {
            let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&lits);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in i1 + 1..pigeons {
                    s.add_clause(&[Lit::neg(vars[i1][j]), Lit::neg(vars[i2][j])]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_gives_up_gracefully() {
        // PHP(7,6) needs far more than 3 conflicts.
        let mut s = pigeonhole(7, 6);
        assert_eq!(s.solve_limited(&[], 3), None);
        // The solver remains usable afterwards and still gets the right
        // answer with a real budget.
        assert_eq!(s.solve_limited(&[], u64::MAX), Some(SatResult::Unsat));
    }

    #[test]
    fn budget_does_not_truncate_easy_instances() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a)]);
        // Propagation-only: zero conflicts needed.
        assert!(matches!(s.solve_limited(&[], 1), Some(SatResult::Sat(_))));
    }

    #[test]
    fn stats_track_search_effort() {
        // PHP(5,4) forces real search: decisions, conflicts, learning and
        // (with the low Luby base) at least the counters moving together.
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.stats(), SolverStats::default());
        let before = s.stats();
        assert_eq!(s.solve(&[]), SatResult::Unsat);
        let d = s.stats().since(&before);
        assert!(d.conflicts > 0, "{d:?}");
        assert!(d.decisions > 0, "{d:?}");
        assert!(d.propagations > 0, "{d:?}");
        // Every conflict learns a clause, except a level-0 conflict which
        // ends the search (at most one per solve call).
        assert!(
            d.learned + 1 >= d.conflicts && d.learned <= d.conflicts,
            "{d:?}"
        );
        assert_eq!(s.stats().conflicts, s.conflicts());
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Solver>();
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }
}
