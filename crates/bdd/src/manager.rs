use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A reference to a BDD node within one [`BddManager`].
///
/// Because nodes are hash-consed, two functions are equal iff their
/// `BddRef`s are equal (within the same manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-false function.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant-true function.
    pub const TRUE: BddRef = BddRef(1);

    /// `true` if this is one of the two terminal nodes.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

impl fmt::Display for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BddRef::FALSE => write!(f, "⊥"),
            BddRef::TRUE => write!(f, "⊤"),
            BddRef(i) => write!(f, "@{i}"),
        }
    }
}

/// Errors from BDD operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// The node budget was exhausted — the caller should fall back to the
    /// SAT-based prover, as the paper does for large circuits.
    NodeLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The interrupt flag was raised or the deadline passed
    /// ([`BddManager::set_interrupt`], [`BddManager::set_deadline`]).
    Interrupted,
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit { limit } => {
                write!(f, "bdd node limit of {limit} nodes exhausted")
            }
            BddError::Interrupted => write!(f, "bdd construction interrupted"),
        }
    }
}

impl std::error::Error for BddError {}

const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: BddRef,
    hi: BddRef,
}

/// A shared ROBDD manager: unique table, ITE with a computed table, a
/// configurable node budget, and an optional interrupt flag and deadline.
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, BddRef>,
    computed: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    limit: usize,
    /// ITE computed-table misses so far; the stop checks run on the first
    /// and then every [`STOP_CHECK_EVERY`]-th.
    misses: u64,
    interrupt: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

/// ITE computed-table misses between two looks at the interrupt flag and
/// the clock.
const STOP_CHECK_EVERY: u64 = 1024;

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates a manager with a generous default node budget (2²³ nodes).
    #[must_use]
    pub fn new() -> Self {
        Self::with_node_limit(1 << 23)
    }

    /// Creates a manager that fails with [`BddError::NodeLimit`] once it
    /// holds `limit` nodes — the mechanism behind the paper's "BDD
    /// representations become too large" fallback.
    #[must_use]
    pub fn with_node_limit(limit: usize) -> Self {
        BddManager {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: BddRef::FALSE,
                    hi: BddRef::FALSE,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: BddRef::TRUE,
                    hi: BddRef::TRUE,
                },
            ],
            unique: HashMap::new(),
            computed: HashMap::new(),
            limit,
            misses: 0,
            interrupt: None,
            deadline: None,
        }
    }

    /// Installs a shared interrupt flag: once it is raised, operations
    /// fail with [`BddError::Interrupted`] — how a run's cancellation or
    /// exhausted budget reaches into a BDD build.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Installs an absolute wall-clock deadline, past which operations
    /// fail with [`BddError::Interrupted`].
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Number of live nodes (including the two terminals).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Entries in the ITE computed table (memoized triples) — a cache
    /// pressure metric for pipeline accounting.
    #[must_use]
    pub fn ite_cache_entries(&self) -> usize {
        self.computed.len()
    }

    /// The projection function of variable `index` (smaller indices are
    /// closer to the root).
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when even the projection node does not fit
    /// the budget.
    pub fn var(&mut self, index: u32) -> Result<BddRef, BddError> {
        self.mk(index, BddRef::FALSE, BddRef::TRUE)
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> Result<BddRef, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return Ok(r);
        }
        if self.nodes.len() >= self.limit {
            return Err(BddError::NodeLimit { limit: self.limit });
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, r);
        Ok(r)
    }

    fn var_of(&self, r: BddRef) -> u32 {
        self.nodes[r.0 as usize].var
    }

    fn cofactors(&self, r: BddRef, var: u32) -> (BddRef, BddRef) {
        let n = self.nodes[r.0 as usize];
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (r, r)
        }
    }

    /// If-then-else: the universal connective all others are built from.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted, and
    /// [`BddError::Interrupted`] once the interrupt flag or the deadline
    /// stops the manager (every operation below builds on this one).
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, BddError> {
        // Terminal cases.
        if f == BddRef::TRUE {
            return Ok(g);
        }
        if f == BddRef::FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return Ok(f);
        }
        if let Some(&r) = self.computed.get(&(f, g, h)) {
            return Ok(r);
        }
        if self.misses.is_multiple_of(STOP_CHECK_EVERY) {
            let raised = self
                .interrupt
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::Relaxed));
            if raised || self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(BddError::Interrupted);
            }
        }
        self.misses += 1;
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0)?;
        let hi = self.ite(f1, g1, h1)?;
        let r = self.mk(top, lo, hi)?;
        self.computed.insert((f, g, h), r);
        Ok(r)
    }

    /// Conjunction.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Disjunction.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Negation.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn not(&mut self, f: BddRef) -> Result<BddRef, BddError> {
        self.ite(f, BddRef::FALSE, BddRef::TRUE)
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        let ng = self.not(g)?;
        self.ite(f, ng, g)
    }

    /// Evaluates `f` under a variable assignment (`assignment[i]` is the
    /// value of variable `i`).
    #[must_use]
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let n = self.nodes[cur.0 as usize];
            cur = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
        cur == BddRef::TRUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut mgr = BddManager::new();
        let a = mgr.var(0).unwrap();
        assert_ne!(a, BddRef::FALSE);
        assert_ne!(a, BddRef::TRUE);
        assert_eq!(mgr.var(0).unwrap(), a, "hash-consed projection");
        assert!(mgr.eval(a, &[true]));
        assert!(!mgr.eval(a, &[false]));
    }

    #[test]
    fn boolean_algebra_identities() {
        let mut mgr = BddManager::new();
        let a = mgr.var(0).unwrap();
        let b = mgr.var(1).unwrap();
        let na = mgr.not(a).unwrap();
        let nna = mgr.not(na).unwrap();
        assert_eq!(nna, a, "double negation");
        let a_and_na = mgr.and(a, na).unwrap();
        assert_eq!(a_and_na, BddRef::FALSE);
        let a_or_na = mgr.or(a, na).unwrap();
        assert_eq!(a_or_na, BddRef::TRUE);
        // De Morgan.
        let ab = mgr.and(a, b).unwrap();
        let n_ab = mgr.not(ab).unwrap();
        let nb = mgr.not(b).unwrap();
        let na_or_nb = mgr.or(na, nb).unwrap();
        assert_eq!(n_ab, na_or_nb);
        // XOR vs. its SOP expansion.
        let x = mgr.xor(a, b).unwrap();
        let t1 = mgr.and(a, nb).unwrap();
        let t2 = mgr.and(na, b).unwrap();
        let sop = mgr.or(t1, t2).unwrap();
        assert_eq!(x, sop);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut mgr = BddManager::new();
        let a = mgr.var(0).unwrap();
        let b = mgr.var(1).unwrap();
        let c = mgr.var(2).unwrap();
        let ab = mgr.and(a, b).unwrap();
        let f = mgr.or(ab, c).unwrap();
        for v in 0u32..8 {
            let assignment = [v & 1 == 1, v >> 1 & 1 == 1, v >> 2 & 1 == 1];
            let expected = (assignment[0] && assignment[1]) || assignment[2];
            assert_eq!(mgr.eval(f, &assignment), expected);
        }
    }

    #[test]
    fn node_limit_enforced() {
        let mut mgr = BddManager::with_node_limit(8);
        // Parity of many variables forces a blow-past of 8 nodes.
        let mut f = mgr.var(0).unwrap();
        let mut failed = false;
        for i in 1..10 {
            let v = match mgr.mk(i, BddRef::FALSE, BddRef::TRUE) {
                Ok(v) => v,
                Err(_) => {
                    failed = true;
                    break;
                }
            };
            match mgr.xor(f, v) {
                Ok(r) => f = r,
                Err(BddError::NodeLimit { limit }) => {
                    assert_eq!(limit, 8);
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(failed, "node limit never triggered");
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BddManager>();
    }

    #[test]
    fn reduction_no_redundant_nodes() {
        let mut mgr = BddManager::new();
        let a = mgr.var(0).unwrap();
        // ite(a, b, b) must not create a node testing a.
        let b = mgr.var(1).unwrap();
        let r = mgr.ite(a, b, b).unwrap();
        assert_eq!(r, b);
    }
}
