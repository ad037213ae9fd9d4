//! Circuit-to-BDD construction and BDD-based equivalence checking.

use crate::{BddError, BddManager, BddRef};
use netlist::{GateKind, Netlist, NetlistError};
use std::fmt;

/// Errors from circuit-level BDD operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitBddError {
    /// The node budget was exhausted (fall back to SAT), or the
    /// manager's interrupt flag or deadline stopped the build.
    Bdd(BddError),
    /// The netlist is cyclic.
    Netlist(NetlistError),
    /// The two netlists have different interfaces.
    InterfaceMismatch,
}

impl fmt::Display for CircuitBddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitBddError::Bdd(e) => write!(f, "{e}"),
            CircuitBddError::Netlist(e) => write!(f, "{e}"),
            CircuitBddError::InterfaceMismatch => {
                write!(f, "netlists have different input/output counts")
            }
        }
    }
}

impl std::error::Error for CircuitBddError {}

impl From<BddError> for CircuitBddError {
    fn from(e: BddError) -> Self {
        CircuitBddError::Bdd(e)
    }
}

impl From<NetlistError> for CircuitBddError {
    fn from(e: NetlistError) -> Self {
        CircuitBddError::Netlist(e)
    }
}

/// Builds the BDD of every primary output of `nl` in the given manager,
/// with primary input `i` mapped to BDD variable `i`.
///
/// # Errors
///
/// [`CircuitBddError::Bdd`] if the node budget runs out (the caller should
/// fall back to the SAT prover) or [`CircuitBddError::Netlist`] for a
/// cyclic netlist.
pub fn build_outputs(mgr: &mut BddManager, nl: &Netlist) -> Result<Vec<BddRef>, CircuitBddError> {
    let order = nl.topo_order()?;
    let mut node: Vec<BddRef> = vec![BddRef::FALSE; nl.capacity()];
    for (i, &pi) in nl.inputs().iter().enumerate() {
        node[pi.index()] = mgr.var(i as u32)?;
    }
    for &s in &order {
        let kind = nl.kind(s);
        let fanins: Vec<BddRef> = nl.fanins(s).iter().map(|f| node[f.index()]).collect();
        node[s.index()] = match kind {
            GateKind::Input => continue,
            GateKind::Const0 => BddRef::FALSE,
            GateKind::Const1 => BddRef::TRUE,
            GateKind::Buf => fanins[0],
            GateKind::Not => mgr.not(fanins[0])?,
            GateKind::And | GateKind::Nand => {
                let mut acc = BddRef::TRUE;
                for &f in &fanins {
                    acc = mgr.and(acc, f)?;
                }
                if kind == GateKind::Nand {
                    mgr.not(acc)?
                } else {
                    acc
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut acc = BddRef::FALSE;
                for &f in &fanins {
                    acc = mgr.or(acc, f)?;
                }
                if kind == GateKind::Nor {
                    mgr.not(acc)?
                } else {
                    acc
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut acc = BddRef::FALSE;
                for &f in &fanins {
                    acc = mgr.xor(acc, f)?;
                }
                if kind == GateKind::Xnor {
                    mgr.not(acc)?
                } else {
                    acc
                }
            }
            GateKind::Aoi21 => {
                let ab = mgr.and(fanins[0], fanins[1])?;
                let s = mgr.or(ab, fanins[2])?;
                mgr.not(s)?
            }
            GateKind::Oai21 => {
                let ab = mgr.or(fanins[0], fanins[1])?;
                let s = mgr.and(ab, fanins[2])?;
                mgr.not(s)?
            }
            GateKind::Aoi22 => {
                let ab = mgr.and(fanins[0], fanins[1])?;
                let cd = mgr.and(fanins[2], fanins[3])?;
                let s = mgr.or(ab, cd)?;
                mgr.not(s)?
            }
            GateKind::Oai22 => {
                let ab = mgr.or(fanins[0], fanins[1])?;
                let cd = mgr.or(fanins[2], fanins[3])?;
                let s = mgr.and(ab, cd)?;
                mgr.not(s)?
            }
        };
    }
    Ok(nl
        .outputs()
        .iter()
        .map(|po| node[po.driver().index()])
        .collect())
}

/// BDD-based combinational equivalence (inputs and outputs matched
/// positionally): builds both circuits in one manager and compares the
/// hash-consed output references.
///
/// This is the paper's preferred PVCC check for small and medium circuits;
/// on a node-budget blow-up the caller falls back to
/// [`sat::check_equiv`](https://docs.rs/sat)-style reasoning.
///
/// # Errors
///
/// [`CircuitBddError::InterfaceMismatch`], [`CircuitBddError::Bdd`] on
/// budget exhaustion, or [`CircuitBddError::Netlist`] for cyclic inputs.
///
/// # Example
///
/// ```
/// use netlist::{Netlist, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n1 = Netlist::new("a");
/// let x = n1.add_input("x");
/// let g = n1.add_gate(GateKind::Not, &[x])?;
/// n1.add_output("y", g);
/// let mut n2 = n1.clone();
/// assert!(bdd::check_equiv(&n1, &n2, 1 << 20)?);
/// # Ok(())
/// # }
/// ```
pub fn check_equiv(a: &Netlist, b: &Netlist, node_limit: usize) -> Result<bool, CircuitBddError> {
    check_equiv_stats(a, b, BddManager::with_node_limit(node_limit)).map(|(eq, _)| eq)
}

/// Size statistics of one [`check_equiv_stats`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddCheckStats {
    /// Live BDD nodes after building both circuits.
    pub nodes: usize,
    /// Entries in the manager's ITE computed table.
    pub ite_cache_entries: usize,
}

/// [`check_equiv`] in a caller-configured manager `mgr` (its node
/// limit, interrupt flag and deadline apply) that also reports the
/// manager's node and ITE-cache counts, for pipeline accounting.
///
/// # Errors
///
/// Same as [`check_equiv`], and [`CircuitBddError::Bdd`] with
/// [`BddError::Interrupted`] when the manager was stopped.
pub fn check_equiv_stats(
    a: &Netlist,
    b: &Netlist,
    mut mgr: BddManager,
) -> Result<(bool, BddCheckStats), CircuitBddError> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(CircuitBddError::InterfaceMismatch);
    }
    let oa = build_outputs(&mut mgr, a)?;
    let ob = build_outputs(&mut mgr, b)?;
    let stats = BddCheckStats {
        nodes: mgr.num_nodes(),
        ite_cache_entries: mgr.ite_cache_entries(),
    };
    Ok((oa == ob, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::SignalId;

    #[test]
    fn build_matches_eval() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::Aoi21, &[a, b, c]).unwrap();
        let g2 = nl.add_gate(GateKind::Xor, &[g1, a]).unwrap();
        nl.add_output("y", g2);
        let mut mgr = BddManager::new();
        let outs = build_outputs(&mut mgr, &nl).unwrap();
        for v in 0u32..8 {
            let assignment = [v & 1 == 1, v >> 1 & 1 == 1, v >> 2 & 1 == 1];
            let expected = nl.eval_outputs(&assignment).unwrap()[0];
            assert_eq!(mgr.eval(outs[0], &assignment), expected, "vector {v}");
        }
    }

    #[test]
    fn equivalence_positive_and_negative() {
        let mut n1 = Netlist::new("n1");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let g = n1.add_gate(GateKind::Nand, &[a, b]).unwrap();
        n1.add_output("y", g);

        let mut n2 = Netlist::new("n2");
        let a = n2.add_input("a");
        let b = n2.add_input("b");
        let na = n2.add_gate(GateKind::Not, &[a]).unwrap();
        let nb = n2.add_gate(GateKind::Not, &[b]).unwrap();
        let g = n2.add_gate(GateKind::Or, &[na, nb]).unwrap();
        n2.add_output("y", g);
        assert!(check_equiv(&n1, &n2, 1 << 16).unwrap());

        let mut n3 = Netlist::new("n3");
        let a = n3.add_input("a");
        let b = n3.add_input("b");
        let g = n3.add_gate(GateKind::And, &[a, b]).unwrap();
        n3.add_output("y", g);
        assert!(!check_equiv(&n1, &n3, 1 << 16).unwrap());
    }

    #[test]
    fn interface_mismatch_detected() {
        let mut n1 = Netlist::new("n1");
        let a = n1.add_input("a");
        n1.add_output("y", a);
        let mut n2 = Netlist::new("n2");
        let a = n2.add_input("a");
        let _b = n2.add_input("b");
        n2.add_output("y", a);
        assert!(matches!(
            check_equiv(&n1, &n2, 1 << 16),
            Err(CircuitBddError::InterfaceMismatch)
        ));
    }

    #[test]
    fn node_limit_fallback_signal() {
        // A multiplier-like XOR/AND mesh forces growth beyond a tiny
        // budget.
        let mut nl = Netlist::new("t");
        let inputs: Vec<SignalId> = (0..16).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut layer = inputs.clone();
        for _ in 0..4 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    let x = nl.add_gate(GateKind::Xor, &[pair[0], pair[1]]).unwrap();
                    let o = nl.add_gate(GateKind::And, &[pair[0], pair[1]]).unwrap();
                    next.push(x);
                    next.push(o);
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        for (i, &s) in layer.iter().enumerate() {
            nl.add_output(format!("y{i}"), s);
        }
        let result = check_equiv(&nl, &nl.clone(), 64);
        assert!(matches!(result, Err(CircuitBddError::Bdd(_))));
        // With a real budget it verifies.
        assert!(check_equiv(&nl, &nl.clone(), 1 << 20).unwrap());
    }

    #[test]
    fn a_raised_interrupt_or_a_passed_deadline_stops_the_check() {
        let mut n1 = Netlist::new("n1");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let g = n1.add_gate(GateKind::Xor, &[a, b]).unwrap();
        n1.add_output("y", g);
        let stopped = |configure: &dyn Fn(&mut BddManager)| {
            let mut mgr = BddManager::new();
            configure(&mut mgr);
            check_equiv_stats(&n1, &n1.clone(), mgr)
        };
        let raised = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let interrupted = Err(CircuitBddError::Bdd(BddError::Interrupted));
        assert_eq!(stopped(&|m| m.set_interrupt(raised.clone())), interrupted);
        let past = std::time::Instant::now();
        assert_eq!(stopped(&|m| m.set_deadline(past)), interrupted);
        assert!(stopped(&|_| {}).unwrap().0, "an unstopped check answers");
    }

    #[test]
    fn constants_build() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let one = nl.const1();
        let g = nl.add_gate(GateKind::And, &[a, one]).unwrap();
        nl.add_output("y", g);
        let mut mgr = BddManager::new();
        let outs = build_outputs(&mut mgr, &nl).unwrap();
        assert_eq!(outs[0], mgr.var(0).unwrap());
    }
}
