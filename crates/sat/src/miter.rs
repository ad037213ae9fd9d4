//! Miter construction and combinational equivalence checking.

use crate::encode::encode_xor2;
use crate::{CircuitCnf, Lit, SatResult, Var};
use netlist::{Netlist, NetlistError};
use std::fmt;

/// Error raised when two netlists cannot be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EquivError {
    /// The interfaces differ (input or output counts).
    InterfaceMismatch {
        /// `(inputs, outputs)` of the left netlist.
        left: (usize, usize),
        /// `(inputs, outputs)` of the right netlist.
        right: (usize, usize),
    },
    /// One of the netlists is cyclic.
    Netlist(NetlistError),
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::InterfaceMismatch { left, right } => write!(
                f,
                "interface mismatch: left has {}/{} inputs/outputs, right has {}/{}",
                left.0, left.1, right.0, right.1
            ),
            EquivError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for EquivError {}

impl From<NetlistError> for EquivError {
    fn from(e: NetlistError) -> Self {
        EquivError::Netlist(e)
    }
}

/// Fails unless `a` and `b` have equally many inputs and outputs, which
/// every equivalence check matches positionally.
pub(crate) fn check_interfaces(a: &Netlist, b: &Netlist) -> Result<(), EquivError> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(EquivError::InterfaceMismatch {
            left: (a.inputs().len(), a.outputs().len()),
            right: (b.inputs().len(), b.outputs().len()),
        });
    }
    Ok(())
}

/// Builds a miter of two netlists into one solver: inputs are shared
/// positionally, corresponding outputs are XORed, and the returned literal
/// is true iff some output pair differs.
///
/// # Errors
///
/// [`EquivError::InterfaceMismatch`] if the interfaces differ, or
/// [`EquivError::Netlist`] if either netlist is cyclic.
pub fn build_miter(a: &Netlist, b: &Netlist) -> Result<(CircuitCnf, Lit), EquivError> {
    check_interfaces(a, b)?;
    let mut enc = CircuitCnf::build(a)?;
    // Encode b over fresh variables, except inputs which alias a's.
    let mut b_vars: Vec<Var> = Vec::with_capacity(b.capacity());
    for i in 0..b.capacity() {
        let _ = i;
        b_vars.push(enc.new_aux());
    }
    for (i, &pi) in b.inputs().iter().enumerate() {
        // Tie b's input to a's input variable with equality clauses.
        let av = enc.var(a.inputs()[i]);
        let bv = b_vars[pi.index()];
        enc.solver_mut().add_clause(&[Lit::neg(av), Lit::pos(bv)]);
        enc.solver_mut().add_clause(&[Lit::pos(av), Lit::neg(bv)]);
    }
    for s in b.topo_order()? {
        let kind = b.kind(s);
        if kind == netlist::GateKind::Input {
            continue;
        }
        let ins: Vec<Lit> = b
            .fanins(s)
            .iter()
            .map(|&f| Lit::pos(b_vars[f.index()]))
            .collect();
        let y = b_vars[s.index()];
        enc.encode_function(y, kind, &ins);
    }
    // XOR each output pair; OR the differences.
    let mut diffs: Vec<Lit> = Vec::with_capacity(a.outputs().len());
    for (pa, pb) in a.outputs().iter().zip(b.outputs()) {
        let d = enc.new_aux();
        let av = enc.var(pa.driver());
        let bv = b_vars[pb.driver().index()];
        encode_xor2(enc.solver_mut(), Lit::pos(d), Lit::pos(av), Lit::pos(bv));
        diffs.push(Lit::pos(d));
    }
    let any = enc.new_aux();
    // any -> (d1 | ... | dn)
    let mut wide = diffs.clone();
    wide.push(Lit::neg(any));
    enc.solver_mut().add_clause(&wide);
    // d_i -> any
    for &d in &diffs {
        enc.solver_mut().add_clause(&[!d, Lit::pos(any)]);
    }
    Ok((enc, Lit::pos(any)))
}

/// Checks combinational equivalence of two netlists (inputs and outputs
/// matched positionally). Returns `Ok(true)` when they compute the same
/// functions.
///
/// # Errors
///
/// See [`build_miter`].
///
/// # Example
///
/// ```
/// use netlist::{Netlist, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n1 = Netlist::new("nand");
/// let a = n1.add_input("a");
/// let b = n1.add_input("b");
/// let g = n1.add_gate(GateKind::Nand, &[a, b])?;
/// n1.add_output("y", g);
///
/// let mut n2 = Netlist::new("demorgan");
/// let a = n2.add_input("a");
/// let b = n2.add_input("b");
/// let na = n2.add_gate(GateKind::Not, &[a])?;
/// let nb = n2.add_gate(GateKind::Not, &[b])?;
/// let g = n2.add_gate(GateKind::Or, &[na, nb])?;
/// n2.add_output("y", g);
///
/// assert!(sat::check_equiv(&n1, &n2)?);
/// # Ok(())
/// # }
/// ```
pub fn check_equiv(a: &Netlist, b: &Netlist) -> Result<bool, EquivError> {
    let (mut enc, diff) = build_miter(a, b)?;
    Ok(enc.solver_mut().solve(&[diff]) == SatResult::Unsat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;

    fn xor_pair() -> (Netlist, Netlist) {
        let mut n1 = Netlist::new("xor");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let g = n1.add_gate(GateKind::Xor, &[a, b]).unwrap();
        n1.add_output("y", g);

        let mut n2 = Netlist::new("xor_sop");
        let a = n2.add_input("a");
        let b = n2.add_input("b");
        let na = n2.add_gate(GateKind::Not, &[a]).unwrap();
        let nb = n2.add_gate(GateKind::Not, &[b]).unwrap();
        let t1 = n2.add_gate(GateKind::And, &[a, nb]).unwrap();
        let t2 = n2.add_gate(GateKind::And, &[na, b]).unwrap();
        let g = n2.add_gate(GateKind::Or, &[t1, t2]).unwrap();
        n2.add_output("y", g);
        (n1, n2)
    }

    #[test]
    fn equivalent_pair_verifies() {
        let (n1, n2) = xor_pair();
        assert!(check_equiv(&n1, &n2).unwrap());
    }

    #[test]
    fn inequivalent_pair_refuted() {
        let (n1, mut n2) = xor_pair();
        // Turn the OR into NOR: now different.
        let drv = n2.outputs()[0].driver();
        let fanins = n2.fanins(drv).to_vec();
        let nor = n2.add_gate(GateKind::Nor, &fanins).unwrap();
        n2.substitute_stem(drv, nor).unwrap();
        n2.prune_dangling();
        assert!(!check_equiv(&n1, &n2).unwrap());
    }

    #[test]
    fn interface_mismatch_detected() {
        let (n1, _) = xor_pair();
        let mut n3 = Netlist::new("one_in");
        let a = n3.add_input("a");
        n3.add_output("y", a);
        assert!(matches!(
            check_equiv(&n1, &n3),
            Err(EquivError::InterfaceMismatch { .. })
        ));
    }

    #[test]
    fn multi_output_equivalence() {
        // Half adder in two forms.
        let mut n1 = Netlist::new("ha1");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let s = n1.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let c = n1.add_gate(GateKind::And, &[a, b]).unwrap();
        n1.add_output("s", s);
        n1.add_output("c", c);

        let mut n2 = Netlist::new("ha2");
        let a = n2.add_input("a");
        let b = n2.add_input("b");
        let o = n2.add_gate(GateKind::Or, &[a, b]).unwrap();
        let c = n2.add_gate(GateKind::And, &[a, b]).unwrap();
        let nc = n2.add_gate(GateKind::Not, &[c]).unwrap();
        let s = n2.add_gate(GateKind::And, &[o, nc]).unwrap();
        n2.add_output("s", s);
        n2.add_output("c", c);
        assert!(check_equiv(&n1, &n2).unwrap());

        // Swap n2's outputs: now positionally inequivalent.
        let mut n3 = Netlist::new("ha3");
        let a = n3.add_input("a");
        let b = n3.add_input("b");
        let s = n3.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let c = n3.add_gate(GateKind::And, &[a, b]).unwrap();
        n3.add_output("c", c);
        n3.add_output("s", s);
        // n1 outputs (s, c); n3 outputs (c, s).
        assert!(!check_equiv(&n1, &n3).unwrap());
    }

    #[test]
    fn equivalence_after_mapping_round_trip() {
        // check_equiv agrees with exhaustive equivalence on random small
        // netlists (smoke-level cross-validation; deeper cross-checks live
        // in the integration suite).
        let (n1, n2) = xor_pair();
        assert_eq!(
            check_equiv(&n1, &n2).unwrap(),
            n1.equiv_exhaustive(&n2).unwrap()
        );
    }
}
