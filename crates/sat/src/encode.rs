//! The Larrabee-style characteristic-formula encoding of Section 2 of the
//! paper: each gate contributes the CNF of its consistency function, so
//! the conjunction over all gates is true exactly for signal assignments
//! consistent with every truth table.

use crate::{Lit, Solver, Var};
use netlist::{GateKind, Netlist, NetlistError, SignalId};

/// A netlist encoded into a [`Solver`], with the signal-to-variable map.
///
/// # Example
///
/// The AND gate of the paper's Figure 1 contributes
/// `(!d + a)(!d + b)(d + !a + !b)`:
///
/// ```
/// use netlist::{Netlist, GateKind};
/// use sat::{CircuitCnf, Lit, SatResult};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let d = nl.add_gate(GateKind::And, &[a, b])?;
/// nl.add_output("d", d);
/// let mut enc = CircuitCnf::build(&nl)?;
/// // No assignment may have d=1 while a=0.
/// let assumptions = [Lit::pos(enc.var(d)), Lit::neg(enc.var(a))];
/// assert_eq!(enc.solver_mut().solve(&assumptions), SatResult::Unsat);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CircuitCnf {
    solver: Solver,
    vars: Vec<Var>,
}

impl CircuitCnf {
    /// Encodes every live gate of `nl` into a fresh solver.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    pub fn build(nl: &Netlist) -> Result<CircuitCnf, NetlistError> {
        Self::build_filtered(nl, |_| true)
    }

    /// Encodes only the gates within `include` (plus variable slots for
    /// everything, so [`var`](Self::var) stays O(1)).
    ///
    /// Restricting the encoding to a region is always *conservative* for
    /// validity queries: signals outside the region become unconstrained,
    /// which can only make counterexamples easier to find — never harder.
    /// The [`crate::ClauseProver`] uses this to keep proofs cone-local on
    /// large circuits.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG.
    pub fn build_restricted(
        nl: &Netlist,
        include: &netlist::SignalSet,
    ) -> Result<CircuitCnf, NetlistError> {
        Self::build_filtered(nl, |s| include.contains(s))
    }

    fn build_filtered(
        nl: &Netlist,
        mut include: impl FnMut(netlist::SignalId) -> bool,
    ) -> Result<CircuitCnf, NetlistError> {
        let mut enc = CircuitCnf {
            solver: Solver::new(),
            vars: Vec::new(),
        };
        // Dense allocation: one variable per signal slot (dead slots get
        // placeholder variables; harmless and keeps indexing O(1)).
        enc.vars = (0..nl.capacity()).map(|_| enc.solver.new_var()).collect();
        for s in nl.topo_order()? {
            if include(s) {
                enc.encode_gate(nl, s);
            }
        }
        Ok(enc)
    }

    /// The solver holding the encoding, for queries under assumptions.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Read-only access to the solver (statistics, variable counts).
    #[must_use]
    pub fn solver_ref(&self) -> &Solver {
        &self.solver
    }

    /// The CNF variable of a signal.
    #[must_use]
    pub fn var(&self, s: SignalId) -> Var {
        self.vars[s.index()]
    }

    /// A literal asserting `s = value`.
    #[must_use]
    pub fn lit(&self, s: SignalId, value: bool) -> Lit {
        Lit::with_sign(self.var(s), value)
    }

    /// Allocates an auxiliary variable (used by miters and fault cones).
    pub fn new_aux(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Encodes `y = kind(inputs)` over existing solver literals; shared
    /// with miters and the fault-cone construction in
    /// [`crate::ClauseProver`].
    pub(crate) fn encode_function(&mut self, y: Var, kind: GateKind, ins: &[Lit]) {
        encode_gate(&mut self.solver, Lit::pos(y), kind, ins);
    }

    fn encode_gate(&mut self, nl: &Netlist, s: SignalId) {
        let kind = nl.kind(s);
        if kind == GateKind::Input {
            return;
        }
        let y = self.var(s);
        let ins: Vec<Lit> = nl
            .fanins(s)
            .iter()
            .map(|&f| Lit::pos(self.var(f)))
            .collect();
        self.encode_function(y, kind, &ins);
    }
}

/// Encodes `y = kind(ins)` into `s`. Inputs and output are literals, so
/// a complemented fanin (as in the sweep's merged graph) needs no
/// inverter variable.
pub(crate) fn encode_gate(s: &mut Solver, yl: Lit, kind: GateKind, ins: &[Lit]) {
    match kind {
        GateKind::Input => {}
        GateKind::Const0 => {
            s.add_clause(&[!yl]);
        }
        GateKind::Const1 => {
            s.add_clause(&[yl]);
        }
        GateKind::Buf => {
            s.add_clause(&[!yl, ins[0]]);
            s.add_clause(&[yl, !ins[0]]);
        }
        GateKind::Not => {
            s.add_clause(&[!yl, !ins[0]]);
            s.add_clause(&[yl, ins[0]]);
        }
        GateKind::And | GateKind::Nand => {
            // `all` is the output literal asserted when every input is
            // high: y for AND, !y for NAND. Clauses: (!all + x_i) for
            // each input and (all + !x_1 + ... + !x_n).
            let all = if kind == GateKind::And { yl } else { !yl };
            for &x in ins {
                s.add_clause(&[!all, x]);
            }
            let mut wide: Vec<Lit> = ins.iter().map(|&x| !x).collect();
            wide.push(all);
            s.add_clause(&wide);
        }
        GateKind::Or | GateKind::Nor => {
            let high = if kind == GateKind::Or { yl } else { !yl };
            for &x in ins {
                s.add_clause(&[high, !x]);
            }
            let mut wide: Vec<Lit> = ins.to_vec();
            wide.push(!high);
            s.add_clause(&wide);
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain through auxiliary parity variables.
            let mut acc = ins[0];
            for &x in &ins[1..ins.len() - 1] {
                let t = Lit::pos(s.new_var());
                encode_xor2(s, t, acc, x);
                acc = t;
            }
            let last = ins[ins.len() - 1];
            if kind == GateKind::Xor {
                encode_xor2(s, yl, acc, last);
            } else {
                let t = Lit::pos(s.new_var());
                encode_xor2(s, t, acc, last);
                s.add_clause(&[!yl, !t]);
                s.add_clause(&[yl, t]);
            }
        }
        GateKind::Aoi21 => {
            // y = NOR(AND(a, b), c)
            let t = Lit::pos(s.new_var());
            encode_and2(s, t, ins[0], ins[1]);
            s.add_clause(&[!yl, !t]);
            s.add_clause(&[!yl, !ins[2]]);
            s.add_clause(&[yl, t, ins[2]]);
        }
        GateKind::Oai21 => {
            // y = NAND(OR(a, b), c)
            let t = Lit::pos(s.new_var());
            encode_or2(s, t, ins[0], ins[1]);
            s.add_clause(&[yl, t]);
            s.add_clause(&[yl, ins[2]]);
            s.add_clause(&[!yl, !t, !ins[2]]);
        }
        GateKind::Aoi22 => {
            let t1 = Lit::pos(s.new_var());
            let t2 = Lit::pos(s.new_var());
            encode_and2(s, t1, ins[0], ins[1]);
            encode_and2(s, t2, ins[2], ins[3]);
            s.add_clause(&[!yl, !t1]);
            s.add_clause(&[!yl, !t2]);
            s.add_clause(&[yl, t1, t2]);
        }
        GateKind::Oai22 => {
            let t1 = Lit::pos(s.new_var());
            let t2 = Lit::pos(s.new_var());
            encode_or2(s, t1, ins[0], ins[1]);
            encode_or2(s, t2, ins[2], ins[3]);
            s.add_clause(&[yl, t1]);
            s.add_clause(&[yl, t2]);
            s.add_clause(&[!yl, !t1, !t2]);
        }
    }
}

fn encode_and2(s: &mut Solver, y: Lit, a: Lit, b: Lit) {
    s.add_clause(&[!y, a]);
    s.add_clause(&[!y, b]);
    s.add_clause(&[y, !a, !b]);
}

fn encode_or2(s: &mut Solver, y: Lit, a: Lit, b: Lit) {
    s.add_clause(&[y, !a]);
    s.add_clause(&[y, !b]);
    s.add_clause(&[!y, a, b]);
}

/// Encodes `y = a XOR b`.
pub(crate) fn encode_xor2(s: &mut Solver, y: Lit, a: Lit, b: Lit) {
    s.add_clause(&[!y, a, b]);
    s.add_clause(&[!y, !a, !b]);
    s.add_clause(&[y, !a, b]);
    s.add_clause(&[y, a, !b]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;

    /// Checks that the encoding of a single gate admits exactly the rows
    /// of the gate's truth table.
    fn check_kind(kind: GateKind, n: usize) {
        let mut nl = Netlist::new("t");
        let ins: Vec<SignalId> = (0..n).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate(kind, &ins).unwrap();
        nl.add_output("y", g);
        let mut enc = CircuitCnf::build(&nl).unwrap();
        for v in 0u32..(1 << n) {
            let bools: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
            let expected = kind.eval(&bools);
            for y in [false, true] {
                let mut assumptions: Vec<Lit> = ins
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| enc.lit(s, bools[i]))
                    .collect();
                assumptions.push(enc.lit(g, y));
                let result = enc.solver_mut().solve(&assumptions);
                assert_eq!(
                    result.is_sat(),
                    y == expected,
                    "{kind} inputs {bools:?} output {y}"
                );
            }
        }
    }

    #[test]
    fn every_kind_encodes_its_truth_table() {
        use GateKind::*;
        for kind in [Buf, Not] {
            check_kind(kind, 1);
        }
        for kind in [And, Nand, Or, Nor, Xor, Xnor] {
            for n in 2..=4 {
                check_kind(kind, n);
            }
        }
        check_kind(Aoi21, 3);
        check_kind(Oai21, 3);
        check_kind(Aoi22, 4);
        check_kind(Oai22, 4);
    }

    #[test]
    fn constants_encode() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let one = nl.const1();
        let g = nl.add_gate(GateKind::And, &[a, one]).unwrap();
        nl.add_output("y", g);
        let mut enc = CircuitCnf::build(&nl).unwrap();
        // g must equal a.
        let ga = enc.lit(g, true);
        let an = enc.lit(a, false);
        assert_eq!(enc.solver_mut().solve(&[ga, an]), SatResult::Unsat);
    }

    #[test]
    fn fig1_clause_example() {
        // The paper's Fig. 1: d=AND(a,b), e=NOT(c), f=OR(d,e). The global
        // clause (!f + d + e) must hold in every consistent assignment.
        let mut nl = Netlist::new("fig1");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let e = nl.add_gate(GateKind::Not, &[c]).unwrap();
        let f = nl.add_gate(GateKind::Or, &[d, e]).unwrap();
        nl.add_output("f", f);
        let mut enc = CircuitCnf::build(&nl).unwrap();
        // Assert the negation of the clause: f=1, d=0, e=0 — must be unsat.
        let assumptions = [enc.lit(f, true), enc.lit(d, false), enc.lit(e, false)];
        assert_eq!(enc.solver_mut().solve(&assumptions), SatResult::Unsat);
        // But f=1, d=1 is consistent.
        let assumptions = [enc.lit(f, true), enc.lit(d, true)];
        assert!(enc.solver_mut().solve(&assumptions).is_sat());
    }
}
