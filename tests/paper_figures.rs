//! The paper's worked examples (Figures 1–4) as executable checks.

use gdo::{
    apply_rewrite, prove_rewrite, Gate3, GdoConfig, ProverKind, Rewrite, RewriteKind, SigLit, Site,
};
use library::{standard_library, Library};
use netlist::{Branch, GateKind, Netlist, SignalId};
use sat::{CircuitCnf, ClauseProver, SatResult};

/// Proves `rw` with the clause prover under the default conflict budget.
fn proves(nl: &Netlist, lib: &Library, rw: &Rewrite) -> bool {
    let conflict_budget = GdoConfig::default().conflict_budget;
    prove_rewrite(
        nl,
        lib,
        rw,
        ProverKind::SatClause,
        conflict_budget,
        None,
        None,
    )
    .expect("proves")
}

/// Figure 1: d = AND(a, b); e = NOT(c); f = OR(d, e).
fn fig1() -> (Netlist, [SignalId; 6]) {
    let mut nl = Netlist::new("fig1");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d = nl.add_gate(GateKind::And, &[a, b]).expect("live");
    let e = nl.add_gate(GateKind::Not, &[c]).expect("live");
    let f = nl.add_gate(GateKind::Or, &[d, e]).expect("live");
    nl.add_output("f", f);
    (nl, [a, b, c, d, e, f])
}

/// Figure 1 / Section 2: the characteristic formulas of the three gates,
/// checked clause by clause against the CNF encoding.
#[test]
fn fig1_characteristic_formulas() {
    let (nl, [a, b, c, d, e, f]) = fig1();
    let mut enc = CircuitCnf::build(&nl).expect("acyclic");
    // Each entry: a clause of the paper, as (signal, phase) literals. The
    // *negation* of a valid clause must be unsatisfiable.
    let clauses: Vec<Vec<(SignalId, bool)>> = vec![
        // AND gate: (!d + a)(!d + b)(d + !a + !b)
        vec![(d, false), (a, true)],
        vec![(d, false), (b, true)],
        vec![(d, true), (a, false), (b, false)],
        // Inverter: (c + e)(!c + !e)
        vec![(c, true), (e, true)],
        vec![(c, false), (e, false)],
        // OR gate: (f + !d)(f + !e)(!f + d + e)
        vec![(f, true), (d, false)],
        vec![(f, true), (e, false)],
        vec![(f, false), (d, true), (e, true)],
    ];
    for clause in clauses {
        let assumptions: Vec<sat::Lit> = clause
            .iter()
            .map(|&(s, phase)| enc.lit(s, !phase))
            .collect();
        assert_eq!(
            enc.solver_mut().solve(&assumptions),
            SatResult::Unsat,
            "clause {clause:?} does not hold"
        );
    }
}

/// Section 2's observability clauses on Figure 1.
#[test]
fn fig1_observability_clauses() {
    let (nl, [a, b, _c, d, e, _f]) = fig1();
    // (!O_a + O_d) is about observability variables; our prover handles
    // signal-literal clauses, so check its signal-level consequences:
    // (!O_a + b) and (!O_b + a).
    let mut p = ClauseProver::new(&nl, a.into()).expect("acyclic");
    assert!(p.is_valid(&[(b, true)]));
    let mut p = ClauseProver::new(&nl, b.into()).expect("acyclic");
    assert!(p.is_valid(&[(a, true)]));
    // (!O_d + !e): d observable through the OR requires e = 0.
    let mut p = ClauseProver::new(&nl, d.into()).expect("acyclic");
    assert!(p.is_valid(&[(e, false)]));
}

/// Figure 2: inserting an AND gate on a cut connection is permissible iff
/// the C2-clause (!O_a + !a + b) is valid.
#[test]
fn fig2_and_insertion() {
    // Build a circuit where (!O_t + !t + u) holds: t drives an AND with
    // side input u... simplest witness: t = AND(x, u) itself — whenever t
    // is 1, u is 1, regardless of observability.
    let mut nl = Netlist::new("fig2");
    let x = nl.add_input("x");
    let u = nl.add_input("u");
    let t = nl.add_gate(GateKind::And, &[x, u]).expect("live");
    let y = nl.add_gate(GateKind::Not, &[t]).expect("live");
    nl.add_output("y", y);
    let reference = nl.clone();

    let mut p = ClauseProver::new(&nl, Branch { cell: y, pin: 0 }.into()).expect("acyclic");
    assert!(
        p.is_valid(&[(t, false), (u, true)]),
        "C2 clause must be valid"
    );

    // The associated transformation: cut y's input and insert AND(t, u).
    let lib = standard_library();
    let rw = Rewrite {
        site: Site::Branch(Branch { cell: y, pin: 0 }),
        kind: RewriteKind::Sub3 {
            gate: Gate3::And(true, true),
            b: t,
            c: u,
        },
    };
    assert!(proves(&nl, &lib, &rw));
    apply_rewrite(&mut nl, &lib, &rw, true).expect("applies");
    nl.validate().expect("sound");
    assert!(reference.equiv_exhaustive(&nl).expect("small"));
}

/// Figure 3: OS2 substitutes a stem and prunes its cone; IS2 rewires one
/// branch.
#[test]
fn fig3_os2_and_is2() {
    // Stem a computed redundantly next to b with the same function.
    let mut nl = Netlist::new("fig3");
    let x = nl.add_input("x");
    let y = nl.add_input("y");
    let b = nl.add_gate(GateKind::Nor, &[x, y]).expect("live");
    // a = NOT(OR(x, y)) — same function, different structure.
    let o = nl.add_gate(GateKind::Or, &[x, y]).expect("live");
    let a = nl.add_gate(GateKind::Not, &[o]).expect("live");
    let g1 = nl.add_gate(GateKind::Xor, &[a, x]).expect("live");
    let g2 = nl.add_gate(GateKind::Xnor, &[a, y]).expect("live");
    nl.add_output("g1", g1);
    nl.add_output("g2", g2);
    nl.add_output("b", b);
    let reference = nl.clone();
    let lib = standard_library();

    // Theorem 1's clause pair for OS2(a, b).
    let mut p = ClauseProver::new(&nl, a.into()).expect("acyclic");
    assert!(p.is_valid(&[(a, true), (b, false)]));
    assert!(p.is_valid(&[(a, false), (b, true)]));

    let os2 = Rewrite {
        site: Site::Stem(a),
        kind: RewriteKind::Sub2 { b: SigLit::pos(b) },
    };
    assert!(proves(&nl, &lib, &os2));
    let gates_before = nl.stats().gates;
    apply_rewrite(&mut nl, &lib, &os2, true).expect("applies");
    nl.validate().expect("sound");
    assert!(reference.equiv_exhaustive(&nl).expect("small"));
    assert!(
        nl.stats().gates < gates_before,
        "OS2 must prune the redundant cone"
    );
    // Both consumers now read b.
    assert_eq!(nl.fanins(g1)[0], b);
    assert_eq!(nl.fanins(g2)[0], b);

    // IS2 on a single branch: rewire only g1's pin back through a fresh
    // equivalent — rebuild the redundant cone and move one branch.
    let o2 = nl.add_gate(GateKind::Or, &[x, y]).expect("live");
    let a2 = nl.add_gate(GateKind::Not, &[o2]).expect("live");
    let is2 = Rewrite {
        site: Site::Branch(Branch { cell: g1, pin: 0 }),
        kind: RewriteKind::Sub2 { b: SigLit::pos(a2) },
    };
    assert!(proves(&nl, &lib, &is2));
    apply_rewrite(&mut nl, &lib, &is2, true).expect("applies");
    nl.validate().expect("sound");
    assert!(reference.equiv_exhaustive(&nl).expect("small"));
    // Only the g1 branch moved; g2 still reads b.
    assert_eq!(nl.fanins(g1)[0], a2);
    assert_eq!(nl.fanins(g2)[0], b);
}

/// Figure 4: OS3 with an AND gate — Theorem 2's clause triple.
#[test]
fn fig4_os3_with_and() {
    let mut nl = Netlist::new("fig4");
    let p = nl.add_input("p");
    let q = nl.add_input("q");
    // a computed slowly as NOR of inverters; equals AND(p, q).
    let np = nl.add_gate(GateKind::Not, &[p]).expect("live");
    let nq = nl.add_gate(GateKind::Not, &[q]).expect("live");
    let a = nl.add_gate(GateKind::Nor, &[np, nq]).expect("live");
    let out = nl.add_gate(GateKind::Xor, &[a, p]).expect("live");
    nl.add_output("out", out);
    let reference = nl.clone();
    let lib = standard_library();

    // Theorem 2: (!O_a + !a + b)(!O_a + !a + c)(!O_a + a + !b + !c).
    let mut prover = ClauseProver::new(&nl, a.into()).expect("acyclic");
    assert!(prover.is_valid(&[(a, false), (p, true)]));
    assert!(prover.is_valid(&[(a, false), (q, true)]));
    assert!(prover.is_valid(&[(a, true), (p, false), (q, false)]));

    let os3 = Rewrite {
        site: Site::Stem(a),
        kind: RewriteKind::Sub3 {
            gate: Gate3::And(true, true),
            b: p,
            c: q,
        },
    };
    assert!(proves(&nl, &lib, &os3));
    apply_rewrite(&mut nl, &lib, &os3, true).expect("applies");
    nl.validate().expect("sound");
    assert!(reference.equiv_exhaustive(&nl).expect("small"));
    // The inverter/NOR cone died; a fresh AND2 took its place.
    let new_a = nl.fanins(out)[0];
    assert_eq!(nl.kind(new_a), GateKind::And);
}
