//! The paper's Figure 3 transformations by hand: an output substitution
//! `OS2(a, b)` and an input substitution `IS2(a', b)`, proved by clause
//! analysis and applied to the netlist.
//!
//! ```text
//! cargo run -p gdo --example substitutions
//! ```

use gdo::{
    apply_rewrite, prove_rewrite, GdoConfig, ProverKind, Rewrite, RewriteKind, SigLit, Site,
};
use library::standard_library;
use netlist::{Branch, GateKind, Netlist};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = standard_library();
    // SAT conflicts allowed per clause query; running out counts as "not
    // proven", never as proven.
    let conflict_budget = GdoConfig::default().conflict_budget;

    // Circuit with a duplicated function: d1 = AND(a, b) directly,
    // d2 = NOT(NAND(a, b)) — same value on every input vector.
    let mut nl = Netlist::new("fig3");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d1 = nl.add_gate(GateKind::And, &[a, b])?;
    let n = nl.add_gate(GateKind::Nand, &[a, b])?;
    let d2 = nl.add_gate(GateKind::Not, &[n])?;
    let y1 = nl.add_gate(GateKind::Or, &[d1, c])?;
    let y2 = nl.add_gate(GateKind::Xor, &[d2, c])?;
    nl.add_output("y1", y1);
    nl.add_output("y2", y2);
    let reference = nl.clone();

    // --- OS2(d2, d1): replace the stem d2 by d1. ---
    // Theorem 1: permissible iff (!O_d2 + d2 + !d1)(!O_d2 + !d2 + d1) is
    // valid.
    let os2 = Rewrite {
        site: Site::Stem(d2),
        kind: RewriteKind::Sub2 { b: SigLit::pos(d1) },
    };
    println!("proving {os2} ...");
    assert!(prove_rewrite(
        &nl,
        &lib,
        &os2,
        ProverKind::SatClause,
        conflict_budget,
        None,
        None
    )?);
    apply_rewrite(&mut nl, &lib, &os2, true)?;
    println!(
        "applied; gates: {} -> pruned the NAND/NOT cone",
        nl.stats().gates
    );
    assert!(reference.equiv_exhaustive(&nl)?);

    // --- IS2 on a branch: rewire one input pin only. ---
    // y1 = OR(d1, c): the d1 branch of y1 can also be fed by... d1 itself
    // is optimal here, so demonstrate with a redundancy instead:
    // add t = AND(d1, d1-dominated logic) and rewire.
    let mut nl2 = Netlist::new("is2");
    let a = nl2.add_input("a");
    let b = nl2.add_input("b");
    let t = nl2.add_gate(GateKind::And, &[a, b])?;
    let u = nl2.add_gate(GateKind::Or, &[t, a])?; // u == a (absorption)
    let z = nl2.add_gate(GateKind::Xor, &[u, b])?;
    nl2.add_output("z", z);
    let reference2 = nl2.clone();
    // The branch (z, pin 0) currently reads u; u always equals a, so
    // IS2(u', a) is permissible.
    let is2 = Rewrite {
        site: Site::Branch(Branch { cell: z, pin: 0 }),
        kind: RewriteKind::Sub2 { b: SigLit::pos(a) },
    };
    println!("proving {is2} ...");
    assert!(prove_rewrite(
        &nl2,
        &lib,
        &is2,
        ProverKind::SatClause,
        conflict_budget,
        None,
        None
    )?);
    apply_rewrite(&mut nl2, &lib, &is2, true)?;
    assert!(reference2.equiv_exhaustive(&nl2)?);
    println!(
        "applied; the OR/AND cone died: {} gates remain",
        nl2.stats().gates
    );

    // An impermissible substitution is refuted, not applied.
    let bad = Rewrite {
        site: Site::Stem(d1),
        kind: RewriteKind::Sub2 { b: SigLit::pos(a) },
    };
    assert!(!prove_rewrite(
        &nl,
        &lib,
        &bad,
        ProverKind::SatClause,
        conflict_budget,
        None,
        None
    )?);
    println!("impermissible {bad} correctly refuted");
    Ok(())
}
