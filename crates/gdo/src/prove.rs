//! Exact proof of a candidate rewrite — the step that turns a
//! *potentially valid* clause combination into a permissible
//! transformation.
//!
//! The paper offers two provers and so do we:
//!
//! * **ATPG-style / SAT** ([`ProverKind::SatClause`], the default): each
//!   clause of the combination is checked by an incremental SAT query on
//!   a faulty-cone construction ([`sat::ClauseProver`]). Scales to large
//!   circuits.
//! * **BDD equivalence** ([`ProverKind::BddEquiv`]): the rewrite is
//!   applied to a scratch copy and the modified circuit is verified
//!   against the original with BDDs; on node-budget exhaustion the check
//!   falls back to a SAT miter, mirroring the paper's observation that
//!   "ATPG ... enables the optimization of circuits for which BDD
//!   representations become too large".

use crate::{transform, Budget, CexPool, GdoError, Rewrite};
use library::Library;
use netlist::Netlist;
use sat::{ClauseProver, ClauseVerdict};

/// Which engine proves PVCC validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProverKind {
    /// Incremental SAT on the observability clauses (default).
    #[default]
    SatClause,
    /// BDD equivalence of original vs. modified circuit, with SAT
    /// fallback past the node budget.
    BddEquiv {
        /// Maximum BDD nodes before falling back to SAT.
        node_limit: usize,
    },
    /// SAT miter equivalence of original vs. modified circuit.
    SatEquiv,
}

/// Proves whether `rw` is permissible on the current netlist.
///
/// `conflict_budget` caps the SAT conflicts of each clause query
/// ([`GdoConfig::conflict_budget`](crate::GdoConfig::conflict_budget) is
/// the usual value); exhausting it counts as *not proven*, so
/// optimization opportunities may be lost but never soundness.
///
/// Under a run `budget`, the proof is skipped outright when the budget
/// is already exhausted, and the budget's interrupt flag and deadline
/// reach into the SAT search so an in-flight query gives up at its next
/// conflict. A proof abandoned for budget reasons counts as *not proven*
/// (never cached as refuted by the optimizer) and bumps the
/// `prove.budget_refuted` counter. The BDD build of
/// [`ProverKind::BddEquiv`] is bounded by its node limit and stops on the
/// same interrupt and deadline. The SAT miter of [`ProverKind::SatEquiv`]
/// and of the BDD fallback runs within `conflict_budget` and honours the
/// interrupt and deadline like every other SAT query.
///
/// With a counterexample `pool`, the rewrite is first replayed against
/// the pool's earlier SAT witnesses ([`CexPool::refutes`]); a witness
/// that refutes it settles the proof without a SAT call (counted on
/// `prove.cex_refuted`). Every witness the SAT prover finds joins the
/// pool. The pool never changes a verdict, only what it costs; the
/// caller invalidates it whenever the netlist changes.
///
/// # Errors
///
/// [`GdoError`] if the scratch application of the rewrite fails
/// structurally (equivalence-based provers only).
pub fn prove_rewrite(
    nl: &Netlist,
    lib: &Library,
    rw: &Rewrite,
    prover: ProverKind,
    conflict_budget: u64,
    budget: Option<&Budget>,
    mut pool: Option<&mut CexPool>,
) -> Result<bool, GdoError> {
    let _span = telemetry::span("gdo.prove");
    if budget.is_some_and(Budget::is_exhausted) {
        telemetry::counter_add("prove.budget_refuted", 1);
        return Ok(false);
    }
    if let Some(pool) = pool.as_deref_mut() {
        if pool.refutes(nl, rw)? {
            telemetry::counter_add("prove.cex_refuted", 1);
            return Ok(false);
        }
    }
    match prover {
        ProverKind::SatClause => {
            // Restrict the encoding to the support of the fault cone and
            // the queried literals — cone-local proofs on large circuits.
            let clauses = rw.clauses(nl);
            let support: Vec<netlist::SignalId> = clauses
                .iter()
                .flat_map(|c| c.iter().map(|&(s, _)| s))
                .collect();
            let mut p = ClauseProver::with_support(nl, rw.site.fault(), &support)?;
            p.set_conflict_budget(conflict_budget);
            if let Some(b) = budget {
                p.set_interrupt(b.interrupt_flag(), b.deadline());
            }
            let mut valid = true;
            for clause in &clauses {
                match p.check(clause) {
                    ClauseVerdict::Valid => {}
                    ClauseVerdict::Refuted(witness) => {
                        if let Some(pool) = pool {
                            pool.push(nl, &witness);
                        }
                        valid = false;
                        break;
                    }
                    ClauseVerdict::Unknown => {
                        valid = false;
                        break;
                    }
                }
            }
            record_sat_stats(p.stats());
            if !valid && budget.is_some_and(Budget::is_exhausted) {
                // The failure is (at least partly) the budget's doing:
                // report it as skipped work, not as a refutation.
                telemetry::counter_add("prove.budget_refuted", 1);
            }
            Ok(valid)
        }
        ProverKind::BddEquiv { .. } | ProverKind::SatEquiv => {
            let mut modified = nl.clone();
            transform::apply_rewrite(&mut modified, lib, rw, true)?;
            if let ProverKind::BddEquiv { node_limit } = prover {
                let mut mgr = bdd::BddManager::with_node_limit(node_limit);
                if let Some(b) = budget {
                    mgr.set_interrupt(b.interrupt_flag());
                    if let Some(deadline) = b.deadline() {
                        mgr.set_deadline(deadline);
                    }
                }
                match bdd::check_equiv_stats(nl, &modified, mgr) {
                    Ok((eq, bdd_stats)) => {
                        record_bdd_stats(bdd_stats);
                        return Ok(eq);
                    }
                    // Stopped by the run budget: not proven.
                    Err(bdd::CircuitBddError::Bdd(bdd::BddError::Interrupted)) => {
                        telemetry::counter_add("prove.budget_refuted", 1);
                        return Ok(false);
                    }
                    // Node budget exhausted: fall back to SAT, as the
                    // paper prescribes for large circuits.
                    Err(bdd::CircuitBddError::Bdd(_)) => telemetry::counter_add("bdd.fallbacks", 1),
                    Err(bdd::CircuitBddError::Netlist(e)) => return Err(GdoError::Netlist(e)),
                    Err(_) => unreachable!("modified copy keeps the interface"),
                }
            }
            // The miter is bounded like a clause query; an unfinished
            // search is not a proof.
            let (mut enc, differ) = sat::build_miter(nl, &modified).map_err(equiv_to_gdo)?;
            let solver = enc.solver_mut();
            if let Some(b) = budget {
                solver.set_interrupt(b.interrupt_flag());
                if let Some(deadline) = b.deadline() {
                    solver.set_deadline(deadline);
                }
            }
            let verdict = solver.solve_limited(&[differ], conflict_budget);
            record_sat_stats(solver.stats());
            if verdict.is_none() && budget.is_some_and(Budget::is_exhausted) {
                telemetry::counter_add("prove.budget_refuted", 1);
            }
            Ok(verdict == Some(sat::SatResult::Unsat))
        }
    }
}

/// Accumulates one prove call's SAT search effort on the `sat.*`
/// counters. The solver keeps plain-integer tallies internally; this is
/// the only point where they cross into telemetry.
fn record_sat_stats(s: sat::SolverStats) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("sat.prove_calls", 1);
    telemetry::counter_add("sat.decisions", s.decisions);
    telemetry::counter_add("sat.conflicts", s.conflicts);
    telemetry::counter_add("sat.propagations", s.propagations);
    telemetry::counter_add("sat.learned", s.learned);
    telemetry::counter_add("sat.restarts", s.restarts);
}

/// Accumulates one BDD equivalence check's manager footprint on the
/// `bdd.*` counters.
fn record_bdd_stats(s: bdd::BddCheckStats) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("bdd.checks", 1);
    telemetry::counter_add("bdd.nodes", s.nodes as u64);
    telemetry::counter_add("bdd.ite_cache_entries", s.ite_cache_entries as u64);
}

fn equiv_to_gdo(e: sat::EquivError) -> GdoError {
    match e {
        sat::EquivError::Netlist(err) => GdoError::Netlist(err),
        _ => unreachable!("modified copy keeps the interface"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gate3, GdoConfig, RewriteKind, SigLit, Site};
    use library::standard_library;
    use netlist::{GateKind, SignalId};
    use std::time::{Duration, Instant};

    /// y = OR(a, AND(a, b)) — absorption makes AND(a,b) substitutable in
    /// several ways.
    fn absorption() -> (Netlist, Library, [SignalId; 4]) {
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.set_lib(t, Some(lib.find("and2").unwrap().tag()))
            .unwrap();
        nl.set_lib(y, Some(lib.find("or2").unwrap().tag())).unwrap();
        nl.add_output("y", y);
        (nl, lib, [a, b, t, y])
    }

    /// Proves `rw` with the default conflict budget and no run budget.
    fn prove(nl: &Netlist, lib: &Library, rw: &Rewrite, p: ProverKind) -> bool {
        prove_rewrite(
            nl,
            lib,
            rw,
            p,
            GdoConfig::default().conflict_budget,
            None,
            None,
        )
        .unwrap()
    }

    fn all_provers() -> [ProverKind; 3] {
        [
            ProverKind::SatClause,
            ProverKind::BddEquiv {
                node_limit: 1 << 16,
            },
            ProverKind::SatEquiv,
        ]
    }

    #[test]
    fn provers_agree_on_valid_const_sub() {
        let (nl, lib, [_a, _b, t, _y]) = absorption();
        // t is stuck-at-0 redundant: y = a + ab = a.
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::SubConst { value: false },
        };
        for p in all_provers() {
            assert!(prove(&nl, &lib, &rw, p), "{p:?}");
        }
    }

    #[test]
    fn provers_agree_on_invalid_sub() {
        let (nl, lib, [a, b, t, _y]) = absorption();
        // Substituting t by b is NOT permissible (b=1, a=0 distinguishes).
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::Sub2 { b: SigLit::pos(b) },
        };
        for p in all_provers() {
            assert!(!prove(&nl, &lib, &rw, p), "{p:?}");
        }
        let _ = a;
    }

    #[test]
    fn provers_agree_on_valid_sub2() {
        // d2 = NOT(NAND(a,b)) duplicates d1 = AND(a,b).
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let d1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let n = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let d2 = nl.add_gate(GateKind::Not, &[n]).unwrap();
        nl.add_output("o1", d1);
        nl.add_output("o2", d2);
        let rw = Rewrite {
            site: Site::Stem(d2),
            kind: RewriteKind::Sub2 { b: SigLit::pos(d1) },
        };
        for p in all_provers() {
            assert!(prove(&nl, &lib, &rw, p), "{p:?}");
        }
        // And the inverted substitution by the NAND output.
        let rw = Rewrite {
            site: Site::Stem(d2),
            kind: RewriteKind::Sub2 { b: SigLit::neg(n) },
        };
        // Structural note: n is d2's own fanin, not fanout — legal.
        for p in all_provers() {
            assert!(prove(&nl, &lib, &rw, p), "{p:?}");
        }
    }

    #[test]
    fn provers_agree_on_sub3() {
        // y drives PO; t = AND(a,b) computed via NAND+INV elsewhere:
        // replace the INV chain output by a *new* AND gate — always
        // permissible since it recomputes the same function.
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let t = nl.add_gate(GateKind::Not, &[n]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[t, a]).unwrap();
        nl.add_output("y", y);
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::Sub3 {
                gate: Gate3::And(true, true),
                b: a,
                c: b,
            },
        };
        for p in all_provers() {
            assert!(prove(&nl, &lib, &rw, p), "{p:?}");
        }
        // A wrong gate type is refuted.
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::Sub3 {
                gate: Gate3::Or(true, true),
                b: a,
                c: b,
            },
        };
        for p in all_provers() {
            assert!(!prove(&nl, &lib, &rw, p), "{p:?}");
        }
    }

    #[test]
    fn miter_proofs_stop_at_the_conflict_budget() {
        // o1 is the parity of eight inputs as a chain, o2 the same parity
        // as a balanced tree: replacing o1's driver by o2's is valid, but
        // its miter takes the solver more than one conflict.
        let lib = standard_library();
        let mut nl = Netlist::new("parity");
        let inputs: Vec<SignalId> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut chain = inputs[0];
        for &x in &inputs[1..] {
            chain = nl.add_gate(GateKind::Xor, &[chain, x]).unwrap();
        }
        let mut level = inputs.clone();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| nl.add_gate(GateKind::Xor, pair).unwrap())
                .collect();
        }
        nl.add_output("o1", chain);
        nl.add_output("o2", level[0]);
        let rw = Rewrite {
            site: Site::Stem(chain),
            kind: RewriteKind::Sub2 {
                b: SigLit::pos(level[0]),
            },
        };
        let prove_within = |conflicts| {
            prove_rewrite(&nl, &lib, &rw, ProverKind::SatEquiv, conflicts, None, None).unwrap()
        };
        assert!(prove_within(GdoConfig::default().conflict_budget));
        assert!(
            !prove_within(1),
            "an unfinished miter search must count as not proven"
        );
    }

    #[test]
    fn bdd_proofs_stop_on_the_run_budget() {
        // The BDDs of a 16×16 multiplier outgrow the node limit only after
        // millions of nodes; a run budget must stop the build long before.
        let lib = standard_library();
        let nl = workloads::array_multiplier(16);
        let last = nl.outputs().last().unwrap().driver();
        let rw = Rewrite {
            site: Site::Stem(last),
            kind: RewriteKind::SubConst { value: false },
        };
        let prover = ProverKind::BddEquiv {
            node_limit: 1 << 22,
        };
        let conflicts = GdoConfig::default().conflict_budget;
        let budget = Budget::new(Some(Duration::from_millis(50)), None);
        let start = Instant::now();
        let proven = prove_rewrite(&nl, &lib, &rw, prover, conflicts, Some(&budget), None).unwrap();
        let took = start.elapsed();
        assert!(!proven, "a check the budget stopped is not a proof");
        assert!(budget.is_exhausted());
        assert!(
            took < Duration::from_secs(2),
            "the BDD build ignored the deadline: {took:?}"
        );
    }

    #[test]
    fn bdd_fallback_on_tiny_budget_still_answers() {
        let (nl, lib, [a, _b, t, _y]) = absorption();
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::SubConst { value: false },
        };
        // A 3-node budget cannot even hold one variable: fallback to SAT.
        let ok = prove(&nl, &lib, &rw, ProverKind::BddEquiv { node_limit: 3 });
        assert!(ok);
        let _ = a;
    }
}
