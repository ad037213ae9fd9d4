//! Property tests for the incremental timing engine: after an arbitrary
//! sequence of netlist edits, [`TimingGraph::update`] must agree with a
//! from-scratch analysis on every arrival, required time and slack.
//!
//! The edit mix mirrors what the optimizer actually does: gate
//! insertions (new substitution logic), branch rewires (`IS2`/`IS3`
//! input substitutions), and stem substitutions followed by pruning
//! (`OS2`/`OS3` with redundancy removal). Each case runs both on a
//! generated random netlist and on the dp96 workload the benchmarks use.

use netlist::{Branch, GateKind, Netlist, SignalId};
use proptest::prelude::*;
use timing::{TimingGraph, UnitDelay};
use workloads::datapath;

/// The tightened tolerance: incremental propagation is exact, so the
/// deviation must be zero to within noise far below any real gate delay.
const TIGHT_EPS: f64 = 1e-12;

/// One random edit, encoded with indices resolved against the live
/// signal pool at application time (so every case is applicable no
/// matter how earlier edits reshaped the netlist).
#[derive(Debug, Clone)]
enum Edit {
    /// Insert a gate over existing signals; every third insertion also
    /// becomes a new primary output so the new logic is observable.
    InsertGate { kind: u8, fanins: Vec<usize> },
    /// Rewire one input pin (the paper's input substitution).
    RewireBranch { cell: usize, pin: usize, to: usize },
    /// Redirect a stem and prune the dangling cone (output substitution
    /// plus redundancy removal).
    SubstituteAndPrune { from: usize, to: usize },
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0u8..6, proptest::collection::vec(0usize..256, 1..4))
            .prop_map(|(kind, fanins)| Edit::InsertGate { kind, fanins }),
        (0usize..256, 0usize..4, 0usize..256).prop_map(|(cell, pin, to)| Edit::RewireBranch {
            cell,
            pin,
            to
        }),
        (0usize..256, 0usize..256).prop_map(|(from, to)| Edit::SubstituteAndPrune { from, to }),
    ]
}

/// Applies one edit, tolerating structural rejections (cycles, bad
/// pins): a rejected edit must simply leave graph and netlist in sync.
fn apply_edit(nl: &mut Netlist, e: &Edit, outputs_added: &mut usize) {
    let pool: Vec<SignalId> = nl.signals().collect();
    assert!(!pool.is_empty());
    let pick = |i: usize| pool[i % pool.len()];
    match e {
        Edit::InsertGate { kind, fanins } => {
            let kind = match kind % 6 {
                0 => GateKind::And,
                1 => GateKind::Or,
                2 => GateKind::Nand,
                3 => GateKind::Xor,
                4 => GateKind::Not,
                _ => GateKind::Nor,
            };
            let arity = if kind == GateKind::Not {
                1
            } else {
                fanins.len().clamp(2, 4)
            };
            let ins: Vec<SignalId> = (0..arity)
                .map(|i| pick(*fanins.get(i).unwrap_or(&i)))
                .collect();
            if let Ok(g) = nl.add_gate(kind, &ins) {
                if outputs_added.is_multiple_of(3) {
                    nl.add_output(format!("tp{outputs_added}"), g);
                }
                *outputs_added += 1;
            }
        }
        Edit::RewireBranch { cell, pin, to } => {
            let branch = Branch {
                cell: pick(*cell),
                pin: *pin as u32,
            };
            let _ = nl.rewire_branch(branch, pick(*to));
        }
        Edit::SubstituteAndPrune { from, to } => {
            if nl.substitute_stem(pick(*from), pick(*to)).is_ok() {
                nl.prune_dangling();
            }
        }
    }
}

/// Drives the incremental engine through `edits` (one `update` per edit,
/// exactly as the optimizer consumes the journal) and checks it against
/// a from-scratch analysis at both the default and tightened tolerance.
fn check_incremental_matches_full(mut nl: Netlist, edits: &[Edit]) -> Result<(), TestCaseError> {
    let model = UnitDelay;
    let mut tg = TimingGraph::from_scratch(&nl, &model).expect("acyclic seed");
    nl.record_edits();
    let mut outputs_added = 0usize;
    for e in edits {
        apply_edit(&mut nl, e, &mut outputs_added);
        let delta = nl.take_delta();
        tg.update(&nl, &model, &delta);
    }
    nl.validate().expect("edits preserve structural invariants");

    let fresh = TimingGraph::from_scratch(&nl, &model).expect("still acyclic");
    let dev = tg
        .deviation_from_scratch(&nl, &model)
        .expect("still acyclic");
    // Default tolerance: the criticality eps every consumer works with.
    prop_assert!(
        dev <= fresh.eps().max(TIGHT_EPS),
        "deviation {dev} exceeds eps {}",
        fresh.eps()
    );
    // Tightened tolerance: propagation is exact.
    prop_assert!(dev <= TIGHT_EPS, "deviation {dev} exceeds {TIGHT_EPS}");
    prop_assert!((tg.circuit_delay() - fresh.circuit_delay()).abs() <= TIGHT_EPS);
    prop_assert!((tg.worst_slack() - fresh.worst_slack()).abs() <= TIGHT_EPS);
    for s in nl.signals() {
        prop_assert!(
            (tg.arrival(s) - fresh.arrival(s)).abs() <= TIGHT_EPS,
            "arrival({s}) drifted"
        );
        let (r, fr) = (tg.required(s), fresh.required(s));
        prop_assert!(
            (r - fr).abs() <= TIGHT_EPS || (r == fr),
            "required({s}) drifted: {r} vs {fr}"
        );
        let (sl, fsl) = (tg.slack(s), fresh.slack(s));
        prop_assert!(
            (sl - fsl).abs() <= TIGHT_EPS || (sl == fsl),
            "slack({s}) drifted: {sl} vs {fsl}"
        );
    }
    Ok(())
}

/// A generated random netlist: a small seed interface grown by the same
/// insertion machinery the property exercises, so depth and fanout vary
/// per case.
fn random_netlist(grow: &[Edit]) -> Netlist {
    let mut nl = Netlist::new("random");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d = nl.add_input("d");
    let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
    let g2 = nl.add_gate(GateKind::Xor, &[g1, c]).unwrap();
    let g3 = nl.add_gate(GateKind::Nor, &[g2, d]).unwrap();
    nl.add_output("y", g3);
    let mut outputs_added = 1usize;
    for e in grow {
        if let Edit::InsertGate { .. } = e {
            apply_edit(&mut nl, e, &mut outputs_added);
        }
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random netlist, random edit sequence: incremental == full.
    #[test]
    fn incremental_matches_full_on_random_netlists(
        grow in proptest::collection::vec(edit_strategy(), 8..32),
        edits in proptest::collection::vec(edit_strategy(), 1..24),
    ) {
        check_incremental_matches_full(random_netlist(&grow), &edits)?;
    }
}

proptest! {
    // dp96 is the benchmark workload; a from-scratch cross-check per
    // case is a full STA of the whole datapath, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The dp96 benchmark workload under random edit sequences.
    #[test]
    fn incremental_matches_full_on_dp96(
        edits in proptest::collection::vec(edit_strategy(), 1..16),
    ) {
        check_incremental_matches_full(datapath(96), &edits)?;
    }
}
