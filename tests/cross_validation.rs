//! Cross-validation between independent subsystems: the same question
//! answered by different engines must agree.
//!
//! * exhaustive BPFS masks vs. the SAT clause prover,
//! * SAT miter equivalence vs. BDD equivalence vs. exhaustive evaluation,
//! * mapper output vs. source function through file-format round trips.

use gdo::Site;
use library::{standard_library, MapGoal, Mapper};
use netlist::{GateKind, Netlist, SignalId};
use sim::{simulate, VectorSet};
use workloads::{random_logic, random_sop};

/// Small deterministic pseudo-random netlists for cross-checks.
fn small_circuits() -> Vec<Netlist> {
    vec![
        random_logic(11, 6, 3, 40),
        random_logic(22, 8, 4, 60),
        random_sop(33, 6, 4, 6, 3),
        workloads::sym_detector(5, 1, 3),
        workloads::datapath(3),
    ]
}

#[test]
fn bpfs_exhaustive_equals_sat_prover() {
    for (ci, nl) in small_circuits().into_iter().enumerate() {
        let n = nl.inputs().len();
        assert!(n <= 16, "keep cross-checks exhaustive");
        let vectors = VectorSet::exhaustive(n);
        let sim = simulate(&nl, &vectors).expect("acyclic");
        let gates: Vec<SignalId> = nl.gates().take(8).collect();
        let all: Vec<SignalId> = nl.signals().take(12).collect();
        let site_cands: Vec<(Site, Vec<SignalId>)> = gates
            .iter()
            .map(|&g| {
                (
                    Site::Stem(g),
                    all.iter().copied().filter(|&s| s != g).collect(),
                )
            })
            .collect();
        let rounds = gdo::run_c2(&nl, &sim, site_cands, 1, None).expect("acyclic");
        for round in &rounds {
            let Site::Stem(a) = round.site else {
                unreachable!()
            };
            let mut prover = sat::ClauseProver::new(&nl, a.into()).expect("acyclic");
            // C1 bits.
            for pa in [false, true] {
                let exact = prover.is_valid(&[(a, pa)]);
                let got = round.c1_alive & (1 << u8::from(pa)) != 0;
                assert_eq!(got, exact, "circuit {ci}: C1 site {a} phase {pa}");
            }
            // C2 bits for each candidate.
            for &b in all.iter().filter(|&&s| s != a) {
                let entry = round.pairs.iter().find(|p| p.b == b);
                for bit in 0..4u8 {
                    let pa = bit & 1 != 0;
                    let pb = bit & 2 != 0;
                    let exact = prover.is_valid(&[(a, pa), (b, pb)]);
                    let got = entry.is_some_and(|e| e.alive & (1 << bit) != 0);
                    assert_eq!(
                        got, exact,
                        "circuit {ci}: site {a} cand {b} phases ({pa},{pb})"
                    );
                }
            }
        }
    }
}

#[test]
fn three_equivalence_engines_agree() {
    for (ci, nl) in small_circuits().into_iter().enumerate() {
        // A genuinely equivalent restructuring: decompose to NAND2/INV.
        let subject = library::to_subject_graph(&nl).expect("acyclic");
        let exhaustive = nl.equiv_exhaustive(&subject).expect("small");
        let by_sat = sat::check_equiv(&nl, &subject).expect("same interface");
        let by_bdd = bdd::check_equiv(&nl, &subject, 1 << 22).expect("fits budget");
        assert!(exhaustive && by_sat && by_bdd, "circuit {ci}");

        // A corrupted copy: flip one gate kind; all engines must refute.
        let mut bad = subject.clone();
        let victim = bad.gates().next().expect("has gates");
        let fanins = bad.fanins(victim).to_vec();
        let flipped_kind = match bad.kind(victim) {
            GateKind::Nand => GateKind::And,
            _ => GateKind::Nand,
        };
        let replacement = match flipped_kind {
            GateKind::Nand if fanins.len() == 1 => {
                bad.add_gate(GateKind::Not, &[fanins[0]]).expect("live")
            }
            k => bad.add_gate(k, &fanins).expect("live"),
        };
        bad.substitute_stem(victim, replacement).expect("no cycle");
        bad.prune_dangling();
        let exhaustive = nl.equiv_exhaustive(&bad).expect("small");
        let by_sat = sat::check_equiv(&nl, &bad).expect("same interface");
        let by_bdd = bdd::check_equiv(&nl, &bad, 1 << 22).expect("fits budget");
        assert_eq!(exhaustive, by_sat, "circuit {ci}");
        assert_eq!(exhaustive, by_bdd, "circuit {ci}");
        // (Flipping a gate kind *usually* changes the function, but a
        // dominated gate may make the flip invisible — hence agreement,
        // not a hard "refuted" assertion.)
    }
}

#[test]
fn mapping_is_equivalence_preserving_on_random_circuits() {
    let lib = standard_library();
    for nl in small_circuits() {
        for goal in [MapGoal::Area, MapGoal::Delay] {
            let mapped = Mapper::new(&lib).goal(goal).map(&nl).expect("maps");
            mapped.validate().expect("sound");
            assert!(
                sat::check_equiv(&nl, &mapped).expect("same interface"),
                "{} under {goal:?}",
                nl.name()
            );
        }
    }
}

#[test]
fn format_round_trips_preserve_function() {
    for nl in small_circuits() {
        // BLIF handles every gate kind.
        let blif = formats::write_blif(&nl).expect("serializes");
        let back = formats::parse_blif(&blif).expect("own output parses");
        assert!(
            sat::check_equiv(&nl, &back).expect("same interface"),
            "blif round trip of {}",
            nl.name()
        );
        // .bench needs the basic-gate subset: decompose first.
        let subject = library::to_subject_graph(&nl).expect("acyclic");
        let bench_text = formats::write_bench(&subject).expect("serializes");
        let back = formats::parse_bench(&bench_text).expect("own output parses");
        assert!(
            sat::check_equiv(&subject, &back).expect("same interface"),
            "bench round trip of {}",
            nl.name()
        );
    }
}

#[test]
fn sim_matches_scalar_eval_on_suite_circuit() {
    let nl = workloads::circuit_by_name("C880").expect("suite").build();
    let vectors = VectorSet::random(nl.inputs().len(), 128, 5);
    let sim = simulate(&nl, &vectors).expect("acyclic");
    for v in [0usize, 17, 63, 127] {
        let ins: Vec<bool> = (0..nl.inputs().len()).map(|i| vectors.bit(i, v)).collect();
        let scalar = nl.eval_outputs(&ins).expect("acyclic");
        for (o, po) in nl.outputs().iter().enumerate() {
            assert_eq!(sim.bit(po.driver(), v), scalar[o], "vector {v} output {o}");
        }
    }
}
