//! Counterexample replay never changes a verdict.
//!
//! The soundness property: over random netlists, every BPFS survivor the
//! counterexample pool refutes is refuted by all three provers, every SAT
//! witness replays through the simulator as a real counterexample, and
//! proving through a pool agrees with proving without one.
//!
//! The output pins: optimizing three fixed circuits reproduces the proof
//! counts and the exact mapped netlist that the optimizer produced before
//! the pool existed, and the `gdo,resub` pipeline reproduces the resub
//! rewrites and netlists it produced while it still simulated all 2,048
//! vectors of each round.

use gdo::{
    and_or_triple_requests, const_candidates, prove_rewrite, run_c2, run_c3, sub2_candidates,
    sub3_candidates, xor_triple_requests, Budget, CexPool, EngineId, GdoConfig, OptimizeRequest,
    Pipeline, ProverKind, Rewrite, Site,
};
use library::{standard_library, Library, MapGoal, Mapper};
use netlist::{Branch, GateKind, Netlist, SignalId};
use proptest::prelude::*;
use sat::{ClauseProver, ClauseVerdict};
use sim::{simulate, ObservabilityEngine, VectorSet};

#[derive(Debug, Clone)]
struct Recipe {
    n_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>,
    outputs: Vec<usize>,
    seed: u64,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (6usize..=12).prop_flat_map(|n_inputs| {
        let gate = (0u8..8, proptest::collection::vec(0usize..64, 1..4));
        (
            proptest::collection::vec(gate, 8..40),
            proptest::collection::vec(0usize..64, 1..4),
            0u64..1_000,
        )
            .prop_map(move |(gates, outputs, seed)| Recipe {
                n_inputs,
                gates,
                outputs,
                seed,
            })
    })
}

fn build(recipe: &Recipe) -> Netlist {
    let mut nl = Netlist::new("prop");
    let mut pool: Vec<SignalId> = (0..recipe.n_inputs)
        .map(|i| nl.add_input(format!("x{i}")))
        .collect();
    for (sel, fanin_refs) in &recipe.gates {
        let kind = match sel % 8 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Nand,
            3 => GateKind::Nor,
            4 | 5 => GateKind::Xor,
            6 => GateKind::Xnor,
            _ => GateKind::Not,
        };
        let arity = match kind {
            GateKind::Not => 1,
            _ => fanin_refs.len().clamp(2, 3),
        };
        let fanins: Vec<SignalId> = (0..arity)
            .map(|i| pool[fanin_refs.get(i).copied().unwrap_or(i) % pool.len()])
            .collect();
        if let Ok(g) = nl.add_gate(kind, &fanins) {
            pool.push(g);
        }
    }
    for (k, &o) in recipe.outputs.iter().enumerate() {
        nl.add_output(format!("z{k}"), pool[o % pool.len()]);
    }
    nl
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

/// Every stem with fanout and every branch of a multi-fanout signal,
/// each paired with every live signal outside its fanout cone.
fn sites(nl: &Netlist) -> Vec<(Site, Vec<SignalId>)> {
    let mut out = Vec::new();
    for g in nl.gates() {
        let mut here = Vec::new();
        if nl.fanout_count(g) > 0 {
            here.push(Site::Stem(g));
        }
        for (pin, &src) in nl.fanins(g).iter().enumerate() {
            if nl.fanout_count(src) > 1 && !nl.kind(src).is_source() {
                here.push(Site::Branch(Branch {
                    cell: g,
                    pin: pin as u32,
                }));
            }
        }
        for site in here {
            let tfo = nl.transitive_fanout(site.cone_root());
            let bs = nl
                .signals()
                .filter(|&s| s != site.cone_root() && !tfo.contains(s))
                .filter(|&s| !matches!(nl.kind(s), GateKind::Const0 | GateKind::Const1))
                .collect();
            out.push((site, bs));
        }
    }
    out
}

/// One BPFS round over 16 distinct vectors, so plenty of false
/// candidates survive: C1, C2 and C3 survivors that are still
/// applicable.
fn survivors(nl: &Netlist, seed: u64) -> Vec<Rewrite> {
    let n = nl.inputs().len();
    let random = VectorSet::random(n, 64, seed);
    let mut vectors = VectorSet::zeros(n, 64);
    for lane in 0..64 {
        let v: Vec<bool> = (0..n).map(|i| random.bit(i, lane % 16)).collect();
        vectors.set_vector(lane, &v);
    }
    let sim = simulate(nl, &vectors).expect("acyclic");
    let mut rounds = run_c2(nl, &sim, sites(nl), 1, None).expect("acyclic");
    let requests = rounds
        .iter()
        .map(|r| {
            let mut t = and_or_triple_requests(r, 8);
            t.extend(xor_triple_requests(r, 8));
            t
        })
        .collect();
    run_c3(nl, &sim, &mut rounds, requests, 1, None);
    rounds
        .iter()
        .flat_map(|r| {
            let mut rws = const_candidates(r);
            rws.extend(sub2_candidates(r));
            rws.extend(sub3_candidates(r));
            rws
        })
        .filter(|rw| rw.is_applicable(nl))
        .collect()
}

/// Replays `witness` through the simulator: the site must be observable
/// and every literal of `clause` false.
fn assert_replays(nl: &Netlist, site: Site, clause: &[(SignalId, bool)], witness: &[bool]) {
    let vectors = VectorSet::from_single(witness);
    let sim = simulate(nl, &vectors).expect("acyclic");
    let mut engine = ObservabilityEngine::new(nl, &sim).expect("acyclic");
    let obs = match site {
        Site::Stem(s) => engine.observability(s)[0],
        Site::Branch(b) => engine.observability_branch(b)[0],
    };
    assert_eq!(obs & 1, 1, "witness does not observe {site}");
    for &(s, positive) in clause {
        assert_ne!(sim.bit(s, 0), positive, "literal {s}={positive} is true");
    }
}

/// Checks every survivor of one BPFS round on `nl` (mapped here) and
/// returns how many the pool refuted and how many SAT witnesses it saw.
fn check_soundness(nl: &Netlist, seed: u64) -> Result<(usize, usize), TestCaseError> {
    let lib = standard_library();
    let nl = Mapper::new(&lib)
        .goal(MapGoal::Area)
        .map(nl)
        .expect("mapping succeeds");
    let budget = GdoConfig::default().conflict_budget;
    let (mut refutations, mut witnesses) = (0, 0);
    // `pool` is fed by the test's own SAT queries; `fed` only through
    // `prove_rewrite`, whose verdicts must match the pool-less ones.
    let mut pool = CexPool::new();
    let mut fed = CexPool::new();
    for rw in survivors(&nl, seed) {
        let refuted = pool.refutes(&nl, &rw).expect("acyclic");
        if refuted {
            refutations += 1;
            for p in all_provers() {
                let valid = prove_rewrite(&nl, &lib, &rw, p, budget, None, None).expect("proves");
                prop_assert!(!valid, "pool refuted {rw}, {p:?} proved it");
            }
        }
        let mut prover = ClauseProver::new(&nl, rw.site.fault()).expect("acyclic");
        for clause in rw.clauses(&nl) {
            match prover.check(&clause) {
                ClauseVerdict::Valid => {}
                ClauseVerdict::Refuted(witness) => {
                    assert_replays(&nl, rw.site, &clause, &witness);
                    pool.push(&nl, &witness);
                    witnesses += 1;
                    break;
                }
                ClauseVerdict::Unknown => panic!("tiny proofs conclude"),
            }
        }
        let plain = prove_rewrite(&nl, &lib, &rw, ProverKind::SatClause, budget, None, None)
            .expect("proves");
        let pooled = prove_rewrite(
            &nl,
            &lib,
            &rw,
            ProverKind::SatClause,
            budget,
            None,
            Some(&mut fed),
        )
        .expect("proves");
        prop_assert_eq!(plain, pooled, "the pool changed the verdict on {}", rw);
        prop_assert!(!(refuted && plain), "pool refuted valid {rw}");
    }
    Ok((refutations, witnesses))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pool_refutations_and_sat_witnesses_are_real(recipe in recipe_strategy()) {
        check_soundness(&build(&recipe), recipe.seed)?;
    }
}

#[test]
fn the_soundness_check_sees_refutations() {
    // The property above is only as strong as the refutations it meets.
    let (refutations, witnesses) =
        check_soundness(&workloads::random_logic(7, 8, 3, 16), 3).expect("sound");
    assert!(witnesses >= 1, "no SAT witness");
    assert!(refutations >= 1, "no pool refutation");
}

/// FNV-1a of `text`: a fixed digest of an optimized netlist's text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Maps `nl`, optimizes it with the default configuration and returns
/// `(proofs, proofs_valid, total_mods, digest of the mapped BLIF)`.
fn pin(lib: &Library, nl: &Netlist) -> (usize, usize, usize, u64) {
    let mut mapped = Mapper::new(lib).goal(MapGoal::Area).map(nl).expect("maps");
    let cfg = GdoConfig::builder().threads(1).build().expect("valid");
    let stats = gdo::optimize(lib, cfg, &mut mapped).expect("optimizes");
    let blif = library::write_mapped_blif(lib, &mapped).expect("writes");
    (
        stats.proofs,
        stats.proofs_valid,
        stats.total_mods(),
        fnv1a(&blif),
    )
}

#[test]
fn outputs_match_the_pre_pool_optimizer() {
    let lib = standard_library();
    let suite = |name: &str| workloads::lookup_circuit(name).expect("exists").build();
    for (name, nl, want) in [
        (
            "x3-smoke",
            workloads::random_logic(0x0333, 24, 16, 60),
            (113, 91, 91, 0xcaa4_0925_0c25_031d),
        ),
        ("Z5xp1", suite("Z5xp1"), (94, 85, 85, 0x4d13_bd38_4136_3da7)),
        ("C432", suite("C432"), (19, 9, 9, 0xb61c_78b5_5301_ba15)),
    ] {
        let got = pin(&lib, &nl);
        assert_eq!(
            got, want,
            "{name}: (proofs, proofs_valid, total_mods, BLIF digest)"
        );
    }
}

/// Maps `nl`, runs the `gdo,resub` pipeline with the default
/// configuration and returns `(resub_mods, proofs, proofs_valid,
/// total_mods, digest of the mapped BLIF)`.
fn resub_pin(lib: &Library, nl: &Netlist) -> (usize, usize, usize, usize, u64) {
    let mut mapped = Mapper::new(lib).goal(MapGoal::Area).map(nl).expect("maps");
    let cfg = GdoConfig::builder().threads(1).build().expect("valid");
    let budget = Budget::new(cfg.deadline, cfg.work_limit);
    let req = OptimizeRequest::new(cfg).engines(vec![EngineId::Gdo, EngineId::Resub]);
    let stats = Pipeline::new(lib)
        .run(&req, &mut mapped, &budget)
        .expect("optimizes");
    let blif = library::write_mapped_blif(lib, &mapped).expect("writes");
    (
        stats.resub_mods,
        stats.proofs,
        stats.proofs_valid,
        stats.total_mods(),
        fnv1a(&blif),
    )
}

#[test]
fn resub_outputs_match_the_full_width_engine() {
    let lib = standard_library();
    let suite = |name: &str| workloads::lookup_circuit(name).expect("exists").build();
    for (name, want) in [
        ("C432", (4, 29, 13, 13, 0x91dd_8fe1_5dda_5e47)),
        ("C880", (5, 42, 40, 40, 0x68d7_9c9c_69b4_14c0)),
    ] {
        let got = resub_pin(&lib, &suite(name));
        assert!(got.0 >= 1, "{name}: resub landed no rewrite");
        assert_eq!(
            got, want,
            "{name}: (resub_mods, proofs, proofs_valid, total_mods, BLIF digest)"
        );
    }
}
