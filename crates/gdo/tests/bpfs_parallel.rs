//! Bit-exactness of the parallel BPFS fan-out: for any circuit, any
//! site/candidate selection and any thread count, `run_c2` and `run_c3`
//! must produce exactly the survival masks of their one-thread runs. The parallel decomposition is per-site with an
//! index-ordered merge, so this holds by construction — this test keeps
//! it that way.

use gdo::{run_c2, run_c3, Gate3, Site, SiteRound, TripleEntry};
use netlist::{Branch, GateKind, Netlist, SignalId};
use proptest::prelude::*;
use sim::{simulate, VectorSet};

#[derive(Debug, Clone)]
struct Recipe {
    n_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>,
    outputs: Vec<usize>,
    seed: u64,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (3usize..=7).prop_flat_map(|n_inputs| {
        let gate = (0u8..8, proptest::collection::vec(0usize..64, 1..4));
        (
            proptest::collection::vec(gate, 2..40),
            proptest::collection::vec(0usize..64, 1..4),
            0u64..1024,
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

/// Every stem and branch site the optimizer could select, paired with
/// all other signals as pair candidates.
fn all_sites(nl: &Netlist) -> Vec<(Site, Vec<SignalId>)> {
    let mut sites: Vec<Site> = Vec::new();
    for g in nl.gates() {
        if nl.fanout_count(g) > 0 {
            sites.push(Site::Stem(g));
        }
        for pin in 0..nl.fanins(g).len() {
            if !nl.kind(nl.fanins(g)[pin]).is_source() {
                sites.push(Site::Branch(Branch {
                    cell: g,
                    pin: pin as u32,
                }));
            }
        }
    }
    sites
        .into_iter()
        .map(|site| {
            let src = site.source(nl);
            let bs: Vec<SignalId> = nl.signals().filter(|&s| s != src).collect();
            (site, bs)
        })
        .collect()
}

/// A dense probe set: every phase combination of a few (b, c) pairs.
fn triple_requests(round: &SiteRound) -> Vec<TripleEntry> {
    let mut out = Vec::new();
    for pair in round.pairs.windows(2).take(8) {
        for gate in [Gate3::And(true, true), Gate3::Or(false, true), Gate3::Xor] {
            out.push(TripleEntry {
                b: pair[0].b,
                c: pair[1].b,
                gate,
                needed: 0b1010_0101,
                alive: 0b1010_0101,
            });
        }
    }
    out
}

fn assert_rounds_equal(serial: &[SiteRound], threaded: &[SiteRound]) -> Result<(), TestCaseError> {
    prop_assert_eq!(serial.len(), threaded.len());
    for (s, t) in serial.iter().zip(threaded) {
        prop_assert_eq!(s.site, t.site, "site order must be deterministic");
        prop_assert_eq!(&s.obs, &t.obs, "observability differs at {:?}", s.site);
        prop_assert_eq!(s.c1_alive, t.c1_alive, "C1 mask differs at {:?}", s.site);
        prop_assert_eq!(&s.pairs, &t.pairs, "C2 masks differ at {:?}", s.site);
        prop_assert_eq!(&s.triples, &t.triples, "C3 masks differ at {:?}", s.site);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threaded_bpfs_is_bit_identical_to_serial(recipe in recipe_strategy()) {
        let nl = build(&recipe);
        if nl.outputs().is_empty() || nl.inputs().is_empty() {
            return Ok(());
        }
        let vectors = VectorSet::random(nl.inputs().len(), 256, recipe.seed);
        let sim = simulate(&nl, &vectors).expect("acyclic by construction");

        let mut serial = run_c2(&nl, &sim, all_sites(&nl), 1, None).expect("serial C2");
        let requests: Vec<Vec<TripleEntry>> = serial.iter().map(triple_requests).collect();
        run_c3(&nl, &sim, &mut serial, requests.clone(), 1, None);

        for threads in [2usize, 4, 8] {
            let mut par =
                run_c2(&nl, &sim, all_sites(&nl), threads, None).expect("threaded C2");
            run_c3(&nl, &sim, &mut par, requests.clone(), threads, None);
            assert_rounds_equal(&serial, &par)?;
        }
    }
}
