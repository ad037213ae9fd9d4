//! Soundness of the sweeping equivalence checker: on random netlists
//! paired with their mapped form, a cleaned-up clone and mutated copies,
//! [`sat::check_equiv_sweep`] agrees with the monolithic miter
//! ([`sat::check_equiv`]) and with exhaustive simulation.

use library::{standard_library, MapGoal, Mapper};
use netlist::{Branch, GateKind, Netlist, SignalId};
use proptest::prelude::*;

/// How the second netlist of a pair derives from the first.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// Technology-mapped for area.
    Mapped,
    /// Structurally hashed and swept.
    Cleaned,
    /// One gate's kind swapped for another that takes its fanins.
    FlipKind,
    /// One gate input rewired to another signal.
    Rewire,
}

#[derive(Debug, Clone)]
struct Pair {
    seed: u64,
    inputs: usize,
    gates: usize,
    variant: Variant,
    vectors: usize,
}

fn pair_strategy() -> impl Strategy<Value = Pair> {
    (
        0u64..1 << 32,
        3usize..=10,
        4usize..=200,
        0usize..4,
        0usize..2,
    )
        .prop_map(|(seed, inputs, gates, variant, vectors)| Pair {
            seed,
            inputs,
            gates,
            variant: [
                Variant::Mapped,
                Variant::Cleaned,
                Variant::FlipKind,
                Variant::Rewire,
            ][variant],
            // Few vectors make coincidental signature matches common.
            vectors: [64, 256][vectors],
        })
}

/// A value in `0..n` drawn from `seed` and `salt`.
fn pick(seed: u64, salt: u64, n: usize) -> usize {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % n as u64) as usize
}

fn derive(a: &Netlist, variant: Variant, seed: u64) -> Netlist {
    let mut b = a.clone();
    let gates: Vec<SignalId> = b.gates().filter(|&g| !b.fanins(g).is_empty()).collect();
    match variant {
        Variant::Mapped => {
            return Mapper::new(&standard_library())
                .goal(MapGoal::Area)
                .map(a)
                .expect("random logic maps");
        }
        Variant::Cleaned => {
            b.strash().expect("acyclic");
            b.sweep().expect("acyclic");
        }
        Variant::FlipKind if !gates.is_empty() => {
            use GateKind::*;
            let g = gates[pick(seed, 1, gates.len())];
            let fanins = b.fanins(g).to_vec();
            let kinds: &[GateKind] = if fanins.len() == 1 {
                &[Not, Buf]
            } else {
                &[And, Or, Nand, Nor, Xor, Xnor]
            };
            let others: Vec<GateKind> = kinds.iter().copied().filter(|&k| k != b.kind(g)).collect();
            let flipped = b
                .add_gate(others[pick(seed, 2, others.len())], &fanins)
                .expect("same arity");
            b.substitute_stem(g, flipped)
                .expect("a new gate is outside the fanout");
            b.prune_dangling();
        }
        Variant::Rewire if !gates.is_empty() => {
            let g = gates[pick(seed, 1, gates.len())];
            let pin = pick(seed, 2, b.fanins(g).len()) as u32;
            let signals: Vec<SignalId> = b.signals().collect();
            let source = signals[pick(seed, 3, signals.len())];
            // A source in the gate's own fanout would close a loop: the
            // copy then stays unchanged.
            if b.rewire_branch(Branch { cell: g, pin }, source).is_ok() {
                b.prune_dangling();
            }
        }
        Variant::FlipKind | Variant::Rewire => {}
    }
    b
}

/// Parity of `terms`, chained in order.
fn parity(nl: &mut Netlist, terms: &[SignalId]) -> SignalId {
    let mut acc = terms[0];
    for &t in &terms[1..] {
        acc = nl.add_gate(GateKind::Xor, &[acc, t]).expect("two fanins");
    }
    acc
}

/// A random netlist with an extra output, the parity of all its gates,
/// and a copy computing that parity in a shuffled order (with one term
/// left out when `drop_one`). The re-associated chain's internal signals
/// are new functions, so windows on it pass their cap.
fn parity_pair(seed: u64, drop_one: bool) -> (Netlist, Netlist) {
    let base = workloads::random_logic(seed, 10, 3, 600);
    let terms: Vec<SignalId> = base.gates().collect();
    let mut a = base.clone();
    let pa = parity(&mut a, &terms);
    a.add_output("parity", pa);

    let mut shuffled = terms;
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, pick(seed, i as u64, i + 1));
    }
    if drop_one {
        shuffled.pop();
    }
    let mut b = base;
    let pb = parity(&mut b, &shuffled);
    b.add_output("parity", pb);
    (a, b)
}

#[test]
fn mapped_datapath_sweeps_without_whole_formula_queries() {
    let nl = workloads::layered_datapath(40, 20);
    let mapped = Mapper::new(&standard_library())
        .goal(MapGoal::Area)
        .map(&nl)
        .expect("datapath maps");
    let (eq, stats) =
        sat::check_equiv_sweep_stats(&nl, &mapped, 256, 1995).expect("same interface");
    assert!(eq);
    // Every candidate closes over merged leaves: no window, no query on
    // the whole formula.
    assert_eq!(stats.merged, stats.candidates, "{stats:?}");
    assert_eq!((stats.window_merged, stats.sat_calls), (0, 0), "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sweep_agrees_with_miter_and_exhaustive_simulation(p in pair_strategy()) {
        let outputs = 1 + pick(p.seed, 0, 6);
        let a = workloads::random_logic(p.seed, p.inputs, outputs, p.gates);
        let b = derive(&a, p.variant, p.seed);
        let exhaustive = a.equiv_exhaustive(&b).expect("acyclic");
        prop_assert_eq!(sat::check_equiv(&a, &b).expect("same interface"), exhaustive);
        for (reference, other) in [(&a, &b), (&b, &a)] {
            let swept = sat::check_equiv_sweep(reference, other, p.vectors, p.seed)
                .expect("same interface");
            prop_assert_eq!(swept, exhaustive, "{:?}", p.variant);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sweep_agrees_on_cones_past_the_window_cap(seed in 0u64..1 << 32, drop_one in 0usize..2) {
        let (a, b) = parity_pair(seed, drop_one == 1);
        let exhaustive = a.equiv_exhaustive(&b).expect("acyclic");
        prop_assert_eq!(sat::check_equiv(&a, &b).expect("same interface"), exhaustive);
        prop_assert_eq!(sat::check_equiv_sweep(&a, &b, 64, seed).expect("same interface"), exhaustive);
    }
}
