//! Exactness of the area phase's pre-proof check: on random netlists,
//! mapped for area and unmapped, [`gdo::exact_area_delta`] equals the
//! area that [`gdo::apply_rewrite`] actually frees, summed with the
//! optimizer's [`LibDelay`] model, for stem and branch substitutions by
//! one signal (`Sub2`, both phases) or by an inserted gate (`Sub3`,
//! every [`Gate3`] and every leg phase).
//!
//! Constant substitutions are left out: `apply_rewrite` sweeps the
//! constant through its fanout and rebinds the gates the sweep rewrote,
//! which the delta does not model, so for them it returns the ranking
//! estimate. Whether a drawn rewrite is *valid* does not matter here: the
//! test measures area, not function.

use gdo::{apply_rewrite, estimate_area_delta, exact_area_delta};
use gdo::{Gate3, Rewrite, RewriteKind, SigLit, Site};
use library::{standard_library, Library, MapGoal, Mapper};
use netlist::{Branch, GateKind, Netlist, SignalId};
use proptest::prelude::*;
use timing::{DelayModel, LibDelay};

/// A value in `0..n` drawn from `seed` and `salt`.
fn pick(seed: u64, salt: u64, n: usize) -> usize {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % n as u64) as usize
}

fn total_area(nl: &Netlist, lib: &Library) -> f64 {
    let model = LibDelay::new(lib);
    nl.gates().map(|g| model.area(nl, g)).sum()
}

const GATES3: [Gate3; 10] = [
    Gate3::And(true, true),
    Gate3::And(true, false),
    Gate3::And(false, true),
    Gate3::And(false, false),
    Gate3::Or(true, true),
    Gate3::Or(true, false),
    Gate3::Or(false, true),
    Gate3::Or(false, false),
    Gate3::Xor,
    Gate3::Xnor,
];

/// The `draw`-th random rewrite of `nl`: a stem (a gate with fanout) or a
/// branch (any gate input) substituted by a literal or by a two-input
/// gate over two distinct signals.
fn draw_rewrite(nl: &Netlist, seed: u64, draw: u64) -> Rewrite {
    let salt = draw * 8;
    let stems: Vec<SignalId> = nl.gates().filter(|&g| nl.fanout_count(g) > 0).collect();
    let readable: Vec<SignalId> = nl
        .signals()
        .filter(|&s| !matches!(nl.kind(s), GateKind::Const0 | GateKind::Const1))
        .collect();
    let site = if pick(seed, salt, 2) == 0 {
        Site::Stem(stems[pick(seed, salt + 1, stems.len())])
    } else {
        let cell = stems[pick(seed, salt + 1, stems.len())];
        let pin = pick(seed, salt + 2, nl.fanins(cell).len()) as u32;
        Site::Branch(Branch { cell, pin })
    };
    let b = readable[pick(seed, salt + 3, readable.len())];
    let kind = if pick(seed, salt + 4, 2) == 0 {
        RewriteKind::Sub2 {
            b: SigLit {
                signal: b,
                positive: pick(seed, salt + 5, 2) == 0,
            },
        }
    } else {
        let mut c = readable[pick(seed, salt + 5, readable.len())];
        if c == b {
            c = readable[(pick(seed, salt + 5, readable.len()) + 1) % readable.len()];
        }
        RewriteKind::Sub3 {
            gate: GATES3[pick(seed, salt + 6, GATES3.len())],
            b,
            c,
        }
    };
    Rewrite { site, kind }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_area_delta_is_the_area_apply_frees(
        seed in 0u64..1 << 32,
        inputs in 3usize..=10,
        gates in 10usize..=200,
    ) {
        let lib = standard_library();
        let outputs = 1 + pick(seed, 0, 6);
        let mut random = workloads::random_logic(seed, inputs, outputs, gates);
        let mut mapped = Mapper::new(&lib).goal(MapGoal::Area).map(&random).expect("maps");
        // `apply_rewrite` prunes every dangling gate, so any already
        // present would count as freed by whichever rewrite came first.
        prop_assert_eq!(mapped.prune_dangling(), 0);
        random.prune_dangling();
        // The unmapped netlist, as `gdo-opt --no-map` optimizes it: its
        // gates have no binding, so the model counts each at the
        // cheapest cell of its kind.
        for nl in [mapped, random] {
            let before = total_area(&nl, &lib);
            for draw in 0..32 {
                let rw = draw_rewrite(&nl, seed, draw);
                if !rw.is_applicable(&nl) {
                    continue;
                }
                let exact = exact_area_delta(&nl, &lib, &rw, false);
                let mut applied = nl.clone();
                apply_rewrite(&mut applied, &lib, &rw, false).expect("applicable");
                let freed = before - total_area(&applied, &lib);
                prop_assert!((exact - freed).abs() < 1e-9, "{rw}: exact {exact}, freed {freed}");
            }
        }
    }
}

/// `w = NAND(y, z)` with `y = NAND(NOT(x), z)` over inputs `x` and `z`:
/// `NOT(x)` feeds only `y`, so it lies in `y`'s dead cone.
fn inverter_cone() -> (Netlist, Library, [SignalId; 4]) {
    let lib = standard_library();
    let mut nl = Netlist::new("t");
    let x = nl.add_input("x");
    let z = nl.add_input("z");
    let nx = nl.add_gate(GateKind::Not, &[x]).unwrap();
    let y = nl.add_gate(GateKind::Nand, &[nx, z]).unwrap();
    let w = nl.add_gate(GateKind::Nand, &[y, z]).unwrap();
    nl.set_lib(nx, Some(lib.find("inv1").unwrap().tag()))
        .unwrap();
    for g in [y, w] {
        nl.set_lib(g, Some(lib.find("nand2").unwrap().tag()))
            .unwrap();
    }
    nl.add_output("w", w);
    (nl, lib, [x, nx, y, w])
}

#[test]
fn a_replacement_reading_the_dead_cone_keeps_it_alive() {
    let (nl, lib, [x, nx, y, _w]) = inverter_cone();
    // y := !x reuses the inverter inside y's cone: only y (nand2, 2.0)
    // dies, although the whole cone (3.0) would if y lost its fanout.
    let rw = Rewrite {
        site: Site::Stem(y),
        kind: RewriteKind::Sub2 { b: SigLit::neg(x) },
    };
    assert!(rw.is_applicable(&nl));
    assert!((estimate_area_delta(&nl, &lib, &rw, false) - 3.0).abs() < 1e-9);
    assert!((exact_area_delta(&nl, &lib, &rw, false) - 2.0).abs() < 1e-9);
    // y := AND(NOT(x), x), a new and2 (3.0) reading the inverter and x,
    // frees only y: a net loss of 1.0, where the estimate reads
    // 3.0 − 3.0 = 0.
    let rw = Rewrite {
        site: Site::Stem(y),
        kind: RewriteKind::Sub3 {
            gate: Gate3::And(true, true),
            b: nx,
            c: x,
        },
    };
    assert!((estimate_area_delta(&nl, &lib, &rw, false)).abs() < 1e-9);
    assert!((exact_area_delta(&nl, &lib, &rw, false) + 1.0).abs() < 1e-9);
    let mut applied = nl.clone();
    apply_rewrite(&mut applied, &lib, &rw, false).unwrap();
    assert!((total_area(&nl, &lib) - total_area(&applied, &lib) + 1.0).abs() < 1e-9);
}
