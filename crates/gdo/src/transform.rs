//! Realization of rewrites on the mapped netlist: inserting phase
//! inverters and new gates (with library bindings), performing the
//! substitution, pruning, the arrival/area estimation used for ranking,
//! and the exact area change the area phase checks before a proof.

use crate::{Gate3, GdoError, Rewrite, RewriteKind, Site};
use library::{LibCellId, Library, LibraryError};
use netlist::{Fanout, GateKind, Netlist, SignalId};
use timing::{DelayModel, LibDelay, TimingGraph};

/// Picks the library cell for an inserted gate: fastest in the delay
/// phase, smallest in the area phase.
pub(crate) fn pick(lib: &Library, kind: GateKind, arity: usize, fast: bool) -> Option<LibCellId> {
    if fast {
        lib.fastest(kind, arity)
    } else {
        lib.cheapest(kind, arity)
    }
}

pub(crate) fn pick_or_err(
    lib: &Library,
    kind: GateKind,
    arity: usize,
    fast: bool,
) -> Result<LibCellId, GdoError> {
    pick(lib, kind, arity, fast).ok_or(GdoError::Library(LibraryError::IncompleteLibrary(
        "cell for an inserted gate",
    )))
}

/// Finds an existing inverter driven by `s`, reusable instead of
/// inserting a new one. Inverters in `forbidden` (the site's fanout cone,
/// where reuse would close a combinational loop) are skipped.
pub(crate) fn existing_inverter(
    nl: &Netlist,
    s: SignalId,
    forbidden: &netlist::SignalSet,
    root: SignalId,
) -> Option<SignalId> {
    nl.fanouts(s).iter().find_map(|fo| match *fo {
        Fanout::Gate { cell, .. }
            if nl.kind(cell) == GateKind::Not && cell != root && !forbidden.contains(cell) =>
        {
            Some(cell)
        }
        _ => None,
    })
}

/// Materializes `s` or `!s`, reusing an existing inverter when possible.
pub(crate) fn realize_literal(
    nl: &mut Netlist,
    lib: &Library,
    s: SignalId,
    positive: bool,
    fast: bool,
    forbidden: &netlist::SignalSet,
    root: SignalId,
) -> Result<SignalId, GdoError> {
    if positive {
        return Ok(s);
    }
    if let Some(inv) = existing_inverter(nl, s, forbidden, root) {
        return Ok(inv);
    }
    let cell = pick_or_err(lib, GateKind::Not, 1, fast)?;
    let g = nl.add_gate(GateKind::Not, &[s])?;
    nl.set_lib(g, Some(cell.tag()))?;
    Ok(g)
}

/// The gate kind and leg phases realizing a [`Gate3`] with one library
/// cell (phases folded into NOR/NAND where possible).
fn gate3_plan(gate: Gate3) -> (GateKind, bool, bool) {
    match gate {
        Gate3::And(true, true) => (GateKind::And, true, true),
        Gate3::And(false, false) => (GateKind::Nor, true, true),
        Gate3::And(pb, pc) => (GateKind::And, pb, pc),
        Gate3::Or(true, true) => (GateKind::Or, true, true),
        Gate3::Or(false, false) => (GateKind::Nand, true, true),
        Gate3::Or(pb, pc) => (GateKind::Or, pb, pc),
        Gate3::Xor => (GateKind::Xor, true, true),
        Gate3::Xnor => (GateKind::Xnor, true, true),
    }
}

/// Builds the replacement signal of a rewrite, returning it without yet
/// touching the site.
fn realize_replacement(
    nl: &mut Netlist,
    lib: &Library,
    rw: &Rewrite,
    fast: bool,
) -> Result<SignalId, GdoError> {
    let root = rw.site.cone_root();
    let forbidden = nl.transitive_fanout(root);
    match rw.kind {
        RewriteKind::Sub2 { b } => {
            realize_literal(nl, lib, b.signal, b.positive, fast, &forbidden, root)
        }
        RewriteKind::SubConst { value } => Ok(if value { nl.const1() } else { nl.const0() }),
        RewriteKind::Sub3 { gate, b, c } => {
            let (kind, pb, pc) = gate3_plan(gate);
            let cell = pick_or_err(lib, kind, 2, fast)?;
            let leg_b = realize_literal(nl, lib, b, pb, fast, &forbidden, root)?;
            let leg_c = realize_literal(nl, lib, c, pc, fast, &forbidden, root)?;
            let g = nl.add_gate(kind, &[leg_b, leg_c])?;
            nl.set_lib(g, Some(cell.tag()))?;
            Ok(g)
        }
    }
}

/// Applies a rewrite to the netlist: realizes the replacement, performs
/// the stem/branch substitution, prunes the dead cone, and (for constant
/// substitutions) sweeps and rebinds.
///
/// # Errors
///
/// [`GdoError::Netlist`] if the substitution is structurally illegal
/// (callers should have checked [`Rewrite::is_applicable`]) or
/// [`GdoError::Library`] if no cell exists for an inserted gate.
pub fn apply_rewrite(
    nl: &mut Netlist,
    lib: &Library,
    rw: &Rewrite,
    fast: bool,
) -> Result<(), GdoError> {
    let replacement = realize_replacement(nl, lib, rw, fast)?;
    #[cfg(feature = "fault-inject")]
    let replacement = fault::maybe_corrupt(nl, lib, replacement, fast)?;
    match rw.site {
        Site::Stem(a) => {
            nl.substitute_stem(a, replacement)?;
        }
        Site::Branch(br) => {
            nl.rewire_branch(br, replacement)?;
        }
    }
    nl.prune_dangling();
    if matches!(rw.kind, RewriteKind::SubConst { .. }) {
        // Constant substitutions enable constant propagation; sweep and
        // restore library bindings on rewritten gates.
        nl.sweep()?;
        rebind_unbound(nl, lib, fast);
    }
    Ok(())
}

/// Binds any unbound gate to a library cell of its kind/arity (best
/// effort; gates with no matching cell stay unbound and are covered by
/// the delay model's fallback).
pub fn rebind_unbound(nl: &mut Netlist, lib: &Library, fast: bool) {
    let unbound: Vec<SignalId> = nl.gates().filter(|&g| nl.cell(g).lib().is_none()).collect();
    for g in unbound {
        if let Some(cell) = pick(lib, nl.kind(g), nl.fanins(g).len(), fast) {
            nl.set_lib(g, Some(cell.tag())).expect("live gate");
        }
    }
}

/// Estimates the arrival time of the replacement signal a rewrite would
/// produce (the new arrival at the site), for LDS ranking. Matches the
/// realization of [`apply_rewrite`], including inverter reuse.
#[must_use]
pub fn estimate_arrival(
    nl: &Netlist,
    lib: &Library,
    tg: &TimingGraph,
    rw: &Rewrite,
    fast: bool,
) -> f64 {
    let root = rw.site.cone_root();
    let forbidden = nl.transitive_fanout(root);
    let lit_arrival = |s: SignalId, positive: bool| -> f64 {
        if positive {
            tg.arrival(s)
        } else if let Some(inv) = existing_inverter(nl, s, &forbidden, root) {
            tg.arrival(inv)
        } else {
            tg.arrival(s) + cell_delay(lib, GateKind::Not, 1, fast, 0)
        }
    };
    match rw.kind {
        RewriteKind::Sub2 { b } => lit_arrival(b.signal, b.positive),
        RewriteKind::SubConst { .. } => 0.0,
        RewriteKind::Sub3 { gate, b, c } => {
            let (kind, pb, pc) = gate3_plan(gate);
            let ab = lit_arrival(b, pb) + cell_delay(lib, kind, 2, fast, 0);
            let ac = lit_arrival(c, pc) + cell_delay(lib, kind, 2, fast, 1);
            ab.max(ac)
        }
    }
}

fn cell_delay(lib: &Library, kind: GateKind, arity: usize, fast: bool, pin: usize) -> f64 {
    pick(lib, kind, arity, fast).map_or(1.0, |id| lib.cell(id).pin_delays()[pin])
}

/// The gates that die if `stem` loses all of its fanout while every
/// signal in `keep` stays in use: `stem` itself and, transitively, each
/// fanin gate all of whose fanouts die. A kept signal never dies, so
/// neither does the fanin it needs.
pub(crate) fn dead_cone(nl: &Netlist, stem: SignalId, keep: &[SignalId]) -> netlist::SignalSet {
    let mut dead = netlist::SignalSet::with_capacity(nl.capacity());
    if nl.kind(stem).is_source() || keep.contains(&stem) {
        return dead;
    }
    dead.insert(stem);
    let mut frontier = vec![stem];
    while let Some(g) = frontier.pop() {
        for &f in nl.fanins(g) {
            if dead.contains(f) || nl.kind(f).is_source() || keep.contains(&f) {
                continue;
            }
            let all_dead = nl.fanouts(f).iter().all(|fo| match *fo {
                Fanout::Gate { cell, .. } => dead.contains(cell),
                Fanout::Po(_) => false,
            });
            if all_dead {
                dead.insert(f);
                frontier.push(f);
            }
        }
    }
    dead
}

/// Area of the cone that would die if `stem` lost all of its fanout:
/// the paper's "gates exclusively necessary to compute `a`". A gate
/// without a library binding counts 1.
#[must_use]
pub fn dead_cone_area(nl: &Netlist, lib: &Library, stem: SignalId) -> f64 {
    dead_cone(nl, stem, &[])
        .iter()
        .map(|g| lib.binding(nl, g).map_or(1.0, library::LibCell::area))
        .sum()
}

/// What realizing `rw`'s replacement costs, mirroring
/// [`realize_replacement`]: the area of the cells it adds, and the
/// existing signals it reads — a positive leg's signal, a reused
/// inverter, or a new inverter's input — which stay in use.
fn replacement_cost(nl: &Netlist, lib: &Library, rw: &Rewrite, fast: bool) -> (f64, Vec<SignalId>) {
    let root = rw.site.cone_root();
    let forbidden = nl.transitive_fanout(root);
    let cell_area = |kind: GateKind, arity: usize| -> f64 {
        pick(lib, kind, arity, fast).map_or(1.0, |id| lib.cell(id).area())
    };
    let leg = |s: SignalId, positive: bool| -> (f64, SignalId) {
        if positive {
            (0.0, s)
        } else if let Some(inv) = existing_inverter(nl, s, &forbidden, root) {
            (0.0, inv)
        } else {
            (cell_area(GateKind::Not, 1), s)
        }
    };
    match rw.kind {
        RewriteKind::Sub2 { b } => {
            let (added, read) = leg(b.signal, b.positive);
            (added, vec![read])
        }
        RewriteKind::SubConst { .. } => (0.0, Vec::new()),
        RewriteKind::Sub3 { gate, b, c } => {
            let (kind, pb, pc) = gate3_plan(gate);
            let ((added_b, read_b), (added_c, read_c)) = (leg(b, pb), leg(c, pc));
            (cell_area(kind, 2) + added_b + added_c, vec![read_b, read_c])
        }
    }
}

/// The stem whose cone a rewrite frees: the stem itself, or a branch's
/// source when the branch is its only fanout.
fn freed_stem(nl: &Netlist, site: Site) -> Option<SignalId> {
    match site {
        Site::Stem(a) => Some(a),
        Site::Branch(br) => {
            let src = nl.branch_source(br).expect("live branch");
            (nl.fanout_count(src) == 1).then_some(src)
        }
    }
}

/// Estimated area change of a rewrite: positive values mean area is
/// *saved*. Counts the site's whole dead cone as freed, minus inserted
/// cells; the ranking key of the area phase.
#[must_use]
pub fn estimate_area_delta(nl: &Netlist, lib: &Library, rw: &Rewrite, fast: bool) -> f64 {
    let (added, _) = replacement_cost(nl, lib, rw, fast);
    let saved = freed_stem(nl, rw.site).map_or(0.0, |stem| dead_cone_area(nl, lib, stem));
    saved - added
}

/// The area change [`apply_rewrite`] makes, as the [`LibDelay`] model
/// counts it: positive values mean area is saved. Unlike
/// [`estimate_area_delta`], the signals the replacement reads stay
/// alive, so only the rest of the site's dead cone is freed, and a gate
/// without a binding counts as the model counts it. Exact for `Sub2` and
/// `Sub3`; for a constant substitution it is the estimate, since the
/// sweep that follows is not modelled.
#[must_use]
pub fn exact_area_delta(nl: &Netlist, lib: &Library, rw: &Rewrite, fast: bool) -> f64 {
    if matches!(rw.kind, RewriteKind::SubConst { .. }) {
        return estimate_area_delta(nl, lib, rw, fast);
    }
    let (added, reads) = replacement_cost(nl, lib, rw, fast);
    let model = LibDelay::new(lib);
    let saved: f64 = freed_stem(nl, rw.site).map_or(0.0, |stem| {
        dead_cone(nl, stem, &reads)
            .iter()
            .map(|g| model.area(nl, g))
            .sum()
    });
    saved - added
}

/// Test-only fault injection (cargo feature `fault-inject`): corrupts an
/// applied rewrite by inverting its replacement signal, so tests can
/// prove that the verify-with-rollback safety net catches a bad
/// transform end to end. Not compiled into default builds.
#[cfg(feature = "fault-inject")]
pub mod fault {
    use super::{pick_or_err, GateKind, GdoError, Library, Netlist, SignalId};
    use std::sync::atomic::{AtomicI64, Ordering};

    /// Rewrites left before one gets corrupted; negative = disarmed.
    static COUNTDOWN: AtomicI64 = AtomicI64::new(-1);

    /// Arms the hook: the `nth` rewrite applied from now on (`0` = the
    /// very next one) has its replacement signal inverted, then the hook
    /// disarms itself. Process-global — tests sharing a binary must
    /// serialize around it.
    pub fn arm(nth: u64) {
        COUNTDOWN.store(nth as i64, Ordering::SeqCst);
    }

    /// Disarms the hook without firing.
    pub fn disarm() {
        COUNTDOWN.store(-1, Ordering::SeqCst);
    }

    pub(super) fn maybe_corrupt(
        nl: &mut Netlist,
        lib: &Library,
        replacement: SignalId,
        fast: bool,
    ) -> Result<SignalId, GdoError> {
        if COUNTDOWN.load(Ordering::SeqCst) < 0 {
            return Ok(replacement);
        }
        if COUNTDOWN.fetch_sub(1, Ordering::SeqCst) != 0 {
            return Ok(replacement);
        }
        // Invert the replacement: structurally valid, functionally wrong —
        // exactly the class of bug checkpoint verification must catch.
        let cell = pick_or_err(lib, GateKind::Not, 1, fast)?;
        let g = nl.add_gate(GateKind::Not, &[replacement])?;
        nl.set_lib(g, Some(cell.tag()))?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SigLit;
    use library::standard_library;

    fn mapped_sample() -> (Netlist, Library, [SignalId; 5]) {
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = nl.add_gate(GateKind::Nand, &[g2, b]).unwrap();
        for g in [g1, g3] {
            let cell = lib.find("nand2").unwrap();
            nl.set_lib(g, Some(cell.tag())).unwrap();
        }
        nl.set_lib(g2, Some(lib.find("inv1").unwrap().tag()))
            .unwrap();
        nl.add_output("y", g3);
        (nl, lib, [a, b, g1, g2, g3])
    }

    #[test]
    fn apply_sub2_positive() {
        let (mut nl, lib, [a, _b, _g1, g2, g3]) = mapped_sample();
        let rw = Rewrite {
            site: Site::Stem(g2),
            kind: RewriteKind::Sub2 { b: SigLit::pos(a) },
        };
        apply_rewrite(&mut nl, &lib, &rw, true).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.fanins(g3)[0], a);
        // g1 and g2 died.
        assert_eq!(nl.stats().gates, 1);
    }

    #[test]
    fn apply_sub2_negative_inserts_bound_inverter() {
        let (mut nl, lib, [_a, b, _g1, g2, g3]) = mapped_sample();
        let rw = Rewrite {
            site: Site::Stem(g2),
            kind: RewriteKind::Sub2 { b: SigLit::neg(b) },
        };
        apply_rewrite(&mut nl, &lib, &rw, true).unwrap();
        nl.validate().unwrap();
        let new_src = nl.fanins(g3)[0];
        assert_eq!(nl.kind(new_src), GateKind::Not);
        // Fast mode picks the strongest inverter.
        assert_eq!(lib.binding(&nl, new_src).unwrap().name(), "inv4");
    }

    #[test]
    fn apply_sub3_with_folded_phases() {
        let (mut nl, lib, [a, b, _g1, g2, _g3]) = mapped_sample();
        // a := AND(!a', !b') folds into a NOR cell.
        let rw = Rewrite {
            site: Site::Stem(g2),
            kind: RewriteKind::Sub3 {
                gate: Gate3::And(false, false),
                b: a,
                c: b,
            },
        };
        apply_rewrite(&mut nl, &lib, &rw, false).unwrap();
        nl.validate().unwrap();
        let g3 = nl.outputs()[0].driver();
        let new_src = nl.fanins(g3)[0];
        assert_eq!(nl.kind(new_src), GateKind::Nor);
        assert_eq!(nl.fanins(new_src), &[a, b]);
    }

    #[test]
    fn apply_branch_rewire() {
        let (mut nl, lib, [a, _b, _g1, g2, g3]) = mapped_sample();
        let rw = Rewrite {
            site: Site::Branch(netlist::Branch { cell: g3, pin: 0 }),
            kind: RewriteKind::Sub2 { b: SigLit::pos(a) },
        };
        apply_rewrite(&mut nl, &lib, &rw, true).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.fanins(g3)[0], a);
        assert!(!nl.is_live(g2), "sole-fanout source cone pruned");
    }

    #[test]
    fn const_substitution_sweeps_and_rebinds() {
        let (mut nl, lib, [_a, _b, _g1, g2, _g3]) = mapped_sample();
        let rw = Rewrite {
            site: Site::Stem(g2),
            kind: RewriteKind::SubConst { value: true },
        };
        apply_rewrite(&mut nl, &lib, &rw, false).unwrap();
        nl.validate().unwrap();
        // g3 = NAND(1, b) = NOT(b): sweep reduces, rebind tags it.
        let drv = nl.outputs()[0].driver();
        assert_eq!(nl.kind(drv), GateKind::Not);
        assert!(nl.cell(drv).lib().is_some());
    }

    #[test]
    fn inverter_reuse() {
        let (mut nl, lib, [_a, b, _g1, g2, _g3]) = mapped_sample();
        // Pre-existing inverter on b.
        let inv = nl.add_gate(GateKind::Not, &[b]).unwrap();
        nl.set_lib(inv, Some(lib.find("inv1").unwrap().tag()))
            .unwrap();
        nl.add_output("z", inv);
        let before = nl.stats().gates;
        let rw = Rewrite {
            site: Site::Stem(g2),
            kind: RewriteKind::Sub2 { b: SigLit::neg(b) },
        };
        apply_rewrite(&mut nl, &lib, &rw, true).unwrap();
        nl.validate().unwrap();
        // No new inverter: g1+g2 die (-2), nothing added.
        assert_eq!(nl.stats().gates, before - 2);
    }

    #[test]
    fn arrival_estimate_matches_applied_sta() {
        let (nl, lib, [a, b, _g1, g2, _g3]) = mapped_sample();
        let model = LibDelay::new(&lib);
        let tg = TimingGraph::from_scratch(&nl, &model).unwrap();
        let rw = Rewrite {
            site: Site::Stem(g2),
            kind: RewriteKind::Sub3 {
                gate: Gate3::And(true, true),
                b: a,
                c: b,
            },
        };
        let est = estimate_arrival(&nl, &lib, &tg, &rw, true);
        let mut applied = nl.clone();
        apply_rewrite(&mut applied, &lib, &rw, true).unwrap();
        let tg2 = TimingGraph::from_scratch(&applied, &model).unwrap();
        let g3 = applied.outputs()[0].driver();
        let new_src = applied.fanins(g3)[0];
        assert!((tg2.arrival(new_src) - est).abs() < 1e-9);
    }

    #[test]
    fn dead_cone_area_counts_exclusive_logic() {
        let (nl, lib, [_a, _b, g1, g2, _g3]) = mapped_sample();
        // Killing g2 also kills g1 (sole fanout): inv1 (1.0) + nand2 (2.0).
        assert!((dead_cone_area(&nl, &lib, g2) - 3.0).abs() < 1e-9);
        // Killing g1 alone: nand2 only.
        assert!((dead_cone_area(&nl, &lib, g1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn area_delta_estimation() {
        let (nl, lib, [a, _b, _g1, g2, _g3]) = mapped_sample();
        let rw = Rewrite {
            site: Site::Stem(g2),
            kind: RewriteKind::Sub2 { b: SigLit::pos(a) },
        };
        // Saves g1+g2 (3.0), adds nothing.
        assert!((estimate_area_delta(&nl, &lib, &rw, false) - 3.0).abs() < 1e-9);
    }
}
