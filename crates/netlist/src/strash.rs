//! Structural hashing and constant/buffer sweeping.
//!
//! These are the generic netlist clean-up services used by the
//! `script_rugged` stand-in and after GDO substitutions: merging
//! structurally identical gates, propagating constants, collapsing buffer
//! and double-inverter chains, and removing duplicate fanins.

use crate::{GateKind, Netlist, NetlistError, SignalId};
use std::collections::HashMap;

impl Netlist {
    /// Merges structurally identical gates (same kind, same fanin multiset
    /// for commutative kinds, same fanin order otherwise, same library
    /// binding).
    ///
    /// Returns the number of gates merged away. Dead logic left behind by
    /// merging is pruned.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if the netlist is cyclic.
    pub fn strash(&mut self) -> Result<usize, NetlistError> {
        let order = self.topo_order()?;
        let rank = topo_rank(&order, self.capacity(), 1);
        let mut table: HashMap<(GateKind, Vec<SignalId>, Option<u32>), SignalId> = HashMap::new();
        // Union-find-free approach: process in topo order and track the
        // representative of every merged signal so later keys are built on
        // representatives.
        let mut rep: Vec<SignalId> = (0..self.capacity()).map(SignalId::from_index).collect();
        let mut merged = 0;
        for s in order {
            let kind = self.kind(s);
            if kind == GateKind::Input {
                continue;
            }
            let mut fanins: Vec<SignalId> = self.fanins(s).iter().map(|f| rep[f.index()]).collect();
            if kind.is_commutative() {
                fanins.sort_unstable();
            }
            let key = (kind, fanins, self.cell(s).lib());
            match table.get(&key) {
                Some(&canon) => {
                    // `canon` was visited first, so it precedes `s`; edges
                    // only climb in rank, so no loop can close.
                    debug_assert!(rank[canon.index()] < rank[s.index()]);
                    self.redirect_stem(s, canon);
                    rep[s.index()] = canon;
                    merged += 1;
                }
                None => {
                    table.insert(key, s);
                }
            }
        }
        if merged > 0 {
            self.prune_dangling();
        }
        Ok(merged)
    }

    /// Sweeps the netlist: propagates constants, collapses buffers and
    /// double inverters, removes duplicate fanins of idempotent gates,
    /// cancels duplicate XOR fanins, and detects `x AND !x` / `x OR !x`
    /// contradictions. Runs to a fixpoint.
    ///
    /// Returns the number of rewrites applied.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if the netlist is cyclic.
    pub fn sweep(&mut self) -> Result<usize, NetlistError> {
        let mut total = 0;
        loop {
            let n = self.sweep_pass()?;
            total += n;
            if n == 0 {
                break;
            }
        }
        if total > 0 {
            self.prune_dangling();
        }
        Ok(total)
    }

    fn sweep_pass(&mut self) -> Result<usize, NetlistError> {
        let order = self.topo_order()?;
        // Ranks spaced by two, so a gate built to replace `s` fits just
        // below it. Every edge climbs in rank, before and after each
        // redirect, so redirecting `s` to a lower rank cannot close a loop.
        let mut rank = topo_rank(&order, self.capacity(), 2);
        let mut rewrites = 0;
        for s in order {
            if !self.is_live(s) || self.fanouts(s).is_empty() {
                // Dead or dangling gates are pruned later, not rewritten.
                continue;
            }
            if let Some(replacement) = self.simplified(s)? {
                if replacement != s {
                    // The replacement is a fanin of `s` or of one of its
                    // fanins, a constant, or a gate just built from `s`'s
                    // fanins.
                    rank.resize(self.capacity(), usize::MAX);
                    if rank[replacement.index()] == usize::MAX {
                        rank[replacement.index()] = rank[s.index()] - 1;
                    }
                    debug_assert!(rank[replacement.index()] < rank[s.index()]);
                    debug_assert!(self
                        .fanins(replacement)
                        .iter()
                        .all(|f| rank[f.index()] < rank[replacement.index()]));
                    self.redirect_stem(s, replacement);
                    rewrites += 1;
                }
            }
        }
        Ok(rewrites)
    }

    /// Computes a simpler equivalent signal for `s`, creating helper gates
    /// if needed, or `None` when no simplification applies.
    fn simplified(&mut self, s: SignalId) -> Result<Option<SignalId>, NetlistError> {
        use GateKind::*;
        let kind = self.kind(s);
        let fanins: Vec<SignalId> = self.fanins(s).to_vec();
        let is_const = |nl: &Netlist, f: SignalId| match nl.kind(f) {
            Const0 => Some(false),
            Const1 => Some(true),
            _ => None,
        };
        match kind {
            Input | Const0 | Const1 | Aoi21 | Oai21 | Aoi22 | Oai22 => Ok(None),
            Buf => Ok(Some(fanins[0])),
            Not => {
                let f = fanins[0];
                match self.kind(f) {
                    Not => Ok(Some(self.fanins(f)[0])),
                    Const0 => Ok(Some(self.const1())),
                    Const1 => Ok(Some(self.const0())),
                    _ => Ok(None),
                }
            }
            And | Nand | Or | Nor => {
                let invert = matches!(kind, Nand | Nor);
                let is_and = matches!(kind, And | Nand);
                // Dominant / identity constants.
                let mut keep: Vec<SignalId> = Vec::with_capacity(fanins.len());
                let mut dominated = false;
                for &f in &fanins {
                    match is_const(self, f) {
                        Some(v) if v == is_and => {} // identity: drop
                        Some(_) => {
                            dominated = true;
                            break;
                        }
                        None => {
                            if !keep.contains(&f) {
                                keep.push(f);
                            }
                        }
                    }
                }
                if dominated {
                    let c = if is_and ^ invert {
                        self.const0()
                    } else {
                        self.const1()
                    };
                    return Ok(Some(c));
                }
                // x AND !x = 0 / x OR !x = 1.
                for &f in &keep {
                    if self.kind(f) == Not && keep.contains(&self.fanins(f)[0]) {
                        let c = if is_and ^ invert {
                            self.const0()
                        } else {
                            self.const1()
                        };
                        return Ok(Some(c));
                    }
                }
                match keep.len() {
                    0 => {
                        // All fanins were identity constants.
                        let c = if is_and ^ invert {
                            self.const1()
                        } else {
                            self.const0()
                        };
                        Ok(Some(c))
                    }
                    1 => {
                        if invert {
                            Ok(Some(self.add_gate(Not, &[keep[0]])?))
                        } else {
                            Ok(Some(keep[0]))
                        }
                    }
                    n if n < fanins.len() => Ok(Some(self.add_gate(kind, &keep)?)),
                    _ => Ok(None),
                }
            }
            Xor | Xnor => {
                let mut flip = kind == Xnor;
                // Count occurrences mod 2; constants fold into flip.
                let mut keep: Vec<SignalId> = Vec::new();
                for &f in &fanins {
                    match is_const(self, f) {
                        Some(v) => flip ^= v,
                        None => {
                            if let Some(pos) = keep.iter().position(|&x| x == f) {
                                keep.swap_remove(pos); // pair cancels
                            } else {
                                keep.push(f);
                            }
                        }
                    }
                }
                match keep.len() {
                    0 => {
                        let c = if flip { self.const1() } else { self.const0() };
                        Ok(Some(c))
                    }
                    1 => {
                        if flip {
                            Ok(Some(self.add_gate(Not, &[keep[0]])?))
                        } else {
                            Ok(Some(keep[0]))
                        }
                    }
                    n if n < fanins.len() => {
                        let k = if flip { Xnor } else { Xor };
                        Ok(Some(self.add_gate(k, &keep)?))
                    }
                    _ if flip != (kind == Xnor) => {
                        let k = if flip { Xnor } else { Xor };
                        Ok(Some(self.add_gate(k, &keep)?))
                    }
                    _ => Ok(None),
                }
            }
        }
    }
}

/// Each signal's position in `order` times `spacing`, plus one;
/// `usize::MAX` for slots not in it.
fn topo_rank(order: &[SignalId], capacity: usize, spacing: usize) -> Vec<usize> {
    let mut rank = vec![usize::MAX; capacity];
    for (i, s) in order.iter().enumerate() {
        rank[s.index()] = spacing * i + 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strash_merges_identical_gates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[b, a]).unwrap(); // commutative dup
        let o1 = nl.add_gate(GateKind::Not, &[g1]).unwrap();
        let o2 = nl.add_gate(GateKind::Not, &[g2]).unwrap(); // becomes dup after merge
        nl.add_output("o1", o1);
        nl.add_output("o2", o2);
        let merged = nl.strash().unwrap();
        assert_eq!(merged, 2);
        assert_eq!(nl.stats().gates, 2);
        nl.validate().unwrap();
        assert_eq!(nl.outputs()[0].driver(), nl.outputs()[1].driver());
    }

    #[test]
    fn strash_respects_pin_order_of_noncommutative_gates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::Aoi21, &[a, b, c]).unwrap();
        let g2 = nl.add_gate(GateKind::Aoi21, &[c, b, a]).unwrap();
        nl.add_output("o1", g1);
        nl.add_output("o2", g2);
        assert_eq!(nl.strash().unwrap(), 0);
    }

    #[test]
    fn sweep_folds_constants_through_and() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let one = nl.const1();
        let g = nl.add_gate(GateKind::And, &[a, one]).unwrap();
        let h = nl.add_gate(GateKind::Not, &[g]).unwrap();
        nl.add_output("o", h);
        let before = nl.eval_outputs(&[true]).unwrap();
        nl.sweep().unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.eval_outputs(&[true]).unwrap(), before);
        // AND(a, 1) collapsed; only the NOT remains.
        assert_eq!(nl.stats().gates, 1);
    }

    #[test]
    fn sweep_collapses_double_inverter() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let n2 = nl.add_gate(GateKind::Not, &[n1]).unwrap();
        nl.add_output("o", n2);
        nl.sweep().unwrap();
        assert_eq!(nl.stats().gates, 0);
        assert_eq!(nl.outputs()[0].driver(), a);
    }

    #[test]
    fn sweep_handles_dominating_constant() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let zero = nl.const0();
        let g = nl.add_gate(GateKind::And, &[a, zero]).unwrap();
        nl.add_output("o", g);
        nl.sweep().unwrap();
        assert_eq!(nl.kind(nl.outputs()[0].driver()), GateKind::Const0);
    }

    #[test]
    fn sweep_cancels_xor_pairs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Xor, &[a, b, a]).unwrap();
        nl.add_output("o", g);
        nl.sweep().unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.outputs()[0].driver(), b);
    }

    #[test]
    fn sweep_detects_contradiction() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let g = nl.add_gate(GateKind::Or, &[a, na]).unwrap();
        nl.add_output("o", g);
        nl.sweep().unwrap();
        assert_eq!(nl.kind(nl.outputs()[0].driver()), GateKind::Const1);
    }

    #[test]
    fn sweep_nand_single_survivor_becomes_not() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let one = nl.const1();
        let g = nl.add_gate(GateKind::Nand, &[a, one]).unwrap();
        nl.add_output("o", g);
        nl.sweep().unwrap();
        nl.validate().unwrap();
        let drv = nl.outputs()[0].driver();
        assert_eq!(nl.kind(drv), GateKind::Not);
        assert_eq!(nl.fanins(drv), &[a]);
    }

    #[test]
    fn sweep_preserves_function_on_random_mix() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let one = nl.const1();
        let zero = nl.const0();
        let g1 = nl.add_gate(GateKind::Or, &[a, zero, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Xnor, &[g1, one]).unwrap();
        let g3 = nl.add_gate(GateKind::Nand, &[g2, g2, c]).unwrap();
        let g4 = nl.add_gate(GateKind::Buf, &[g3]).unwrap();
        nl.add_output("o", g4);
        let reference: Vec<Vec<bool>> = (0..8)
            .map(|v| {
                nl.eval_outputs(&[v & 1 == 1, v >> 1 & 1 == 1, v >> 2 & 1 == 1])
                    .unwrap()
            })
            .collect();
        nl.sweep().unwrap();
        nl.validate().unwrap();
        for (v, expected) in reference.iter().enumerate() {
            let got = nl
                .eval_outputs(&[v & 1 == 1, v >> 1 & 1 == 1, v >> 2 & 1 == 1])
                .unwrap();
            assert_eq!(&got, expected);
        }
    }
}
