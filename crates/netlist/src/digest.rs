//! Order-independent structural digests.
//!
//! [`Netlist::structural_digest`] summarizes the *shape* of a netlist —
//! gate kinds, pin connections, library bindings, PI/PO interfaces — in
//! a single 64-bit value that is invariant under signal renaming and id
//! permutation. Two isomorphic netlists (same DAG up to relabeling of
//! signals and reordering of insertion) produce the same digest; two
//! structurally different netlists produce different digests with
//! overwhelming probability (this is a hash, not a canonical form).
//!
//! The digest is the cache-key primitive of the serving gateway: a
//! result computed for one submission can answer a duplicate submission
//! whose netlist arrived with different signal names or a different
//! file ordering, because both hash to the same key.
//!
//! # Construction
//!
//! A Weisfeiler–Leman-style refinement in two sweeps:
//!
//! 1. **Forward** (topo order): every signal gets a *down* hash from its
//!    kind, library binding, and its fanins' down hashes — positional
//!    for non-commutative kinds, as a sorted multiset for commutative
//!    ones (matching [`Netlist::strash`]'s equivalence).
//! 2. **Backward** (reverse topo order): every signal gets an *up* hash
//!    from the sorted multiset of its fanout edges, each edge combining
//!    the consumer's up hash, kind, and pin index (pin position is
//!    dropped for commutative consumers), plus a marker per driven
//!    primary output.
//!
//! The final digest hashes the sorted multiset of per-signal
//! `(down, up)` labels together with the interface counts. Signal ids
//! enter only through hashes of *content*, never through their numeric
//! values, and names are never consulted at all.

use crate::{Fanout, GateKind, Netlist, NetlistError};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new(tag: u64) -> Fnv {
        let mut h = Fnv(FNV_OFFSET);
        h.word(tag);
        h
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(self) -> u64 {
        // One avalanche round so near-identical inputs decorrelate.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Domain-separation tags for the digest's hash tree.
const TAG_DOWN: u64 = 0x646f_776e; // "down"
const TAG_UP: u64 = 0x7570; // "up"
const TAG_PO: u64 = 0x706f; // "po"
const TAG_LABEL: u64 = 0x006c_626c; // "lbl"
const TAG_ROOT: u64 = 0x726f_6f74; // "root"

fn kind_tag(kind: GateKind) -> u64 {
    // The Debug name is the stable identity of a kind; hashing it avoids
    // depending on discriminant values, which renumber when variants are
    // added.
    let mut h = Fnv::new(0x6b69_6e64); // "kind"
    for b in format!("{kind:?}").bytes() {
        h.word(u64::from(b));
    }
    h.finish()
}

impl Netlist {
    /// A 64-bit digest of the netlist's structure, invariant under
    /// signal renaming and id/insertion-order permutation (the comment
    /// heading `src/digest.rs` gives the construction and its
    /// guarantees).
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if the netlist is cyclic — the
    /// refinement sweeps need a topological order.
    pub fn structural_digest(&self) -> Result<u64, NetlistError> {
        let order = self.topo_order()?;
        let cap = self.capacity();

        // Forward sweep: down hashes from fanin structure.
        let mut down: Vec<u64> = vec![0; cap];
        for &s in &order {
            let kind = self.kind(s);
            let mut h = Fnv::new(TAG_DOWN);
            h.word(kind_tag(kind));
            h.word(self.cell(s).lib().map_or(u64::MAX, u64::from));
            let mut fanin_hashes: Vec<u64> =
                self.fanins(s).iter().map(|f| down[f.index()]).collect();
            if kind.is_commutative() {
                fanin_hashes.sort_unstable();
            }
            for fh in fanin_hashes {
                h.word(fh);
            }
            down[s.index()] = h.finish();
        }

        // Primary outputs driven per signal (a PO is an anonymous marker
        // here: PO *names* and list order are presentation, not
        // structure).
        let mut po_marks: Vec<u64> = vec![0; cap];
        for po in self.outputs() {
            po_marks[po.driver().index()] += 1;
        }

        // Backward sweep: up hashes from fanout structure.
        let mut up: Vec<u64> = vec![0; cap];
        for &s in order.iter().rev() {
            let mut edge_hashes: Vec<u64> = Vec::with_capacity(self.fanouts(s).len());
            for fo in self.fanouts(s) {
                match *fo {
                    Fanout::Gate { cell, pin } => {
                        let ckind = self.kind(cell);
                        let mut e = Fnv::new(TAG_UP);
                        e.word(up[cell.index()]);
                        e.word(kind_tag(ckind));
                        e.word(if ckind.is_commutative() {
                            0
                        } else {
                            u64::from(pin) + 1
                        });
                        edge_hashes.push(e.finish());
                    }
                    Fanout::Po(_) => {
                        // Counted below via po_marks so the digest does
                        // not depend on PO index assignment.
                    }
                }
            }
            edge_hashes.sort_unstable();
            let mut h = Fnv::new(TAG_UP);
            h.word(kind_tag(self.kind(s)));
            h.word(TAG_PO.wrapping_mul(po_marks[s.index()]));
            for eh in edge_hashes {
                h.word(eh);
            }
            up[s.index()] = h.finish();
        }

        // Combine: sorted multiset of per-signal labels + interface
        // counts. Labels fuse both sweeps, so a signal's hash reflects
        // its whole context (transitive fanin *and* fanout).
        let mut labels: Vec<u64> = order
            .iter()
            .map(|s| {
                let mut h = Fnv::new(TAG_LABEL);
                h.word(down[s.index()]);
                h.word(up[s.index()]);
                h.finish()
            })
            .collect();
        labels.sort_unstable();
        let mut root = Fnv::new(TAG_ROOT);
        root.word(self.inputs().len() as u64);
        root.word(self.outputs().len() as u64);
        root.word(order.len() as u64);
        for l in labels {
            root.word(l);
        }
        // PO drivers as a sorted multiset of their labels, so output
        // structure is pinned even when a PO driver has no gate fanout.
        let mut po_labels: Vec<u64> = self
            .outputs()
            .iter()
            .map(|po| {
                let i = po.driver().index();
                let mut h = Fnv::new(TAG_PO);
                h.word(down[i]);
                h.word(up[i]);
                h.finish()
            })
            .collect();
        po_labels.sort_unstable();
        for l in po_labels {
            root.word(l);
        }
        Ok(root.finish())
    }
}

#[cfg(test)]
mod tests {
    use crate::{GateKind, Netlist};

    fn diamond() -> Netlist {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Or, &[a, b]).unwrap();
        let g3 = nl.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
        nl.add_output("o", g3);
        nl
    }

    #[test]
    fn digest_ignores_names() {
        let mut renamed = Netlist::new("completely different");
        let a = renamed.add_input("x1");
        let b = renamed.add_input("x2");
        let g1 = renamed.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = renamed.add_gate(GateKind::Or, &[a, b]).unwrap();
        let g3 = renamed.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
        renamed.add_output("out", g3);
        assert_eq!(
            diamond().structural_digest().unwrap(),
            renamed.structural_digest().unwrap()
        );
    }

    #[test]
    fn digest_ignores_insertion_order() {
        // Same DAG, gates inserted in a different topological order and
        // commutative fanins swapped.
        let mut permuted = Netlist::new("d");
        let b = permuted.add_input("b");
        let a = permuted.add_input("a");
        let g2 = permuted.add_gate(GateKind::Or, &[b, a]).unwrap();
        let g1 = permuted.add_gate(GateKind::And, &[b, a]).unwrap();
        let g3 = permuted.add_gate(GateKind::Xor, &[g2, g1]).unwrap();
        permuted.add_output("o", g3);
        assert_eq!(
            diamond().structural_digest().unwrap(),
            permuted.structural_digest().unwrap()
        );
    }

    #[test]
    fn digest_sees_kind_and_pin_order_changes() {
        let base = diamond().structural_digest().unwrap();

        let mut kinded = Netlist::new("d");
        let a = kinded.add_input("a");
        let b = kinded.add_input("b");
        let g1 = kinded.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let g2 = kinded.add_gate(GateKind::Or, &[a, b]).unwrap();
        let g3 = kinded.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
        kinded.add_output("o", g3);
        assert_ne!(base, kinded.structural_digest().unwrap());

        // Non-commutative pin order is structure: an inverted signal on
        // the AND side of an AOI21 vs on its lone OR pin. (A bare PI
        // swap would NOT change the digest — that is just renaming.)
        let mut p1 = Netlist::new("p");
        let a = p1.add_input("a");
        let b = p1.add_input("b");
        let c = p1.add_input("c");
        let n = p1.add_gate(GateKind::Not, &[a]).unwrap();
        let g = p1.add_gate(GateKind::Aoi21, &[n, b, c]).unwrap();
        p1.add_output("o", g);
        let mut p2 = Netlist::new("p");
        let a = p2.add_input("a");
        let b = p2.add_input("b");
        let c = p2.add_input("c");
        let n = p2.add_gate(GateKind::Not, &[a]).unwrap();
        let g = p2.add_gate(GateKind::Aoi21, &[b, c, n]).unwrap();
        p2.add_output("o", g);
        assert_ne!(
            p1.structural_digest().unwrap(),
            p2.structural_digest().unwrap()
        );
    }

    #[test]
    fn digest_distinguishes_sharing_patterns() {
        // (a AND b) OR (b AND c): the middle input is shared...
        let mut shared = Netlist::new("s");
        let a = shared.add_input("a");
        let b = shared.add_input("b");
        let c = shared.add_input("c");
        let g1 = shared.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = shared.add_gate(GateKind::And, &[b, c]).unwrap();
        let o = shared.add_gate(GateKind::Or, &[g1, g2]).unwrap();
        shared.add_output("o", o);
        // ...vs (a AND b) OR (c AND d) with a dangling extra input: the
        // per-input fanout profile differs.
        let mut disjoint = Netlist::new("s");
        let a = disjoint.add_input("a");
        let b = disjoint.add_input("b");
        let c = disjoint.add_input("c");
        let d = disjoint.add_input("d");
        let g1 = disjoint.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = disjoint.add_gate(GateKind::And, &[c, d]).unwrap();
        let o = disjoint.add_gate(GateKind::Or, &[g1, g2]).unwrap();
        disjoint.add_output("o", o);
        assert_ne!(
            shared.structural_digest().unwrap(),
            disjoint.structural_digest().unwrap()
        );
    }

    #[test]
    fn digest_sees_library_bindings() {
        let mut nl = diamond();
        let base = nl.structural_digest().unwrap();
        let g = nl.outputs()[0].driver();
        nl.set_lib(g, Some(3)).unwrap();
        assert_ne!(base, nl.structural_digest().unwrap());
    }

    #[test]
    fn digest_counts_duplicate_outputs() {
        let mut single = diamond();
        let d1 = single.structural_digest().unwrap();
        let drv = single.outputs()[0].driver();
        single.add_output("o2", drv);
        assert_ne!(d1, single.structural_digest().unwrap());
    }
}
