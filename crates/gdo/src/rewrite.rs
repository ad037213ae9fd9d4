use crate::{SigLit, Site};
use netlist::{Netlist, SignalId};
use std::fmt;

/// The function of a newly inserted 2-input gate for `OS3`/`IS3`
/// substitutions. The booleans are input phases: `true` uses the signal
/// directly, `false` its complement. XOR/XNOR absorb phases (flipping one
/// input turns one into the other), so they carry none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate3 {
    /// `a := b^σb · c^σc`.
    And(bool, bool),
    /// `a := b^σb + c^σc`.
    Or(bool, bool),
    /// `a := b ⊕ c`.
    Xor,
    /// `a := !(b ⊕ c)`.
    Xnor,
}

/// What to put in place of the site's current signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewriteKind {
    /// `OS2`/`IS2`: replace by an existing (possibly inverted) signal.
    Sub2 {
        /// The replacement literal.
        b: SigLit,
    },
    /// `OS3`/`IS3`: replace by a new gate over two existing signals.
    Sub3 {
        /// The inserted gate's function and input phases.
        gate: Gate3,
        /// First input.
        b: SignalId,
        /// Second input.
        c: SignalId,
    },
    /// Redundancy removal from a valid C1 clause: replace by a constant.
    SubConst {
        /// The constant value.
        value: bool,
    },
}

/// One incremental netlist transformation, fully described: where it acts
/// ([`Site`]) and what it substitutes ([`RewriteKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rewrite {
    /// The `a`-signal the substitution acts on.
    pub site: Site,
    /// The replacement.
    pub kind: RewriteKind,
}

impl Rewrite {
    /// The clause combination (Theorems 1 and 2 of the paper) whose
    /// validity makes this rewrite permissible. Each inner vector is one
    /// clause `(!O_a + lits...)`, each literal given as
    /// `(signal, positive)`.
    ///
    /// # Panics
    ///
    /// Panics if the site references dead structure.
    #[must_use]
    pub fn clauses(&self, nl: &Netlist) -> Vec<Vec<(SignalId, bool)>> {
        let a = self.site.source(nl);
        match self.kind {
            RewriteKind::Sub2 { b } => vec![
                // (!O_a + a + !B) and (!O_a + !a + B) with B = b^phase.
                vec![(a, true), (b.signal, !b.positive)],
                vec![(a, false), (b.signal, b.positive)],
            ],
            RewriteKind::SubConst { value } => vec![vec![(a, value)]],
            RewriteKind::Sub3 { gate, b, c } => match gate {
                Gate3::And(pb, pc) => vec![
                    vec![(a, false), (b, pb)],
                    vec![(a, false), (c, pc)],
                    vec![(a, true), (b, !pb), (c, !pc)],
                ],
                Gate3::Or(pb, pc) => vec![
                    vec![(a, true), (b, !pb)],
                    vec![(a, true), (c, !pc)],
                    vec![(a, false), (b, pb), (c, pc)],
                ],
                Gate3::Xor => vec![
                    vec![(a, false), (b, true), (c, true)],
                    vec![(a, false), (b, false), (c, false)],
                    vec![(a, true), (b, true), (c, false)],
                    vec![(a, true), (b, false), (c, true)],
                ],
                Gate3::Xnor => vec![
                    vec![(a, false), (b, true), (c, false)],
                    vec![(a, false), (b, false), (c, true)],
                    vec![(a, true), (b, true), (c, true)],
                    vec![(a, true), (b, false), (c, false)],
                ],
            },
        }
    }

    /// The replacement signals this rewrite reads (used for cycle and
    /// liveness checks).
    #[must_use]
    pub fn reads(&self) -> Vec<SignalId> {
        match self.kind {
            RewriteKind::Sub2 { b } => vec![b.signal],
            RewriteKind::Sub3 { b, c, .. } => vec![b, c],
            RewriteKind::SubConst { .. } => Vec::new(),
        }
    }

    /// Returns `true` if the rewrite's structure is still applicable:
    /// site and read signals live, and no cycle would be created.
    #[must_use]
    pub fn is_applicable(&self, nl: &Netlist) -> bool {
        if !self.site.is_live(nl) {
            return false;
        }
        let reads = self.reads();
        if reads.iter().any(|&s| !nl.is_live(s)) {
            return false;
        }
        if reads.is_empty() {
            return true;
        }
        let root = self.site.cone_root();
        let tfo = nl.transitive_fanout(root);
        reads.iter().all(|&s| s != root && !tfo.contains(s))
    }
}

impl fmt::Display for Rewrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RewriteKind::Sub2 { b } => write!(f, "{} := {}", self.site, b),
            RewriteKind::Sub3 { gate, b, c } => {
                let name = match gate {
                    Gate3::And(..) => "AND",
                    Gate3::Or(..) => "OR",
                    Gate3::Xor => "XOR",
                    Gate3::Xnor => "XNOR",
                };
                let (pb, pc) = match gate {
                    Gate3::And(pb, pc) | Gate3::Or(pb, pc) => (pb, pc),
                    _ => (true, true),
                };
                write!(
                    f,
                    "{} := {name}({}{}, {}{})",
                    self.site,
                    if pb { "" } else { "!" },
                    b,
                    if pc { "" } else { "!" },
                    c
                )
            }
            RewriteKind::SubConst { value } => {
                write!(f, "{} := const{}", self.site, u8::from(value))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;

    fn sample() -> (Netlist, [SignalId; 4]) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let h = nl.add_gate(GateKind::Not, &[g]).unwrap();
        nl.add_output("y", h);
        (nl, [a, b, g, h])
    }

    #[test]
    fn sub2_clause_shape_matches_theorem1() {
        let (nl, [a, _b, g, _h]) = sample();
        let r = Rewrite {
            site: Site::Stem(g),
            kind: RewriteKind::Sub2 { b: SigLit::pos(a) },
        };
        let cl = r.clauses(&nl);
        assert_eq!(cl.len(), 2);
        assert_eq!(cl[0], vec![(g, true), (a, false)]);
        assert_eq!(cl[1], vec![(g, false), (a, true)]);
        // Inverted phase flips the b literal in both clauses.
        let r = Rewrite {
            site: Site::Stem(g),
            kind: RewriteKind::Sub2 { b: SigLit::neg(a) },
        };
        let cl = r.clauses(&nl);
        assert_eq!(cl[0], vec![(g, true), (a, true)]);
        assert_eq!(cl[1], vec![(g, false), (a, false)]);
    }

    #[test]
    fn sub3_and_clause_shape_matches_theorem2() {
        let (nl, [a, b, g, _h]) = sample();
        let r = Rewrite {
            site: Site::Stem(g),
            kind: RewriteKind::Sub3 {
                gate: Gate3::And(true, true),
                b: a,
                c: b,
            },
        };
        let cl = r.clauses(&nl);
        assert_eq!(cl.len(), 3);
        assert_eq!(cl[0], vec![(g, false), (a, true)]);
        assert_eq!(cl[1], vec![(g, false), (b, true)]);
        assert_eq!(cl[2], vec![(g, true), (a, false), (b, false)]);
    }

    #[test]
    fn xor_has_four_c3_clauses() {
        let (nl, [a, b, g, _h]) = sample();
        let r = Rewrite {
            site: Site::Stem(g),
            kind: RewriteKind::Sub3 {
                gate: Gate3::Xor,
                b: a,
                c: b,
            },
        };
        let cl = r.clauses(&nl);
        assert_eq!(cl.len(), 4);
        assert!(cl.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn applicability_checks_cycles() {
        let (nl, [a, _b, g, h]) = sample();
        // Substituting g by its own fanout h would create a cycle.
        let bad = Rewrite {
            site: Site::Stem(g),
            kind: RewriteKind::Sub2 { b: SigLit::pos(h) },
        };
        assert!(!bad.is_applicable(&nl));
        let good = Rewrite {
            site: Site::Stem(g),
            kind: RewriteKind::Sub2 { b: SigLit::pos(a) },
        };
        assert!(good.is_applicable(&nl));
    }

    #[test]
    fn display_is_readable() {
        let (_, [a, b, g, _h]) = sample();
        let r = Rewrite {
            site: Site::Stem(g),
            kind: RewriteKind::Sub3 {
                gate: Gate3::And(true, false),
                b: a,
                c: b,
            },
        };
        let text = r.to_string();
        assert!(text.contains("AND(") && text.contains("!"), "{text}");
    }
}
