//! Candidate `b`/`c`-signal generation with the paper's Section 4
//! reduction filters.
//!
//! The number of potential C3 clauses is `n·(n-1 choose 2)` — 5·10⁸ for a
//! thousand signals — so the set considered before simulation must be cut
//! down. Three reductions are implemented, mirroring the paper:
//!
//! 1. **No-loss filter**: branch signals are never `b`/`c` candidates, and
//!    (in the delay phase) a candidate whose arrival time plus the
//!    inserted gate delay exceeds the `a`-signal's arrival cannot yield a
//!    gain.
//! 2. **C2-exploitation** (in [`crate::pvcc`]): AND/OR-type `OS3`/`IS3`
//!    require two valid C2 clauses, so triples are built only from pairs
//!    whose C2 clauses survived simulation.
//! 3. **Structural filter**: `b`/`c` signals must be structurally related
//!    to `a` — within a level window and with overlapping input support
//!    (approximated by 64-bit support signatures).

use crate::Site;
use netlist::{GateKind, Netlist, NetlistError, SignalId};
use timing::TimingGraph;

/// Tuning knobs for candidate generation. The defaults reproduce the
/// paper's setup; the ablation benchmark toggles individual filters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateConfig {
    /// Drop candidates that cannot reduce the site's arrival time.
    pub arrival_filter: bool,
    /// Require structural proximity (level window + support overlap).
    pub structural_filter: bool,
    /// Maximum level distance between `a` and a candidate when the
    /// structural filter is on.
    pub level_window: u32,
    /// Hard cap on pair candidates per site (closest-arrival first).
    pub max_pairs_per_site: usize,
    /// Hard cap on triples per site after C2-exploitation.
    pub max_triples_per_site: usize,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            arrival_filter: true,
            structural_filter: true,
            level_window: 12,
            max_pairs_per_site: 160,
            max_triples_per_site: 320,
        }
    }
}

/// Precomputed per-netlist context shared by all sites of one round.
///
/// # Example: a hand-rolled clause-analysis round
///
/// ```
/// use gdo::{pair_candidates, run_c2, CandidateConfig, CandidateContext, Site};
/// use netlist::{GateKind, Netlist};
/// use timing::{TimingGraph, UnitDelay};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let t = nl.add_gate(GateKind::And, &[a, b])?;
/// let y = nl.add_gate(GateKind::Or, &[a, t])?;
/// nl.add_output("y", y);
///
/// let tg = TimingGraph::from_scratch(&nl, &UnitDelay)?;
/// let ctx = CandidateContext::build(&nl)?;
/// let cfg = CandidateConfig::default();
/// let site = Site::Stem(t);
/// let cands = pair_candidates(&nl, &tg, &ctx, site, &cfg, f64::INFINITY);
///
/// let vectors = sim::VectorSet::exhaustive(2);
/// let sim = sim::simulate(&nl, &vectors)?;
/// let rounds = run_c2(&nl, &sim, vec![(site, cands)], 1, None)?;
/// // t is stuck-at-0 redundant here: the C1 clause (!O_t + !t) survives.
/// assert_eq!(rounds[0].c1_alive & 0b01, 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CandidateContext {
    levels: Vec<u32>,
    support: Vec<u64>,
}

impl CandidateContext {
    /// Computes structural levels and hashed input-support signatures.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is cyclic.
    pub fn build(nl: &Netlist) -> Result<CandidateContext, NetlistError> {
        let levels = nl.levels()?;
        let mut support = vec![0u64; nl.capacity()];
        for s in nl.topo_order()? {
            match nl.kind(s) {
                GateKind::Input => {
                    // Spread input indices over the signature word.
                    let i = s.index() as u64;
                    support[s.index()] = 1u64 << ((i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 64);
                }
                _ => {
                    let mut sig = 0u64;
                    for &f in nl.fanins(s) {
                        sig |= support[f.index()];
                    }
                    support[s.index()] = sig;
                }
            }
        }
        Ok(CandidateContext { levels, support })
    }

    /// Structural level of a signal.
    #[must_use]
    pub fn level(&self, s: SignalId) -> u32 {
        self.levels[s.index()]
    }

    /// Hashed primary-input support signature of a signal.
    #[must_use]
    pub fn support(&self, s: SignalId) -> u64 {
        self.support[s.index()]
    }
}

/// Per-call tally of what each Section 4 reduction filter rejected.
///
/// Returned by [`pair_candidates_counted`] so callers (and the telemetry
/// funnel) can attribute candidate attrition to individual filters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateCounts {
    /// Signals examined (everything in the netlist except the site itself).
    pub considered: u64,
    /// Rejected because they lie in the site's transitive fanout.
    pub rejected_tfo: u64,
    /// Rejected constants (handled by C1 clauses instead).
    pub rejected_const: u64,
    /// Rejected by the no-loss arrival filter.
    pub rejected_arrival: u64,
    /// Rejected by the structural filter (level window / support overlap).
    pub rejected_structural: u64,
    /// Dropped by the per-site cap after sorting by arrival.
    pub truncated: u64,
    /// Candidates surviving all filters and the cap.
    pub kept: u64,
}

/// Generates the `b`-candidate list for one site.
///
/// `max_arrival` bounds the candidate's arrival time when the arrival
/// filter is enabled (pass the site's arrival minus the minimum delay of
/// any gate that would be inserted; `f64::INFINITY` in the area phase).
#[must_use]
pub fn pair_candidates(
    nl: &Netlist,
    tg: &TimingGraph,
    ctx: &CandidateContext,
    site: Site,
    cfg: &CandidateConfig,
    max_arrival: f64,
) -> Vec<SignalId> {
    pair_candidates_counted(nl, tg, ctx, site, cfg, max_arrival).0
}

/// Like [`pair_candidates`], but also reports per-filter rejection counts
/// and records them on the telemetry funnel
/// (`gdo.candidates.*` counters) when telemetry is enabled.
#[must_use]
pub fn pair_candidates_counted(
    nl: &Netlist,
    tg: &TimingGraph,
    ctx: &CandidateContext,
    site: Site,
    cfg: &CandidateConfig,
    max_arrival: f64,
) -> (Vec<SignalId>, CandidateCounts) {
    let source = site.source(nl);
    let root = site.cone_root();
    let forbidden = nl.transitive_fanout(root);
    let site_level = ctx.level(source);
    let site_support = ctx.support(source);
    let mut counts = CandidateCounts::default();
    let mut out: Vec<SignalId> = Vec::new();
    for s in nl.signals() {
        if s == source || s == root {
            continue;
        }
        counts.considered += 1;
        if forbidden.contains(s) {
            counts.rejected_tfo += 1;
            continue;
        }
        let kind = nl.kind(s);
        if kind == GateKind::Const0 || kind == GateKind::Const1 {
            counts.rejected_const += 1;
            continue; // constants are the business of C1 clauses
        }
        if cfg.arrival_filter && tg.arrival(s) > max_arrival {
            counts.rejected_arrival += 1;
            continue;
        }
        if cfg.structural_filter {
            let level_ok = ctx.level(s).abs_diff(site_level) <= cfg.level_window;
            let support_ok = ctx.support(s) & site_support != 0;
            if !level_ok || !support_ok {
                counts.rejected_structural += 1;
                continue;
            }
        }
        out.push(s);
    }
    if out.len() > cfg.max_pairs_per_site {
        // Keep the earliest-arriving candidates: they promise the largest
        // delay saves and the cheapest inserted gates.
        out.sort_by(|&x, &y| tg.arrival(x).total_cmp(&tg.arrival(y)));
        counts.truncated = (out.len() - cfg.max_pairs_per_site) as u64;
        out.truncate(cfg.max_pairs_per_site);
    }
    counts.kept = out.len() as u64;
    if telemetry::enabled() {
        telemetry::counter_add("gdo.candidates.considered", counts.considered);
        telemetry::counter_add("gdo.candidates.rejected_tfo", counts.rejected_tfo);
        telemetry::counter_add("gdo.candidates.rejected_const", counts.rejected_const);
        telemetry::counter_add("gdo.candidates.rejected_arrival", counts.rejected_arrival);
        telemetry::counter_add(
            "gdo.candidates.rejected_structural",
            counts.rejected_structural,
        );
        telemetry::counter_add("gdo.candidates.truncated", counts.truncated);
        telemetry::counter_add("gdo.candidates.kept", counts.kept);
    }
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timing::UnitDelay;

    fn ctx_for(nl: &Netlist) -> (TimingGraph, CandidateContext) {
        (
            TimingGraph::from_scratch(nl, &UnitDelay).unwrap(),
            CandidateContext::build(nl).unwrap(),
        )
    }

    /// Two parallel chains from shared inputs; g-chain is longer.
    fn sample() -> (Netlist, Vec<SignalId>) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = nl.add_gate(GateKind::Not, &[g2]).unwrap();
        let h1 = nl.add_gate(GateKind::Or, &[a, b]).unwrap();
        nl.add_output("y", g3);
        nl.add_output("z", h1);
        (nl, vec![a, b, g1, g2, g3, h1])
    }

    #[test]
    fn excludes_fanout_cone_and_self() {
        let (nl, sigs) = sample();
        let (sta, ctx) = ctx_for(&nl);
        let cfg = CandidateConfig {
            arrival_filter: false,
            structural_filter: false,
            ..CandidateConfig::default()
        };
        let cands = pair_candidates(&nl, &sta, &ctx, Site::Stem(sigs[2]), &cfg, f64::INFINITY);
        // g1's TFO (g2, g3) and g1 itself are excluded; a, b, h1 remain.
        assert!(cands.contains(&sigs[0]));
        assert!(cands.contains(&sigs[1]));
        assert!(cands.contains(&sigs[5]));
        assert!(!cands.contains(&sigs[2]));
        assert!(!cands.contains(&sigs[3]));
        assert!(!cands.contains(&sigs[4]));
    }

    #[test]
    fn arrival_filter_prunes_late_signals() {
        let (nl, sigs) = sample();
        let (sta, ctx) = ctx_for(&nl);
        let cfg = CandidateConfig {
            arrival_filter: true,
            structural_filter: false,
            ..CandidateConfig::default()
        };
        // Site g3 (arrival 3): allow only signals arriving before 1.0.
        let cands = pair_candidates(&nl, &sta, &ctx, Site::Stem(sigs[4]), &cfg, 0.5);
        // Only the primary inputs arrive at 0.
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&sigs[0]) && cands.contains(&sigs[1]));
    }

    #[test]
    fn structural_filter_requires_support_overlap() {
        // Two disjoint cones: candidates from the other cone are dropped.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Or, &[c, d]).unwrap();
        nl.add_output("y", g1);
        nl.add_output("z", g2);
        let (sta, ctx) = ctx_for(&nl);
        let cfg = CandidateConfig {
            arrival_filter: false,
            structural_filter: true,
            ..CandidateConfig::default()
        };
        let cands = pair_candidates(&nl, &sta, &ctx, Site::Stem(g1), &cfg, f64::INFINITY);
        assert!(!cands.contains(&g2), "disjoint-support signal kept");
        // Support signatures can collide (64-bit bloom), so only assert
        // that the site's own inputs survive.
        assert!(cands.contains(&a) && cands.contains(&b));
    }

    #[test]
    fn cap_keeps_earliest_arrivals() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let mut prev = a;
        let mut chain = Vec::new();
        for _ in 0..20 {
            prev = nl.add_gate(GateKind::Not, &[prev]).unwrap();
            chain.push(prev);
        }
        let b = nl.add_input("b");
        let last = nl.add_gate(GateKind::And, &[prev, b]).unwrap();
        nl.add_output("y", last);
        let (sta, ctx) = ctx_for(&nl);
        let cfg = CandidateConfig {
            arrival_filter: false,
            structural_filter: false,
            max_pairs_per_site: 5,
            ..CandidateConfig::default()
        };
        let cands = pair_candidates(&nl, &sta, &ctx, Site::Stem(last), &cfg, f64::INFINITY);
        assert_eq!(cands.len(), 5);
        let worst = cands.iter().map(|&s| sta.arrival(s)).fold(0.0f64, f64::max);
        assert!(worst <= 4.0, "cap kept a late signal (arrival {worst})");
    }

    #[test]
    fn counted_variant_is_internally_consistent() {
        let (nl, sigs) = sample();
        let (sta, ctx) = ctx_for(&nl);
        let cfg = CandidateConfig::default();
        let (cands, counts) =
            pair_candidates_counted(&nl, &sta, &ctx, Site::Stem(sigs[2]), &cfg, f64::INFINITY);
        assert_eq!(counts.kept, cands.len() as u64);
        let rejected = counts.rejected_tfo
            + counts.rejected_const
            + counts.rejected_arrival
            + counts.rejected_structural;
        assert_eq!(counts.considered, rejected + counts.truncated + counts.kept);
        // The counted variant must agree with the plain one.
        let plain = pair_candidates(&nl, &sta, &ctx, Site::Stem(sigs[2]), &cfg, f64::INFINITY);
        assert_eq!(cands, plain);
    }

    #[test]
    fn context_support_propagates() {
        let (nl, sigs) = sample();
        let (_, ctx) = ctx_for(&nl);
        // g1 = AND(a, b): support must include both input signatures.
        let expected = ctx.support(sigs[0]) | ctx.support(sigs[1]);
        assert_eq!(ctx.support(sigs[2]), expected);
        assert_eq!(ctx.level(sigs[2]), 1);
        assert_eq!(ctx.level(sigs[4]), 3);
    }
}
