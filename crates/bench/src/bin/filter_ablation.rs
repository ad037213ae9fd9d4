//! Ablation of the Section 4 candidate-reduction filters and the design
//! choices called out in DESIGN.md §7.
//!
//! Part 1 probes raw candidate counts on the critical sites of a few
//! circuits, reproducing the paper's claims that the structural filter
//! removes ~90% of C3 candidates (at ~10% loss of valid combinations)
//! and that C2-exploitation reduces the triple count "to some percent" of
//! the naive bound.
//!
//! Part 2 runs full GDO under ablated configurations and reports the
//! resulting quality/cost trade-offs (including the OS3-off and
//! prover-choice ablations).
//!
//! ```text
//! cargo run -p bench --bin filter_ablation --release
//! ```

use bench::{bench_library, funnel_count, prepare, run_gdo_reported, Flow, FUNNEL_CLASSES};
use gdo::{CandidateConfig, GdoConfig, ProverKind, Site};
use library::Library;
use netlist::Netlist;
use timing::{CriticalPaths, LibDelay, TimingGraph};
use workloads::circuit_by_name;

const PROBE_CIRCUITS: [&str; 4] = ["9sym", "C432", "C880", "C499"];
const RUN_CIRCUITS: [&str; 4] = ["Z5xp1", "9sym", "C880", "C1908"];

fn main() {
    let lib = bench_library();
    probe_candidate_counts(&lib);
    run_config_ablation(&lib);
}

/// Counts pair candidates per critical site with filters toggled.
fn probe_candidate_counts(lib: &Library) {
    println!("== candidate-count probe (per-site averages over critical gates) ==");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>14} {:>16}",
        "circuit", "sites", "pairs:none", "pairs:all", "triples:naive", "triples:c2-expl"
    );
    for name in PROBE_CIRCUITS {
        let entry = circuit_by_name(name).expect("probe circuit exists");
        let mapped = prepare(&entry, lib, Flow::Area);
        let (sites, none, all, naive, exploited) = count_candidates(&mapped, lib);
        println!(
            "{:<8} {:>10} {:>12.1} {:>12.1} {:>14.1} {:>16.1}",
            name, sites, none, all, naive, exploited
        );
    }
}

fn count_candidates(nl: &Netlist, lib: &Library) -> (usize, f64, f64, f64, f64) {
    let model = LibDelay::new(lib);
    let tg = TimingGraph::from_scratch(nl, &model).expect("acyclic");
    let _cp = CriticalPaths::count(nl, &tg).expect("acyclic");
    let ctx = gdo::CandidateContext::build(nl).expect("acyclic");
    let unfiltered = CandidateConfig {
        arrival_filter: false,
        structural_filter: false,
        max_pairs_per_site: usize::MAX,
        max_triples_per_site: usize::MAX,
        ..CandidateConfig::default()
    };
    let filtered = CandidateConfig {
        max_pairs_per_site: usize::MAX,
        max_triples_per_site: usize::MAX,
        ..CandidateConfig::default()
    };
    let sites: Vec<Site> = tg
        .critical_gates(nl)
        .into_iter()
        .filter(|&g| nl.fanout_count(g) > 0)
        .map(Site::Stem)
        .take(48)
        .collect();
    let mut sum_none = 0usize;
    let mut sum_all = 0usize;
    let mut sum_naive = 0f64;
    let mut sum_expl = 0f64;
    // One BPFS round for the C2-exploited triple count.
    let site_cands: Vec<(Site, Vec<netlist::SignalId>)> = sites
        .iter()
        .map(|&site| {
            let max_arrival = tg.arrival(site.source(nl)) - tg.eps();
            (
                site,
                gdo::pair_candidates(nl, &tg, &ctx, site, &filtered, max_arrival),
            )
        })
        .collect();
    let vectors = sim::VectorSet::random(nl.inputs().len(), 256, 7);
    let simulation = sim::simulate(nl, &vectors).expect("acyclic");
    let rounds = gdo::run_c2(nl, &simulation, site_cands, 1, None).expect("acyclic");
    for (site, round) in sites.iter().zip(&rounds) {
        let max_arrival = tg.arrival(site.source(nl)) - tg.eps();
        let none = gdo::pair_candidates(nl, &tg, &ctx, *site, &unfiltered, f64::INFINITY).len();
        let all = gdo::pair_candidates(nl, &tg, &ctx, *site, &filtered, max_arrival).len();
        sum_none += none;
        sum_all += all;
        // Naive triple bound: (pairs choose 2) * 8 phase combos.
        let n = none as f64;
        sum_naive += n * (n - 1.0) / 2.0 * 8.0;
        sum_expl += gdo::and_or_triple_requests(round, usize::MAX).len() as f64;
    }
    let k = sites.len().max(1) as f64;
    (
        sites.len(),
        sum_none as f64 / k,
        sum_all as f64 / k,
        sum_naive / k,
        sum_expl / k,
    )
}

/// Full GDO runs under ablated configurations.
fn run_config_ablation(lib: &Library) {
    println!("\n== configuration ablation (full GDO runs) ==");
    let built = |b: gdo::GdoConfigBuilder| b.build().expect("valid ablation config");
    let configs: Vec<(&str, GdoConfig)> = vec![
        ("baseline", built(GdoConfig::builder())),
        ("no-os3", built(GdoConfig::builder().enable_sub3(false))),
        (
            "no-structural",
            built(GdoConfig::builder().candidates(CandidateConfig {
                structural_filter: false,
                ..CandidateConfig::default()
            })),
        ),
        (
            "no-arrival",
            built(GdoConfig::builder().candidates(CandidateConfig {
                arrival_filter: false,
                ..CandidateConfig::default()
            })),
        ),
        (
            "no-area-phase",
            built(GdoConfig::builder().area_phase(false)),
        ),
        (
            "bdd-prover",
            built(GdoConfig::builder().prover(ProverKind::BddEquiv {
                node_limit: 1 << 20,
            })),
        ),
        (
            "sat-miter-prover",
            built(GdoConfig::builder().prover(ProverKind::SatEquiv)),
        ),
    ];
    println!(
        "{:<18} {:<8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>10} {:>8}",
        "config", "circuit", "delay%", "lit%", "mods", "proofs", "conflicts", "bpfs-surv", "CPU[s]"
    );
    for (label, cfg) in configs {
        for name in RUN_CIRCUITS {
            let entry = circuit_by_name(name).expect("run circuit exists");
            let mut mapped = prepare(&entry, lib, Flow::Area);
            // All tallies below come from the telemetry RunReport (the
            // summary carries the optimizer statistics; the counters
            // carry the funnel and prover effort).
            let run = run_gdo_reported(name, &mut mapped, lib, &cfg, false);
            let r = &run.report;
            let summary = |key: &str| r.summary.get(key).copied().unwrap_or(0.0);
            let stage_sum = |stage: &str| -> u64 {
                FUNNEL_CLASSES
                    .iter()
                    .map(|c| funnel_count(r, c, stage))
                    .sum()
            };
            println!(
                "{:<18} {:<8} {:>7.1}% {:>7.1}% {:>7} {:>7} {:>9} {:>10} {:>8.2}",
                label,
                name,
                100.0 * summary("delay_reduction"),
                100.0 * summary("literal_reduction"),
                summary("total_mods") as u64,
                stage_sum("proofs"),
                r.counters.get("sat.conflicts").copied().unwrap_or(0),
                stage_sum("bpfs_survived"),
                summary("cpu_seconds")
            );
        }
    }
}
