//! Criterion micro-benchmarks for every substrate the GDO pipeline rests
//! on: simulation, observability (BPFS), STA + NCP, SAT equivalence, BDD
//! construction, technology mapping, clause proving, and the
//! BPFS-vector-count ablation from DESIGN.md §7.
//!
//! ```text
//! cargo bench -p bench --bench subsystems
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gdo::Site;
use library::{standard_library, MapGoal, Mapper};
use netlist::Netlist;
use sim::{simulate, ObservabilityEngine, VectorSet};
use timing::{CriticalPaths, LibDelay, TimingGraph};
use workloads::{array_multiplier, sec_corrector, EccStyle};

fn mapped_multiplier(n: usize) -> Netlist {
    let lib = standard_library();
    Mapper::new(&lib)
        .goal(MapGoal::Area)
        .map(&array_multiplier(n))
        .expect("mapping succeeds")
}

fn bench_simulation(c: &mut Criterion) {
    let nl = mapped_multiplier(8);
    let vectors = VectorSet::random(nl.inputs().len(), 1024, 1);
    c.bench_function("sim/bit_parallel_mul8_1024v", |b| {
        b.iter(|| simulate(&nl, &vectors).expect("acyclic"))
    });
}

fn bench_observability(c: &mut Criterion) {
    let nl = mapped_multiplier(8);
    let vectors = VectorSet::random(nl.inputs().len(), 512, 1);
    let sim = simulate(&nl, &vectors).expect("acyclic");
    let gates: Vec<_> = nl.gates().take(32).collect();
    c.bench_function("sim/observability_32_sites", |b| {
        b.iter_batched(
            || ObservabilityEngine::new(&nl, &sim).expect("acyclic"),
            |mut engine| {
                for &g in &gates {
                    let _ = engine.observability(g);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_sta(c: &mut Criterion) {
    let lib = standard_library();
    let nl = mapped_multiplier(8);
    let model = LibDelay::new(&lib);
    c.bench_function("timing/sta_mul8", |b| {
        b.iter(|| TimingGraph::from_scratch(&nl, &model).expect("acyclic"))
    });
    let tg = TimingGraph::from_scratch(&nl, &model).expect("acyclic");
    c.bench_function("timing/ncp_mul8", |b| {
        b.iter(|| CriticalPaths::count(&nl, &tg).expect("acyclic"))
    });
}

fn bench_mapper(c: &mut Criterion) {
    let lib = standard_library();
    let raw = array_multiplier(6);
    c.bench_function("library/map_mul6_area", |b| {
        b.iter(|| {
            Mapper::new(&lib)
                .goal(MapGoal::Area)
                .map(&raw)
                .expect("mapping succeeds")
        })
    });
}

fn bench_sat_equiv(c: &mut Criterion) {
    let nl = sec_corrector(16, EccStyle::Xor);
    let nl2 = sec_corrector(16, EccStyle::NandExpanded);
    c.bench_function("sat/equiv_sec16_vs_nand_expanded", |b| {
        b.iter(|| assert!(sat::check_equiv(&nl, &nl2).expect("same interface")))
    });
}

fn bench_bdd_build(c: &mut Criterion) {
    let nl = sec_corrector(16, EccStyle::Xor);
    c.bench_function("bdd/build_sec16", |b| {
        b.iter(|| {
            let mut mgr = bdd::BddManager::new();
            bdd::build_outputs(&mut mgr, &nl).expect("fits budget")
        })
    });
}

fn bench_clause_prover(c: &mut Criterion) {
    let nl = mapped_multiplier(6);
    let lib = standard_library();
    let model = LibDelay::new(&lib);
    let tg = TimingGraph::from_scratch(&nl, &model).expect("acyclic");
    let site = tg.critical_gates(&nl)[0];
    let fanin = nl.fanins(site)[0];
    c.bench_function("sat/clause_prover_build_and_query", |b| {
        b.iter(|| {
            let mut p = sat::ClauseProver::new(&nl, site.into()).expect("acyclic");
            p.is_valid(&[(fanin, true)])
        })
    });
}

/// The BPFS-vectors ablation: how many false candidates survive per
/// vector budget (quality), and what a C2 round costs (time).
fn bench_bpfs_vectors(c: &mut Criterion) {
    let nl = mapped_multiplier(8);
    let lib = standard_library();
    let model = LibDelay::new(&lib);
    let tg = TimingGraph::from_scratch(&nl, &model).expect("acyclic");
    let ctx = gdo::CandidateContext::build(&nl).expect("acyclic");
    let cfg = gdo::CandidateConfig::default();
    let sites: Vec<Site> = tg
        .critical_gates(&nl)
        .into_iter()
        .take(16)
        .map(Site::Stem)
        .collect();
    let mut group = c.benchmark_group("gdo/bpfs_vectors");
    for &n_vectors in &[64usize, 256, 1024] {
        group.bench_function(format!("{n_vectors}v"), |b| {
            b.iter(|| {
                let site_cands: Vec<_> = sites
                    .iter()
                    .map(|&site| {
                        let max_arrival = tg.arrival(site.source(&nl)) - tg.eps();
                        (
                            site,
                            gdo::pair_candidates(&nl, &tg, &ctx, site, &cfg, max_arrival),
                        )
                    })
                    .collect();
                let vectors = VectorSet::random(nl.inputs().len(), n_vectors, 7);
                let sim = simulate(&nl, &vectors).expect("acyclic");
                gdo::run_c2(&nl, &sim, site_cands, 1, None).expect("acyclic")
            })
        });
    }
    group.finish();
}

/// BPFS thread scaling on a fixed round: the cone-local engine at
/// 1/2/4/8 worker threads. All thread counts produce bit-identical
/// survival masks (property-tested in `gdo/tests/bpfs_parallel.rs`).
fn bench_bpfs_threads(c: &mut Criterion) {
    let nl = mapped_multiplier(8);
    let lib = standard_library();
    let model = LibDelay::new(&lib);
    let tg = TimingGraph::from_scratch(&nl, &model).expect("acyclic");
    let ctx = gdo::CandidateContext::build(&nl).expect("acyclic");
    let cfg = gdo::CandidateConfig::default();
    let site_cands: Vec<_> = tg
        .critical_gates(&nl)
        .into_iter()
        .take(48)
        .map(Site::Stem)
        .map(|site| {
            let max_arrival = tg.arrival(site.source(&nl)) - tg.eps();
            (
                site,
                gdo::pair_candidates(&nl, &tg, &ctx, site, &cfg, max_arrival),
            )
        })
        .collect();
    let vectors = VectorSet::random(nl.inputs().len(), 1024, 7);
    let sim = simulate(&nl, &vectors).expect("acyclic");
    let mut group = c.benchmark_group("gdo/bpfs_threads");
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_function(format!("cone_local_{threads}t"), |b| {
            b.iter(|| gdo::run_c2(&nl, &sim, site_cands.clone(), threads, None).expect("acyclic"))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulation,
        bench_observability,
        bench_sta,
        bench_mapper,
        bench_sat_equiv,
        bench_bdd_build,
        bench_clause_prover,
        bench_bpfs_vectors,
        bench_bpfs_threads
);
criterion_main!(benches);
