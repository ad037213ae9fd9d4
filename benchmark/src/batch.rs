//! The batch workloads: each job is `.bench` text → parse → map (area)
//! → optimize → sweep equivalence against the parsed input → mapped
//! BLIF, run one at a time, and a pass runs every job of the plan once.
//!
//! Untraced passes give the end-to-end metrics. A traced pass enables
//! the telemetry collector around the same calls and gives the layer
//! numbers; in a traced run untraced and traced passes alternate, so
//! the tracing overhead is measured on the same inputs.
//!
//! A reference sample ([`crate::pace`]) is taken between every two jobs,
//! and every time reported is scaled to the reference host's speed by
//! the samples on either side of the job it was measured in.

use crate::pace::{self, Pace};
use crate::plan::{BatchJob, BatchPlan, Flow};
use crate::stats::{self, GDO_NESTING};
use crate::Outcome;
use gdo::{Budget, GdoConfig, OptimizeRequest, Pipeline};
use library::{Library, MapGoal, Mapper};
use partition::{optimize_partitioned, ClusterConfig, PartitionOptions};
use std::collections::BTreeMap;
use std::time::Instant;

/// Simulation vectors guiding the sweep equivalence check.
const SWEEP_VECTORS: usize = 256;

/// What a job produced — identical on every pass, or the run is not
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Qor {
    gates: usize,
    delay_before: f64,
    delay_after: f64,
    literals_before: usize,
    literals_after: usize,
    mods: usize,
    proofs: usize,
    proofs_valid: usize,
    region_rewrites: usize,
    stitch_conflicts: usize,
    blif_hash: u64,
}

/// One job of one pass; times are raw, `speed` scales them.
#[derive(Debug, Clone, Copy)]
struct JobRun {
    latency_s: f64,
    speed: f64,
    parse_s: f64,
    map_s: f64,
    optimize_s: f64,
    verify_s: f64,
    write_s: f64,
    qor: Qor,
}

impl JobRun {
    /// The job's latency at the reference host's speed.
    fn scaled_s(&self) -> f64 {
        self.latency_s * self.speed
    }
}

/// One pass: the jobs that ran (`None` for a job that failed with an
/// error or was left out), for a traced pass the telemetry snapshot, and
/// how long the pass took.
struct Pass {
    jobs: Vec<Option<JobRun>>,
    report: Option<telemetry::RunReport>,
    seconds: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs one job. Equivalence is checked with the collector paused, so a
/// traced pass counts the optimizer's work and not the check's.
fn run_job(job: &BatchJob, flow: Flow, lib: &Library) -> Result<(JobRun, bool), String> {
    let traced = telemetry::enabled();
    let t0 = Instant::now();
    let parsed = formats::parse_bench(&job.bench).map_err(|e| format!("parse: {e}"))?;
    let parse_s = secs(t0);
    let t = Instant::now();
    let mut nl = Mapper::new(lib)
        .goal(MapGoal::Area)
        .map(&parsed)
        .map_err(|e| format!("map: {e}"))?;
    let map_s = secs(t);
    let gates = nl.stats().gates;
    let t = Instant::now();
    let qor = match flow {
        Flow::Whole => {
            let cfg = GdoConfig::builder()
                .threads(1)
                .build()
                .expect("default configuration is valid");
            let req = OptimizeRequest::new(cfg).engines(job.engines.clone());
            let s = Pipeline::new(lib)
                .run(&req, &mut nl, &Budget::unlimited())
                .map_err(|e| format!("optimize: {e}"))?;
            Qor {
                gates,
                delay_before: s.delay_before,
                delay_after: s.delay_after,
                literals_before: s.literals_before,
                literals_after: s.literals_after,
                mods: s.total_mods(),
                proofs: s.proofs,
                proofs_valid: s.proofs_valid,
                region_rewrites: 0,
                stitch_conflicts: 0,
                blif_hash: 0,
            }
        }
        Flow::Partitioned {
            partitions,
            threads,
            work_limit,
        } => {
            let cfg = GdoConfig::builder()
                .threads(1)
                .work_limit(work_limit)
                .build()
                .expect("default configuration is valid");
            let opts = PartitionOptions {
                cluster: ClusterConfig::for_partitions(gates, partitions),
                threads,
                verify_regions: true,
                engines: job.engines.clone(),
                ..PartitionOptions::default()
            };
            let s = optimize_partitioned(
                lib,
                &cfg,
                &mut nl,
                &opts,
                &Budget::new(None, cfg.work_limit),
            )
            .map_err(|e| format!("optimize_partitioned: {e}"))?;
            Qor {
                gates,
                delay_before: s.delay_before,
                delay_after: s.delay_after,
                literals_before: s.gdo.literals_before,
                literals_after: s.gdo.literals_after,
                mods: s.gdo.total_mods(),
                proofs: s.gdo.proofs,
                proofs_valid: s.gdo.proofs_valid,
                region_rewrites: s.region_rewrites,
                stitch_conflicts: s.stitch_conflicts,
                blif_hash: 0,
            }
        }
    };
    let optimize_s = secs(t);
    if traced {
        telemetry::disable();
    }
    let t = Instant::now();
    let equivalent = sat::check_equiv_sweep(&parsed, &nl, SWEEP_VECTORS, GdoConfig::default().seed)
        .map_err(|e| format!("equivalence check: {e}"))?;
    let verify_s = secs(t);
    if traced {
        telemetry::enable();
    }
    let t = Instant::now();
    let blif = library::write_mapped_blif(lib, &nl).map_err(|e| format!("write: {e}"))?;
    let write_s = secs(t);
    let latency_s = secs(t0);
    Ok((
        JobRun {
            latency_s,
            speed: 1.0,
            parse_s,
            map_s,
            optimize_s,
            verify_s,
            write_s,
            qor: Qor {
                blif_hash: crate::fnv(&blif),
                ..qor
            },
        },
        equivalent,
    ))
}

/// Runs every job of `plan` for which `fits(index)` holds, in plan order;
/// a job left out reads `None`, like one that failed.
fn run_pass(
    plan: &BatchPlan,
    lib: &Library,
    pace: &mut Pace,
    traced: bool,
    fits: impl Fn(usize) -> bool,
    out: &mut Outcome,
) -> Pass {
    if traced {
        telemetry::reset();
        telemetry::enable();
    }
    let started = Instant::now();
    let mut jobs = Vec::with_capacity(plan.jobs.len());
    let mut before = pace.sample();
    for (i, job) in plan.jobs.iter().enumerate() {
        if !fits(i) {
            jobs.push(None);
            continue;
        }
        out.attempted += 1;
        let result = run_job(job, plan.flow, lib);
        let after = pace.sample();
        let speed = pace::speed(before, after);
        before = after;
        match result {
            Ok((run, equivalent)) => {
                let run = JobRun { speed, ..run };
                let mut ok = true;
                if !equivalent {
                    out.problem(format!(
                        "{}: output is not equivalent to its input",
                        job.name
                    ));
                    ok = false;
                }
                if run.qor.delay_after > run.qor.delay_before + 1e-9 {
                    out.problem(format!(
                        "{}: delay grew from {} to {}",
                        job.name, run.qor.delay_before, run.qor.delay_after
                    ));
                    ok = false;
                }
                if !ok {
                    out.failed += 1;
                }
                jobs.push(Some(run));
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{}: {e}", job.name));
                jobs.push(None);
            }
        }
    }
    let report = traced.then(|| {
        telemetry::disable();
        let r = telemetry::snapshot();
        telemetry::reset();
        r
    });
    Pass {
        jobs,
        report,
        seconds: secs(started),
    }
}

/// Layer numbers of one traced pass, by metric name.
fn layer_values(plan: &BatchPlan, pass: &Pass) -> BTreeMap<&'static str, f64> {
    let report = pass
        .report
        .as_ref()
        .expect("a traced pass carries a report");
    let runs: Vec<&JobRun> = pass.jobs.iter().flatten().collect();
    let sum = |f: fn(&JobRun) -> f64| runs.iter().map(|r| f(r) * r.speed).sum::<f64>();
    let count = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    // Spans cover the whole pass, so they are scaled by the pass's
    // time-weighted speed.
    let speed = sum(|r| r.latency_s) / runs.iter().map(|r| r.latency_s).sum::<f64>();
    let totals: BTreeMap<String, f64> = report
        .spans
        .iter()
        .map(|(k, s)| (k.clone(), s.total_s * speed))
        .collect();
    let own = stats::self_times(&totals, GDO_NESTING);
    let proofs = runs.iter().map(|r| r.qor.proofs).sum::<usize>() as f64;
    let valid = runs.iter().map(|r| r.qor.proofs_valid).sum::<usize>() as f64;
    let funnel = |stage: &str| {
        ["c2", "c3", "const"]
            .iter()
            .map(|c| count(&format!("gdo.funnel.{c}.{stage}")))
            .sum::<f64>()
    };
    let partitioned = matches!(plan.flow, Flow::Partitioned { .. });
    let mut v = BTreeMap::new();
    v.insert(
        "gdo.optimize_s",
        totals.get("gdo.optimize").copied().unwrap_or(0.0),
    );
    v.insert("gdo.prove_s", own["gdo.prove"]);
    v.insert("gdo.bpfs_s", own["gdo.round.bpfs"]);
    v.insert("gdo.candidates_s", own["gdo.round.candidates"]);
    v.insert("gdo.resub_s", own["gdo.resub"]);
    v.insert("gdo.other_s", own["gdo.optimize"]);
    v.insert("gdo.attributed_frac", stats::attributed_frac(&totals));
    v.insert("gdo.proofs", proofs);
    v.insert(
        "gdo.proof_yield",
        if proofs > 0.0 { valid / proofs } else { 0.0 },
    );
    v.insert(
        "gdo.mods",
        runs.iter().map(|r| r.qor.mods).sum::<usize>() as f64,
    );
    v.insert(
        "gdo.candidates.considered",
        count("gdo.candidates.considered"),
    );
    let filtered = funnel("filtered");
    v.insert(
        "gdo.bpfs_pass_frac",
        if filtered > 0.0 {
            funnel("bpfs_survived") / filtered
        } else {
            0.0
        },
    );
    for name in [
        "sat.prove_calls",
        "sat.propagations",
        "sat.conflicts",
        "sim.vectors",
        "sim.obs_cone_gates",
        "sta.incremental_updates",
        "sta.dirty_signals",
    ] {
        v.insert(name, count(name));
    }
    v.insert("sat.verify_s", sum(|r| r.verify_s));
    v.insert("formats.parse_s", sum(|r| r.parse_s));
    v.insert("library.map_s", sum(|r| r.map_s));
    v.insert("formats.write_s", sum(|r| r.write_s));
    v.insert(
        "partition.optimize_s",
        if partitioned {
            sum(|r| r.optimize_s)
        } else {
            0.0
        },
    );
    v.insert(
        "partition.region_rewrites",
        runs.iter().map(|r| r.qor.region_rewrites).sum::<usize>() as f64,
    );
    v.insert(
        "partition.stitch_conflicts",
        runs.iter().map(|r| r.qor.stitch_conflicts).sum::<usize>() as f64,
    );
    v
}

/// Layer metrics measured in time (reported as a median over traced
/// passes); every other layer metric is a count or a ratio of counts,
/// which must repeat exactly.
fn is_time(name: &str) -> bool {
    name.ends_with("_s") || name == "gdo.attributed_frac"
}

/// Full untraced passes a run makes before it only runs the jobs that
/// still fit in its time.
const MIN_PASSES: usize = 2;

/// Runs `plan` for about `seconds` and reports the workload's metrics.
///
/// Untraced, it makes [`MIN_PASSES`] full passes and then, until no job
/// fits any more, passes of only the jobs whose last run still fits in
/// the time left, so short jobs fill the tail of the run and a long one
/// does not overrun it. With `trace`, untraced and traced full passes
/// alternate, at least one of each, while another pair still fits.
#[must_use]
pub fn run(plan: &BatchPlan, lib: &Library, pace: &mut Pace, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let left = || seconds - secs(start);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let traced_turn = trace && traced.len() < untraced.len();
        let filling = !trace && untraced.len() >= MIN_PASSES;
        // Each job's latest latency, as the estimate of its next one.
        let latest: Vec<Option<f64>> = (0..plan.jobs.len())
            .map(|i| {
                untraced
                    .iter()
                    .rev()
                    .find_map(|p| p.jobs[i].map(|r| r.latency_s))
            })
            .collect();
        let fits = |i: usize| !filling || latest[i].is_some_and(|l| l <= left());
        let pass = run_pass(plan, lib, pace, traced_turn, fits, &mut out);
        if filling && pass.jobs.iter().all(Option::is_none) {
            break;
        }
        if traced_turn {
            let pair = pass.seconds + untraced.last().map_or(0.0, |p| p.seconds);
            traced.push(pass);
            if pair > left() {
                break;
            }
        } else {
            untraced.push(pass);
        }
    }

    // Known answers: the same output on every pass, and optimization
    // actually happened.
    let first = &untraced[0];
    for pass in untraced.iter().chain(&traced) {
        for ((job, a), b) in plan.jobs.iter().zip(&first.jobs).zip(&pass.jobs) {
            if let (Some(a), Some(b)) = (a, b) {
                if a.qor != b.qor {
                    out.problem(format!("{}: output differs between passes", job.name));
                }
            }
        }
    }
    let runs: Vec<&JobRun> = first.jobs.iter().flatten().collect();
    if runs.iter().map(|r| r.qor.mods).sum::<usize>() == 0 {
        out.problem("no rewrite was applied");
    }
    if matches!(plan.flow, Flow::Partitioned { .. })
        && runs.iter().map(|r| r.qor.region_rewrites).sum::<usize>() == 0
    {
        out.problem("no region rewrite was stitched");
    }

    // A pass's time from per-job medians: a burst of host contention in
    // one job of one pass does not move it.
    let job_medians = |passes: &[Pass], f: fn(&JobRun) -> f64| -> Vec<f64> {
        (0..plan.jobs.len())
            .map(|i| {
                let samples: Vec<f64> = passes
                    .iter()
                    .filter_map(|p| p.jobs[i].as_ref().map(f))
                    .collect();
                stats::median(&samples)
            })
            .collect()
    };
    let job_latency = job_medians(&untraced, JobRun::scaled_s);
    let job_raw = job_medians(&untraced, |r| r.latency_s);
    let wall: f64 = job_latency.iter().sum();
    if trace {
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut counts: Option<BTreeMap<&'static str, f64>> = None;
        for pass in &traced {
            let values = layer_values(plan, pass);
            let these: BTreeMap<&'static str, f64> = values
                .iter()
                .filter(|(k, _)| !is_time(k))
                .map(|(k, v)| (*k, *v))
                .collect();
            match &counts {
                None => counts = Some(these),
                Some(c) if *c != these => out.problem("layer counts differ between traced passes"),
                Some(_) => {}
            }
            for (k, v) in values {
                layers.entry(k).or_default().push(v);
            }
        }
        for (k, v) in &layers {
            out.set(k, stats::median(v));
        }
        let traced_wall: f64 = job_medians(&traced, JobRun::scaled_s).iter().sum();
        out.set("telemetry.overhead_pct", 100.0 * (traced_wall / wall - 1.0));
    }

    // End to end, and one row per job.
    out.set("wall_s", wall);
    out.set("latency_p50_s", stats::percentile(&job_latency, 0.5));
    out.set("latency_p90_s", stats::percentile(&job_latency, 0.9));
    let qors: Vec<Qor> = first.jobs.iter().flatten().map(|r| r.qor).collect();
    out.set(
        "delay_ratio",
        stats::geomean(
            &qors
                .iter()
                .map(|q| q.delay_after / q.delay_before)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "literal_ratio",
        stats::geomean(
            &qors
                .iter()
                .map(|q| q.literals_after as f64 / q.literals_before as f64)
                .collect::<Vec<_>>(),
        ),
    );
    match crate::peak_rss_mb("self") {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.problem(e),
    }
    let latencies = job_latency.iter().zip(&job_raw);
    for ((job, run), (latency, raw)) in plan.jobs.iter().zip(&first.jobs).zip(latencies) {
        if let Some(r) = run {
            let q = r.qor;
            out.rows.push(crate::row(
                &job.name,
                &[
                    ("gates", q.gates as f64),
                    ("delay_before", q.delay_before),
                    ("delay_after", q.delay_after),
                    ("literals_before", q.literals_before as f64),
                    ("literals_after", q.literals_after as f64),
                    ("mods", q.mods as f64),
                    ("proofs", q.proofs as f64),
                    ("proofs_valid", q.proofs_valid as f64),
                    ("region_rewrites", q.region_rewrites as f64),
                    ("latency_s", *latency),
                    ("raw_latency_s", *raw),
                ],
            ));
        }
    }
    out
}
