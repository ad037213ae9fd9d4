//! Smoke tests of the benchmark itself: seeded inputs, repeatable
//! counts and results on tiny workloads, the serving workload's known
//! answers, and the all-workloads file that `--compare` reads.

use gdo_benchmark::plan::{batch_plan, serve_plan};
use gdo_benchmark::Workload;
use proto::json::Json;
use std::process::Command;

const BATCH: [Workload; 3] = [
    Workload::ProofBound,
    Workload::RewriteHeavy,
    Workload::XlPartitioned,
];

/// Runs the benchmark binary; returns its exit success and the parsed
/// last stdout line.
fn bench(args: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_gdo-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output from {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (
        out.status.success(),
        proto::json::parse(last).expect("result line is JSON"),
    )
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {metric} in {result:?}"))
}

#[test]
fn seeded_inputs_repeat_per_seed_and_differ_across_seeds() {
    for smoke in [false, true] {
        for w in BATCH {
            let a = batch_plan(w, 7, smoke);
            assert_eq!(a, batch_plan(w, 7, smoke), "{w:?} is reproducible");
            let b = batch_plan(w, 8, smoke);
            assert_ne!(a, b, "{w:?} inputs follow the seed");
            let mut names_a: Vec<&str> = a.jobs.iter().map(|j| j.name.as_str()).collect();
            let mut names_b: Vec<&str> = b.jobs.iter().map(|j| j.name.as_str()).collect();
            names_a.sort_unstable();
            names_b.sort_unstable();
            assert_eq!(
                names_a, names_b,
                "the seed never changes which circuits run"
            );
        }
        assert_eq!(serve_plan(7, smoke, 2), serve_plan(7, smoke, 2));
        assert_ne!(serve_plan(7, smoke, 2), serve_plan(8, smoke, 2));
    }
}

#[test]
fn smoke_batch_runs_repeat_counts_and_results() {
    for w in BATCH {
        let traced = [
            "--workload",
            w.name(),
            "--smoke",
            "--seconds",
            "0",
            "--trace",
            "1",
        ];
        let untraced = [
            "--workload",
            w.name(),
            "--smoke",
            "--seconds",
            "0",
            "--trace",
            "0",
        ];
        let (ok1, t1) = bench(&traced);
        let (ok2, t2) = bench(&traced);
        assert!(ok1 && ok2, "{w:?} traced smoke runs pass their checks");
        let counts = [
            "gdo.proofs",
            "gdo.mods",
            "gdo.proof_yield",
            "gdo.candidates.considered",
            "gdo.bpfs_pass_frac",
            "sat.prove_calls",
            "sat.propagations",
            "sat.conflicts",
            "sim.vectors",
            "sim.obs_cone_gates",
            "sta.incremental_updates",
            "sta.dirty_signals",
            "partition.region_rewrites",
            "partition.stitch_conflicts",
        ];
        for c in counts {
            assert_eq!(value(&t1, c), value(&t2, c), "{w:?} {c} repeats");
        }
        assert!(value(&t1, "gdo.mods") >= 1.0, "{w:?} applies rewrites");
        if w == Workload::XlPartitioned {
            assert!(value(&t1, "partition.region_rewrites") >= 1.0);
        }
        let (ok1, u1) = bench(&untraced);
        let (ok2, u2) = bench(&untraced);
        assert!(ok1 && ok2, "{w:?} untraced smoke runs pass their checks");
        for q in ["delay_ratio", "literal_ratio"] {
            assert_eq!(value(&u1, q), value(&u2, q), "{w:?} {q} repeats");
            assert!(value(&u1, q) <= 1.0);
        }
        assert_eq!(u1.get("failed").and_then(Json::as_u64), Some(0));
    }
}

#[test]
fn smoke_serve_mix_meets_its_known_answers() {
    let (ok, r) = bench(&[
        "--workload",
        "serve_mix",
        "--smoke",
        "--seconds",
        "0",
        "--trace",
        "1",
    ]);
    assert!(ok, "{r:?}");
    // Every planned repeat, and nothing else, is answered from the cache.
    let plan = serve_plan(1995, true, 2);
    let jobs = plan.iter().flatten().count() as f64;
    let repeats = plan
        .iter()
        .flatten()
        .filter(|j| j.repeat_of.is_some())
        .count() as f64;
    assert_eq!(value(&r, "gateway.cache_hit_frac"), repeats / jobs);
    assert!(value(&r, "worker.run_s_p50") > 0.0);
    assert!(value(&r, "proto.bytes_in") > 0.0);
}

#[test]
fn all_workloads_file_compares_against_itself() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-run.json");
    let path = out.to_str().expect("utf-8 path");
    let status = Command::new(env!("CARGO_BIN_EXE_gdo-benchmark"))
        .args(["--smoke", "--seconds", "0", "--out", path])
        .status()
        .expect("benchmark binary runs");
    assert!(status.success());
    let run = proto::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    for w in Workload::ALL {
        let entry = run
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .unwrap_or_else(|| panic!("{} missing", w.name()));
        assert_eq!(entry.get("correct").and_then(Json::as_bool), Some(true));
        assert!(entry
            .get("rows")
            .and_then(Json::as_arr)
            .is_some_and(|r| !r.is_empty()));
    }
    assert!(run.get("host_cores").and_then(Json::as_u64).is_some());
    // Three runs a side: the fewest a verdict is given for.
    let compare = Command::new(env!("CARGO_BIN_EXE_gdo-benchmark"))
        .args(["--compare", path, path, path, "--", path, path, path])
        .output()
        .expect("benchmark binary runs");
    assert!(compare.status.success());
    let table = String::from_utf8_lossy(&compare.stdout);
    let rows: Vec<&str> = table.lines().skip(1).collect();
    let metrics = gdo_benchmark::manifest::manifest().end_to_end.len();
    assert_eq!(rows.len(), Workload::ALL.len() * metrics, "{table}");
    assert!(rows.iter().all(|r| r.contains("no worse")), "{table}");
}
