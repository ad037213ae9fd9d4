//! Golden-file test pinning the `RunReport` JSON schema.
//!
//! Downstream consumers (CI smoke checks, plotting scripts, the bench
//! harness) parse `gdo-opt --report-json` output. This test serializes a
//! fixed report and compares it byte-for-byte against a checked-in
//! golden file, so any change to the serialization — key order, number
//! formatting, structure — is a deliberate, reviewed act. Schema
//! changes must ship with a bump of `telemetry::SCHEMA_VERSION` and a
//! regenerated golden file.

use telemetry::{RunReport, SpanStat};

const GOLDEN: &str = include_str!("golden/run_report_v1.json");

fn fixed_report() -> RunReport {
    let mut report = RunReport::default();
    report.meta.insert("circuit".into(), "c17".into());
    report.meta.insert("input".into(), "bench/c17.bench".into());
    report
        .counters
        .insert("gdo.funnel.c2.enumerated".into(), 128);
    report.counters.insert("gdo.funnel.c2.filtered".into(), 40);
    report
        .counters
        .insert("gdo.funnel.c2.bpfs_survived".into(), 11);
    report.counters.insert("gdo.funnel.c2.proofs".into(), 9);
    report.counters.insert("gdo.funnel.c2.proved".into(), 7);
    report.counters.insert("gdo.funnel.c2.applied".into(), 5);
    report.counters.insert("engine.gdo.proposed".into(), 128);
    report.counters.insert("engine.gdo.filtered".into(), 40);
    report.counters.insert("engine.gdo.proved".into(), 7);
    report.counters.insert("engine.gdo.applied".into(), 5);
    report.counters.insert("engine.resub.proposed".into(), 12);
    report.counters.insert("engine.resub.filtered".into(), 3);
    report.counters.insert("engine.resub.proved".into(), 2);
    report.counters.insert("engine.resub.applied".into(), 2);
    report.counters.insert("budget.exhausted".into(), 0);
    report.counters.insert("verify.checks".into(), 2);
    report.counters.insert("verify.failures".into(), 0);
    report.counters.insert("verify.rollbacks".into(), 0);
    report.counters.insert("quarantine.kinds".into(), 0);
    report.counters.insert("sat.conflicts".into(), 42);
    report.counters.insert("sta.full_recomputes".into(), 1);
    report.counters.insert("sta.incremental_updates".into(), 5);
    report.counters.insert("server.jobs_accepted".into(), 3);
    report.counters.insert("server.jobs_rejected".into(), 1);
    report.counters.insert("server.jobs_done".into(), 2);
    report.counters.insert("server.jobs_degraded".into(), 1);
    report.counters.insert("server.queue_depth_max".into(), 2);
    report.counters.insert("server.drain_ms".into(), 7);
    report.counters.insert("partition.regions".into(), 4);
    report
        .counters
        .insert("partition.boundary_signals".into(), 12);
    report
        .counters
        .insert("partition.region_rewrites".into(), 6);
    report
        .counters
        .insert("partition.stitch_conflicts".into(), 0);
    report
        .counters
        .insert("partition.regions_skipped".into(), 0);
    report.counters.insert("partition.regions_done".into(), 4);
    report.counters.insert("gateway.admitted".into(), 6);
    report.counters.insert("gateway.shed".into(), 1);
    report.counters.insert("gateway.cache.hits".into(), 3);
    report.counters.insert("gateway.cache.misses".into(), 3);
    report.counters.insert("gateway.requeued".into(), 1);
    report.counters.insert("gateway.recovered".into(), 0);
    report.gauges.insert("gateway.workers.alive".into(), 2.0);
    report.gauges.insert("gdo.round".into(), 3.0);
    report.spans.insert(
        "gdo.optimize".into(),
        SpanStat {
            count: 1,
            total_s: 0.125,
            max_s: 0.125,
        },
    );
    report.spans.insert(
        "gdo.prove".into(),
        SpanStat {
            count: 9,
            total_s: 0.0625,
            max_s: 0.03125,
        },
    );
    report.summary.insert("proofs".into(), 9.0);
    report.summary.insert("proofs_valid".into(), 7.0);
    report.summary.insert("delay_reduction".into(), 0.25);
    report
}

#[test]
fn run_report_json_matches_golden_file() {
    let json = fixed_report().to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/run_report_v1.json"
        );
        std::fs::write(path, format!("{json}\n")).expect("write golden file");
        return;
    }
    assert_eq!(
        json.trim(),
        GOLDEN.trim(),
        "RunReport JSON schema drifted from the golden file; if this is \
         intentional, bump telemetry::SCHEMA_VERSION and regenerate \
         crates/telemetry/tests/golden/run_report_v1.json"
    );
}

#[test]
fn golden_file_is_valid_and_versioned() {
    telemetry::json::parse(GOLDEN.trim()).expect("golden file validates");
    assert!(
        GOLDEN.contains(&format!("\"schema\":\"{}\"", telemetry::SCHEMA_VERSION)),
        "golden file must carry the current schema version"
    );
}

#[test]
fn empty_report_is_valid() {
    let json = RunReport::default().to_json();
    telemetry::json::parse(&json).expect("empty report validates");
    assert!(json.starts_with("{\"schema\":"));
}
