//! Worker-panic supervision tests of `gdo-served`'s stack: with
//! `WorkerOptions::fault_inject` set, a submit request can ask the
//! worker to panic N times before running, which exercises
//! catch_unwind, the gateway's requeue-and-retry, and the
//! poison-quarantine terminal end to end.

mod common;

use common::{counter_of, event_kind as kind, served};
use gateway::{Gateway, GatewayConfig, WorkerOptions};
use proto::{submit_to_json, JobSource, Priority, SubmitRequest};
use std::sync::Arc;

fn submit_panicking(id: &str, panic_attempts: u32) -> String {
    submit_to_json(&SubmitRequest {
        id: Some(id.to_string()),
        source: JobSource::Suite("Z5xp1".to_string()),
        deadline_ms: None,
        work_limit: None,
        seed: Some(7),
        vectors: Some(64),
        verify: None,
        engines: None,
        partitions: None,
        priority: Priority::Normal,
        resume: None,
        checkpoint: None,
        want_netlist: false,
        want_progress: false,
        panic_attempts: Some(panic_attempts),
    })
}

/// Runs `requests` in batch mode through `gdo-served`'s stack with one
/// in-process worker that honors fault injection; returns the event
/// lines and the drained gateway.
fn run_batch(cfg: GatewayConfig, requests: &[String]) -> (Vec<String>, Arc<Gateway>) {
    let opts = WorkerOptions {
        fault_inject: true,
        ..WorkerOptions::default()
    };
    common::run_batch_keeping_gateway(cfg, 1, &opts, &requests.join("\n"))
}

fn cfg(retry_max: u32) -> GatewayConfig {
    GatewayConfig {
        default_verify: gdo::VerifyPolicy::Off,
        retry_max,
        ..served()
    }
}

#[test]
fn panicking_job_is_retried_and_then_succeeds() {
    // Two injected panics, two retries allowed: attempts 0 and 1 panic,
    // attempt 2 runs to completion. The worker survives — the same
    // (single) worker also runs the follow-up job.
    let (lines, gw) = run_batch(
        cfg(2),
        &[submit_panicking("flaky", 2), submit_panicking("clean", 0)],
    );
    let terminal_of = |id: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .map(|l| kind(l))
            .filter(|k| matches!(k.as_str(), "done" | "degraded" | "failed" | "poisoned"))
            .collect::<Vec<_>>()
    };
    assert_eq!(terminal_of("flaky"), ["done"], "{lines:#?}");
    assert_eq!(terminal_of("clean"), ["done"], "{lines:#?}");
    assert_eq!(counter_of(&gw, "gateway.worker_panics"), 2);
    assert_eq!(counter_of(&gw, "gateway.requeued"), 2);
}

#[test]
fn exhausted_retries_quarantine_the_job_as_poisoned() {
    // More injected panics than retries: every attempt dies, the job is
    // quarantined with its distinct terminal — and the worker is not
    // poisoned with it, the next job still runs.
    let (lines, gw) = run_batch(
        cfg(1),
        &[submit_panicking("cursed", 10), submit_panicking("after", 0)],
    );
    let poisoned = lines
        .iter()
        .find(|l| kind(l) == "poisoned")
        .unwrap_or_else(|| panic!("no poisoned terminal: {lines:#?}"));
    assert!(poisoned.contains("\"id\":\"cursed\""), "{poisoned}");
    assert!(poisoned.contains("\"attempts\":2"), "{poisoned}");
    assert!(poisoned.contains("fault-inject"), "{poisoned}");
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"id\":\"cursed\"") && kind(l) != "accepted")
            .filter(|l| matches!(kind(l).as_str(), "done" | "poisoned" | "failed"))
            .count(),
        1,
        "exactly one terminal for the poisoned job: {lines:#?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"id\":\"after\"") && kind(l) == "done"),
        "{lines:#?}"
    );
    // Both attempts panicked; only the first was requeued.
    assert_eq!(counter_of(&gw, "gateway.worker_panics"), 2);
    assert_eq!(counter_of(&gw, "gateway.requeued"), 1);
    assert_eq!(counter_of(&gw, "gateway.jobs.poisoned"), 1);
}
