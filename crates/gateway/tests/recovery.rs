//! Crash-safety tests of `gdo-served` — a gateway with in-process pull
//! workers: the durable job journal, restart recovery,
//! snapshot-corruption fallback, and the structured `already_finished`
//! answer to cancelling a job that already ended.
//!
//! These run the stack in batch mode against an in-memory output, with
//! a journal directory under the system temp dir per test.

mod common;

use common::{event_kind, join, launch, served, SharedBuf, Workers};
use gateway::{output_from, Gateway, GatewayConfig, Output, WorkerOptions};
use proto::{submit_to_json, JobSource, Priority, SubmitRequest};
use serve::wal::{self, Wal};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdo_recovery_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn event_for<'a>(lines: &'a [String], kind: &str, id: &str) -> Option<&'a String> {
    lines.iter().find(|l| {
        let v = proto::json::parse(l).unwrap();
        v.get("event").and_then(|e| e.as_str()) == Some(kind)
            && v.get("id").and_then(|i| i.as_str()) == Some(id)
    })
}

fn submit_line(id: &str, circuit: &str) -> String {
    submit_to_json(&SubmitRequest {
        id: Some(id.to_string()),
        source: JobSource::Suite(circuit.to_string()),
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
        panic_attempts: None,
    })
}

/// Drains the stack and waits for its workers to exit.
fn shut_down(gw: &Gateway, workers: Workers, out: &Output) {
    gw.drain(out);
    join(workers);
}

fn run_batch(cfg: GatewayConfig, requests: &[String]) -> Vec<String> {
    common::run_batch(cfg, 2, &WorkerOptions::default(), &requests.join("\n"))
}

fn journal_cfg(dir: &Path) -> GatewayConfig {
    GatewayConfig {
        default_verify: gdo::VerifyPolicy::Off,
        journal_dir: Some(dir.to_path_buf()),
        ..served()
    }
}

#[test]
fn cancel_after_terminal_answers_already_finished() {
    let (gw, workers) = launch(
        GatewayConfig {
            default_verify: gdo::VerifyPolicy::Off,
            ..served()
        },
        1,
        &WorkerOptions::default(),
    );
    let buf = SharedBuf::default();
    let out: Output = output_from(buf.clone());
    gw.submit(
        proto::parse_request(&submit_line("j1", "Z5xp1"))
            .map(|r| match r {
                proto::Request::Submit(s) => *s,
                _ => unreachable!(),
            })
            .unwrap(),
        &out,
    );
    // Wait until the job's terminal event lands.
    while !buf.lines().iter().any(|l| event_kind(l) == "done") {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // The race fix: cancelling now answers with a structured
    // already_finished (outcome carried), not an error and not a second
    // terminal event.
    gw.cancel("j1", &out);
    // A genuinely unknown id still errors.
    gw.cancel("never-submitted", &out);
    let lines = buf.lines();
    let af = event_for(&lines, "already_finished", "j1").expect("already_finished event");
    assert!(af.contains("\"outcome\":\"done\""), "{af}");
    assert_eq!(
        lines.iter().filter(|l| event_kind(l) == "done").count(),
        1,
        "exactly one terminal for j1: {lines:#?}"
    );
    assert_eq!(
        lines.iter().filter(|l| event_kind(l) == "error").count(),
        1,
        "unknown id still errors: {lines:#?}"
    );
    let drain_out: Output = output_from(SharedBuf::default());
    shut_down(&gw, workers, &drain_out);
}

#[test]
fn clean_run_journals_exactly_one_terminal_per_job() {
    let dir = tmp_dir("clean");
    let lines = run_batch(
        journal_cfg(&dir),
        &[submit_line("a", "Z5xp1"), submit_line("b", "9sym")],
    );
    assert!(event_for(&lines, "done", "a").is_some(), "{lines:#?}");
    assert!(event_for(&lines, "done", "b").is_some(), "{lines:#?}");

    let replay = wal::replay(&dir).unwrap();
    assert!(replay.unfinished.is_empty(), "nothing left to recover");
    let mut finished: Vec<&str> = replay.finished.iter().map(|(id, _)| id.as_str()).collect();
    finished.sort_unstable();
    assert_eq!(finished, ["a", "b"]);
    assert!(replay.finished.iter().all(|(_, o)| o == "done"));

    // A restart against the drained journal recovers nothing.
    let (gw, workers) = launch(journal_cfg(&dir), 2, &WorkerOptions::default());
    let out: Output = output_from(SharedBuf::default());
    shut_down(&gw, workers, &out);
    assert!(!dir.join("recovered.ndjson").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_recovers_journaled_but_unfinished_jobs() {
    let dir = tmp_dir("restart");
    // Simulate a crashed predecessor: the journal holds two accepted
    // jobs, one of which reached its terminal, one did not.
    {
        let wal = Wal::open(&dir).unwrap();
        wal.append_job("job-1", &submit_line("job-1", "Z5xp1"));
        wal.append_job("job-2", &submit_line("job-2", "9sym"));
        wal.append_terminal("job-1", "done");
    }

    // The restarted stack re-enqueues job-2 and runs it to a terminal;
    // its events land in recovered.ndjson.
    let lines = run_batch(journal_cfg(&dir), &[]);
    assert!(lines.iter().all(|l| event_kind(l) != "done"), "{lines:#?}");
    let recovered = std::fs::read_to_string(dir.join("recovered.ndjson")).unwrap();
    let rec_lines: Vec<String> = recovered.lines().map(str::to_string).collect();
    assert!(
        event_for(&rec_lines, "done", "job-2").is_some(),
        "{rec_lines:#?}"
    );
    assert!(
        event_for(&rec_lines, "started", "job-1").is_none(),
        "finished jobs must not be re-run: {rec_lines:#?}"
    );

    // After recovery the journal shows exactly one terminal per job, and
    // a second restart finds nothing to do.
    let replay = wal::replay(&dir).unwrap();
    assert!(replay.unfinished.is_empty(), "journal fully settled");
    let mut finished: Vec<&str> = replay.finished.iter().map(|(id, _)| id.as_str()).collect();
    finished.sort_unstable();
    assert_eq!(finished, ["job-1", "job-2"]);
    // Gateway-assigned ids restart above the journaled numeric suffixes.
    let (gw, workers) = launch(journal_cfg(&dir), 2, &WorkerOptions::default());
    let buf = SharedBuf::default();
    let out: Output = output_from(buf.clone());
    let mut fresh = proto::parse_request(&submit_line("x", "Z5xp1")).unwrap();
    if let proto::Request::Submit(s) = &mut fresh {
        s.id = None;
        gw.submit((**s).clone(), &out);
    }
    shut_down(&gw, workers, &out);
    let accepted = buf
        .lines()
        .iter()
        .find(|l| event_kind(l) == "accepted")
        .cloned()
        .expect("accepted event");
    assert!(accepted.contains("\"id\":\"job-3\""), "{accepted}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted-snapshot injection: a recovered job whose checkpoint file
/// is a partial write, has a flipped checksum, carries a version skew,
/// or is an intact snapshot of another job's input must reject the
/// snapshot cleanly and fall back to re-running the job from the
/// journal — never crash, never lose the job.
#[test]
fn recovery_rejects_corrupt_snapshots_and_reruns_from_journal() {
    // Produce one valid snapshot to corrupt: run a job under a tiny
    // work budget so it trips and writes its state to a client-chosen
    // checkpoint path (journal-managed paths are cleaned up on the
    // terminal, client paths are kept).
    let seed_dir = tmp_dir("mkckpt");
    let keep = seed_dir.join("keep.ckpt");
    let mut req = submit_line("seed-job", "9sym");
    req.truncate(req.len() - 1);
    req.push_str(&format!(
        ",\"work_limit\":60,\"checkpoint\":\"{}\"}}",
        keep.display()
    ));
    let _ = run_batch(journal_cfg(&seed_dir), &[req]);
    let base = if keep.exists() {
        std::fs::read(&keep).unwrap()
    } else {
        // Fall back to a structurally valid container with an alien
        // payload — still exercises every rejection path below.
        let p = seed_dir.join("synthetic.ckpt");
        gdo::snapshot::write_atomic(&p, gdo::snapshot::KIND_RUN, "cursor 0 0\n").unwrap();
        std::fs::read(&p).unwrap()
    };

    for (tag, mutate) in [
        (
            "truncated",
            Box::new(|b: &[u8]| b[..b.len() / 2].to_vec()) as Box<dyn Fn(&[u8]) -> Vec<u8>>,
        ),
        (
            "bad-checksum",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                let n = v.len() - 2;
                v[n] = v[n].wrapping_add(1);
                v
            }),
        ),
        (
            "version-skew",
            Box::new(|b: &[u8]| {
                let text = String::from_utf8_lossy(b).replacen("v1", "v9", 1);
                text.into_bytes()
            }),
        ),
        // The 9sym snapshot as written, attached to the Z5xp1 job: only
        // the run can tell that it belongs to another input.
        ("mismatched", Box::new(<[u8]>::to_vec)),
    ] {
        if tag == "mismatched" {
            assert!(keep.exists(), "the 9sym job must leave its snapshot");
        }
        let dir = tmp_dir(&format!("corrupt_{tag}"));
        {
            let wal = Wal::open(&dir).unwrap();
            wal.append_job("job-1", &submit_line("job-1", "Z5xp1"));
        }
        std::fs::write(dir.join("job-1.ckpt"), mutate(&base)).unwrap();

        let _ = run_batch(journal_cfg(&dir), &[]);
        let recovered = std::fs::read_to_string(dir.join("recovered.ndjson")).unwrap();
        let rec_lines: Vec<String> = recovered.lines().map(str::to_string).collect();
        let done = event_for(&rec_lines, "done", "job-1")
            .unwrap_or_else(|| panic!("{tag}: job must finish from scratch: {rec_lines:#?}"));
        assert!(
            done.contains("resume_rejected"),
            "{tag}: report must note the rejected snapshot: {done}"
        );
        let counter = |name: &str| {
            proto::json::parse(done)
                .unwrap()
                .get("report")
                .and_then(|r| r.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(|n| n.as_u64())
        };
        assert_eq!(
            counter("snapshot.rejected"),
            Some(1),
            "{tag}: report must count the rejected snapshot: {done}"
        );
        // The rerun works under the submit's own (unlimited) budget, not
        // under the remainders of the snapshot it rejected.
        assert_eq!(
            counter("budget.exhausted"),
            Some(0),
            "{tag}: the rerun must not inherit the snapshot's budget: {done}"
        );
        let replay = wal::replay(&dir).unwrap();
        assert!(replay.unfinished.is_empty(), "{tag}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&seed_dir).ok();
}
