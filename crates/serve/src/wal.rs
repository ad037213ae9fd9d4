//! Durable job journal (write-ahead log) for crash recovery.
//!
//! When the gateway runs with a journal directory, every accepted job
//! appends one `job` record before its `accepted` event goes out, and
//! every terminal appends one `terminal` record *before* the terminal
//! event is emitted. After a crash, [`replay`] partitions the journal
//! into finished and unfinished jobs: an id with a `job` record but no
//! `terminal` record was accepted and never concluded, so the restarted
//! gateway re-enqueues it (resuming from its last snapshot when one is
//! readable). Writing the terminal record first means a crash between
//! journal append and event emission loses the *notification*, never the
//! *decision* — the job is not run a second time, so each accepted id
//! reaches exactly one terminal outcome across any number of restarts.
//!
//! The journal is NDJSON, one record per line:
//!
//! ```json
//! {"wal":"job","id":"job-3","spec":{"op":"submit","circuit":"9sym"}}
//! {"wal":"terminal","id":"job-3","outcome":"done"}
//! ```
//!
//! The `spec` object is exactly the wire-format submit request
//! ([`proto::submit_to_json`]), reparsed on replay by the same parser
//! the gateway uses for live connections — the journal cannot
//! drift from the protocol. A torn final line (the crash happened
//! mid-append) is skipped; every complete line before it replays.

use proto::json::{self, Json};
use proto::SubmitRequest;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use telemetry::json_escaped;

/// The journal file name inside the journal directory.
pub const WAL_FILE: &str = "jobs.wal";

/// An open, append-only job journal.
pub struct Wal {
    file: Mutex<File>,
}

impl Wal {
    /// Opens (creating as needed) the journal in `dir`, appending to any
    /// records a previous gateway process left behind.
    ///
    /// # Errors
    ///
    /// IO errors creating the directory or opening the file.
    pub fn open(dir: &Path) -> std::io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(WAL_FILE))?;
        Ok(Wal {
            file: Mutex::new(file),
        })
    }

    /// Appends one record line and flushes it to the OS — a SIGKILL
    /// after this call cannot lose the record.
    fn append(&self, line: &str) {
        let mut f = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(f, "{line}");
        let _ = f.flush();
    }

    /// Records an accepted job (call before emitting `accepted`).
    pub fn append_job(&self, id: &str, spec_json: &str) {
        self.append(&format!(
            "{{\"wal\":\"job\",\"id\":{},\"spec\":{spec_json}}}",
            json_escaped(id)
        ));
    }

    /// Records a job's terminal outcome (call before emitting the
    /// terminal event).
    pub fn append_terminal(&self, id: &str, outcome: &str) {
        self.append(&format!(
            "{{\"wal\":\"terminal\",\"id\":{},\"outcome\":{}}}",
            json_escaped(id),
            json_escaped(outcome)
        ));
    }
}

/// One unfinished job recovered from the journal.
pub struct RecoveredJob {
    /// The job's original id (reused, so clients correlate).
    pub id: String,
    /// The original submit request, wire-parsed back from the journal.
    pub spec: SubmitRequest,
}

/// What [`replay`] found in a journal directory.
#[derive(Default)]
pub struct Replay {
    /// Accepted jobs with no terminal record, in acceptance order.
    pub unfinished: Vec<RecoveredJob>,
    /// Jobs that reached a terminal outcome (id, outcome).
    pub finished: Vec<(String, String)>,
    /// The highest `job-N` numeric suffix seen — the restarted gateway
    /// starts assigning ids above it so recovered and new jobs never
    /// collide.
    pub max_numeric_id: u64,
    /// Journal lines that did not parse (torn tail write, manual edits).
    pub skipped_lines: usize,
}

/// Replays the journal in `dir`. A missing journal file is an empty
/// replay, not an error — a fresh directory is a valid cold start.
///
/// # Errors
///
/// IO errors reading an *existing* journal file.
pub fn replay(dir: &Path) -> std::io::Result<Replay> {
    let path: PathBuf = dir.join(WAL_FILE);
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    };
    let mut out = Replay::default();
    // Insertion-ordered: ids keep their acceptance order for re-enqueue.
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Some((kind, id, v)) = parse_record(&line) else {
            out.skipped_lines += 1;
            continue;
        };
        if let Some(n) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) {
            out.max_numeric_id = out.max_numeric_id.max(n);
        }
        match kind {
            RecordKind::Job(spec) => {
                // Re-accepted after a previous recovery: last spec wins.
                jobs.retain(|j| j.id != id);
                jobs.push(RecoveredJob { id, spec: *spec });
            }
            RecordKind::Terminal => {
                let outcome = v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                jobs.retain(|j| j.id != id);
                out.finished.push((id, outcome));
            }
        }
    }
    out.unfinished = jobs;
    Ok(out)
}

enum RecordKind {
    Job(Box<SubmitRequest>),
    Terminal,
}

fn parse_record(line: &str) -> Option<(RecordKind, String, Json)> {
    let v = json::parse(line).ok()?;
    let id = v.get("id")?.as_str()?.to_string();
    match v.get("wal")?.as_str()? {
        "job" => {
            let spec = proto::parse_submit_value(v.get("spec")?).ok()?;
            Some((RecordKind::Job(Box::new(spec)), id, v))
        }
        "terminal" => Some((RecordKind::Terminal, id, v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSource;
    use crate::queue::Priority;
    use proto::submit_to_json;

    fn spec(circuit: &str) -> SubmitRequest {
        SubmitRequest {
            id: None,
            source: JobSource::Suite(circuit.to_string()),
            deadline_ms: None,
            work_limit: Some(500),
            seed: Some(7),
            vectors: None,
            verify: None,
            engines: None,
            partitions: None,
            priority: Priority::Normal,
            resume: None,
            checkpoint: None,
            want_netlist: false,
            want_progress: false,
            panic_attempts: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gdo_wal_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn journal_round_trips_and_partitions_jobs() {
        let dir = tmp_dir("rt");
        let wal = Wal::open(&dir).unwrap();
        wal.append_job("job-1", &submit_to_json(&spec("9sym")));
        wal.append_job("job-2", &submit_to_json(&spec("rot")));
        wal.append_job("mine", &submit_to_json(&spec("Z5xp1")));
        wal.append_terminal("job-1", "done");
        drop(wal);

        let replay = replay(&dir).unwrap();
        assert_eq!(replay.finished, vec![("job-1".to_string(), "done".into())]);
        let ids: Vec<&str> = replay.unfinished.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids, ["job-2", "mine"]);
        assert_eq!(
            replay.unfinished[0].spec.source,
            JobSource::Suite("rot".to_string())
        );
        assert_eq!(replay.unfinished[0].spec.work_limit, Some(500));
        assert_eq!(replay.max_numeric_id, 2);
        assert_eq!(replay.skipped_lines, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_line_is_skipped_not_fatal() {
        let dir = tmp_dir("torn");
        let wal = Wal::open(&dir).unwrap();
        wal.append_job("job-7", &submit_to_json(&spec("9sym")));
        drop(wal);
        // Simulate a crash mid-append: a truncated record on the tail.
        let path = dir.join(WAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"wal\":\"terminal\",\"id\":\"job-");
        std::fs::write(&path, text).unwrap();

        let replay = replay(&dir).unwrap();
        assert_eq!(replay.unfinished.len(), 1);
        assert_eq!(replay.unfinished[0].id, "job-7");
        assert_eq!(replay.skipped_lines, 1);
        assert_eq!(replay.max_numeric_id, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let dir = tmp_dir("cold");
        let replay = replay(&dir).unwrap();
        assert!(replay.unfinished.is_empty());
        assert!(replay.finished.is_empty());
        assert_eq!(replay.max_numeric_id, 0);
    }
}
