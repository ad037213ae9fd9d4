//! The client↔gateway NDJSON protocol, spoken by both deployment shapes
//! of the one gateway (`gdo-served` and `gdo-gateway`).
//!
//! One JSON object per line in both directions. Requests are parsed with
//! the hand-rolled [`crate::json`] reader; responses are serialized with
//! the same escaping as [`telemetry`]'s writers, so a stream of events is
//! valid NDJSON end to end.
//!
//! ## Requests
//!
//! ```json
//! {"op":"submit","id":"j1","circuit":"9sym","deadline_ms":250,"seed":7,
//!  "work_limit":500,"vectors":512,"verify":"every:8","priority":"high"}
//! {"op":"submit","file":"/tmp/dp96.bench","netlist":true}
//! {"op":"status"}
//! {"op":"cancel","id":"j1"}
//! {"op":"drain"}
//! ```
//!
//! A submit names its circuit either by workload-suite entry (`circuit`)
//! or by netlist file path (`file`), exactly one of the two. All other
//! fields are optional; the gateway assigns ids (`job-N`) and applies
//! its configured defaults. `"netlist":true` asks for the optimized netlist
//! (mapped BLIF text) inline in the terminal event; `"progress":true`
//! subscribes to streamed per-phase progress events while the job runs.
//!
//! ## Responses
//!
//! Every submitted job produces exactly one `accepted` or `rejected`
//! event, and every accepted job exactly one terminal event:
//! `done` (full run), `degraded` (valid result, but the budget expired
//! or a verification rollback fired), `failed` (bad input or internal
//! error) or `cancelled`. Finished jobs carry their full
//! [`telemetry::RunReport`] inline under `"report"`; a terminal served
//! from the gateway's result cache additionally carries `"cached":true`.

use crate::json::{self, Json};
use gdo::VerifyPolicy;
use std::fmt::Write as _;
use std::path::PathBuf;
use telemetry::{json_escaped, RunReport};

/// Where a job's circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// A named entry of the workload suite (`workloads::lookup_circuit`).
    Suite(String),
    /// A `.bench` / `.blif` netlist file readable by the serving process.
    File(PathBuf),
}

impl JobSource {
    /// A short human-readable description for events and errors.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            JobSource::Suite(name) => name.clone(),
            JobSource::File(path) => path.display().to_string(),
        }
    }
}

/// Priority lane of one queued job. Strictly ordered: all queued
/// higher-priority jobs dequeue before any lower-priority one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive lane.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Bulk/batch lane.
    Low,
}

impl Priority {
    /// Lane index, `0` = highest.
    #[must_use]
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Stable lower-case protocol name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses the protocol name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Priority> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one optimization job.
    Submit(Box<SubmitRequest>),
    /// Report queue depth, in-flight jobs, and aggregate counters.
    Status,
    /// Cancel a queued or running job by id.
    Cancel {
        /// The id from the job's `accepted` event.
        id: String,
    },
    /// Stop admitting, finish in-flight jobs, flush reports, shut down.
    Drain,
}

/// The payload of a `submit` request (defaults unapplied — `None` means
/// "use the gateway's default").
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen job id; the gateway assigns `job-N` when absent.
    pub id: Option<String>,
    /// What to optimize.
    pub source: JobSource,
    /// Wall-clock budget for the optimization, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Deterministic work-unit ceiling.
    pub work_limit: Option<u64>,
    /// BPFS seed (threaded into per-job vector generation).
    pub seed: Option<u64>,
    /// BPFS vectors per round.
    pub vectors: Option<usize>,
    /// Checkpointed verify-with-rollback policy.
    pub verify: Option<VerifyPolicy>,
    /// Engine pipeline, comma-separated (`"gdo,resub"`; absent = GDO
    /// alone). Unknown names are rejected at admission with the list of
    /// valid engines.
    pub engines: Option<String>,
    /// Partitioned optimization: cluster into roughly this many regions
    /// (`0`/absent = whole-netlist run).
    pub partitions: Option<usize>,
    /// Queue lane.
    pub priority: Priority,
    /// Resume from a snapshot file written by an earlier interrupted run
    /// of the same spec. An unreadable or mismatched snapshot is
    /// rejected cleanly and the job restarts from scratch.
    pub resume: Option<PathBuf>,
    /// Write run snapshots to this path (overrides the gateway's
    /// journal-managed per-job checkpoint path).
    pub checkpoint: Option<PathBuf>,
    /// Return the optimized netlist (mapped BLIF text) inline in the
    /// terminal event.
    pub want_netlist: bool,
    /// Stream per-phase `progress` events to this client while the job
    /// runs. Only workers that run with telemetry — remote `gdo-worker`s —
    /// send any; `gdo-served`'s in-process workers do not.
    pub want_progress: bool,
    /// Fault injection: panic the worker this many times before letting
    /// the job run. Parsed unconditionally, honored only by workers
    /// started with fault injection on (`gdo-worker --fault-inject`).
    pub panic_attempts: Option<u32>,
}

/// Parses one NDJSON request line.
///
/// # Errors
///
/// A protocol-level message (malformed JSON, unknown `op`, missing or
/// conflicting fields) the gateway echoes back as an `error` event.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string \"op\" field".to_string())?;
    match op {
        "status" => Ok(Request::Status),
        "drain" | "shutdown" => Ok(Request::Drain),
        "cancel" => {
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| "cancel needs a string \"id\"".to_string())?;
            Ok(Request::Cancel { id: id.to_string() })
        }
        "submit" => parse_submit_value(&v).map(|s| Request::Submit(Box::new(s))),
        other => Err(format!(
            "unknown op {other:?} (expected submit, status, cancel or drain)"
        )),
    }
}

/// Parses a submit request whose fields sit in `v` — shared between
/// [`parse_request`], the job journal's replay path, and the gateway's
/// worker-assignment shipping, so every spec consumer round-trips
/// through exactly the wire parser.
///
/// # Errors
///
/// A protocol-level message naming the missing or malformed field.
pub fn parse_submit_value(v: &Json) -> Result<SubmitRequest, String> {
    let circuit = v.get("circuit").and_then(Json::as_str);
    let file = v.get("file").and_then(Json::as_str);
    let source = match (circuit, file) {
        (Some(name), None) => JobSource::Suite(name.to_string()),
        (None, Some(path)) => JobSource::File(path.into()),
        (Some(_), Some(_)) => {
            return Err("submit takes either \"circuit\" or \"file\", not both".to_string())
        }
        (None, None) => {
            return Err("submit needs a \"circuit\" (suite name) or \"file\" (path)".to_string())
        }
    };
    let uint = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
        }
    };
    let flag = |key: &str| -> Result<bool, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(false),
            Some(x) => x
                .as_bool()
                .ok_or_else(|| format!("\"{key}\" must be a boolean")),
        }
    };
    let verify = match v.get("verify").and_then(Json::as_str) {
        None => None,
        Some(s) => Some(parse_verify(s)?),
    };
    let priority = match v.get("priority").and_then(Json::as_str) {
        None => Priority::Normal,
        Some(s) => Priority::from_name(s)
            .ok_or_else(|| format!("\"priority\" must be high, normal or low, got {s:?}"))?,
    };
    Ok(SubmitRequest {
        id: v.get("id").and_then(Json::as_str).map(str::to_string),
        source,
        deadline_ms: uint("deadline_ms")?,
        work_limit: uint("work_limit")?,
        seed: uint("seed")?,
        vectors: uint("vectors")?.map(|n| n as usize),
        verify,
        engines: v.get("engines").and_then(Json::as_str).map(str::to_string),
        partitions: uint("partitions")?.map(|n| n as usize),
        priority,
        resume: v.get("resume").and_then(Json::as_str).map(Into::into),
        checkpoint: v.get("checkpoint").and_then(Json::as_str).map(Into::into),
        want_netlist: flag("netlist")?,
        want_progress: flag("progress")?,
        panic_attempts: uint("panic_attempts")?.map(|n| n.min(u64::from(u32::MAX)) as u32),
    })
}

/// Parses the protocol encoding of a [`VerifyPolicy`]:
/// `off`, `final`, `each`, or `every:N`.
///
/// # Errors
///
/// A message naming the valid encodings.
pub fn parse_verify(s: &str) -> Result<VerifyPolicy, String> {
    match s {
        "off" => Ok(VerifyPolicy::Off),
        "final" => Ok(VerifyPolicy::Final),
        "each" => Ok(VerifyPolicy::EachSubstitution),
        other => {
            if let Some(n) = other.strip_prefix("every:") {
                let k: usize = n
                    .parse()
                    .map_err(|_| format!("bad verify interval {n:?}"))?;
                if k == 0 {
                    return Err("verify interval must be positive".to_string());
                }
                return Ok(VerifyPolicy::EveryN(k));
            }
            Err(format!(
                "\"verify\" must be off, final, each or every:N, got {other:?}"
            ))
        }
    }
}

/// Serializes a submit request back to its protocol line — the client
/// side (`gdo-submit`), the batch-file writer, the job journal, and the
/// gateway's worker shipping share this with the parser, so none of
/// them can drift.
#[must_use]
pub fn submit_to_json(r: &SubmitRequest) -> String {
    let mut out = String::from("{\"op\":\"submit\"");
    if let Some(id) = &r.id {
        let _ = write!(out, ",\"id\":{}", json_escaped(id));
    }
    match &r.source {
        JobSource::Suite(name) => {
            let _ = write!(out, ",\"circuit\":{}", json_escaped(name));
        }
        JobSource::File(path) => {
            let _ = write!(
                out,
                ",\"file\":{}",
                json_escaped(&path.display().to_string())
            );
        }
    }
    if let Some(ms) = r.deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
    if let Some(w) = r.work_limit {
        let _ = write!(out, ",\"work_limit\":{w}");
    }
    if let Some(s) = r.seed {
        let _ = write!(out, ",\"seed\":{s}");
    }
    if let Some(n) = r.vectors {
        let _ = write!(out, ",\"vectors\":{n}");
    }
    if let Some(p) = r.verify {
        let _ = write!(out, ",\"verify\":{}", json_escaped(&verify_name(p)));
    }
    if let Some(e) = &r.engines {
        let _ = write!(out, ",\"engines\":{}", json_escaped(e));
    }
    if let Some(p) = r.partitions {
        let _ = write!(out, ",\"partitions\":{p}");
    }
    if r.priority != Priority::Normal {
        let _ = write!(out, ",\"priority\":{}", json_escaped(r.priority.name()));
    }
    if let Some(path) = &r.resume {
        let _ = write!(
            out,
            ",\"resume\":{}",
            json_escaped(&path.display().to_string())
        );
    }
    if let Some(path) = &r.checkpoint {
        let _ = write!(
            out,
            ",\"checkpoint\":{}",
            json_escaped(&path.display().to_string())
        );
    }
    if r.want_netlist {
        out.push_str(",\"netlist\":true");
    }
    if r.want_progress {
        out.push_str(",\"progress\":true");
    }
    if let Some(n) = r.panic_attempts {
        let _ = write!(out, ",\"panic_attempts\":{n}");
    }
    out.push('}');
    out
}

/// The protocol encoding of a [`VerifyPolicy`] (inverse of
/// [`parse_verify`]).
#[must_use]
pub fn verify_name(p: VerifyPolicy) -> String {
    match p {
        VerifyPolicy::Off => "off".to_string(),
        VerifyPolicy::Final => "final".to_string(),
        VerifyPolicy::EachSubstitution => "each".to_string(),
        VerifyPolicy::EveryN(k) => format!("every:{k}"),
    }
}

/// One response event, streamed back as an NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The job passed admission and is queued.
    Accepted {
        /// Job id (gateway-assigned when the request carried none).
        id: String,
        /// Queue lane.
        priority: Priority,
        /// Queue depth right after admission.
        queue_depth: usize,
    },
    /// Admission failed (queue full, draining, duplicate id, bad
    /// request, load shed). Terminal.
    Rejected {
        /// Job id (or the client's attempted id).
        id: String,
        /// Why admission failed.
        reason: String,
    },
    /// A worker picked the job up.
    Started {
        /// Job id.
        id: String,
        /// Worker index, in the gateway's registration order.
        worker: usize,
        /// Circuit name being optimized.
        circuit: String,
    },
    /// Streamed per-phase progress while the job runs (only for submits
    /// with `"progress":true`). Not terminal.
    Progress {
        /// Job id.
        id: String,
        /// What the worker is doing (`engine:gdo`, `regions`, …).
        phase: String,
        /// Live counter snapshot deltas for this job.
        counters: Vec<(String, u64)>,
    },
    /// The job finished its full run. Terminal.
    Done {
        /// Job id.
        id: String,
        /// The per-job telemetry report.
        report: RunReport,
        /// Whether this terminal was served from the gateway's result
        /// cache instead of a fresh worker run.
        cached: bool,
        /// The optimized netlist (mapped BLIF) when the submit asked
        /// for it with `"netlist":true`.
        blif: Option<String>,
    },
    /// The job produced a valid result but was cut short (budget
    /// exhausted) or rolled back a verification failure. Terminal.
    Degraded {
        /// Job id.
        id: String,
        /// The per-job telemetry report.
        report: RunReport,
        /// Whether this terminal was served from the gateway's result
        /// cache (never true today — only `done` results are cached).
        cached: bool,
        /// The optimized netlist (mapped BLIF) when the submit asked
        /// for it with `"netlist":true`.
        blif: Option<String>,
    },
    /// The job failed (bad input, optimizer error). Terminal.
    Failed {
        /// Job id.
        id: String,
        /// What went wrong.
        error: String,
    },
    /// The job was cancelled by id, before or during its run. Terminal.
    Cancelled {
        /// Job id.
        id: String,
    },
    /// The job's worker panicked on every attempt; the job is
    /// quarantined rather than retried forever. Terminal.
    Poisoned {
        /// Job id.
        id: String,
        /// How many attempts were made (first run plus retries).
        attempts: u32,
        /// The last panic's message.
        error: String,
    },
    /// Answer to cancelling a job that already reached its terminal
    /// event — structured instead of an `error`, so automation can tell
    /// a lost race from a typo'd id. Not terminal: the job's single
    /// terminal event was already emitted.
    AlreadyFinished {
        /// Job id.
        id: String,
        /// The terminal outcome the job already reached
        /// (`done`, `degraded`, `failed`, `cancelled`, `poisoned`).
        outcome: String,
    },
    /// Answer to a `status` request.
    Status {
        /// Jobs waiting in the queue.
        queue_depth: usize,
        /// Jobs currently running on workers.
        running: usize,
        /// Whether the gateway is draining.
        draining: bool,
        /// Aggregate counters (`jobs_accepted`, `jobs_done`, …).
        counters: Vec<(&'static str, u64)>,
    },
    /// Drain started: no further admissions.
    Draining,
    /// Drain complete: all in-flight jobs finished and reports flushed.
    Drained {
        /// Milliseconds from the drain request to the last job.
        drain_ms: u64,
    },
    /// Protocol-level error for one request line (not tied to a job).
    Error {
        /// The parse/validation message.
        error: String,
    },
}

impl Event {
    /// A `done`/`degraded` terminal with no cache or netlist decoration
    /// — the common case of a fresh run.
    #[must_use]
    pub fn finished(id: String, degraded: bool, report: RunReport) -> Event {
        if degraded {
            Event::Degraded {
                id,
                report,
                cached: false,
                blif: None,
            }
        } else {
            Event::Done {
                id,
                report,
                cached: false,
                blif: None,
            }
        }
    }

    /// The event's one-line JSON form (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            Event::Accepted {
                id,
                priority,
                queue_depth,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"accepted\",\"id\":{},\"priority\":{},\"queue_depth\":{queue_depth}}}",
                    json_escaped(id),
                    json_escaped(priority.name()),
                );
            }
            Event::Rejected { id, reason } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"rejected\",\"id\":{},\"reason\":{}}}",
                    json_escaped(id),
                    json_escaped(reason),
                );
            }
            Event::Started {
                id,
                worker,
                circuit,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"started\",\"id\":{},\"worker\":{worker},\"circuit\":{}}}",
                    json_escaped(id),
                    json_escaped(circuit),
                );
            }
            Event::Progress {
                id,
                phase,
                counters,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"progress\",\"id\":{},\"phase\":{},\"counters\":{{",
                    json_escaped(id),
                    json_escaped(phase),
                );
                for (i, (k, v)) in counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{v}", json_escaped(k));
                }
                out.push_str("}}");
            }
            Event::Done {
                id,
                report,
                cached,
                blif,
            } => {
                let _ = write!(out, "{{\"event\":\"done\",\"id\":{}", json_escaped(id),);
                if *cached {
                    out.push_str(",\"cached\":true");
                }
                if let Some(b) = blif {
                    let _ = write!(out, ",\"blif\":{}", json_escaped(b));
                }
                let _ = write!(out, ",\"report\":{}}}", report.to_json());
            }
            Event::Degraded {
                id,
                report,
                cached,
                blif,
            } => {
                let _ = write!(out, "{{\"event\":\"degraded\",\"id\":{}", json_escaped(id),);
                if *cached {
                    out.push_str(",\"cached\":true");
                }
                if let Some(b) = blif {
                    let _ = write!(out, ",\"blif\":{}", json_escaped(b));
                }
                let _ = write!(out, ",\"report\":{}}}", report.to_json());
            }
            Event::Failed { id, error } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"failed\",\"id\":{},\"error\":{}}}",
                    json_escaped(id),
                    json_escaped(error),
                );
            }
            Event::Cancelled { id } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"cancelled\",\"id\":{}}}",
                    json_escaped(id)
                );
            }
            Event::Poisoned {
                id,
                attempts,
                error,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"poisoned\",\"id\":{},\"attempts\":{attempts},\"error\":{}}}",
                    json_escaped(id),
                    json_escaped(error),
                );
            }
            Event::AlreadyFinished { id, outcome } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"already_finished\",\"id\":{},\"outcome\":{}}}",
                    json_escaped(id),
                    json_escaped(outcome),
                );
            }
            Event::Status {
                queue_depth,
                running,
                draining,
                counters,
            } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"status\",\"queue_depth\":{queue_depth},\"running\":{running},\"draining\":{draining},\"counters\":{{",
                );
                for (i, (k, v)) in counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{v}", json_escaped(k));
                }
                out.push_str("}}");
            }
            Event::Draining => out.push_str("{\"event\":\"draining\"}"),
            Event::Drained { drain_ms } => {
                let _ = write!(out, "{{\"event\":\"drained\",\"drain_ms\":{drain_ms}}}");
            }
            Event::Error { error } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"error\",\"error\":{}}}",
                    json_escaped(error)
                );
            }
        }
        out
    }

    /// Whether this event ends a submitted job's lifecycle.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Rejected { .. }
                | Event::Done { .. }
                | Event::Degraded { .. }
                | Event::Failed { .. }
                | Event::Cancelled { .. }
                | Event::Poisoned { .. }
        )
    }

    /// The outcome name recorded in the job journal and the finished map
    /// for a terminal event (`None` for non-terminal events).
    #[must_use]
    pub fn terminal_outcome(&self) -> Option<&'static str> {
        match self {
            Event::Rejected { .. } => Some("rejected"),
            Event::Done { .. } => Some("done"),
            Event::Degraded { .. } => Some("degraded"),
            Event::Failed { .. } => Some("failed"),
            Event::Cancelled { .. } => Some("cancelled"),
            Event::Poisoned { .. } => Some("poisoned"),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_submit() {
        let r = parse_request(
            r#"{"op":"submit","id":"j9","circuit":"9sym","deadline_ms":250,
                "work_limit":100,"seed":7,"vectors":128,"verify":"every:4",
                "engines":"gdo,resub","partitions":4,"priority":"high",
                "netlist":true,"progress":true}"#,
        )
        .unwrap();
        let Request::Submit(s) = r else {
            panic!("not a submit")
        };
        assert_eq!(s.id.as_deref(), Some("j9"));
        assert_eq!(s.source, JobSource::Suite("9sym".to_string()));
        assert_eq!(s.deadline_ms, Some(250));
        assert_eq!(s.work_limit, Some(100));
        assert_eq!(s.seed, Some(7));
        assert_eq!(s.vectors, Some(128));
        assert_eq!(s.verify, Some(VerifyPolicy::EveryN(4)));
        assert_eq!(s.engines.as_deref(), Some("gdo,resub"));
        assert_eq!(s.partitions, Some(4));
        assert_eq!(s.priority, Priority::High);
        assert!(s.want_netlist);
        assert!(s.want_progress);
    }

    #[test]
    fn submit_round_trips_through_its_writer() {
        let original = SubmitRequest {
            id: Some("a \"quoted\" id".to_string()),
            source: JobSource::File("/tmp/x.bench".into()),
            deadline_ms: Some(1),
            work_limit: None,
            seed: Some(1995),
            vectors: None,
            verify: Some(VerifyPolicy::Final),
            engines: Some("gdo,resub".to_string()),
            partitions: Some(8),
            priority: Priority::Low,
            resume: Some("/tmp/x.ckpt".into()),
            checkpoint: Some("/tmp/x next.ckpt".into()),
            want_netlist: true,
            want_progress: true,
            panic_attempts: Some(2),
        };
        let line = submit_to_json(&original);
        telemetry::validate_json(&line).unwrap();
        let Request::Submit(back) = parse_request(&line).unwrap() else {
            panic!("not a submit")
        };
        assert_eq!(*back, original);
    }

    #[test]
    fn minimal_and_control_requests() {
        assert_eq!(
            parse_request(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(parse_request(r#"{"op":"drain"}"#).unwrap(), Request::Drain);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Drain
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":"j1"}"#).unwrap(),
            Request::Cancel {
                id: "j1".to_string()
            }
        );
        let Request::Submit(s) = parse_request(r#"{"op":"submit","circuit":"rot"}"#).unwrap()
        else {
            panic!("not a submit")
        };
        assert_eq!(s.id, None);
        assert_eq!(s.priority, Priority::Normal);
        assert_eq!(s.verify, None);
        assert_eq!(s.resume, None);
        assert_eq!(s.checkpoint, None);
        assert!(!s.want_netlist);
        assert!(!s.want_progress);
        assert_eq!(s.panic_attempts, None);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"frob"}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","circuit":"a","file":"b"}"#,
            r#"{"op":"submit","circuit":"a","deadline_ms":-1}"#,
            r#"{"op":"submit","circuit":"a","verify":"sometimes"}"#,
            r#"{"op":"submit","circuit":"a","verify":"every:0"}"#,
            r#"{"op":"submit","circuit":"a","priority":"urgent"}"#,
            r#"{"op":"submit","circuit":"a","netlist":"yes"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn events_serialize_to_valid_ndjson() {
        let mut report = RunReport::default();
        report.meta.insert("circuit".into(), "9sym".into());
        let events = [
            Event::Accepted {
                id: "j1".into(),
                priority: Priority::High,
                queue_depth: 3,
            },
            Event::Rejected {
                id: "j2".into(),
                reason: "queue full".into(),
            },
            Event::Started {
                id: "j1".into(),
                worker: 0,
                circuit: "9sym".into(),
            },
            Event::Done {
                id: "j1".into(),
                report: report.clone(),
                cached: false,
                blif: None,
            },
            Event::Degraded {
                id: "j3".into(),
                report,
                cached: false,
                blif: None,
            },
            Event::Failed {
                id: "j4".into(),
                error: "boom \"quoted\"".into(),
            },
            Event::Cancelled { id: "j5".into() },
            Event::Poisoned {
                id: "j6".into(),
                attempts: 3,
                error: "worker panic: index out of bounds".into(),
            },
            Event::AlreadyFinished {
                id: "j1".into(),
                outcome: "done".into(),
            },
            Event::Status {
                queue_depth: 2,
                running: 4,
                draining: false,
                counters: vec![("jobs_accepted", 6), ("jobs_done", 1)],
            },
            Event::Draining,
            Event::Drained { drain_ms: 12 },
            Event::Error {
                error: "bad line".into(),
            },
            Event::Progress {
                id: "j1".into(),
                phase: "engine:gdo".into(),
                counters: vec![("partition.regions_done".into(), 3)],
            },
        ];
        for e in &events {
            let line = e.to_json();
            telemetry::validate_json(&line)
                .unwrap_or_else(|err| panic!("invalid event JSON {line:?}: {err}"));
            assert!(!line.contains('\n'), "event must be a single line");
        }
        assert!(events[1].is_terminal());
        assert!(events[3].is_terminal());
        assert!(events[7].is_terminal(), "poisoned ends the job");
        assert!(!events[0].is_terminal());
        assert!(!events[8].is_terminal(), "already_finished is informative");
        assert!(!events[13].is_terminal(), "progress streams mid-run");
        assert_eq!(events[3].terminal_outcome(), Some("done"));
        assert_eq!(events[7].terminal_outcome(), Some("poisoned"));
        assert_eq!(events[0].terminal_outcome(), None);
        // The inline report keeps its versioned schema.
        assert!(events[3]
            .to_json()
            .contains("\"schema\":\"gdo-telemetry/1\""));
    }

    #[test]
    fn cached_and_netlist_decorations_serialize() {
        let e = Event::Done {
            id: "j1".into(),
            report: RunReport::default(),
            cached: true,
            blif: Some(".model x\n.end\n".into()),
        };
        let line = e.to_json();
        telemetry::validate_json(&line).unwrap();
        assert!(line.contains("\"cached\":true"));
        assert!(line.contains("\"blif\":"));
        // Undecorated events stay byte-compatible with the original
        // protocol: no cached/blif keys at all.
        let plain = Event::finished("j1".into(), false, RunReport::default()).to_json();
        assert!(!plain.contains("cached"));
        assert!(!plain.contains("blif"));
    }
}
