//! The gateway↔worker NDJSON protocol.
//!
//! Workers — `gdo-worker` processes on the gateway's worker port, or
//! `gdo-served`'s in-process workers on a pipe pair — introduce
//! themselves (`hello` carries the worker's library digest — a worker
//! built against a different cell library is rejected at the door, not
//! discovered through wrong answers), then *pull* jobs: a worker sends
//! one `pull` per slot it can run, the gateway answers each credit with
//! one `assign` when a job is available. This is work stealing across
//! processes — a fast worker pulls more often and naturally claims more
//! of the queue.
//!
//! While running, workers send periodic `beat` lines, and `progress`
//! lines for jobs whose client asked for them; silence past the
//! heartbeat deadline (or TCP EOF — a SIGKILL closes the socket
//! immediately) tells the gateway the worker is gone, and the in-flight
//! job is requeued to resume from its last checkpoint. A `cancel` for a
//! job never precedes its `assign` on the wire, and `drain` tells an
//! idle worker to exit. Every job ends with exactly one `result` line.
//!
//! Messages are tagged `"w"` (worker→gateway) and `"g"`
//! (gateway→worker):
//!
//! ```json
//! {"w":"hello","name":"w-9","lib":"a1b2c3","protocol":1}
//! {"g":"welcome","heartbeat_ms":2000}
//! {"w":"pull"}
//! {"g":"assign","spec":{"op":"submit","id":"job-1","circuit":"9sym"},
//!  "input":{"format":"bench","text":"INPUT(a)…"}}
//! {"w":"progress","id":"job-1","phase":"delay","counters":{"budget.work_done":412}}
//! {"w":"result","id":"job-1","outcome":"done","circuit":"9sym",
//!  "report":{…},"blif":".model…"}
//! ```
//!
//! File-sourced jobs ship the original netlist bytes verbatim in
//! `assign.input` so the worker's parse is byte-identical to a local
//! run; suite-sourced jobs ship no input — the worker regenerates the
//! circuit deterministically from the suite.

use crate::client::{parse_submit_value, submit_to_json, SubmitRequest};
use crate::json::{self, Json};
use crate::report::report_from_json;
use std::fmt::Write as _;
use telemetry::{json_escaped, RunReport};

/// The wire protocol revision; bumped on incompatible message changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// A netlist shipped inline with an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedInput {
    /// Which parser the worker must use.
    pub format: InputFormat,
    /// The original file bytes, verbatim.
    pub text: String,
}

/// The netlist formats a job input can ship as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// ISCAS-85 `.bench`.
    Bench,
    /// Berkeley `.blif` (mapped when the text carries `.gate` lines).
    Blif,
}

impl InputFormat {
    /// Stable lower-case protocol name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InputFormat::Bench => "bench",
            InputFormat::Blif => "blif",
        }
    }

    /// Parses the protocol name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<InputFormat> {
        match name {
            "bench" => Some(InputFormat::Bench),
            "blif" => Some(InputFormat::Blif),
            _ => None,
        }
    }
}

/// One message from a worker to the gateway.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Registration: sent once, first line on the connection.
    Hello {
        /// Worker's self-chosen display name.
        name: String,
        /// Digest of the worker's cell library
        /// (`library::Library::digest_hex`) — must match the
        /// gateway's.
        lib_digest: String,
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// One unit of pull credit: "I can run one more job".
    Pull,
    /// Liveness heartbeat.
    Beat,
    /// Progress of a running job, fanned out to subscribed clients.
    Progress {
        /// Job id.
        id: String,
        /// The phase the job's budget is in, or `regions` for a
        /// partitioned job.
        phase: String,
        /// Per-job deltas since the job's previous progress line
        /// (`budget.work_done`).
        counters: Vec<(String, u64)>,
    },
    /// The job's single result.
    Result {
        /// Job id.
        id: String,
        /// How the run ended.
        result: WorkerResult,
    },
}

/// How a worker's run of one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerResult {
    /// A valid optimized netlist was produced.
    Finished {
        /// `true` when the run was cut short (budget) or rolled back a
        /// verification failure — maps to the client `degraded` event.
        degraded: bool,
        /// Circuit name.
        circuit: String,
        /// The per-job telemetry report.
        report: RunReport,
        /// The optimized netlist as mapped BLIF text.
        blif: String,
    },
    /// The job observed its cancel flag mid-run.
    Cancelled,
    /// The run failed cleanly (bad input, optimizer error).
    Failed {
        /// What went wrong.
        error: String,
    },
    /// The run panicked (caught by the worker's supervisor); the
    /// gateway counts attempts and retries or poisons.
    Panicked {
        /// The panic message.
        error: String,
    },
}

/// One message from the gateway to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayMsg {
    /// Registration accepted.
    Welcome {
        /// How often the worker must send `beat` (the gateway reaps
        /// after missing several).
        heartbeat_ms: u64,
    },
    /// Registration refused (library/protocol mismatch); the gateway
    /// closes the connection after this line.
    Reject {
        /// Why.
        reason: String,
    },
    /// One job, answering one unit of pull credit. The spec always
    /// carries the job id; `input` ships the netlist for file-sourced
    /// jobs.
    Assign {
        /// The job spec in client wire form (defaults already applied
        /// by the gateway).
        spec: Box<SubmitRequest>,
        /// Inline netlist for file sources (`None` = suite source).
        input: Option<ShippedInput>,
    },
    /// Cancel a job assigned to this worker.
    Cancel {
        /// Job id.
        id: String,
    },
    /// Finish in-flight work, send results, exit.
    Drain,
}

impl WorkerMsg {
    /// The message's one-line JSON form (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32);
        match self {
            WorkerMsg::Hello {
                name,
                lib_digest,
                protocol,
            } => {
                let _ = write!(
                    out,
                    "{{\"w\":\"hello\",\"name\":{},\"lib\":{},\"protocol\":{protocol}}}",
                    json_escaped(name),
                    json_escaped(lib_digest),
                );
            }
            WorkerMsg::Pull => out.push_str("{\"w\":\"pull\"}"),
            WorkerMsg::Beat => out.push_str("{\"w\":\"beat\"}"),
            WorkerMsg::Progress {
                id,
                phase,
                counters,
            } => {
                let _ = write!(
                    out,
                    "{{\"w\":\"progress\",\"id\":{},\"phase\":{},\"counters\":{{",
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
            WorkerMsg::Result { id, result } => {
                let _ = write!(out, "{{\"w\":\"result\",\"id\":{}", json_escaped(id));
                match result {
                    WorkerResult::Finished {
                        degraded,
                        circuit,
                        report,
                        blif,
                    } => {
                        let outcome = if *degraded { "degraded" } else { "done" };
                        let _ = write!(
                            out,
                            ",\"outcome\":\"{outcome}\",\"circuit\":{},\"blif\":{},\"report\":{}",
                            json_escaped(circuit),
                            json_escaped(blif),
                            report.to_json(),
                        );
                    }
                    WorkerResult::Cancelled => out.push_str(",\"outcome\":\"cancelled\""),
                    WorkerResult::Failed { error } => {
                        let _ = write!(
                            out,
                            ",\"outcome\":\"failed\",\"error\":{}",
                            json_escaped(error)
                        );
                    }
                    WorkerResult::Panicked { error } => {
                        let _ = write!(
                            out,
                            ",\"outcome\":\"panic\",\"error\":{}",
                            json_escaped(error)
                        );
                    }
                }
                out.push('}');
            }
        }
        out
    }

    /// Parses one worker→gateway line.
    ///
    /// # Errors
    ///
    /// A protocol-level message naming the malformed field.
    pub fn parse(line: &str) -> Result<WorkerMsg, String> {
        let v = json::parse(line).map_err(|e| format!("malformed worker message: {e}"))?;
        let tag = v
            .get("w")
            .and_then(Json::as_str)
            .ok_or_else(|| "worker message needs a string \"w\" tag".to_string())?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{tag} needs a string \"{key}\""))
        };
        match tag {
            "hello" => Ok(WorkerMsg::Hello {
                name: str_field("name")?,
                lib_digest: str_field("lib")?,
                protocol: v
                    .get("protocol")
                    .and_then(Json::as_u64)
                    .ok_or("hello needs an integer \"protocol\"")?
                    .min(u64::from(u32::MAX)) as u32,
            }),
            "pull" => Ok(WorkerMsg::Pull),
            "beat" => Ok(WorkerMsg::Beat),
            "progress" => Ok(WorkerMsg::Progress {
                id: str_field("id")?,
                phase: str_field("phase")?,
                counters: parse_counters(v.get("counters"))?,
            }),
            "result" => {
                let id = str_field("id")?;
                let result = match str_field("outcome")?.as_str() {
                    outcome @ ("done" | "degraded") => WorkerResult::Finished {
                        degraded: outcome == "degraded",
                        circuit: str_field("circuit")?,
                        report: report_from_json(
                            v.get("report").ok_or("result needs a \"report\"")?,
                        )?,
                        blif: str_field("blif")?,
                    },
                    "cancelled" => WorkerResult::Cancelled,
                    "failed" => WorkerResult::Failed {
                        error: str_field("error")?,
                    },
                    "panic" => WorkerResult::Panicked {
                        error: str_field("error")?,
                    },
                    other => return Err(format!("unknown result outcome {other:?}")),
                };
                Ok(WorkerMsg::Result { id, result })
            }
            other => Err(format!("unknown worker message {other:?}")),
        }
    }
}

fn parse_counters(v: Option<&Json>) -> Result<Vec<(String, u64)>, String> {
    let Some(obj) = v.and_then(Json::as_obj) else {
        return Ok(Vec::new());
    };
    obj.iter()
        .map(|(k, x)| {
            x.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("counter {k} must be a non-negative integer"))
        })
        .collect()
}

impl GatewayMsg {
    /// The message's one-line JSON form (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32);
        match self {
            GatewayMsg::Welcome { heartbeat_ms } => {
                let _ = write!(out, "{{\"g\":\"welcome\",\"heartbeat_ms\":{heartbeat_ms}}}");
            }
            GatewayMsg::Reject { reason } => {
                let _ = write!(
                    out,
                    "{{\"g\":\"reject\",\"reason\":{}}}",
                    json_escaped(reason)
                );
            }
            GatewayMsg::Assign { spec, input } => {
                let _ = write!(out, "{{\"g\":\"assign\",\"spec\":{}", submit_to_json(spec));
                if let Some(i) = input {
                    let _ = write!(
                        out,
                        ",\"input\":{{\"format\":\"{}\",\"text\":{}}}",
                        i.format.name(),
                        json_escaped(&i.text),
                    );
                }
                out.push('}');
            }
            GatewayMsg::Cancel { id } => {
                let _ = write!(out, "{{\"g\":\"cancel\",\"id\":{}}}", json_escaped(id));
            }
            GatewayMsg::Drain => out.push_str("{\"g\":\"drain\"}"),
        }
        out
    }

    /// Parses one gateway→worker line.
    ///
    /// # Errors
    ///
    /// A protocol-level message naming the malformed field.
    pub fn parse(line: &str) -> Result<GatewayMsg, String> {
        let v = json::parse(line).map_err(|e| format!("malformed gateway message: {e}"))?;
        let tag = v
            .get("g")
            .and_then(Json::as_str)
            .ok_or_else(|| "gateway message needs a string \"g\" tag".to_string())?;
        match tag {
            "welcome" => Ok(GatewayMsg::Welcome {
                heartbeat_ms: v
                    .get("heartbeat_ms")
                    .and_then(Json::as_u64)
                    .ok_or("welcome needs an integer \"heartbeat_ms\"")?,
            }),
            "reject" => Ok(GatewayMsg::Reject {
                reason: v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
            }),
            "assign" => {
                let spec = parse_submit_value(v.get("spec").ok_or("assign needs a \"spec\"")?)?;
                let input = match v.get("input") {
                    None | Some(Json::Null) => None,
                    Some(i) => {
                        let format = i
                            .get("format")
                            .and_then(Json::as_str)
                            .and_then(InputFormat::from_name)
                            .ok_or("assign input needs a format of bench or blif")?;
                        let text = i
                            .get("text")
                            .and_then(Json::as_str)
                            .ok_or("assign input needs a string \"text\"")?
                            .to_string();
                        Some(ShippedInput { format, text })
                    }
                };
                Ok(GatewayMsg::Assign {
                    spec: Box::new(spec),
                    input,
                })
            }
            "cancel" => Ok(GatewayMsg::Cancel {
                id: v
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("cancel needs a string \"id\"")?
                    .to_string(),
            }),
            "drain" => Ok(GatewayMsg::Drain),
            other => Err(format!("unknown gateway message {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{JobSource, Priority};

    fn spec() -> SubmitRequest {
        SubmitRequest {
            id: Some("job-4".into()),
            source: JobSource::File("/tmp/a.bench".into()),
            deadline_ms: None,
            work_limit: Some(500),
            seed: Some(1995),
            vectors: None,
            verify: None,
            engines: Some("gdo,resub".into()),
            partitions: None,
            priority: Priority::Normal,
            resume: None,
            checkpoint: Some("/tmp/j/job-4.ckpt".into()),
            want_netlist: false,
            want_progress: false,
            panic_attempts: None,
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        let mut report = RunReport::default();
        report.meta.insert("circuit".into(), "a".into());
        report.summary.insert("delay_after".into(), 3.25);
        let msgs = [
            WorkerMsg::Hello {
                name: "w-1".into(),
                lib_digest: "ab12".into(),
                protocol: PROTOCOL_VERSION,
            },
            WorkerMsg::Pull,
            WorkerMsg::Beat,
            WorkerMsg::Progress {
                id: "job-4".into(),
                phase: "engine:gdo".into(),
                counters: vec![("gdo.rounds".into(), 2), ("verify.checks".into(), 1)],
            },
            WorkerMsg::Result {
                id: "job-4".into(),
                result: WorkerResult::Finished {
                    degraded: false,
                    circuit: "a".into(),
                    report,
                    blif: ".model a\n.end\n".into(),
                },
            },
            WorkerMsg::Result {
                id: "job-5".into(),
                result: WorkerResult::Cancelled,
            },
            WorkerMsg::Result {
                id: "job-6".into(),
                result: WorkerResult::Failed {
                    error: "no such circuit".into(),
                },
            },
            WorkerMsg::Result {
                id: "job-7".into(),
                result: WorkerResult::Panicked {
                    error: "index out of bounds".into(),
                },
            },
        ];
        for m in &msgs {
            let line = m.to_json();
            json::parse(&line).unwrap_or_else(|e| panic!("invalid JSON {line:?}: {e}"));
            assert!(!line.contains('\n'));
            assert_eq!(&WorkerMsg::parse(&line).unwrap(), m, "round trip {line:?}");
        }
    }

    #[test]
    fn gateway_messages_round_trip() {
        let msgs = [
            GatewayMsg::Welcome { heartbeat_ms: 2000 },
            GatewayMsg::Reject {
                reason: "library digest mismatch".into(),
            },
            GatewayMsg::Assign {
                spec: Box::new(spec()),
                input: Some(ShippedInput {
                    format: InputFormat::Bench,
                    text: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into(),
                }),
            },
            GatewayMsg::Assign {
                spec: Box::new(SubmitRequest {
                    source: JobSource::Suite("9sym".into()),
                    ..spec()
                }),
                input: None,
            },
            GatewayMsg::Cancel { id: "job-4".into() },
            GatewayMsg::Drain,
        ];
        for m in &msgs {
            let line = m.to_json();
            json::parse(&line).unwrap_or_else(|e| panic!("invalid JSON {line:?}: {e}"));
            assert!(!line.contains('\n'));
            assert_eq!(&GatewayMsg::parse(&line).unwrap(), m, "round trip {line:?}");
        }
    }

    #[test]
    fn rejects_malformed_messages() {
        for bad in [
            "{}",
            r#"{"w":"frob"}"#,
            r#"{"w":"hello","name":"x"}"#,
            r#"{"w":"result","id":"j","outcome":"done"}"#,
            r#"{"w":"result","id":"j","outcome":"sideways"}"#,
            r#"{"g":"assign"}"#,
            r#"{"g":"assign","spec":{"op":"submit","circuit":"a"},"input":{"format":"vhdl","text":""}}"#,
        ] {
            assert!(
                WorkerMsg::parse(bad).is_err() && GatewayMsg::parse(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}
