//! The worker runtime: the pull loop every worker runs, whether it is a
//! `gdo-worker` process on the far end of a TCP connection
//! ([`run_worker`]) or one of `gdo-served`'s in-process workers on a
//! pair of pipes ([`spawn_local_workers`]).
//!
//! A worker proves it carries the same cell library as the gateway
//! (digest in the hello), and then *pulls*: one `pull` credit per free
//! slot, each answered by one `assign`. The job runs through
//! [`serve::job::run_job`] — same seed, same single BPFS thread, same
//! checkpoint cadence — so a report is byte-identical whichever worker,
//! over whichever link, ran it.
//!
//! While a job runs, a ticker thread streams the process's telemetry
//! counter deltas back as `progress` lines (the default worker runs one
//! job at a time, so the deltas attribute to the running job); the
//! gateway fans them out to clients that asked for them. Only
//! [`run_worker`] enables telemetry, so in-process workers send none. A
//! `cancel` from the gateway trips the job's [`gdo::Budget`] cancel
//! handle, which exists from the moment the `assign` is read.
//!
//! The runtime is plain blocking code, so tests can run a worker on a
//! thread against an in-process gateway.

use crate::gateway::Gateway;
use crate::link::{lock, output_from, send_line, Output};
use gdo::Budget;
use library::Library;
use proto::{GatewayMsg, InputFormat, JobSource, SubmitRequest, WorkerMsg, WorkerResult};
use serve::job::{run_job, JobOutcome, JobSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of one worker.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Display name sent in the hello (shows up in gateway logs).
    pub name: String,
    /// The cell library; its digest must match the gateway's.
    pub library: Library,
    /// Concurrent job slots. The default is 1 — run more workers for
    /// more parallelism; that is the sharding axis.
    pub slots: usize,
    /// Honor `panic_attempts` fault injection in assigned specs (tests
    /// only; a production worker leaves this off and runs the job).
    pub fault_inject: bool,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            name: format!("worker-{}", std::process::id()),
            library: library::standard_library(),
            slots: 1,
            fault_inject: false,
        }
    }
}

/// Connects to a gateway and serves jobs until the gateway drains or
/// the connection drops. Blocking; run it on a thread to embed a worker
/// in a test. Enables telemetry, which the progress stream samples.
///
/// # Errors
///
/// Connection failure, registration rejection (library or protocol
/// mismatch), or an IO error during the handshake.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    // `result` and the `pull` behind it go out back to back: neither may
    // wait for the gateway to acknowledge the other.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    telemetry::enable();
    serve_link(reader, output_from(stream), opts)
}

/// Starts `n` in-process workers on `gw` — the shape of `gdo-served`.
/// Each is an ordinary worker with its own library clone, named
/// `{opts.name}-{i}`, running the loop of [`run_worker`] over a pair of
/// pipes instead of a TCP connection. A handle finishes once the
/// gateway drained its worker and closed the link.
///
/// # Errors
///
/// The OS refused to create a pipe.
pub fn spawn_local_workers(
    gw: &Arc<Gateway>,
    n: usize,
    opts: &WorkerOptions,
) -> std::io::Result<Vec<JoinHandle<Result<(), String>>>> {
    (0..n)
        .map(|i| {
            let (from_worker, to_gateway) = std::io::pipe()?;
            let (from_gateway, to_worker) = std::io::pipe()?;
            let link_gw = Arc::clone(gw);
            let link = std::thread::spawn(move || {
                link_gw.serve_worker_link(
                    BufReader::new(from_worker),
                    output_from(to_worker),
                    None,
                );
            });
            let opts = WorkerOptions {
                name: format!("{}-{i}", opts.name),
                ..opts.clone()
            };
            Ok(std::thread::spawn(move || {
                let served =
                    serve_link(BufReader::new(from_gateway), output_from(to_gateway), &opts);
                // Our write end is closed now, so the gateway's side of
                // the link has seen EOF and returns.
                let _ = link.join();
                served
            }))
        })
        .collect()
}

/// The worker loop over one link: hello, welcome, heartbeats, one pull
/// per slot, then assignments until the gateway says `drain` or the
/// link closes.
fn serve_link(reader: impl BufRead, out: Output, opts: &WorkerOptions) -> Result<(), String> {
    send_line(
        &out,
        &WorkerMsg::Hello {
            name: opts.name.clone(),
            lib_digest: opts.library.digest_hex(),
            protocol: proto::PROTOCOL_VERSION,
        }
        .to_json(),
    );
    let mut lines = reader.lines();
    let heartbeat_ms = match lines.next() {
        Some(Ok(line)) => match GatewayMsg::parse(line.trim()) {
            Ok(GatewayMsg::Welcome { heartbeat_ms }) => heartbeat_ms,
            Ok(GatewayMsg::Reject { reason }) => {
                return Err(format!("gateway rejected registration: {reason}"))
            }
            Ok(_) => return Err("gateway spoke out of turn before welcome".to_string()),
            Err(e) => return Err(format!("bad welcome line: {e}")),
        },
        Some(Err(e)) => return Err(format!("reading welcome: {e}")),
        None => return Err("gateway closed the connection before welcome".to_string()),
    };

    // Heartbeats at half the requested interval: the gateway reaps at
    // 3 intervals of silence, so one delayed beat is harmless. The wait
    // for the next beat is also the wait for `stop`, so a drained
    // worker exits at once instead of sitting out the interval.
    let (stop, stopped) = mpsc::channel::<()>();
    let beat_out = Arc::clone(&out);
    let beater = std::thread::spawn(move || {
        let tick = Duration::from_millis((heartbeat_ms / 2).max(10));
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
            send_line(&beat_out, &WorkerMsg::Beat.to_json());
        }
    });

    // One credit per slot; each finished job sends the next pull.
    for _ in 0..opts.slots.max(1) {
        send_line(&out, &WorkerMsg::Pull.to_json());
    }

    let cancels: Arc<Mutex<HashMap<String, gdo::CancelHandle>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let mut jobs: Vec<JoinHandle<()>> = Vec::new();
    for line in lines {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match GatewayMsg::parse(line.trim()) {
            Ok(GatewayMsg::Assign { spec, input }) => {
                let panicked = reap_finished(&mut jobs);
                if panicked > 0 {
                    eprintln!("gdo-worker: {panicked} finished job thread(s) had panicked");
                }
                // The budget, and with it the cancel handle, exists before
                // the next line is read: a `cancel` right behind the assign
                // finds the job.
                let budget = job_budget(&spec);
                let id = spec.id.clone().unwrap_or_default();
                lock(&cancels).insert(id.clone(), budget.cancel_handle());
                let out = Arc::clone(&out);
                let cancels = Arc::clone(&cancels);
                let lib = opts.library.clone();
                let fault_inject = opts.fault_inject;
                jobs.push(std::thread::spawn(move || {
                    run_assignment(&lib, *spec, input, &budget, &out, fault_inject);
                    lock(&cancels).remove(&id);
                    send_line(&out, &WorkerMsg::Pull.to_json());
                }));
            }
            Ok(GatewayMsg::Cancel { id }) => {
                if let Some(handle) = lock(&cancels).get(&id) {
                    handle.cancel();
                }
            }
            Ok(GatewayMsg::Drain) => break,
            Ok(GatewayMsg::Welcome { .. } | GatewayMsg::Reject { .. }) | Err(_) => {
                // Out-of-turn or unparseable line: ignore, keep serving.
            }
        }
    }
    drop(stop);
    for j in jobs {
        let _ = j.join();
    }
    let _ = beater.join();
    Ok(())
}

/// Joins the job threads that have finished and drops their handles, so
/// a long-lived worker keeps handles (and, on glibc, stacks) only for the
/// jobs still running. Returns how many of the joined threads panicked.
fn reap_finished(jobs: &mut Vec<JoinHandle<()>>) -> usize {
    jobs.extract_if(.., |job| job.is_finished())
        .map(JoinHandle::join)
        .filter(Result::is_err)
        .count()
}

/// Runs one assigned job under `budget` and sends its single `result`
/// line.
fn run_assignment(
    lib: &Library,
    wire: SubmitRequest,
    input: Option<proto::ShippedInput>,
    budget: &Budget,
    out: &Output,
    fault_inject: bool,
) {
    let id = wire.id.clone().unwrap_or_default();
    let want_progress = wire.want_progress;
    let panic_attempts = wire.panic_attempts.unwrap_or(0);
    let (spec, temp) = match materialize(wire, input) {
        Ok(t) => t,
        Err(error) => {
            send_line(
                out,
                &WorkerMsg::Result {
                    id,
                    result: WorkerResult::Failed { error },
                }
                .to_json(),
            );
            return;
        }
    };

    // Progress ticker: stream telemetry counter deltas while the job
    // runs. Deltas — not absolutes — so a long-lived worker's history
    // doesn't leak into the next job's progress.
    let ticker_stop = Arc::new(AtomicBool::new(false));
    let ticker = if want_progress {
        let out = Arc::clone(out);
        let stop = Arc::clone(&ticker_stop);
        let id = id.clone();
        let mut last = telemetry::snapshot().counters;
        Some(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let now = telemetry::snapshot().counters;
                let deltas: Vec<(String, u64)> = now
                    .iter()
                    .filter_map(|(k, &v)| {
                        let before = last.get(k).copied().unwrap_or(0);
                        (v > before).then(|| (k.clone(), v - before))
                    })
                    .collect();
                if !deltas.is_empty() {
                    send_line(
                        &out,
                        &WorkerMsg::Progress {
                            id: id.clone(),
                            phase: phase_of(&deltas),
                            counters: deltas,
                        }
                        .to_json(),
                    );
                }
                last = now;
            }
        }))
    } else {
        None
    };

    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if fault_inject && panic_attempts > 0 {
            panic!("fault-inject: injected worker panic ({panic_attempts} to go)");
        }
        run_job(lib, &spec, budget)
    }));

    ticker_stop.store(true, Ordering::Relaxed);
    if let Some(t) = ticker {
        let _ = t.join();
    }
    if let Some(path) = temp {
        let _ = std::fs::remove_file(path);
    }

    let result = match run {
        Ok(Ok(done)) => match done.outcome {
            JobOutcome::Cancelled => WorkerResult::Cancelled,
            outcome => WorkerResult::Finished {
                degraded: outcome == JobOutcome::Degraded,
                circuit: done.circuit,
                report: done.report,
                blif: done.blif,
            },
        },
        Ok(Err(error)) => WorkerResult::Failed { error },
        Err(payload) => WorkerResult::Panicked {
            error: panic_message(payload.as_ref()),
        },
    };
    send_line(out, &WorkerMsg::Result { id, result }.to_json());
}

/// Turns the wire spec into a runnable [`JobSpec`], writing a shipped
/// netlist to a temp file so the worker needs no shared filesystem with
/// the client. Returns the spec and the temp path to clean up.
fn materialize(
    wire: SubmitRequest,
    input: Option<proto::ShippedInput>,
) -> Result<(JobSpec, Option<PathBuf>), String> {
    let id = wire
        .id
        .clone()
        .ok_or_else(|| "assigned spec carries no id".to_string())?;
    let (source, temp) = match input {
        None => (wire.source, None),
        Some(shipped) => {
            let ext = match shipped.format {
                InputFormat::Bench => "bench",
                InputFormat::Blif => "blif",
            };
            let path =
                std::env::temp_dir().join(format!("gdo_worker_{}_{id}.{ext}", std::process::id()));
            std::fs::write(&path, &shipped.text)
                .map_err(|e| format!("writing shipped input {}: {e}", path.display()))?;
            (JobSource::File(path.clone()), Some(path))
        }
    };
    let engines = match &wire.engines {
        None => vec![gdo::EngineId::Gdo],
        Some(list) => gdo::EngineId::parse_list(list).map_err(|e| e.to_string())?,
    };
    let spec = JobSpec {
        id,
        source,
        seed: wire.seed.unwrap_or(1995),
        vectors: wire.vectors,
        verify: wire.verify.unwrap_or(gdo::VerifyPolicy::Final),
        engines,
        partitions: wire.partitions.unwrap_or(0),
        checkpoint: wire.checkpoint,
        resume: wire.resume,
    };
    Ok((spec, temp))
}

/// The job's budget: remainders from a resumed snapshot take precedence
/// over the spec's own deadline/work limit — a requeued or recovered
/// job does not get its budget refreshed.
fn job_budget(spec: &SubmitRequest) -> Budget {
    let (snap_time_ms, snap_work) = spec
        .resume
        .as_ref()
        .and_then(|p| gdo::snapshot::peek_remainders(p).ok())
        .unwrap_or((None, None));
    let time_ms = snap_time_ms.or(spec.deadline_ms);
    let work = snap_work.or(spec.work_limit);
    Budget::new(time_ms.map(Duration::from_millis), work)
}

/// Names the phase a progress tick belongs to from which counters
/// moved.
fn phase_of(deltas: &[(String, u64)]) -> String {
    if deltas.iter().any(|(k, _)| k.starts_with("partition.")) {
        "regions".to_string()
    } else if deltas.iter().any(|(k, _)| k.starts_with("resub.")) {
        "engine:resub".to_string()
    } else {
        "engine:gdo".to_string()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Spins until `job` has returned; the job itself finishes only when
    /// the test signals it.
    fn wait_finished(job: &JoinHandle<()>) {
        while !job.is_finished() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn reaping_joins_finished_threads_and_keeps_running_ones() {
        // Each job blocks until its go signal; `true` makes it panic.
        let mut go = Vec::new();
        let mut jobs = Vec::new();
        for _ in 0..3 {
            let (tx, rx) = mpsc::channel::<bool>();
            go.push(tx);
            jobs.push(std::thread::spawn(move || {
                if rx.recv().unwrap_or(false) {
                    panic!("injected job-thread panic");
                }
            }));
        }
        assert_eq!(reap_finished(&mut jobs), 0);
        assert_eq!(jobs.len(), 3, "no job was signalled yet");

        go[0].send(false).unwrap();
        go[1].send(true).unwrap();
        wait_finished(&jobs[0]);
        wait_finished(&jobs[1]);
        assert_eq!(reap_finished(&mut jobs), 1, "one joined thread panicked");
        assert_eq!(jobs.len(), 1, "only the unsignalled job is left");

        go[2].send(false).unwrap();
        wait_finished(&jobs[0]);
        assert_eq!(reap_finished(&mut jobs), 0);
        assert!(jobs.is_empty());
    }
}
