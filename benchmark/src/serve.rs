//! `serve_mix`: one gateway and one two-slot worker, each its own
//! process (this binary re-executed in the `gateway` and `worker`
//! roles, which run the same library entry points as `gdo-gateway` and
//! `gdo-worker`), driven by a closed-loop client in this process: two
//! threads, one connection each, each submitting its next job only after
//! the previous one's terminal event — the way `gdo-submit` callers
//! block on their result.
//!
//! A round spawns fresh processes (so the result cache starts empty and
//! every round does the same work), waits until the worker has
//! registered (set-up), runs the plan, reads the worker's peak memory,
//! drains, and stops both processes. Layer numbers come from the
//! client's event timestamps: served reports carry counters, not spans.

use crate::plan::{self, ServeJob};
use crate::stats;
use crate::Outcome;
use gateway::{Gateway, GatewayConfig, WorkerOptions};
use proto::json::Json;
use proto::{JobSource, Priority, SubmitRequest};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, one connection each.
pub const CONNECTIONS: usize = 2;
/// Concurrent job slots of the worker.
const WORKER_SLOTS: usize = 2;
/// Result-cache capacity of the gateway (above the fresh jobs of a
/// round, so nothing is evicted).
const CACHE_CAP: usize = 256;
/// How long to wait for a process to register, drain or exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(30);

/// The `gateway` role: binds loopback client and worker listeners,
/// prints `listening ADDR` and `workers ADDR`, and serves until drained.
///
/// # Errors
///
/// Bind or listener failures.
pub fn gateway_role() -> Result<(), String> {
    exit_with_parent();
    let clients = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let workers = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout();
    writeln!(
        stdout,
        "listening {}\nworkers {}",
        clients.local_addr().map_err(|e| e.to_string())?,
        workers.local_addr().map_err(|e| e.to_string())?
    )
    .and_then(|()| stdout.flush())
    .map_err(|e| e.to_string())?;
    let gw = Gateway::new(GatewayConfig {
        cache_cap: CACHE_CAP,
        ..GatewayConfig::default()
    });
    let worker_gw = Arc::clone(&gw);
    let worker_thread = std::thread::spawn(move || worker_gw.serve_workers(&workers));
    let served = gw.serve_clients(&clients);
    let workers_served = worker_thread
        .join()
        .map_err(|_| "worker listener thread panicked".to_string())?;
    served.and(workers_served).map_err(|e| e.to_string())
}

/// The `worker` role: a `gdo-worker` with two job slots.
///
/// # Errors
///
/// Connection or registration failures.
pub fn worker_role(addr: &str) -> Result<(), String> {
    exit_with_parent();
    gateway::run_worker(
        addr,
        &WorkerOptions {
            slots: WORKER_SLOTS,
            ..WorkerOptions::default()
        },
    )
}

/// Ends a role process when the benchmark that spawned it is gone: the
/// benchmark holds the write end of the role's stdin, so reading it
/// returns only once that process has exited, however it ended.
fn exit_with_parent() {
    std::thread::spawn(|| {
        let _ = std::io::stdin().read(&mut [0u8; 1]);
        std::process::exit(1);
    });
}

/// The two serving processes of a round; killed and reaped on drop if
/// the round did not stop them cleanly.
struct Processes {
    children: Vec<Child>,
}

impl Processes {
    /// Waits for every process to exit on its own (after a drain).
    fn wait(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        for child in &mut self.children {
            loop {
                match child.try_wait().map_err(|e| e.to_string())? {
                    Some(status) if status.success() => break,
                    Some(status) => return Err(format!("serving process exited with {status}")),
                    None if Instant::now() > deadline => {
                        return Err("serving process did not exit after drain".to_string())
                    }
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        Ok(())
    }
}

impl Drop for Processes {
    fn drop(&mut self) {
        for child in &mut self.children {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// One client connection, counting what it receives.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    bytes_in: u64,
    decode_s: f64,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(PROCESS_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
            bytes_in: 0,
            decode_s: 0.0,
        })
    }

    /// Sends one request line in a single write, so the client adds no
    /// small-segment delay of its own to what is measured.
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads and decodes the next event line.
    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("gateway closed the connection".to_string());
        }
        self.bytes_in += n as u64;
        let t = Instant::now();
        let v = proto::json::parse(&line).map_err(|e| format!("bad event line: {e}"))?;
        self.decode_s += t.elapsed().as_secs_f64();
        Ok(v)
    }
}

fn event_kind(v: &Json) -> &str {
    v.get("event").and_then(Json::as_str).unwrap_or("")
}

/// What the client saw of one job, timestamps in seconds since the
/// round's load started.
#[derive(Debug, Clone)]
struct Record {
    submit: f64,
    accepted: Option<f64>,
    started: Option<f64>,
    end: f64,
    outcome: String,
    cached: bool,
    summary: BTreeMap<String, f64>,
    blif: Option<String>,
}

/// One round of the plan.
struct Round {
    setup_s: f64,
    wall_s: f64,
    worker_rss_mb: f64,
    encode_s: f64,
    decode_s: f64,
    bytes_in: u64,
    /// Per connection, one record per planned job.
    records: Vec<Vec<Record>>,
}

/// Runs one connection's plan closed loop.
fn drive(
    conn: &mut Conn,
    tag: usize,
    jobs: &[ServeJob],
    epoch: Instant,
) -> Result<(Vec<Record>, f64), String> {
    let mut records = Vec::with_capacity(jobs.len());
    let mut encode_s = 0.0;
    for (i, job) in jobs.iter().enumerate() {
        let id = format!("c{tag}-{i}");
        let t = Instant::now();
        let line = proto::submit_to_json(&SubmitRequest {
            id: Some(id.clone()),
            source: JobSource::Suite(job.circuit.to_string()),
            deadline_ms: None,
            work_limit: None,
            seed: Some(job.seed),
            vectors: None,
            verify: None,
            engines: None,
            partitions: None,
            priority: Priority::Normal,
            resume: None,
            checkpoint: None,
            want_netlist: job.netlist,
            want_progress: false,
            panic_attempts: None,
        });
        encode_s += t.elapsed().as_secs_f64();
        let submit = epoch.elapsed().as_secs_f64();
        conn.send(&line)?;
        let (mut accepted, mut started) = (None, None);
        let record = loop {
            let v = conn.recv()?;
            let now = epoch.elapsed().as_secs_f64();
            if v.get("id").and_then(Json::as_str) != Some(id.as_str()) {
                return Err(format!(
                    "event for another job while waiting on {id}: {v:?}"
                ));
            }
            match event_kind(&v) {
                "accepted" => accepted = Some(now),
                "started" => started = Some(now),
                kind @ ("done" | "degraded" | "failed" | "rejected" | "cancelled" | "poisoned") => {
                    let summary = v
                        .get("report")
                        .and_then(|r| r.get("summary"))
                        .and_then(Json::as_obj)
                        .map(|m| {
                            m.iter()
                                .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
                                .collect()
                        })
                        .unwrap_or_default();
                    break Record {
                        submit,
                        accepted,
                        started,
                        end: now,
                        outcome: kind.to_string(),
                        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
                        summary,
                        blif: v.get("blif").and_then(Json::as_str).map(str::to_string),
                    };
                }
                other => return Err(format!("unexpected event {other:?} for {id}")),
            }
        };
        records.push(record);
    }
    Ok((records, encode_s))
}

/// Asks the gateway whether a worker has registered. Each query uses a
/// fresh connection: the gateway writes an event line in two sends, so
/// on a long-lived connection its reply can wait for the client's
/// delayed ACK, which would add a polling artifact to set-up time.
fn worker_registered(client_addr: &str) -> Result<bool, String> {
    let mut conn = Conn::connect(client_addr)?;
    conn.send("{\"op\":\"status\"}")?;
    let alive = conn
        .recv()?
        .get("counters")
        .and_then(|c| c.get("gateway.workers.alive"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    Ok(alive >= 1)
}

fn spawn_role(exe: &Path, args: &[&str], stdout: Stdio) -> Result<Child, String> {
    Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(stdout)
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {} {}: {e}", exe.display(), args.join(" ")))
}

/// A gateway and a worker that has registered with it.
struct Serving {
    procs: Processes,
    client_addr: String,
    worker_pid: String,
    /// Spawn until the worker registered.
    setup_s: f64,
}

impl Serving {
    /// Drains the gateway over the first of `conns`, closes them all and
    /// waits for both processes to exit.
    fn stop(mut self, mut conns: Vec<Conn>) -> Result<(), String> {
        let conn = conns.first_mut().ok_or("no connection to drain over")?;
        conn.send("{\"op\":\"drain\"}")?;
        while event_kind(&conn.recv()?) != "drained" {}
        drop(conns);
        self.procs.wait()
    }
}

/// Spawns the gateway and the worker and waits until the worker has
/// registered — the serving workload's set-up.
fn start_serving(exe: &Path) -> Result<Serving, String> {
    let t_setup = Instant::now();
    let mut gateway = spawn_role(exe, &["--role", "gateway"], Stdio::piped())?;
    let banner = gateway.stdout.take().expect("gateway stdout is piped");
    let mut procs = Processes {
        children: vec![gateway],
    };
    let mut lines = BufReader::new(banner).lines();
    let mut addr = |prefix: &str| -> Result<String, String> {
        let line = lines
            .next()
            .ok_or("gateway exited before printing its addresses")?
            .map_err(|e| e.to_string())?;
        line.strip_prefix(prefix)
            .map(str::to_string)
            .ok_or_else(|| format!("unexpected gateway banner {line:?}"))
    };
    let client_addr = addr("listening ")?;
    let worker_addr = addr("workers ")?;
    procs.children.push(spawn_role(
        exe,
        &["--role", "worker", "--gateway", &worker_addr],
        Stdio::null(),
    )?);
    let worker_pid = procs.children[1].id().to_string();

    // Set-up ends when the worker has registered.
    while !worker_registered(&client_addr)? {
        if t_setup.elapsed() > PROCESS_TIMEOUT {
            return Err("worker did not register".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Serving {
        procs,
        client_addr,
        worker_pid,
        setup_s: t_setup.elapsed().as_secs_f64(),
    })
}

/// One set-up with nothing served, for the set-up time's median. The
/// processes are killed rather than drained: with nothing in flight
/// there is nothing to check, and a drained worker exits only at its
/// next heartbeat tick, up to a second later.
fn setup_only(exe: &Path) -> Result<f64, String> {
    Ok(start_serving(exe)?.setup_s)
}

fn run_round(plan: &[Vec<ServeJob>], exe: &Path) -> Result<Round, String> {
    let serving = start_serving(exe)?;
    let mut conns: Vec<Conn> = (0..plan.len())
        .map(|_| Conn::connect(&serving.client_addr))
        .collect::<Result<_, _>>()?;

    let epoch = Instant::now();
    let driven: Vec<Result<(Vec<Record>, f64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(plan)
            .enumerate()
            .map(|(tag, (conn, jobs))| s.spawn(move || drive(conn, tag, jobs, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut records = Vec::with_capacity(plan.len());
    let mut encode_s = 0.0;
    for d in driven {
        let (r, e) = d?;
        records.push(r);
        encode_s += e;
    }
    let wall_s = records.iter().flatten().map(|r| r.end).fold(0.0, f64::max);
    let worker_rss_mb = crate::peak_rss_mb(&serving.worker_pid)?;
    let bytes_in = conns.iter().map(|c| c.bytes_in).sum();
    let decode_s = conns.iter().map(|c| c.decode_s).sum();
    let setup_s = serving.setup_s;
    serving.stop(conns)?;
    Ok(Round {
        setup_s,
        wall_s,
        worker_rss_mb,
        encode_s,
        decode_s,
        bytes_in,
        records,
    })
}

/// Checks one round's outputs: every job done, exactly the planned
/// repeats answered from the cache, no delay grew, and every returned
/// netlist parses and is equivalent to its circuit. `checked` remembers
/// netlists already proven, so identical replies are proven once.
fn check_round(
    plan: &[Vec<ServeJob>],
    round: &Round,
    lib: &library::Library,
    checked: &mut HashSet<(&'static str, u64)>,
    out: &mut Outcome,
) {
    for (jobs, records) in plan.iter().zip(&round.records) {
        for (i, (job, rec)) in jobs.iter().zip(records).enumerate() {
            out.attempted += 1;
            let mut fail = |msg: String| {
                out.problems
                    .push(format!("{} (job {i}): {msg}", job.circuit));
                true
            };
            let mut failed = false;
            if rec.outcome != "done" {
                failed |= fail(format!("ended {:?}", rec.outcome));
            }
            if rec.cached != job.repeat_of.is_some() {
                failed |= fail(format!(
                    "cache {} but the plan says {}",
                    if rec.cached { "hit" } else { "miss" },
                    if job.repeat_of.is_some() {
                        "repeat"
                    } else {
                        "fresh"
                    }
                ));
            }
            match (
                rec.summary.get("delay_before"),
                rec.summary.get("delay_after"),
            ) {
                (Some(before), Some(after)) if after <= &(before + 1e-9) => {}
                _ => failed |= fail("delay grew or is missing".to_string()),
            }
            if job.netlist {
                match &rec.blif {
                    None => failed |= fail("no netlist in the reply".to_string()),
                    Some(text) => {
                        let key = (job.circuit, crate::fnv(text));
                        if !checked.contains(&key) {
                            match netlist_matches(lib, job.circuit, text) {
                                Ok(()) => {
                                    checked.insert(key);
                                }
                                Err(e) => failed |= fail(e),
                            }
                        }
                    }
                }
            }
            if failed {
                out.failed += 1;
            }
        }
    }
}

fn netlist_matches(lib: &library::Library, circuit: &str, blif: &str) -> Result<(), String> {
    let parsed =
        library::parse_mapped_blif(lib, blif).map_err(|e| format!("returned netlist: {e}"))?;
    let source = workloads::lookup_circuit(circuit)
        .map_err(|e| e.to_string())?
        .build();
    match sat::check_equiv_sweep(&source, &parsed, 256, gdo::GdoConfig::default().seed) {
        Ok(true) => Ok(()),
        Ok(false) => Err("returned netlist is not equivalent to the circuit".to_string()),
        Err(e) => Err(format!("equivalence check: {e}")),
    }
}

/// Runs [`crate::SETUP_REPEATS`] bare set-ups, then rounds — at least
/// three, or one when tracing — while another round still fits in
/// `seconds`, and reports the workload's metrics. `setup_s` is the
/// median over every set-up, bare or not.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool, exe: &Path) -> Outcome {
    let mut out = Outcome::default();
    let plan = plan::serve_plan(seed, smoke, CONNECTIONS);
    let lib = library::standard_library();
    let start = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        match setup_only(exe) {
            Ok(s) => setups.push(s),
            Err(e) => {
                out.problem(format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut checked = HashSet::new();
    let min_rounds = if trace { 1 } else { 3 };
    loop {
        let t = Instant::now();
        match run_round(&plan, exe) {
            Ok(round) => {
                check_round(&plan, &round, &lib, &mut checked, &mut out);
                setups.push(round.setup_s);
                rounds.push(round);
            }
            Err(e) => {
                out.problem(format!("round failed: {e}"));
                return out;
            }
        }
        let left = seconds - start.elapsed().as_secs_f64();
        if rounds.len() >= min_rounds && t.elapsed().as_secs_f64() > left {
            break;
        }
    }

    // Per-job results must not change between rounds.
    let qor = |r: &Record| {
        [
            "delay_before",
            "delay_after",
            "literals_before",
            "literals_after",
            "proofs",
            "total_mods",
        ]
        .map(|k| r.summary.get(k).copied().unwrap_or(f64::NAN).to_bits())
    };
    for round in &rounds[1..] {
        for (a, b) in rounds[0]
            .records
            .iter()
            .flatten()
            .zip(round.records.iter().flatten())
        {
            if qor(a) != qor(b) {
                out.problem("a served result differs between rounds");
            }
        }
    }

    let all: Vec<(&ServeJob, &Record)> = rounds
        .iter()
        .flat_map(|r| plan.iter().zip(&r.records))
        .flat_map(|(jobs, recs)| jobs.iter().zip(recs))
        .collect();
    let fresh = |(job, _): &&(&ServeJob, &Record)| job.repeat_of.is_none();
    let collect = |f: &dyn Fn(&Record) -> Option<f64>, only_fresh: bool| -> Vec<f64> {
        all.iter()
            .filter(|x| !only_fresh || fresh(x))
            .filter_map(|(_, r)| f(r))
            .collect()
    };
    let latency = collect(&|r| Some(r.end - r.submit), false);
    let per_round = |f: fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", stats::median(&setups));
    out.set("wall_s", per_round(|r| r.wall_s));
    out.set("latency_p50_s", stats::percentile(&latency, 0.5));
    out.set("latency_p90_s", stats::percentile(&latency, 0.9));
    out.set("peak_rss_mb", per_round(|r| r.worker_rss_mb));
    let first: Vec<(&ServeJob, &Record)> = plan
        .iter()
        .zip(&rounds[0].records)
        .flat_map(|(jobs, recs)| jobs.iter().zip(recs))
        .filter(|(job, _)| job.repeat_of.is_none())
        .collect();
    let summed = |k: &str| {
        first
            .iter()
            .map(|(_, r)| r.summary.get(k).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    let ratio = |after: &str, before: &str| {
        stats::geomean(
            &first
                .iter()
                .map(|(_, r)| {
                    r.summary.get(after).copied().unwrap_or(1.0)
                        / r.summary.get(before).copied().unwrap_or(1.0)
                })
                .collect::<Vec<_>>(),
        )
    };
    out.set("delay_ratio", ratio("delay_after", "delay_before"));
    out.set("literal_ratio", ratio("literals_after", "literals_before"));

    if trace {
        let admit = collect(&|r| r.accepted.map(|a| a - r.submit), false);
        let queue = collect(&|r| Some(r.started? - r.accepted?), true);
        let run = collect(&|r| r.started.map(|s| r.end - s), true);
        let hits = collect(&|r| r.cached.then_some(r.end - r.submit), false);
        out.set("gateway.admit_s_p50", stats::median(&admit));
        out.set("gateway.queue_wait_s_p50", stats::median(&queue));
        out.set("gateway.queue_wait_s_p90", stats::percentile(&queue, 0.9));
        out.set("worker.run_s_p50", stats::median(&run));
        out.set("worker.run_s_p90", stats::percentile(&run, 0.9));
        out.set(
            "gateway.cache_hit_frac",
            hits.len() as f64 / latency.len().max(1) as f64,
        );
        out.set("gateway.cache_hit_s_p50", stats::median(&hits));
        out.set("proto.encode_s", per_round(|r| r.encode_s));
        out.set("proto.decode_s", per_round(|r| r.decode_s));
        out.set("proto.bytes_in", per_round(|r| r.bytes_in as f64));
        let proofs = summed("proofs");
        out.set("gdo.proofs", proofs);
        out.set("gdo.mods", summed("total_mods"));
        out.set(
            "gdo.proof_yield",
            if proofs > 0.0 {
                summed("proofs_valid") / proofs
            } else {
                0.0
            },
        );
    }

    // One row per circuit of the pool: jobs per round, results, and the
    // median latency of its fresh jobs.
    let mut circuits: Vec<&'static str> = plan.iter().flatten().map(|j| j.circuit).collect();
    circuits.sort_unstable();
    circuits.dedup();
    for c in circuits {
        let planned = |repeat: bool| {
            plan.iter()
                .flatten()
                .filter(|j| j.circuit == c && j.repeat_of.is_some() == repeat)
                .count() as f64
        };
        let fresh_latency: Vec<f64> = all
            .iter()
            .filter(|(j, _)| j.circuit == c && j.repeat_of.is_none())
            .map(|(_, r)| r.end - r.submit)
            .collect();
        let sample = first
            .iter()
            .find(|(j, _)| j.circuit == c)
            .map(|(_, r)| &r.summary);
        let get = |k: &str| sample.and_then(|s| s.get(k)).copied().unwrap_or(f64::NAN);
        out.rows.push(crate::row(
            c,
            &[
                ("fresh", planned(false)),
                ("cache_hits", planned(true)),
                ("delay_before", get("delay_before")),
                ("delay_after", get("delay_after")),
                ("literals_before", get("literals_before")),
                ("literals_after", get("literals_after")),
                ("latency_s", stats::median(&fresh_latency)),
            ],
        ));
    }
    out
}
