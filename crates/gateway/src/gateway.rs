//! The gateway core: admission, cache, priority queue, worker
//! dispatch, fan-out, recovery, and the one job supervisor.
//!
//! One [`Gateway`] owns three faces:
//!
//! - **Clients** speak the NDJSON protocol of [`proto::client`]:
//!   submit / status / cancel / drain, answered by one event stream —
//!   over TCP ([`Gateway::serve_clients`]) or stdin/stdout
//!   ([`Gateway::run_batch`]).
//! - **Workers** dial in, prove they carry the same cell library
//!   (digest check at registration), and *pull* jobs: one `pull` credit
//!   per free slot, answered with one `assign` each. Fast workers pull
//!   more often and naturally claim more of the queue — work stealing.
//!   A worker is a `gdo-worker` process on a TCP connection
//!   ([`Gateway::serve_workers`]) or an in-process thread on a pipe pair
//!   ([`crate::worker::spawn_local_workers`]); both speak the same
//!   protocol and are treated alike.
//! - **Operators** scrape the plain-text `/metrics` and `/status` HTTP
//!   endpoints ([`crate::http`]).
//!
//! `gdo-gateway` is this gateway with TCP workers; `gdo-served` is the
//! same gateway with `--workers N` in-process ones and blocking
//! admission.
//!
//! Admission loads and validates the input, keys the job on exactly
//! what its worker will read ([`crate::key`]), and answers repeats
//! straight from the result cache ([`crate::cache`]) without touching a
//! worker. Cache misses pass the load-shedding watermarks
//! ([`crate::shed`]), are journaled to the write-ahead log
//! ([`serve::wal`]), and queue until a worker credit claims them.
//!
//! A worker that goes silent past its heartbeat deadline — or whose
//! socket closes, which a SIGKILL does instantly — is declared dead:
//! its in-flight jobs requeue, resuming from their last on-disk
//! checkpoint when one exists, and its late results (if it was merely
//! slow) are ignored because the assignment table already re-owns the
//! job. A job whose worker panics is requeued up to `retry_max` times,
//! then quarantined with a `poisoned` terminal. Every accepted job
//! reaches exactly one terminal event across worker deaths and gateway
//! restarts.

use crate::cache::{CacheEntry, ResultCache};
use crate::key::cache_key;
use crate::link::{lock, output_from, send_line, Output};
use crate::shed::ShedConfig;
use gdo::VerifyPolicy;
use library::Library;
use proto::{
    Event, GatewayMsg, Request, ShippedInput, SubmitRequest, WorkerMsg, WorkerResult,
    PROTOCOL_VERSION,
};
use serve::job::load_job_netlist;
use serve::queue::{Admission, JobQueue, PushError};
use serve::wal::{self, Wal};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Static configuration of one [`Gateway`].
pub struct GatewayConfig {
    /// Queue capacity across all lanes. Must be positive.
    pub queue_cap: usize,
    /// The cell library jobs are mapped against; workers must carry an
    /// identical one (checked by digest at registration).
    pub library: Library,
    /// Default verify policy for submits that name none.
    pub default_verify: VerifyPolicy,
    /// Default BPFS seed for submits that name none.
    pub default_seed: u64,
    /// Durable job journal directory: WAL, per-job checkpoints, and
    /// crash recovery. Workers must see the same filesystem for
    /// checkpoint resume to work across processes.
    pub journal_dir: Option<PathBuf>,
    /// Result cache directory (`None` = in-memory only).
    pub cache_dir: Option<PathBuf>,
    /// Result cache capacity in entries (`0` disables caching).
    pub cache_cap: usize,
    /// Heartbeat interval workers are told to keep; a worker with
    /// in-flight jobs silent for 3 intervals is declared dead.
    pub heartbeat_ms: u64,
    /// Worker-panic retries before a job is poisoned.
    pub retry_max: u32,
    /// Load-shedding watermarks.
    pub shed: ShedConfig,
    /// What a full queue does to a submitter. `Reject` answers
    /// `queue full` at once; `Block` parks the submitting connection
    /// until a worker claims a job, and skips the queue-depth shed
    /// watermarks (the work ceiling still sheds) — the policy that lets
    /// a `--batch` longer than the queue lose nothing.
    pub admission: Admission,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            queue_cap: 16,
            library: library::standard_library(),
            default_verify: VerifyPolicy::Final,
            default_seed: 1995,
            journal_dir: None,
            cache_dir: None,
            cache_cap: 64,
            heartbeat_ms: 2000,
            retry_max: 2,
            shed: ShedConfig::for_queue_cap(16),
            admission: Admission::Reject,
        }
    }
}

/// One queued (admitted, unassigned) job.
struct Pending {
    /// Wire-ready spec: id set, defaults resolved — exactly what ships
    /// in an `assign`.
    spec: SubmitRequest,
    /// Inline netlist bytes for file sources.
    input: Option<ShippedInput>,
    /// Result-cache key, for inserting the finished run.
    key: u64,
    /// The submitting client's event stream.
    out: Output,
    /// Set once the client saw `accepted`; later events wait on it.
    announced: Arc<AtomicBool>,
    /// Panic attempts so far (for retry/poison accounting).
    attempts: u32,
}

impl Pending {
    fn id(&self) -> &str {
        self.spec.id.as_deref().unwrap_or("")
    }
}

struct Assigned {
    pending: Pending,
    worker: usize,
    /// Whether the `assign` line is written. Until it is, a `cancel` for
    /// the job is held here rather than relayed, so it cannot overtake
    /// the assign on the wire; the dispatcher sends it right behind.
    on_wire: bool,
    cancel_held: bool,
}

/// One registered worker link.
struct WorkerConn {
    name: String,
    /// Write half for `assign`/`cancel`/`drain` lines.
    out: Output,
    /// The TCP stream of a remote worker, kept to force-close it when it
    /// is reaped; an in-process worker's pipe link has none.
    stream: Option<TcpStream>,
    /// Unanswered `pull` credits.
    credits: usize,
    alive: bool,
    last_beat: Instant,
    /// Ids of jobs currently assigned to this worker.
    jobs: HashSet<String>,
}

/// Registry + assignment table behind one mutex: every job-ownership
/// transition is atomic, which is what makes "exactly one terminal per
/// job" provable — a result is only honored if its sender still owns
/// the job in this table.
#[derive(Default)]
struct State {
    workers: Vec<WorkerConn>,
    assigned: HashMap<String, Assigned>,
}

#[derive(Default)]
struct GatewayCounters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    done: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    poisoned: AtomicU64,
    requeued: AtomicU64,
    recovered: AtomicU64,
    worker_panics: AtomicU64,
    /// Workers force-closed for missing heartbeats while holding jobs.
    workers_reaped: AtomicU64,
    /// Work units granted against the ceiling (shed accounting).
    work_granted: AtomicU64,
}

/// The running gateway. Shared via `Arc` between the client accept
/// loop, worker links, the HTTP endpoint, and the reaper thread.
pub struct Gateway {
    lib: Library,
    lib_digest_hex: String,
    queue: JobQueue<Pending>,
    state: Mutex<State>,
    cache: ResultCache,
    counters: GatewayCounters,
    inflight: AtomicUsize,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Where the accept loops listen, for the drain to wake them.
    listeners: Mutex<Vec<SocketAddr>>,
    next_id: AtomicU64,
    /// Live (admitted, pre-terminal) ids, for duplicate detection.
    live_ids: Mutex<HashSet<String>>,
    /// Terminal outcome of every finished job (fed from WAL replay).
    finished: Mutex<HashMap<String, String>>,
    wal: Option<Wal>,
    journal_dir: Option<PathBuf>,
    defaults: (u64, VerifyPolicy),
    heartbeat_ms: u64,
    retry_max: u32,
    shed: ShedConfig,
    admission: Admission,
    drain_t0: Mutex<Option<Instant>>,
}

impl Gateway {
    /// Builds the gateway: opens the result cache, replays the job
    /// journal, and re-enqueues every job a previous process accepted
    /// but never concluded (their events append to
    /// `<journal>/recovered.ndjson`).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.queue_cap` is zero, or when a configured
    /// journal/cache directory cannot be opened — a gateway asked to be
    /// durable must not start undurably.
    #[must_use]
    pub fn new(cfg: GatewayConfig) -> Arc<Gateway> {
        let replayed = cfg.journal_dir.as_ref().map(|dir| {
            wal::replay(dir).unwrap_or_else(|e| panic!("cannot replay job journal: {e}"))
        });
        let wal = cfg
            .journal_dir
            .as_ref()
            .map(|dir| Wal::open(dir).unwrap_or_else(|e| panic!("cannot open job journal: {e}")));
        let cache = match &cfg.cache_dir {
            Some(dir) => ResultCache::open(dir, cfg.cache_cap)
                .unwrap_or_else(|e| panic!("cannot open result cache {}: {e}", dir.display())),
            None => ResultCache::in_memory(cfg.cache_cap),
        };
        let next_id = replayed.as_ref().map_or(0, |r| r.max_numeric_id) + 1;
        let finished = replayed
            .as_ref()
            .map(|r| r.finished.iter().cloned().collect())
            .unwrap_or_default();
        let gw = Arc::new(Gateway {
            lib_digest_hex: cfg.library.digest_hex(),
            lib: cfg.library,
            queue: JobQueue::new(cfg.queue_cap),
            state: Mutex::new(State::default()),
            cache,
            counters: GatewayCounters::default(),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            listeners: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(next_id),
            live_ids: Mutex::new(HashSet::new()),
            finished: Mutex::new(finished),
            wal,
            journal_dir: cfg.journal_dir.clone(),
            defaults: (cfg.default_seed, cfg.default_verify),
            heartbeat_ms: cfg.heartbeat_ms,
            retry_max: cfg.retry_max,
            shed: cfg.shed,
            admission: cfg.admission,
            drain_t0: Mutex::new(None),
        });
        if let (Some(replay), Some(dir)) = (replayed, cfg.journal_dir.as_ref()) {
            gw.recover(replay, dir);
        }
        let reaper = Arc::clone(&gw);
        std::thread::Builder::new()
            .name("gdo-gateway-reaper".into())
            .spawn(move || reaper.reap_loop())
            .expect("spawn reaper thread");
        gw
    }

    fn recover(&self, replay: wal::Replay, dir: &std::path::Path) {
        if replay.unfinished.is_empty() {
            return;
        }
        let out: Output = match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("recovered.ndjson"))
        {
            Ok(f) => output_from(f),
            Err(_) => output_from(std::io::sink()),
        };
        for job in replay.unfinished {
            let mut req = job.spec;
            req.id = Some(job.id.clone());
            let ckpt = dir.join(format!("{}.ckpt", job.id));
            if req.resume.is_none() && ckpt.exists() {
                req.resume = Some(ckpt);
            }
            self.counters.recovered.fetch_add(1, Ordering::Relaxed);
            self.admit(req, &out, true);
        }
    }

    // ------------------------------------------------------------------
    // Client face
    // ------------------------------------------------------------------

    /// Parses and dispatches one client request line. Returns `true`
    /// once the gateway has fully drained.
    pub fn handle_line(&self, line: &str, out: &Output) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return false;
        }
        match proto::parse_request(line) {
            Err(error) => emit(out, &Event::Error { error }),
            Ok(Request::Status) => self.status(out),
            Ok(Request::Cancel { id }) => self.cancel(&id, out),
            Ok(Request::Submit(req)) => self.submit(*req, out),
            Ok(Request::Drain) => {
                self.drain(out);
                return true;
            }
        }
        false
    }

    /// Admits one job: validate → load → cache lookup → shed check →
    /// journal → queue → dispatch. Every path reports exactly one
    /// `accepted`-or-`rejected`, and accepted jobs exactly one
    /// terminal. A full queue blocks or rejects the submitter, as the
    /// configured [`Admission`] says.
    pub fn submit(&self, req: SubmitRequest, out: &Output) {
        self.admit(req, out, false);
    }

    /// [`submit`](Self::submit), and the path a job recovered from the
    /// journal takes: such a job was admitted by the previous process,
    /// so it is [readmitted](JobQueue::readmit) past the queue's cap
    /// instead of blocking a gateway that has no worker yet.
    fn admit(&self, req: SubmitRequest, out: &Output, recovered: bool) {
        let id = req
            .id
            .clone()
            .unwrap_or_else(|| format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed)));
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let reject = |reason: String, shed: bool| {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            if shed {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
            }
            emit(
                out,
                &Event::Rejected {
                    id: id.clone(),
                    reason,
                },
            );
            self.inflight.fetch_sub(1, Ordering::SeqCst);
        };

        if self.draining.load(Ordering::SeqCst) {
            reject("queue closed (draining)".to_string(), false);
            return;
        }

        // The id names the job's files (`<journal>/<id>.ckpt`).
        if id.is_empty() || id == "." || id == ".." || id.contains(['/', '\\', '\0']) {
            let rule = r#"not empty, "." or "..", and without '/', '\' or NUL"#;
            reject(
                format!("job id {id:?} must be one path component: {rule}"),
                false,
            );
            return;
        }

        // Duplicate ids: live jobs and finished ones both refuse.
        {
            let live = lock(&self.live_ids);
            let finished = lock(&self.finished);
            if live.contains(&id) || finished.contains_key(&id) {
                drop((live, finished));
                reject(format!("duplicate job id {id:?}"), false);
                return;
            }
        }

        // Resolve and validate the deterministic config up front, so an
        // unknown engine is rejected with the list of valid ones.
        let engines = match &req.engines {
            None => vec![gdo::EngineId::Gdo],
            Some(list) => match gdo::EngineId::parse_list(list) {
                Ok(engines) => engines,
                Err(e) => {
                    reject(e.to_string(), false);
                    return;
                }
            },
        };
        let seed = req.seed.unwrap_or(self.defaults.0);
        let verify = req.verify.unwrap_or(self.defaults.1);

        // Load and validate the input *at admission*: file jobs ship
        // their text to the worker, and bad inputs (unknown suite names,
        // unreadable or malformed files) fail fast here instead of
        // burning a queue slot.
        let input = match load_job_netlist(&self.lib, &req.source) {
            Ok((_, _, input)) => input,
            Err(e) => {
                reject(e, false);
                return;
            }
        };

        // The wire-ready spec: id pinned, defaults resolved, journal
        // checkpoint path attached. This exact object ships to whatever
        // worker runs the job — possibly several, across requeues — and
        // with the input it is what the cache key hashes.
        let checkpoint = req.checkpoint.clone().or_else(|| {
            self.journal_dir
                .as_ref()
                .map(|dir| dir.join(format!("{id}.ckpt")))
        });
        let spec = SubmitRequest {
            id: Some(id.clone()),
            seed: Some(seed),
            verify: Some(verify),
            engines: Some(gdo::EngineId::render_list(&engines)),
            checkpoint,
            ..req
        };
        let key = cache_key(&self.lib, &spec, input.as_ref());

        // O(1) duplicate answer: a cached `done` of the same input and
        // config replays without touching a worker.
        if let Some(hit) = self.cache.get(key) {
            self.counters.admitted.fetch_add(1, Ordering::Relaxed);
            if let Some(w) = &self.wal {
                w.append_job(&id, &proto::submit_to_json(&spec));
            }
            lock(&self.live_ids).insert(id.clone());
            emit(
                out,
                &Event::Accepted {
                    id: id.clone(),
                    priority: spec.priority,
                    queue_depth: self.queue.len(),
                },
            );
            // The job id is the one field a replay changes.
            let mut report = hit.report.clone();
            report.meta.insert("job".to_string(), id.clone());
            self.finish(
                &id,
                out,
                &Event::Done {
                    id: id.clone(),
                    report,
                    cached: true,
                    blif: spec.want_netlist.then(|| hit.blif.clone()),
                },
            );
            return;
        }

        // Load shedding: refuse cheap now rather than time out later. A
        // blocking queue parks the submitter at its cap instead, so only
        // the work ceiling sheds under `Admission::Block`.
        let granted = self.counters.work_granted.load(Ordering::Relaxed);
        let depth = match self.admission {
            Admission::Reject => self.queue.len(),
            Admission::Block => 0,
        };
        if let Some(reason) = self
            .shed
            .decide(spec.priority, depth, granted, spec.work_limit)
        {
            reject(reason, true);
            return;
        }
        self.counters
            .work_granted
            .fetch_add(self.shed.grant(spec.work_limit), Ordering::Relaxed);

        if let Some(w) = &self.wal {
            w.append_job(&id, &proto::submit_to_json(&spec));
        }
        lock(&self.live_ids).insert(id.clone());
        let priority = spec.priority;
        let announced = Arc::new(AtomicBool::new(false));
        let pending = Pending {
            spec,
            input,
            key,
            out: Arc::clone(out),
            announced: Arc::clone(&announced),
            attempts: 0,
        };
        let pushed = if recovered {
            self.queue.readmit(pending, priority)
        } else {
            // Under `Admission::Block` this is where backpressure lives:
            // the submitting connection waits here for a free slot.
            self.queue.push(pending, priority, self.admission)
        };
        match pushed {
            Ok(()) => {
                self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                emit(
                    out,
                    &Event::Accepted {
                        id,
                        priority,
                        queue_depth: self.queue.len(),
                    },
                );
                announced.store(true, Ordering::Release);
                self.dispatch();
            }
            Err(e @ (PushError::Full | PushError::Closed)) => {
                if let Some(w) = &self.wal {
                    w.append_terminal(&id, "rejected");
                }
                lock(&self.live_ids).remove(&id);
                reject(e.to_string(), false);
            }
        }
    }

    /// Cancels a job: queued jobs terminate here; assigned jobs get a
    /// `cancel` relayed to their worker (which answers with a
    /// `cancelled` result), never ahead of the job's `assign`. Finished
    /// ids answer `already_finished`.
    pub fn cancel(&self, id: &str, out: &Output) {
        if let Some(job) = self.queue.remove_if(|p| p.id() == id) {
            while !job.announced.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            self.finish(
                id,
                &job.out.clone(),
                &Event::Cancelled { id: id.to_string() },
            );
            return;
        }
        let relay = {
            let mut state = lock(&self.state);
            let State { workers, assigned } = &mut *state;
            assigned.get_mut(id).map(|a| {
                if a.on_wire {
                    Some(Arc::clone(&workers[a.worker].out))
                } else {
                    a.cancel_held = true;
                    None
                }
            })
        };
        match relay {
            Some(Some(wout)) => {
                send_line(&wout, &GatewayMsg::Cancel { id: id.to_string() }.to_json());
                return;
            }
            // Held for the dispatcher, which is writing the assign.
            Some(None) => return,
            None => {}
        }
        let outcome = lock(&self.finished).get(id).cloned();
        match outcome {
            Some(outcome) => emit(
                out,
                &Event::AlreadyFinished {
                    id: id.to_string(),
                    outcome,
                },
            ),
            None => emit(
                out,
                &Event::Error {
                    error: format!("unknown job id {id:?}"),
                },
            ),
        }
    }

    /// Answers a client `status` request with the gateway counter set.
    pub fn status(&self, out: &Output) {
        let running = lock(&self.state).assigned.len();
        emit(
            out,
            &Event::Status {
                queue_depth: self.queue.len(),
                running,
                draining: self.draining.load(Ordering::SeqCst),
                counters: self.counter_pairs(),
            },
        );
    }

    /// Graceful drain: stop admitting, let queued and in-flight jobs
    /// finish on the workers, then tell workers to exit and report
    /// `drained` — always the drain's last event.
    pub fn drain(&self, out: &Output) {
        let t0 = {
            let mut slot = lock(&self.drain_t0);
            *slot.get_or_insert_with(Instant::now)
        };
        self.draining.store(true, Ordering::SeqCst);
        emit(out, &Event::Draining);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            self.dispatch();
            std::thread::sleep(Duration::from_millis(2));
        }
        // Closed before the live workers are collected: a worker that
        // registers later sees it and is drained at the door.
        self.queue.close();
        // Workers are idle now; tell them to exit and close the sockets
        // of remote ones so their read loops return.
        let outs: Vec<(Output, Option<TcpStream>)> = {
            let mut state = lock(&self.state);
            state
                .workers
                .iter_mut()
                .filter(|w| w.alive)
                .map(|w| (Arc::clone(&w.out), w.stream.take()))
                .collect()
        };
        for (wout, stream) in outs {
            send_line(&wout, &GatewayMsg::Drain.to_json());
            if let Some(s) = stream {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        let drain_ms = t0.elapsed().as_millis() as u64;
        emit(out, &Event::Drained { drain_ms });
        self.shutdown.store(true, Ordering::SeqCst);
        // Each accept loop is blocked in `accept`: this connection
        // returns it, and it sees the shutdown and exits.
        let listeners = lock(&self.listeners).clone();
        for addr in listeners {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Batch mode: serves request lines from `reader` (e.g. stdin),
    /// then drains — EOF is an implicit `drain`. Events go to `out`.
    pub fn run_batch(&self, reader: impl BufRead, out: &Output) {
        if !self.serve_client_link(reader, out) {
            self.drain(out);
        }
    }

    /// Whether a drain has completed (accept loops should stop).
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Serves client connections until a client sends `drain`.
    ///
    /// # Errors
    ///
    /// IO errors from the listener itself.
    pub fn serve_clients(self: &Arc<Self>, listener: &TcpListener) -> std::io::Result<()> {
        accept_loop(listener, self, |gw, stream| {
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            gw.serve_client_link(BufReader::new(read_half), &output_from(stream));
        })
    }

    /// Serves one client link's request lines until EOF or a drain.
    /// Returns whether the link drained the gateway.
    fn serve_client_link(&self, reader: impl BufRead, out: &Output) -> bool {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if self.handle_line(&line, out) {
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Worker face
    // ------------------------------------------------------------------

    /// Serves remote (`gdo-worker`) connections until shutdown.
    ///
    /// # Errors
    ///
    /// IO errors from the listener itself.
    pub fn serve_workers(self: &Arc<Self>, listener: &TcpListener) -> std::io::Result<()> {
        accept_loop(listener, self, |gw, stream| {
            let (Ok(read_half), Ok(write_half)) = (stream.try_clone(), stream.try_clone()) else {
                return;
            };
            gw.serve_worker_link(
                BufReader::new(read_half),
                output_from(write_half),
                Some(stream),
            );
        })
    }

    /// One worker link: registration handshake, then the message loop
    /// until EOF (which, for a SIGKILLed worker, arrives immediately).
    /// `stream` is a remote worker's TCP socket, kept so a reaped worker
    /// can be force-closed; an in-process worker's pipe link has none.
    pub(crate) fn serve_worker_link(
        &self,
        mut reader: impl BufRead,
        out: Output,
        stream: Option<TcpStream>,
    ) {
        // Registration: first line must be a hello with a matching
        // library digest and protocol revision.
        let mut first = String::new();
        if reader.read_line(&mut first).unwrap_or(0) == 0 {
            return;
        }
        let hello = match WorkerMsg::parse(first.trim()) {
            Ok(WorkerMsg::Hello {
                name,
                lib_digest,
                protocol,
            }) => {
                if protocol != PROTOCOL_VERSION {
                    send_line(
                        &out,
                        &GatewayMsg::Reject {
                            reason: format!(
                                "protocol {protocol} unsupported (gateway speaks {PROTOCOL_VERSION})"
                            ),
                        }
                        .to_json(),
                    );
                    return;
                }
                if lib_digest != self.lib_digest_hex {
                    send_line(
                        &out,
                        &GatewayMsg::Reject {
                            reason: format!(
                                "library digest mismatch: worker {lib_digest}, \
                                 gateway {}",
                                self.lib_digest_hex
                            ),
                        }
                        .to_json(),
                    );
                    return;
                }
                name
            }
            Ok(_) | Err(_) => {
                send_line(
                    &out,
                    &GatewayMsg::Reject {
                        reason: "first message must be a hello".to_string(),
                    }
                    .to_json(),
                );
                return;
            }
        };

        // Welcome before registering: once registered, a drain may write
        // to the link, and its `drain` must not precede the welcome.
        send_line(
            &out,
            &GatewayMsg::Welcome {
                heartbeat_ms: self.heartbeat_ms,
            }
            .to_json(),
        );
        let registered = {
            let mut state = lock(&self.state);
            (!self.queue.is_closed()).then(|| {
                state.workers.push(WorkerConn {
                    name: hello,
                    out: Arc::clone(&out),
                    stream,
                    credits: 0,
                    alive: true,
                    last_beat: Instant::now(),
                    jobs: HashSet::new(),
                });
                state.workers.len() - 1
            })
        };
        let Some(index) = registered else {
            // Drain already told the live workers to exit; one that
            // arrives after it exits the same way.
            send_line(&out, &GatewayMsg::Drain.to_json());
            return;
        };

        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match WorkerMsg::parse(line.trim()) {
                Ok(WorkerMsg::Pull) => {
                    {
                        let mut state = lock(&self.state);
                        if let Some(w) = state.workers.get_mut(index) {
                            w.credits += 1;
                            w.last_beat = Instant::now();
                        }
                    }
                    self.dispatch();
                }
                Ok(WorkerMsg::Beat) => {
                    let mut state = lock(&self.state);
                    if let Some(w) = state.workers.get_mut(index) {
                        w.last_beat = Instant::now();
                    }
                }
                Ok(WorkerMsg::Progress {
                    id,
                    phase,
                    counters,
                }) => self.on_progress(&id, phase, counters),
                Ok(WorkerMsg::Result { id, result }) => {
                    self.on_result(index, &id, result);
                    self.dispatch();
                }
                Ok(WorkerMsg::Hello { .. }) | Err(_) => {
                    // A second hello or an unparseable line is a worker
                    // bug; ignore the line, keep the connection.
                }
            }
        }
        self.worker_down(index);
    }

    /// Matches pull credits with queued jobs. Called on every pull,
    /// result, and admission.
    fn dispatch(&self) {
        loop {
            let mut state = lock(&self.state);
            // Idle-most worker first: spreading to the largest credit
            // pool is the work-stealing heuristic across processes.
            let Some(index) = state
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.alive && w.credits > 0)
                .max_by_key(|(_, w)| w.credits)
                .map(|(i, _)| i)
            else {
                return;
            };
            let Some(pending) = self.queue.pop() else {
                return;
            };
            while !pending.announced.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let id = pending.id().to_string();
            let circuit = pending.spec.source.describe();
            let client = Arc::clone(&pending.out);
            let spec = pending.spec.clone();
            let input = pending.input.clone();
            let w = &mut state.workers[index];
            w.credits -= 1;
            w.jobs.insert(id.clone());
            let wout = Arc::clone(&w.out);
            state.assigned.insert(
                id.clone(),
                Assigned {
                    pending,
                    worker: index,
                    on_wire: false,
                    cancel_held: false,
                },
            );
            drop(state);
            emit(
                &client,
                &Event::Started {
                    id: id.clone(),
                    worker: index,
                    circuit,
                },
            );
            send_line(
                &wout,
                &GatewayMsg::Assign {
                    spec: Box::new(spec),
                    input,
                }
                .to_json(),
            );
            // A cancel that came in meanwhile was held; it goes right
            // behind the assign.
            let held = lock(&self.state)
                .assigned
                .get_mut(&id)
                .filter(|a| a.worker == index)
                .is_some_and(|a| {
                    a.on_wire = true;
                    a.cancel_held
                });
            if held {
                send_line(&wout, &GatewayMsg::Cancel { id }.to_json());
            }
        }
    }

    /// Streams a worker's progress line to the job's client when the
    /// submit asked for it.
    fn on_progress(&self, id: &str, phase: String, counters: Vec<(String, u64)>) {
        let target = {
            let state = lock(&self.state);
            state
                .assigned
                .get(id)
                .filter(|a| a.pending.spec.want_progress)
                .map(|a| Arc::clone(&a.pending.out))
        };
        if let Some(out) = target {
            emit(
                &out,
                &Event::Progress {
                    id: id.to_string(),
                    phase,
                    counters,
                },
            );
        }
    }

    /// Handles a worker's result line. A result from a worker that no
    /// longer owns the job (it was reaped and the job requeued) is
    /// dropped — the assignment table is the single source of truth,
    /// so each job gets exactly one terminal.
    fn on_result(&self, index: usize, id: &str, result: WorkerResult) {
        let owned = {
            let mut state = lock(&self.state);
            let owns = state.assigned.get(id).is_some_and(|a| a.worker == index);
            if owns {
                if let Some(w) = state.workers.get_mut(index) {
                    w.jobs.remove(id);
                    w.last_beat = Instant::now();
                }
                state.assigned.remove(id)
            } else {
                None
            }
        };
        let Some(assigned) = owned else {
            return; // stale result from a reaped worker
        };
        let pending = assigned.pending;
        match result {
            WorkerResult::Finished {
                degraded,
                circuit,
                report,
                blif,
            } => {
                let want_netlist = pending.spec.want_netlist;
                let blif = if degraded {
                    want_netlist.then_some(blif)
                } else {
                    // Only full runs are cached: their budget never
                    // tripped, so the result is budget-independent.
                    let wanted = want_netlist.then(|| blif.clone());
                    self.cache.insert(
                        pending.key,
                        CacheEntry {
                            circuit,
                            report: report.clone(),
                            blif,
                        },
                    );
                    wanted
                };
                let event = if degraded {
                    Event::Degraded {
                        id: id.to_string(),
                        report,
                        cached: false,
                        blif,
                    }
                } else {
                    Event::Done {
                        id: id.to_string(),
                        report,
                        cached: false,
                        blif,
                    }
                };
                self.finish(id, &pending.out.clone(), &event);
            }
            WorkerResult::Cancelled => {
                self.finish(
                    id,
                    &pending.out.clone(),
                    &Event::Cancelled { id: id.to_string() },
                );
            }
            WorkerResult::Failed { error } => {
                self.finish(
                    id,
                    &pending.out.clone(),
                    &Event::Failed {
                        id: id.to_string(),
                        error,
                    },
                );
            }
            WorkerResult::Panicked { error } => {
                self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                let attempts = pending.attempts + 1;
                if attempts > self.retry_max {
                    self.finish(
                        id,
                        &pending.out.clone(),
                        &Event::Poisoned {
                            id: id.to_string(),
                            attempts,
                            error,
                        },
                    );
                } else {
                    let mut pending = Pending {
                        attempts,
                        ..pending
                    };
                    // Fault-injected panics count down across requeues
                    // so "panic N times, then run" holds even when each
                    // attempt lands on a different worker.
                    if let Some(n) = pending.spec.panic_attempts {
                        pending.spec.panic_attempts = Some(n.saturating_sub(1));
                    }
                    self.requeue(pending);
                }
            }
        }
    }

    /// Puts a job back in the queue after its worker died or panicked,
    /// resuming from its checkpoint when one exists on disk.
    fn requeue(&self, mut pending: Pending) {
        self.counters.requeued.fetch_add(1, Ordering::Relaxed);
        if pending.spec.resume.is_none() {
            if let Some(ckpt) = pending.spec.checkpoint.clone() {
                if ckpt.exists() {
                    pending.spec.resume = Some(ckpt);
                }
            }
        }
        let id = pending.id().to_string();
        let out = Arc::clone(&pending.out);
        let priority = pending.spec.priority;
        match self.queue.readmit(pending, priority) {
            Ok(()) => self.dispatch(),
            Err(e) => {
                // The queue closes only once nothing is in flight, but
                // the job must reach a terminal whatever happens.
                self.finish(
                    &id,
                    &out,
                    &Event::Failed {
                        id: id.clone(),
                        error: format!("requeue after worker loss failed: {e}"),
                    },
                );
            }
        }
    }

    /// Declares a worker dead and requeues every job it still owned.
    /// Idempotent: the reaper and the connection's read loop may both
    /// arrive here.
    fn worker_down(&self, index: usize) {
        let orphans: Vec<Pending> = {
            let mut state = lock(&self.state);
            let Some(w) = state.workers.get_mut(index) else {
                return;
            };
            if !w.alive {
                return;
            }
            w.alive = false;
            w.credits = 0;
            if let Some(s) = w.stream.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            let ids: Vec<String> = w.jobs.drain().collect();
            ids.iter()
                .filter_map(|id| {
                    // Only requeue jobs this worker still owns in the
                    // assignment table.
                    match state.assigned.get(id) {
                        Some(a) if a.worker == index => {
                            state.assigned.remove(id).map(|a| a.pending)
                        }
                        _ => None,
                    }
                })
                .collect()
        };
        for pending in orphans {
            self.requeue(pending);
        }
    }

    /// The reaper: a worker holding jobs that misses 3 heartbeat
    /// intervals is force-closed and its jobs requeued. (TCP EOF
    /// handles the common SIGKILL case instantly; the reaper covers
    /// hung-but-connected workers.)
    fn reap_loop(&self) {
        let deadline = Duration::from_millis(self.heartbeat_ms.saturating_mul(3).max(1));
        let tick = Duration::from_millis((self.heartbeat_ms / 4).max(10));
        while !self.is_shut_down() {
            std::thread::sleep(tick);
            let stale: Vec<usize> = {
                let state = lock(&self.state);
                state
                    .workers
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| {
                        w.alive && !w.jobs.is_empty() && w.last_beat.elapsed() > deadline
                    })
                    .map(|(i, _)| i)
                    .collect()
            };
            for index in stale {
                self.counters.workers_reaped.fetch_add(1, Ordering::Relaxed);
                self.worker_down(index);
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared plumbing
    // ------------------------------------------------------------------

    /// The single exit point of an accepted job: journal the outcome,
    /// then emit the terminal — a crash between the two loses the
    /// notification, never the decision.
    fn finish(&self, id: &str, out: &Output, event: &Event) {
        let outcome = event.terminal_outcome().unwrap_or("unknown");
        lock(&self.finished).insert(id.to_string(), outcome.to_string());
        if let Some(w) = &self.wal {
            w.append_terminal(id, outcome);
        }
        if let Some(dir) = &self.journal_dir {
            let _ = std::fs::remove_file(dir.join(format!("{id}.ckpt")));
        }
        lock(&self.live_ids).remove(id);
        let c = &self.counters;
        match event {
            Event::Done { .. } => c.done.fetch_add(1, Ordering::Relaxed),
            Event::Degraded { .. } => c.degraded.fetch_add(1, Ordering::Relaxed),
            Event::Failed { .. } => c.failed.fetch_add(1, Ordering::Relaxed),
            Event::Cancelled { .. } => c.cancelled.fetch_add(1, Ordering::Relaxed),
            Event::Poisoned { .. } => c.poisoned.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        emit(out, event);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Registered workers, in registration order:
    /// `(name, alive, jobs in flight)`.
    #[must_use]
    pub fn worker_table(&self) -> Vec<(String, bool, usize)> {
        lock(&self.state)
            .workers
            .iter()
            .map(|w| (w.name.clone(), w.alive, w.jobs.len()))
            .collect()
    }

    fn workers_alive(&self) -> usize {
        lock(&self.state).workers.iter().filter(|w| w.alive).count()
    }

    /// Counter pairs for the client `status` event and `/metrics`.
    #[must_use]
    pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
        let c = &self.counters;
        let (hits, misses) = self.cache.stats();
        let depths = self.queue.lane_depths();
        vec![
            ("gateway.admitted", c.admitted.load(Ordering::Relaxed)),
            ("gateway.rejected", c.rejected.load(Ordering::Relaxed)),
            ("gateway.shed", c.shed.load(Ordering::Relaxed)),
            ("gateway.cache.hits", hits),
            ("gateway.cache.misses", misses),
            ("gateway.cache.entries", self.cache.len() as u64),
            ("gateway.workers.alive", self.workers_alive() as u64),
            ("gateway.requeued", c.requeued.load(Ordering::Relaxed)),
            ("gateway.recovered", c.recovered.load(Ordering::Relaxed)),
            (
                "gateway.worker_panics",
                c.worker_panics.load(Ordering::Relaxed),
            ),
            (
                "gateway.workers.reaped",
                c.workers_reaped.load(Ordering::Relaxed),
            ),
            ("gateway.jobs.done", c.done.load(Ordering::Relaxed)),
            ("gateway.jobs.degraded", c.degraded.load(Ordering::Relaxed)),
            ("gateway.jobs.failed", c.failed.load(Ordering::Relaxed)),
            (
                "gateway.jobs.cancelled",
                c.cancelled.load(Ordering::Relaxed),
            ),
            ("gateway.jobs.poisoned", c.poisoned.load(Ordering::Relaxed)),
            ("gateway.queue.depth", self.queue.len() as u64),
            ("gateway.queue.high", depths[0] as u64),
            ("gateway.queue.normal", depths[1] as u64),
            ("gateway.queue.low", depths[2] as u64),
            ("gateway.queue.blocked_pushes", self.queue.blocked_pushes()),
            (
                "gateway.inflight",
                self.inflight.load(Ordering::SeqCst) as u64,
            ),
            ("gateway.running", lock(&self.state).assigned.len() as u64),
            (
                "gateway.work_granted",
                c.work_granted.load(Ordering::Relaxed),
            ),
            (
                "gateway.draining",
                u64::from(self.draining.load(Ordering::SeqCst)),
            ),
        ]
    }
}

/// Writes one event line to a client stream (best effort).
fn emit(out: &Output, event: &Event) {
    send_line(out, &event.to_json());
}

/// The accept loop of every gateway listener — clients, workers and
/// HTTP: one thread per connection, exits once the gateway shuts down.
/// Every accepted stream has `TCP_NODELAY` set, so a line goes out as
/// soon as it is written, not when the peer acknowledges the previous
/// one.
///
/// The loop blocks in `accept`. It records its listener's address
/// first (an unspecified IP as loopback), and [`Gateway::drain`]
/// connects to it right after shutting down, so the loop exits on the
/// first accept that returns after shutdown. Finished connection
/// threads are joined as new connections arrive: the handle list holds
/// only live connections. Each handle is kept beside a clone of its
/// stream; once the loop ends, the streams of the threads still running
/// are shut down before the threads are joined, so a client idling on an
/// open connection cannot keep a drained gateway alive.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    gw: &Arc<Gateway>,
    handler: impl Fn(&Arc<Gateway>, TcpStream) + Send + Sync + 'static,
) -> std::io::Result<()> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    lock(&gw.listeners).push(addr);
    let handler = Arc::new(handler);
    let mut conns: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    while !gw.is_shut_down() {
        let (stream, _addr) = listener.accept()?;
        if gw.is_shut_down() {
            break;
        }
        let panicked = conns
            .extract_if(.., |(thread, _)| thread.is_finished())
            .map(|(thread, _)| thread.join())
            .filter(Result::is_err)
            .count();
        if panicked > 0 {
            eprintln!("gateway: {panicked} finished connection thread(s) had panicked");
        }
        // Without a clone to shut it down by, the connection could
        // outlive the gateway: refuse it.
        let Ok(closer) = stream.try_clone() else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        let gw = Arc::clone(gw);
        let handler = Arc::clone(&handler);
        conns.push((std::thread::spawn(move || handler(&gw, stream)), closer));
    }
    // A connection thread blocks reading its socket until the peer
    // closes it; shutting the socket down ends that read.
    for (thread, closer) in &conns {
        if !thread.is_finished() {
            let _ = closer.shutdown(std::net::Shutdown::Both);
        }
    }
    for (thread, _) in conns {
        let _ = thread.join();
    }
    Ok(())
}
