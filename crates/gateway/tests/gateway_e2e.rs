//! End-to-end tests of the gateway/worker stack over loopback TCP: the
//! duplicate batch answered from the result cache with byte-identical
//! reports, cache misses on every config axis, cache persistence across
//! a gateway restart, worker death mid-job with requeue to a survivor,
//! panic retry and poisoning, load shedding, registration checks, and
//! byte-identity between `gdo-served`'s pipe-linked workers and TCP
//! ones.

mod common;

use common::{count_kind, counter_of, event_kind, Client};
use gateway::{Gateway, GatewayConfig, ShedConfig, WorkerOptions};
use proto::PROTOCOL_VERSION;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

/// Starts an in-process gateway on ephemeral loopback ports. Returns
/// the gateway and its (client, worker) addresses.
fn start(cfg: GatewayConfig) -> (Arc<Gateway>, std::net::SocketAddr, std::net::SocketAddr) {
    let clients = TcpListener::bind("127.0.0.1:0").unwrap();
    let workers = TcpListener::bind("127.0.0.1:0").unwrap();
    let client_addr = clients.local_addr().unwrap();
    let worker_addr = workers.local_addr().unwrap();
    let gw = Gateway::new(cfg);
    let serving = Arc::clone(&gw);
    std::thread::spawn(move || serving.serve_clients(&clients).unwrap());
    let serving = Arc::clone(&gw);
    std::thread::spawn(move || serving.serve_workers(&workers).unwrap());
    (gw, client_addr, worker_addr)
}

/// Runs a real worker on a thread against `addr`.
fn spawn_worker(
    addr: std::net::SocketAddr,
    name: &str,
    fault_inject: bool,
) -> std::thread::JoinHandle<()> {
    let name = name.to_string();
    std::thread::spawn(move || {
        gateway::run_worker(
            &addr.to_string(),
            &WorkerOptions {
                name,
                fault_inject,
                ..WorkerOptions::default()
            },
        )
        .unwrap();
    })
}

fn field(line: &str, name: &str) -> Option<String> {
    proto::json::parse(line)
        .ok()?
        .get(name)
        .and_then(|v| match v {
            proto::json::Json::Str(s) => Some(s.clone()),
            proto::json::Json::Bool(b) => Some(b.to_string()),
            proto::json::Json::Num(n) => Some(n.to_string()),
            _ => None,
        })
}

/// The raw `"report":{...}` object bytes of a done/degraded line — what
/// byte-identity claims are about.
fn report_bytes(line: &str) -> String {
    let start = line.find("\"report\":").expect("terminal carries a report") + "\"report\":".len();
    // The report object is the last field before the closing brace.
    line[start..line.len() - 1].to_string()
}

/// `report` (the bytes of a report object) with `id` as its job — the
/// one field a cache hit replays differently from the original run.
fn with_job_id(report: &str, id: &str) -> String {
    let mut report = proto::parse_report(report).unwrap();
    report.meta.insert("job".to_string(), id.to_string());
    report.to_json()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdo_gwtest_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The flagship: a 3-circuit batch submitted twice through a gateway
/// with two workers. Fresh runs miss the cache; the duplicate batch
/// hits it 3 times with byte-identical reports (only the job id
/// patched), and `/metrics` reflects the counters.
#[test]
fn duplicate_batch_is_answered_from_the_cache_byte_identically() {
    let (gw, client_addr, worker_addr) = start(GatewayConfig::default());
    let w1 = spawn_worker(worker_addr, "w1", false);
    let w2 = spawn_worker(worker_addr, "w2", false);
    let mut client = Client::connect(client_addr);

    let circuits = ["Z5xp1", "term1", "9sym"];
    for (i, c) in circuits.iter().enumerate() {
        client.send(&format!(
            "{{\"op\":\"submit\",\"id\":\"fresh-{i}\",\"circuit\":\"{c}\",\"verify\":\"off\"}}"
        ));
    }
    let fresh = client.recv_until_terminals(3);
    assert_eq!(count_kind(&fresh, "done"), 3, "{fresh:?}");
    for line in fresh.iter().filter(|l| event_kind(l) == "done") {
        // `cached` is only serialized when true; a fresh run omits it.
        assert_eq!(field(line, "cached"), None, "{line}");
    }

    // The same three circuits again: all answered from the cache, no
    // worker involved.
    for (i, c) in circuits.iter().enumerate() {
        client.send(&format!(
            "{{\"op\":\"submit\",\"id\":\"dup-{i}\",\"circuit\":\"{c}\",\"verify\":\"off\"}}"
        ));
    }
    let dup = client.recv_until_terminals(3);
    assert_eq!(count_kind(&dup, "done"), 3, "{dup:?}");
    for (i, _c) in circuits.iter().enumerate() {
        let fresh_line = fresh
            .iter()
            .find(|l| {
                event_kind(l) == "done" && field(l, "id").as_deref() == Some(&format!("fresh-{i}"))
            })
            .unwrap();
        let dup_line = dup
            .iter()
            .find(|l| {
                event_kind(l) == "done" && field(l, "id").as_deref() == Some(&format!("dup-{i}"))
            })
            .unwrap();
        assert_eq!(
            field(dup_line, "cached").as_deref(),
            Some("true"),
            "{dup_line}"
        );
        // Byte-identical modulo the job id: the fresh report with the
        // duplicate's id must reproduce the cached bytes.
        let expected = with_job_id(&report_bytes(fresh_line), &format!("dup-{i}"));
        assert_eq!(report_bytes(dup_line), expected);
    }

    assert_eq!(counter_of(&gw, "gateway.cache.hits"), 3);
    assert_eq!(counter_of(&gw, "gateway.cache.misses"), 3);
    let metrics = gateway::http::metrics_text(&gw);
    assert!(metrics.contains("gateway.cache.hits 3"), "{metrics}");
    assert!(metrics.contains("gateway.admitted 6"), "{metrics}");
    let status = gateway::http::status_text(&gw);
    assert!(status.contains("50.0% hit rate"), "{status}");

    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w1.join().unwrap();
    w2.join().unwrap();
}

/// Every config axis that changes the run misses the cache; repeating
/// the original spec hits it.
#[test]
fn config_axes_miss_the_cache_and_exact_repeats_hit() {
    let (gw, client_addr, worker_addr) = start(GatewayConfig::default());
    let w = spawn_worker(worker_addr, "w", false);
    let mut client = Client::connect(client_addr);

    let submits = [
        "{\"op\":\"submit\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"seed\":1}",
        "{\"op\":\"submit\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"seed\":2}",
        "{\"op\":\"submit\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"seed\":1,\"engines\":\"gdo,resub\"}",
        "{\"op\":\"submit\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"seed\":1,\"partitions\":2}",
        "{\"op\":\"submit\",\"circuit\":\"Z5xp1\",\"seed\":1}",
    ];
    for s in submits {
        client.send(s);
        let lines = client.recv_until_terminals(1);
        let done = lines.last().unwrap();
        assert_eq!(event_kind(done), "done", "{done}");
        assert_eq!(
            field(done, "cached"),
            None,
            "fresh runs omit the cached key: {done}"
        );
    }
    // The exact first spec again: a hit.
    client.send(submits[0]);
    let lines = client.recv_until_terminals(1);
    assert_eq!(
        field(lines.last().unwrap(), "cached").as_deref(),
        Some("true")
    );
    assert_eq!(counter_of(&gw, "gateway.cache.hits"), 1);
    assert_eq!(counter_of(&gw, "gateway.cache.misses"), 5);

    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
}

/// A persistent cache outlives the gateway: a restarted gateway answers
/// the duplicate from disk with no worker connected at all.
#[test]
fn cache_survives_a_gateway_restart() {
    let dir = tmp_dir("restart");
    let cfg = |dir: &PathBuf| GatewayConfig {
        cache_dir: Some(dir.clone()),
        ..GatewayConfig::default()
    };
    let first_report;
    {
        let (_gw, client_addr, worker_addr) = start(cfg(&dir));
        let w = spawn_worker(worker_addr, "w", false);
        let mut client = Client::connect(client_addr);
        client.send("{\"op\":\"submit\",\"id\":\"a\",\"circuit\":\"Z5xp1\",\"verify\":\"off\"}");
        let lines = client.recv_until_terminals(1);
        first_report = report_bytes(lines.last().unwrap());
        client.send("{\"op\":\"drain\"}");
        client.recv_until_drained();
        w.join().unwrap();
    }
    // A brand-new gateway over the same directory, zero workers.
    let (gw, client_addr, _worker_addr) = start(cfg(&dir));
    let mut client = Client::connect(client_addr);
    client.send("{\"op\":\"submit\",\"id\":\"b\",\"circuit\":\"Z5xp1\",\"verify\":\"off\"}");
    let lines = client.recv_until_terminals(1);
    let done = lines.last().unwrap();
    assert_eq!(event_kind(done), "done", "{done}");
    assert_eq!(field(done, "cached").as_deref(), Some("true"), "{done}");
    assert_eq!(
        report_bytes(done),
        with_job_id(&first_report, "b"),
        "the disk round-trip preserved the report bytes"
    );
    assert_eq!(counter_of(&gw, "gateway.cache.hits"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that dies mid-job (socket drop, as a SIGKILL produces) gets
/// its job requeued and completed by a survivor — exactly one terminal.
#[test]
fn dead_worker_mid_job_requeues_to_a_survivor() {
    let dir = tmp_dir("requeue");
    let (gw, client_addr, worker_addr) = start(GatewayConfig {
        journal_dir: Some(dir.clone()),
        ..GatewayConfig::default()
    });

    // A doomed worker, hand-rolled: registers, pulls, and drops the
    // connection the moment it receives its assignment.
    let doomed = TcpStream::connect(worker_addr).unwrap();
    let mut doomed_reader = BufReader::new(doomed.try_clone().unwrap());
    let mut hello = proto::WorkerMsg::Hello {
        name: "doomed".to_string(),
        lib_digest: library::standard_library().digest_hex(),
        protocol: PROTOCOL_VERSION,
    }
    .to_json();
    hello.push('\n');
    (&doomed).write_all(hello.as_bytes()).unwrap();
    let mut line = String::new();
    doomed_reader.read_line(&mut line).unwrap(); // welcome
    assert!(line.contains("welcome"), "{line}");
    (&doomed).write_all(b"{\"w\":\"pull\"}\n").unwrap();

    let mut client = Client::connect(client_addr);
    client.send("{\"op\":\"submit\",\"id\":\"j1\",\"circuit\":\"9sym\",\"verify\":\"off\"}");

    // Wait for the assignment to reach the doomed worker, then die.
    line.clear();
    doomed_reader.read_line(&mut line).unwrap();
    assert!(line.contains("assign"), "{line}");
    drop(doomed_reader);
    drop(doomed);

    // The survivor arrives after the death and completes the job.
    let w = spawn_worker(worker_addr, "survivor", false);
    let lines = client.recv_until_terminals(1);
    assert_eq!(count_kind(&lines, "done"), 1, "{lines:?}");
    assert_eq!(
        count_kind(&lines, "started"),
        2,
        "one start per assignment: doomed, then survivor: {lines:?}"
    );
    assert_eq!(counter_of(&gw, "gateway.requeued"), 1);

    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker that stays connected but stops beating while it holds a job
/// is reaped after three heartbeat intervals: its socket is closed, the
/// job is requeued, and `gateway.workers.reaped` counts it.
#[test]
fn silent_worker_is_reaped_and_its_job_requeued() {
    // Short enough to reap within a second, long enough that the
    // survivor's own beats never miss three intervals on a loaded host.
    let (gw, client_addr, worker_addr) = start(GatewayConfig {
        heartbeat_ms: 200,
        ..GatewayConfig::default()
    });

    // A hung worker, hand-rolled: registers, pulls once, takes its
    // assignment and never writes again.
    let hung = TcpStream::connect(worker_addr).unwrap();
    let mut hung_reader = BufReader::new(hung.try_clone().unwrap());
    let mut hello = proto::WorkerMsg::Hello {
        name: "hung".to_string(),
        lib_digest: library::standard_library().digest_hex(),
        protocol: PROTOCOL_VERSION,
    }
    .to_json();
    hello.push('\n');
    (&hung).write_all(hello.as_bytes()).unwrap();
    let mut line = String::new();
    hung_reader.read_line(&mut line).unwrap(); // welcome
    (&hung).write_all(b"{\"w\":\"pull\"}\n").unwrap();

    let mut client = Client::connect(client_addr);
    client.send("{\"op\":\"submit\",\"id\":\"j1\",\"circuit\":\"9sym\",\"verify\":\"off\"}");
    line.clear();
    hung_reader.read_line(&mut line).unwrap();
    assert!(line.contains("assign"), "{line}");

    // The reaper closes the silent link: the next read sees EOF.
    line.clear();
    assert_eq!(hung_reader.read_line(&mut line).unwrap(), 0, "{line}");
    assert_eq!(counter_of(&gw, "gateway.workers.reaped"), 1);

    let w = spawn_worker(worker_addr, "survivor", false);
    let lines = client.recv_until_terminals(1);
    assert_eq!(count_kind(&lines, "done"), 1, "{lines:?}");
    assert_eq!(counter_of(&gw, "gateway.requeued"), 1);
    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
    drop(hung);
}

/// Fault-injected panics retry up to `retry_max`, then poison.
#[test]
fn panics_retry_then_poison() {
    let (gw, client_addr, worker_addr) = start(GatewayConfig {
        retry_max: 2,
        ..GatewayConfig::default()
    });
    let w = spawn_worker(worker_addr, "w", true);
    let mut client = Client::connect(client_addr);

    // One injected panic, then the job runs: done.
    client.send(
        "{\"op\":\"submit\",\"id\":\"flaky\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"panic_attempts\":1}",
    );
    let lines = client.recv_until_terminals(1);
    assert_eq!(count_kind(&lines, "done"), 1, "{lines:?}");

    // Panics forever: poisoned after retry_max + 1 attempts. A fresh
    // seed keeps it off the flaky job's cached result.
    client.send(
        "{\"op\":\"submit\",\"id\":\"cursed\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"seed\":77,\"panic_attempts\":99}",
    );
    let lines = client.recv_until_terminals(1);
    let poisoned = lines.last().unwrap();
    assert_eq!(event_kind(poisoned), "poisoned", "{lines:?}");
    assert_eq!(field(poisoned, "attempts").as_deref(), Some("3"));
    assert_eq!(counter_of(&gw, "gateway.jobs.poisoned"), 1);

    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
}

/// Queue watermarks shed low/normal priority work while high priority
/// stays admitted; queued jobs can still be cancelled to terminals.
#[test]
fn load_shedding_follows_the_queue_watermarks() {
    // cap 4: low mark 2, high mark 3. No workers, so jobs sit queued.
    let (gw, client_addr, _worker_addr) = start(GatewayConfig {
        queue_cap: 4,
        shed: ShedConfig::for_queue_cap(4),
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(client_addr);

    for i in 0..2 {
        client.send(&format!(
            "{{\"op\":\"submit\",\"id\":\"q{i}\",\"circuit\":\"Z5xp1\"}}"
        ));
        let line = client.recv();
        assert_eq!(event_kind(&line), "accepted", "{line}");
    }
    // Depth 2 = the low watermark: low sheds, normal still fits.
    client.send("{\"op\":\"submit\",\"id\":\"lo\",\"circuit\":\"Z5xp1\",\"priority\":\"low\"}");
    let line = client.recv();
    assert_eq!(event_kind(&line), "rejected", "{line}");
    assert!(
        field(&line, "reason").unwrap().contains("load shed"),
        "{line}"
    );

    client.send("{\"op\":\"submit\",\"id\":\"q2\",\"circuit\":\"Z5xp1\"}");
    assert_eq!(event_kind(&client.recv()), "accepted");
    // Depth 3 = the high watermark: normal sheds too, high is admitted
    // to the hard cap.
    client.send("{\"op\":\"submit\",\"id\":\"no\",\"circuit\":\"Z5xp1\"}");
    let line = client.recv();
    assert_eq!(event_kind(&line), "rejected", "{line}");
    assert!(
        field(&line, "reason").unwrap().contains("watermark"),
        "{line}"
    );
    client.send("{\"op\":\"submit\",\"id\":\"hi\",\"circuit\":\"Z5xp1\",\"priority\":\"high\"}");
    assert_eq!(event_kind(&client.recv()), "accepted");
    // The queue is at capacity now: even high bounces off the hard cap.
    client.send("{\"op\":\"submit\",\"id\":\"hi2\",\"circuit\":\"Z5xp1\",\"priority\":\"high\"}");
    let line = client.recv();
    assert_eq!(event_kind(&line), "rejected", "{line}");

    assert_eq!(counter_of(&gw, "gateway.shed"), 2);
    assert_eq!(counter_of(&gw, "gateway.queue.depth"), 4);

    // Cancel the queued jobs: each reaches its single terminal.
    for id in ["q0", "q1", "q2", "hi"] {
        client.send(&format!("{{\"op\":\"cancel\",\"id\":\"{id}\"}}"));
    }
    let lines = client.recv_until_terminals(4);
    assert_eq!(count_kind(&lines, "cancelled"), 4, "{lines:?}");
    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
}

/// A worker with a different library (or protocol) is refused at
/// registration.
#[test]
fn mismatched_worker_registration_is_rejected() {
    let (_gw, _client_addr, worker_addr) = start(GatewayConfig::default());
    let stream = TcpStream::connect(worker_addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut hello = proto::WorkerMsg::Hello {
        name: "alien".to_string(),
        lib_digest: "deadbeefdeadbeef".to_string(),
        protocol: PROTOCOL_VERSION,
    }
    .to_json();
    hello.push('\n');
    (&stream).write_all(hello.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("reject"), "{line}");
    assert!(line.contains("library digest mismatch"), "{line}");
}

/// A pipe-linked in-process worker (`gdo-served`'s shape) and a TCP
/// worker (`gdo-gateway` + `gdo-worker`) produce the same report bytes
/// for the same spec — only `cpu_seconds` (wall clock) and the job id
/// may differ.
#[test]
fn reports_match_gdo_served_byte_for_byte() {
    // Run the job through a gateway with one in-process worker.
    let input = "{\"op\":\"submit\",\"id\":\"j\",\"circuit\":\"Z5xp1\",\"verify\":\"off\"}\n";
    let served_lines = common::run_batch(
        GatewayConfig::default(),
        1,
        &WorkerOptions::default(),
        input,
    );
    let served_done = served_lines
        .iter()
        .find(|l| event_kind(l) == "done")
        .expect("served terminal");

    // The same spec through a gateway and a TCP worker.
    let (_gw, client_addr, worker_addr) = start(GatewayConfig::default());
    let w = spawn_worker(worker_addr, "w", false);
    let mut client = Client::connect(client_addr);
    client.send("{\"op\":\"submit\",\"id\":\"j\",\"circuit\":\"Z5xp1\",\"verify\":\"off\"}");
    let lines = client.recv_until_terminals(1);
    let gateway_done = lines.last().unwrap();
    assert_eq!(event_kind(gateway_done), "done");

    let normalize = |line: &str| {
        let mut report = proto::parse_report(&report_bytes(line)).unwrap();
        report.summary.insert("cpu_seconds".to_string(), 0.0);
        report.to_json()
    };
    assert_eq!(normalize(gateway_done), normalize(served_done));

    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
}

/// `"netlist":true` returns the optimized BLIF inline, identical
/// between the fresh run and the cached replay.
#[test]
fn cached_replay_ships_the_same_blif() {
    let (_gw, client_addr, worker_addr) = start(GatewayConfig::default());
    let w = spawn_worker(worker_addr, "w", false);
    let mut client = Client::connect(client_addr);
    client.send(
        "{\"op\":\"submit\",\"id\":\"n1\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"netlist\":true}",
    );
    let fresh = client.recv_until_terminals(1);
    let fresh_blif = field(fresh.last().unwrap(), "blif").expect("fresh blif inline");
    assert!(fresh_blif.contains(".model"), "{fresh_blif}");

    client.send(
        "{\"op\":\"submit\",\"id\":\"n2\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"netlist\":true}",
    );
    let dup = client.recv_until_terminals(1);
    let done = dup.last().unwrap();
    assert_eq!(field(done, "cached").as_deref(), Some("true"), "{done}");
    assert_eq!(field(done, "blif").as_deref(), Some(fresh_blif.as_str()));

    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
}

/// Streamed progress: a client that asked for it sees `progress` events
/// for its job (and only its job) before the terminal.
#[test]
fn progress_streams_only_to_subscribed_jobs() {
    let (_gw, client_addr, worker_addr) = start(GatewayConfig::default());
    let w = spawn_worker(worker_addr, "w", false);
    let mut client = Client::connect(client_addr);
    // A partitioned C880 run is long enough for several 100ms ticks.
    client.send(
        "{\"op\":\"submit\",\"id\":\"loud\",\"circuit\":\"C880\",\"verify\":\"off\",\"partitions\":4,\"progress\":true}",
    );
    client.send("{\"op\":\"submit\",\"id\":\"quiet\",\"circuit\":\"Z5xp1\",\"verify\":\"off\"}");
    let lines = client.recv_until_terminals(2);
    let progress: Vec<&String> = lines
        .iter()
        .filter(|l| event_kind(l) == "progress")
        .collect();
    assert!(!progress.is_empty(), "no progress events: {lines:?}");
    for p in &progress {
        assert_eq!(field(p, "id").as_deref(), Some("loud"), "{p}");
        assert!(field(p, "phase").is_some(), "{p}");
    }
    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
}

/// Two jobs that asked for progress run at once on one two-slot TCP
/// worker. Every progress line names one of them, none follows its
/// job's terminal, and each job's `budget.work_done` deltas add up to
/// exactly the work the same spec charges when it runs alone: no job's
/// progress carries the other's work.
#[test]
fn concurrent_jobs_stream_only_their_own_work() {
    let (_gw, client_addr, worker_addr) = start(GatewayConfig::default());
    let w = std::thread::spawn(move || {
        gateway::run_worker(
            &worker_addr.to_string(),
            &WorkerOptions {
                name: "w".to_string(),
                slots: 2,
                ..WorkerOptions::default()
            },
        )
        .unwrap();
    });
    let mut client = Client::connect(client_addr);
    // (id, circuit, partitions)
    let jobs = [("wide", "C880", 4), ("small", "Z5xp1", 0)];
    let submit = |id: &str, circuit: &str, partitions: usize| {
        format!(
            "{{\"op\":\"submit\",\"id\":\"{id}\",\"circuit\":\"{circuit}\",\"seed\":1995,\"verify\":\"off\",\"partitions\":{partitions},\"progress\":true}}"
        )
    };
    for (id, circuit, partitions) in jobs {
        client.send(&submit(id, circuit, partitions));
    }
    let lines = client.recv_until_terminals(2);
    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
    // The two jobs ran at once: both started before either finished.
    let first_terminal = lines.iter().position(|l| common::is_terminal(l)).unwrap();
    assert_eq!(
        count_kind(&lines[..first_terminal], "started"),
        2,
        "{lines:?}"
    );

    let lib = library::standard_library();
    for (id, circuit, partitions) in jobs {
        let terminal = lines
            .iter()
            .position(|l| common::is_terminal(l) && field(l, "id").as_deref() == Some(id))
            .unwrap_or_else(|| panic!("no terminal for {id}: {lines:?}"));
        assert_eq!(event_kind(&lines[terminal]), "done", "{lines:?}");
        let mut streamed = 0;
        for (at, line) in lines.iter().enumerate() {
            if event_kind(line) != "progress" {
                continue;
            }
            let job = field(line, "id").unwrap_or_default();
            assert!(jobs.iter().any(|j| j.0 == job), "{line}");
            if job != id {
                continue;
            }
            assert!(at < terminal, "progress after the terminal: {line}");
            let v = proto::json::parse(line).unwrap();
            let counters = v.get("counters").and_then(|c| c.as_obj()).unwrap();
            assert_eq!(counters.len(), 1, "{line}");
            streamed += v
                .get("counters")
                .and_then(|c| c.get("budget.work_done"))
                .and_then(|n| n.as_u64())
                .unwrap_or_else(|| panic!("no budget.work_done: {line}"));
            if partitions > 0 {
                assert_eq!(field(line, "phase").as_deref(), Some("regions"), "{line}");
            }
        }
        let alone = gdo::Budget::unlimited();
        let proto::Request::Submit(spec) =
            proto::parse_request(&submit(id, circuit, partitions)).unwrap()
        else {
            panic!("{id}: not a submit");
        };
        serve::job::run_job(&lib, &spec, None, &alone).unwrap();
        assert!(alone.work_done() > 0, "{id} charges work");
        assert_eq!(
            streamed,
            alone.work_done(),
            "{id}: progress deltas must sum to the job's own work"
        );
    }
}

/// A gateway that dies with accepted-but-unfinished jobs re-runs them
/// from its journal on restart — no accepted job is ever lost.
#[test]
fn restart_recovers_unfinished_jobs_from_the_journal() {
    let dir = tmp_dir("recover");
    {
        // First life: accept a job with no workers connected, then die
        // without draining (the gateway object just goes away).
        let (_gw, client_addr, _worker_addr) = start(GatewayConfig {
            journal_dir: Some(dir.clone()),
            ..GatewayConfig::default()
        });
        let mut client = Client::connect(client_addr);
        client
            .send("{\"op\":\"submit\",\"id\":\"orphan\",\"circuit\":\"Z5xp1\",\"verify\":\"off\"}");
        assert_eq!(event_kind(&client.recv()), "accepted");
    }
    // Second life: the journal replays the job; a worker finishes it.
    let (gw, _client_addr, worker_addr) = start(GatewayConfig {
        journal_dir: Some(dir.clone()),
        ..GatewayConfig::default()
    });
    assert_eq!(counter_of(&gw, "gateway.recovered"), 1);
    let w = spawn_worker(worker_addr, "w", false);
    let t0 = std::time::Instant::now();
    while counter_of(&gw, "gateway.jobs.done") < 1 {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(60),
            "recovered job never finished"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // Its terminal went to the journal's recovered.ndjson stream.
    let recovered = std::fs::read_to_string(dir.join("recovered.ndjson")).unwrap();
    assert!(recovered.contains("\"event\":\"done\""), "{recovered}");
    assert!(recovered.contains("\"id\":\"orphan\""), "{recovered}");
    // Finish the second gateway cleanly so the worker thread exits.
    let mut client = Client::connect(_client_addr);
    client.send("{\"op\":\"drain\"}");
    client.recv_until_drained();
    w.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
