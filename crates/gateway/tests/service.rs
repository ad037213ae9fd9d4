//! End-to-end tests of `gdo-served` — a gateway with in-process pull
//! workers — over loopback TCP and in batch mode: admission and
//! backpressure, the 50-job acceptance batch with mid-batch drain,
//! reject policy, cancel-by-id, two-worker determinism, file jobs, the
//! job-id rule, and the work-ceiling shed.

mod common;

use common::{count_kind, event_kind, is_terminal, launch, served, Client, SharedBuf};
use gateway::{output_from, Admission, GatewayConfig, ShedConfig, WorkerOptions};
use std::net::TcpListener;

/// Starts `gdo-served`'s stack with `workers` in-process workers on an
/// ephemeral loopback port.
fn start(cfg: GatewayConfig, workers: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (gw, _workers) = launch(cfg, workers, &WorkerOptions::default());
    std::thread::spawn(move || gw.serve_clients(&listener).unwrap());
    addr
}

/// Runs `input` in batch mode through the stack with `workers`
/// in-process workers; returns the event stream as text.
fn run_batch(cfg: GatewayConfig, workers: usize, input: &str) -> String {
    common::run_batch(cfg, workers, &WorkerOptions::default(), input).join("\n")
}

/// The acceptance batch: 50 jobs against `--workers 4 --queue-cap 8`.
/// 40 jobs go in under blocking admission (mixed circuits and budgets),
/// a mid-batch drain follows, and 10 late jobs bounce off the closed
/// queue — exactly 50 terminal events, with backpressure observed and
/// every finished job carrying a valid inline report.
#[test]
fn fifty_job_batch_with_backpressure_and_mid_batch_drain() {
    let addr = start(
        GatewayConfig {
            queue_cap: 8,
            admission: Admission::Block,
            ..GatewayConfig::default()
        },
        4,
    );
    let mut main = Client::connect(addr);
    for i in 0..40 {
        // Mixed circuits and budgets: most jobs run under a tiny work
        // budget (degraded fast), every fourth runs Z5xp1 to completion.
        if i % 4 == 0 {
            main.send(r#"{"op":"submit","circuit":"Z5xp1","vectors":64,"verify":"off"}"#);
        } else {
            main.send(
                r#"{"op":"submit","circuit":"9sym","vectors":64,"work_limit":3,"verify":"off"}"#,
            );
        }
    }
    // Backpressure must have engaged: 40 blocking submits through a
    // queue of 8 while 4 workers chew on real jobs. Collect every line
    // along the way — terminal events arrive interleaved from here on.
    let mut main_lines: Vec<String> = Vec::new();
    main.send(r#"{"op":"status"}"#);
    let status = loop {
        let line = main.recv();
        let is_status = event_kind(&line) == "status";
        main_lines.push(line.clone());
        if is_status {
            break proto::json::parse(&line).unwrap();
        }
    };
    let blocked = status
        .get("counters")
        .and_then(|c| c.get("gateway.queue.blocked_pushes"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(
        blocked > 0,
        "expected blocked admissions, status {status:?}"
    );

    // Connect the late client *before* draining so its handler thread is
    // live regardless of how fast the drain completes.
    let mut late = Client::connect(addr);
    // Mid-batch drain: the gateway stops admitting but finishes all 40.
    main.send(r#"{"op":"drain"}"#);
    loop {
        let line = main.recv();
        let draining = event_kind(&line) == "draining";
        main_lines.push(line);
        if draining {
            break;
        }
    }
    // 10 late submissions all get rejected: the queue is closed.
    for _ in 0..10 {
        late.send(r#"{"op":"submit","circuit":"Z5xp1"}"#);
    }
    let late_lines = late.recv_until_terminals(10);
    assert_eq!(count_kind(&late_lines, "rejected"), 10, "{late_lines:?}");
    for line in &late_lines {
        assert!(line.contains("draining"), "rejection must say why: {line}");
    }

    // The main connection sees its remaining terminals and the drained
    // marker; across both connections that is exactly 50 terminal events.
    let mut done = false;
    while !done {
        let line = main.recv();
        done = event_kind(&line) == "drained";
        main_lines.push(line);
    }
    let terminal_main: Vec<&String> = main_lines.iter().filter(|l| is_terminal(l)).collect();
    assert_eq!(terminal_main.len(), 40, "all accepted jobs must finish");
    assert_eq!(
        terminal_main.len() + late_lines.iter().filter(|l| is_terminal(l)).count(),
        50
    );
    assert_eq!(count_kind(&main_lines, "accepted"), 40);
    assert!(count_kind(&main_lines, "done") >= 1, "full runs finish");
    assert!(
        count_kind(&main_lines, "degraded") >= 1,
        "tiny budgets degrade"
    );
    assert_eq!(count_kind(&main_lines, "failed"), 0, "{main_lines:?}");

    // Every finished job carries a valid, versioned inline report.
    for line in main_lines
        .iter()
        .filter(|l| matches!(event_kind(l).as_str(), "done" | "degraded"))
    {
        telemetry::json::parse(line).unwrap();
        assert!(line.contains("\"schema\":\"gdo-telemetry/1\""), "{line}");
        assert!(line.contains("\"report\":"), "{line}");
    }
}

/// Under `--admission reject`, a full queue answers `queue full`
/// immediately instead of blocking the submitter.
#[test]
fn reject_admission_reports_queue_full() {
    let addr = start(
        GatewayConfig {
            queue_cap: 1,
            admission: Admission::Reject,
            ..GatewayConfig::default()
        },
        1,
    );
    let mut c = Client::connect(addr);
    // Job 1 occupies the single worker well past the next submits (the
    // deadline caps it, so the test still ends promptly).
    c.send(r#"{"op":"submit","circuit":"C880","deadline_ms":1500,"vectors":256,"verify":"off"}"#);
    let first = c.recv();
    assert_eq!(event_kind(&first), "accepted");
    // Wait until the worker picked job 1 up, so the queue slot is free
    // for job 2 and jobs 3..5 deterministically overflow.
    let started = c.recv();
    assert_eq!(event_kind(&started), "started");
    for _ in 0..4 {
        c.send(r#"{"op":"submit","circuit":"Z5xp1","work_limit":1,"verify":"off"}"#);
    }
    c.send(r#"{"op":"drain"}"#);
    let mut lines = Vec::new();
    loop {
        let line = c.recv();
        let kind = event_kind(&line);
        lines.push(line);
        if kind == "drained" {
            break;
        }
    }
    let rejected: Vec<&String> = lines
        .iter()
        .filter(|l| event_kind(l) == "rejected")
        .collect();
    assert!(
        !rejected.is_empty(),
        "expected QueueFull rejections: {lines:?}"
    );
    for line in &rejected {
        assert!(line.contains("queue full"), "{line}");
    }
    // Everything submitted reached a terminal event.
    assert_eq!(
        lines.iter().filter(|l| is_terminal(l)).count(),
        5,
        "{lines:?}"
    );
}

/// Unknown engine names are a protocol-level mistake: rejected at
/// admission with the full list of valid engines, before queueing.
/// Valid engine lists run end to end and are echoed in the report meta.
#[test]
fn engine_lists_are_validated_at_admission() {
    let addr = start(served(), 1);
    let mut c = Client::connect(addr);
    c.send(r#"{"op":"submit","id":"bad","circuit":"Z5xp1","engines":"gdo,frob"}"#);
    let line = c.recv();
    assert_eq!(event_kind(&line), "rejected", "{line}");
    assert!(line.contains("valid engines"), "{line}");
    assert!(line.contains("resub"), "{line}");

    c.send(
        r#"{"op":"submit","id":"ok","circuit":"Z5xp1","engines":"gdo,resub","vectors":64,"verify":"off"}"#,
    );
    let lines = c.recv_until_terminals(1);
    assert_eq!(count_kind(&lines, "rejected"), 0, "{lines:?}");
    let done = lines.last().unwrap();
    assert!(matches!(event_kind(done).as_str(), "done" | "degraded"));
    assert!(done.contains("\"engines\":\"gdo,resub\""), "{done}");
}

/// Cancel-by-id works both for queued jobs (removed before a worker sees
/// them) and for running jobs (their budget's cancel flag trips).
#[test]
fn cancel_by_id_hits_queued_and_running_jobs() {
    let addr = start(
        GatewayConfig {
            queue_cap: 4,
            ..served()
        },
        1,
    );
    let mut c = Client::connect(addr);
    // Long-running job on the only worker (the deadline is a test
    // timeout backstop; the cancel should cut it far earlier).
    c.send(
        r#"{"op":"submit","id":"running","circuit":"C880","deadline_ms":30000,"vectors":256,"verify":"off"}"#,
    );
    c.send(r#"{"op":"submit","id":"waiting","circuit":"Z5xp1","verify":"off"}"#);
    // Wait for the first job to actually start.
    loop {
        let line = c.recv();
        if event_kind(&line) == "started" {
            assert!(line.contains("\"id\":\"running\""), "{line}");
            break;
        }
    }
    c.send(r#"{"op":"cancel","id":"waiting"}"#);
    c.send(r#"{"op":"cancel","id":"running"}"#);
    c.send(r#"{"op":"cancel","id":"no-such-job"}"#);
    let mut cancelled = Vec::new();
    let mut errors = Vec::new();
    while cancelled.len() < 2 || errors.is_empty() {
        let line = c.recv();
        match event_kind(&line).as_str() {
            "cancelled" => cancelled.push(line),
            "error" => errors.push(line),
            "done" | "degraded" | "failed" => panic!("job escaped its cancel: {line}"),
            _ => {}
        }
    }
    assert!(errors[0].contains("no-such-job"), "{:?}", errors[0]);
    c.send(r#"{"op":"drain"}"#);
    loop {
        if event_kind(&c.recv()) == "drained" {
            break;
        }
    }
}

/// The same request, submitted twice to a two-worker stack, produces
/// byte-identical reports (up to the job id and CPU seconds): per-job
/// seeds and work-unit budgets are deterministic no matter which worker
/// runs the job or in which order.
#[test]
fn two_worker_determinism_yields_identical_reports() {
    let addr = start(
        GatewayConfig {
            queue_cap: 4,
            ..served()
        },
        2,
    );
    let mut c = Client::connect(addr);
    let submit = |c: &mut Client, id: &str| {
        c.send(&format!(
            r#"{{"op":"submit","id":"{id}","circuit":"9sym","seed":7,"vectors":128,"work_limit":200,"verify":"final"}}"#
        ));
    };
    submit(&mut c, "d1");
    submit(&mut c, "d2");
    c.send(r#"{"op":"drain"}"#);
    let mut reports = Vec::new();
    loop {
        let line = c.recv();
        match event_kind(&line).as_str() {
            "done" | "degraded" => reports.push(extract_report(&line)),
            "failed" | "rejected" | "cancelled" => panic!("unexpected terminal: {line}"),
            "drained" => break,
            _ => {}
        }
    }
    assert_eq!(reports.len(), 2);
    // Completion order is up to the scheduler — scrub by content.
    let a = scrub_nondeterminism(&reports[0]);
    let b = scrub_nondeterminism(&reports[1]);
    assert_eq!(a, b, "reports must be byte-identical after scrubbing");
    // The scrubbed report still carries the deterministic funnel.
    assert!(a.contains("\"seed\":\"7\""), "{a}");
}

/// Pulls the inline `"report":{...}` object out of a done/degraded
/// event line (the report is the last field of the event object).
fn extract_report(line: &str) -> String {
    let at = line.find("\"report\":").expect("event has a report");
    line[at + "\"report\":".len()..line.len() - 1].to_string()
}

/// Removes the two legitimately run-specific fields: the job id in
/// `meta` and the wall-clock `cpu_seconds` in `summary`.
fn scrub_nondeterminism(report: &str) -> String {
    let mut scrubbed = report.to_string();
    for key in ["\"job\":\"", "\"cpu_seconds\":"] {
        let at = scrubbed
            .find(key)
            .unwrap_or_else(|| panic!("report has {key}"));
        let value_from = at + key.len();
        let rest = &scrubbed[value_from..];
        let mut end = rest.find([',', '}']).expect("field value ends");
        if rest[end..].starts_with(',') {
            end += 1;
        }
        scrubbed = format!("{}{}", &scrubbed[..at], &scrubbed[value_from + end..]);
    }
    scrubbed
}

/// A file job ships its netlist text to the worker, which parses it in
/// memory: the served report is the one `run_job` writes for the same
/// file, apart from the job id and `cpu_seconds`.
#[test]
fn file_job_report_matches_run_job_on_the_same_file() {
    let dir = std::env::temp_dir().join(format!("gdo_service_file_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("Z5xp1.bench");
    let suite = workloads::lookup_circuit("Z5xp1").unwrap().build();
    std::fs::write(&path, formats::write_bench(&suite).unwrap()).unwrap();

    let submit = format!(
        r#"{{"op":"submit","id":"file-job","file":"{}","seed":1995,"vectors":64,"verify":"off"}}"#,
        path.display()
    );
    let out = run_batch(served(), 1, &submit);
    let done = out
        .lines()
        .find(|l| event_kind(l) == "done")
        .unwrap_or_else(|| panic!("no done event: {out}"));
    let proto::Request::Submit(spec) = proto::parse_request(&submit).unwrap() else {
        panic!("not a submit: {submit}");
    };
    let direct = serve::job::run_job(
        &library::standard_library(),
        &spec,
        None,
        &gdo::Budget::unlimited(),
    )
    .unwrap();
    assert_eq!(
        scrub_nondeterminism(&extract_report(done)),
        scrub_nondeterminism(&direct.report.to_json())
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A job id names the job's files, so admission refuses one that is not
/// a single path component, naming the rule; a plain id runs.
#[test]
fn job_ids_must_be_one_path_component() {
    let dir = std::env::temp_dir().join(format!("gdo_service_ids_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("Z5xp1.bench");
    let suite = workloads::lookup_circuit("Z5xp1").unwrap().build();
    std::fs::write(&path, formats::write_bench(&suite).unwrap()).unwrap();
    let journal = dir.join("journal");
    let cfg = GatewayConfig {
        journal_dir: Some(journal.clone()),
        ..served()
    };
    // As JSON string bodies: `team\\b` is a backslash, `\u0000` a NUL.
    let bad = [
        "team/a",
        "../escape",
        "",
        ".",
        "..",
        r"team\\b",
        r"nul\u0000",
    ];
    let mut input = String::new();
    for id in bad.iter().chain(&["plain"]) {
        input.push_str(&format!(
            r#"{{"op":"submit","id":"{id}","file":"{}","vectors":64,"verify":"off"}}"#,
            path.display()
        ));
        input.push('\n');
    }
    let out = run_batch(cfg, 1, &input);
    let lines: Vec<&str> = out.lines().collect();
    let rejected: Vec<&&str> = lines
        .iter()
        .filter(|l| event_kind(l) == "rejected")
        .collect();
    assert_eq!(rejected.len(), bad.len(), "{out}");
    for line in rejected {
        assert!(line.contains("one path component"), "{line}");
    }
    let done = lines.iter().filter(|l| event_kind(l) == "done").count();
    assert_eq!(done, 1, "{out}");
    assert!(out.contains(r#""id":"plain""#), "{out}");
    assert!(
        !dir.join("escape.ckpt").exists(),
        "no job may write outside the journal"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Batch mode processes stdin-style request lines and drains at EOF.
#[test]
fn batch_mode_drains_at_eof() {
    let input = "\
        {\"op\":\"submit\",\"circuit\":\"Z5xp1\",\"vectors\":64,\"verify\":\"off\"}\n\
        {\"op\":\"submit\",\"circuit\":\"9sym\",\"work_limit\":2,\"verify\":\"off\"}\n\
        not json\n";
    let text = run_batch(
        GatewayConfig {
            queue_cap: 4,
            ..served()
        },
        2,
        input,
    );
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.iter().filter(|l| is_terminal(l)).count(), 2, "{text}");
    assert_eq!(count_kind(&lines, "error"), 1, "bad line reported: {text}");
    assert_eq!(
        count_kind(&lines, "drained"),
        1,
        "EOF implies drain: {text}"
    );
    assert_eq!(
        event_kind(lines.last().unwrap()),
        "drained",
        "drained is the final event: {text}"
    );
}

/// `gdo-served`'s in-process workers stream progress like remote ones:
/// a job that asked for it gets a `progress` event, carrying the work
/// it charged, before its terminal.
#[test]
fn in_process_workers_stream_progress() {
    let text = run_batch(
        served(),
        1,
        "{\"op\":\"submit\",\"id\":\"p\",\"circuit\":\"Z5xp1\",\"verify\":\"off\",\"progress\":true}\n",
    );
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    let progress = lines.iter().position(|l| event_kind(l) == "progress");
    let done = lines.iter().position(|l| event_kind(l) == "done");
    assert!(
        matches!((progress, done), (Some(p), Some(d)) if p < d),
        "a progress event must precede the terminal:\n{text}"
    );
    let line = &lines[progress.unwrap()];
    assert!(line.contains("\"id\":\"p\""), "{line}");
    assert!(line.contains("\"budget.work_done\":"), "{line}");
}

/// Regression: a worker that has popped a job but not yet marked it
/// running is invisible to both the queue depth and the running count,
/// so a drain racing that window used to report `drained` before the
/// job's terminal event. Drain now waits on admission-to-terminal
/// in-flight accounting; hammer the window and check the event order.
#[test]
fn drained_event_never_precedes_a_terminal_event() {
    for round in 0..25 {
        let input =
            "{\"op\":\"submit\",\"circuit\":\"9sym\",\"work_limit\":1,\"verify\":\"off\"}\n";
        let text = run_batch(
            GatewayConfig {
                queue_cap: 4,
                ..served()
            },
            1,
            input,
        );
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let terminal = lines.iter().position(|l| is_terminal(l));
        let drained = lines.iter().position(|l| event_kind(l) == "drained");
        assert!(
            matches!((terminal, drained), (Some(t), Some(d)) if t < d),
            "round {round}: terminal must precede drained:\n{text}"
        );
        assert_eq!(
            event_kind(lines.last().unwrap()),
            "drained",
            "round {round}: drained is the final event:\n{text}"
        );
    }
}

/// The work ceiling is a load-shedding watermark: admission grants each
/// job its `work_limit` (a default estimate when it names none) against
/// the ceiling, and sheds a job whose grant would overrun it.
#[test]
fn work_ceiling_sheds_the_second_job() {
    let input = "\
        {\"op\":\"submit\",\"circuit\":\"9sym\",\"vectors\":64,\"verify\":\"off\"}\n\
        {\"op\":\"submit\",\"circuit\":\"Z5xp1\",\"vectors\":64,\"verify\":\"off\"}\n";
    let shed = ShedConfig::for_queue_cap(4);
    let text = run_batch(
        GatewayConfig {
            queue_cap: 4,
            // Room for one default grant, not two.
            shed: ShedConfig {
                work_ceiling: Some(shed.default_grant * 3 / 2),
                ..shed
            },
            ..served()
        },
        1,
        input,
    );
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Both jobs asked for no per-job limit: the first is granted the
    // default estimate and runs, the second would overrun the ceiling.
    assert_eq!(count_kind(&lines, "accepted"), 1, "{text}");
    assert_eq!(count_kind(&lines, "done"), 1, "{text}");
    let rejected: Vec<&String> = lines
        .iter()
        .filter(|l| event_kind(l) == "rejected")
        .collect();
    assert_eq!(rejected.len(), 1, "{text}");
    assert!(rejected[0].contains("work ceiling"), "{text}");
    assert!(rejected[0].contains("\"id\":\"job-2\""), "{text}");
}

/// Regression: a `cancel` right behind its `submit` was lost when the
/// job was assigned before the cancel was read — the worker registered
/// the job's cancel handle only once its job thread got going, so the
/// job ran to completion.
#[test]
fn batch_cancel_right_behind_its_submit_ends_cancelled() {
    for round in 0..5 {
        let (gw, workers) = launch(served(), 1, &WorkerOptions::default());
        // Let the worker register and its pull credit land, so the
        // submit is assigned on the spot and the cancel follows its
        // assign — the window the bug lived in. (Had the credit not
        // landed yet, the cancel would find the job queued instead: the
        // assertion holds either way.)
        while gw.worker_table().is_empty() {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        let input = "\
            {\"op\":\"submit\",\"id\":\"c\",\"circuit\":\"C880\",\"vectors\":256,\"verify\":\"off\"}\n\
            {\"op\":\"cancel\",\"id\":\"c\"}\n";
        let buf = SharedBuf::default();
        gw.run_batch(input.as_bytes(), &output_from(buf.clone()));
        common::join(workers);
        let lines = buf.lines();
        let terminals: Vec<String> = lines
            .iter()
            .filter(|l| is_terminal(l))
            .map(|l| event_kind(l))
            .collect();
        assert_eq!(terminals, ["cancelled"], "round {round}: {lines:#?}");
    }
}

/// A drain closes every client connection: a connection thread blocks
/// reading its socket, so one idle client would otherwise keep
/// `gdo-served` up after `drained`.
#[test]
fn drain_closes_idle_client_connections() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (gw, workers) = launch(served(), 1, &WorkerOptions::default());
    let (returned, serving) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let result = gw.serve_clients(&listener);
        let _ = returned.send(());
        result
    });

    // The idle client: one status round trip proves its connection is
    // served, then it sends nothing more.
    let mut idle = std::net::TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    idle.write_all(b"{\"op\":\"status\"}\n").unwrap();
    let mut idle = BufReader::new(idle);
    let mut line = String::new();
    idle.read_line(&mut line).unwrap();
    assert_eq!(event_kind(line.trim_end()), "status", "{line}");

    let mut drainer = Client::connect(addr);
    drainer.send(r#"{"op":"drain"}"#);
    drainer.recv_until_drained();
    serving
        .recv_timeout(Duration::from_secs(2))
        .expect("serve_clients must return within 2 s of the drain");
    server.join().unwrap().unwrap();
    line.clear();
    assert_eq!(
        idle.read_line(&mut line).unwrap(),
        0,
        "the idle client must read EOF, got {line:?}"
    );
    common::join(workers);
}

/// `y = AND(a, NOT b)` and `y = AND(b, NOT a)` share one structure once
/// their ports are swapped, but compute different functions of the
/// ports as named. Submitted one after the other, the second must run on
/// its own input, not replay the first's netlist from the cache; the
/// same text again under another path is answered from the cache.
#[test]
fn port_swapped_files_miss_the_cache_and_exact_repeats_hit() {
    let dir = std::env::temp_dir().join(format!("gdo_service_swap_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ab = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(b)\ny = AND(a, n)\n";
    let ba = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = AND(b, n)\n";
    let jobs = [("ab", ab), ("ba", ba), ("ab-again", ab)];
    let addr = start(served(), 1);
    let mut client = Client::connect(addr);
    let mut terminals = Vec::new();
    for (id, text) in jobs {
        let path = dir.join(format!("{id}.bench"));
        std::fs::write(&path, text).unwrap();
        client.send(&format!(
            r#"{{"op":"submit","id":"{id}","file":"{}","vectors":64,"verify":"off","netlist":true}}"#,
            path.display()
        ));
        // Wait for this job's terminal, so the next one is admitted with
        // this result already in the cache.
        let lines = client.recv_until_terminals(1);
        terminals.push(lines.last().unwrap().clone());
    }
    client.send(r#"{"op":"drain"}"#);
    client.recv_until_drained();

    let lib = library::standard_library();
    for ((id, text), line) in jobs.iter().zip(&terminals) {
        assert_eq!(event_kind(line), "done", "{id}: {line}");
        let event = proto::json::parse(line).unwrap();
        let cached = event.get("cached").and_then(|c| c.as_bool()) == Some(true);
        assert_eq!(cached, *id == "ab-again", "{id}: {line}");
        let blif = event.get("blif").and_then(|b| b.as_str()).unwrap();
        let input = formats::parse_bench(text).unwrap();
        let output = library::parse_mapped_blif(&lib, blif).unwrap();
        let names = |nl: &netlist::Netlist| -> Vec<String> {
            nl.inputs()
                .iter()
                .map(|&s| nl.cell(s).name().unwrap_or("").to_string())
                .collect()
        };
        assert_eq!(names(&input), names(&output), "{id}: port names and order");
        for v in 0..4u32 {
            let bits = [v & 1 == 1, v & 2 == 2];
            assert_eq!(
                input.eval_outputs(&bits).unwrap(),
                output.eval_outputs(&bits).unwrap(),
                "{id}: the returned netlist must compute its own input's function at {bits:?}\n{blif}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
