//! `gdo-submit` — the batch client for `gdo-served`.
//!
//! ```text
//! gdo-submit --addr HOST:PORT [--circuit NAME]... [--file PATH]...
//!            [--deadline-ms N] [--work-limit N] [--seed N] [--vectors N]
//!            [--verify POLICY] [--priority high|normal|low]
//!            [--status] [--cancel ID] [--drain] [--list-circuits]
//! ```
//!
//! Submits one job per `--circuit`/`--file` (budget and policy flags
//! apply to all of them), streams the server's NDJSON events to stdout,
//! and exits once every submitted job reached its terminal event. With
//! `--drain`, a drain request follows the submissions and the client
//! also waits for the `drained` event.
//!
//! Exit codes mirror `gdo-opt`: 0 all done, 4 when any job came back
//! degraded, 1 when any was rejected or failed, 2 usage, 5 connection
//! errors.

use proto::{parse_verify, submit_to_json, JobSource, Priority, SubmitRequest};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;

fn usage() -> String {
    "usage: gdo-submit --addr HOST:PORT [jobs] [options]\n\
     \n\
     jobs (repeatable, submitted in order):\n\
       --circuit NAME           a workload-suite circuit (see --list-circuits)\n\
       --file PATH              a .bench / .blif netlist file (server-side path)\n\
     \n\
     per-job options (apply to every submitted job):\n\
       --deadline-ms N          wall-clock budget\n\
       --work-limit N           deterministic work-unit budget\n\
       --seed N                 BPFS seed\n\
       --vectors N              BPFS vectors per round\n\
       --verify POLICY          off|final|each|every:N\n\
       --engine LIST            engine pipeline, comma-separated (gdo,resub)\n\
       --partitions N           partitioned optimization with ~N regions\n\
       --priority LANE          high|normal|low (default normal)\n\
       --resume PATH            resume from a snapshot file (server-side path)\n\
       --checkpoint PATH        write run snapshots to PATH (server-side path)\n\
       --with-netlist           return the optimized netlist (mapped BLIF) inline\n\
       --progress               stream per-phase progress events (gateway only)\n\
     \n\
     control:\n\
       --status                 request a status event\n\
       --cancel ID              cancel a job by id\n\
       --drain                  drain the server after the submissions\n\
       --list-circuits          print the workload suite circuit names and exit\n\
       --help                   print this help\n"
        .to_string()
}

#[derive(Debug)]
struct Options {
    addr: Option<String>,
    jobs: Vec<JobSource>,
    template: SubmitRequest,
    status: bool,
    cancels: Vec<String>,
    drain: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: None,
        jobs: Vec::new(),
        template: SubmitRequest {
            id: None,
            source: JobSource::Suite(String::new()),
            deadline_ms: None,
            work_limit: None,
            seed: None,
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
        },
        status: false,
        cancels: Vec::new(),
        drain: false,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_u64 = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(None);
            }
            "--list-circuits" => {
                for name in workloads::circuit_names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--addr" => opts.addr = Some(need(&mut it, "--addr")?),
            "--circuit" => {
                let name = need(&mut it, "--circuit")?;
                // Validate locally so a typo fails with the full list of
                // valid names before anything reaches the server.
                workloads::lookup_circuit(&name).map_err(|e| e.to_string())?;
                opts.jobs.push(JobSource::Suite(name));
            }
            "--file" => opts
                .jobs
                .push(JobSource::File(need(&mut it, "--file")?.into())),
            "--deadline-ms" => {
                opts.template.deadline_ms =
                    Some(parse_u64(need(&mut it, "--deadline-ms")?, "--deadline-ms")?);
            }
            "--work-limit" => {
                opts.template.work_limit =
                    Some(parse_u64(need(&mut it, "--work-limit")?, "--work-limit")?);
            }
            "--seed" => opts.template.seed = Some(parse_u64(need(&mut it, "--seed")?, "--seed")?),
            "--vectors" => {
                opts.template.vectors =
                    Some(parse_u64(need(&mut it, "--vectors")?, "--vectors")? as usize);
            }
            "--verify" => opts.template.verify = Some(parse_verify(&need(&mut it, "--verify")?)?),
            "--engine" => {
                let list = need(&mut it, "--engine")?;
                // Validate locally so a typo fails with the full list of
                // valid engines before anything reaches the server.
                gdo::EngineId::parse_list(&list).map_err(|e| e.to_string())?;
                opts.template.engines = Some(list);
            }
            "--partitions" => {
                opts.template.partitions =
                    Some(parse_u64(need(&mut it, "--partitions")?, "--partitions")? as usize);
            }
            "--priority" => {
                let v = need(&mut it, "--priority")?;
                opts.template.priority = Priority::from_name(&v)
                    .ok_or_else(|| format!("--priority must be high, normal or low, got {v:?}"))?;
            }
            "--resume" => {
                opts.template.resume = Some(need(&mut it, "--resume")?.into());
            }
            "--checkpoint" => {
                opts.template.checkpoint = Some(need(&mut it, "--checkpoint")?.into());
            }
            "--with-netlist" => opts.template.want_netlist = true,
            "--progress" => opts.template.want_progress = true,
            "--status" => opts.status = true,
            "--cancel" => opts.cancels.push(need(&mut it, "--cancel")?),
            "--drain" => opts.drain = true,
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if opts.addr.is_none() {
        return Err(format!("--addr is required\n{}", usage()));
    }
    if opts.jobs.is_empty() && !opts.status && !opts.drain && opts.cancels.is_empty() {
        return Err("nothing to do: give --circuit/--file, --status, --cancel or --drain".into());
    }
    Ok(Some(opts))
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let addr = opts.addr.as_deref().expect("checked in parse_args");
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    // Every request line goes into one buffer and out with one flush: a
    // line split over two sends would wait for the gateway's delayed ACK.
    let mut writer = BufWriter::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?,
    );
    let reader = BufReader::new(stream);

    for source in &opts.jobs {
        let req = SubmitRequest {
            source: source.clone(),
            ..opts.template.clone()
        };
        writeln!(writer, "{}", submit_to_json(&req)).map_err(|e| e.to_string())?;
    }
    for id in &opts.cancels {
        writeln!(
            writer,
            "{{\"op\":\"cancel\",\"id\":{}}}",
            telemetry::json_escaped(id)
        )
        .map_err(|e| e.to_string())?;
    }
    if opts.status {
        writeln!(writer, "{{\"op\":\"status\"}}").map_err(|e| e.to_string())?;
    }
    if opts.drain {
        writeln!(writer, "{{\"op\":\"drain\"}}").map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;

    // Pass events through to stdout, tracking what we still wait for:
    // one terminal event per submission, one status event per --status,
    // the drained event when draining.
    let mut terminals_left = opts.jobs.len();
    let mut status_left = u64::from(opts.status);
    let mut drain_left = opts.drain;
    let mut degraded = 0u64;
    let mut bad = 0u64;
    let out = std::io::stdout();
    for line in reader.lines() {
        let line = line.map_err(|e| e.to_string())?;
        {
            let mut out = out.lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
        let event = proto::json::parse(&line)
            .ok()
            .and_then(|v| v.get("event").and_then(|e| e.as_str().map(str::to_string)));
        match event.as_deref() {
            Some("done") => terminals_left = terminals_left.saturating_sub(1),
            Some("degraded") => {
                degraded += 1;
                terminals_left = terminals_left.saturating_sub(1);
            }
            Some("rejected" | "failed" | "cancelled" | "poisoned") => {
                bad += 1;
                terminals_left = terminals_left.saturating_sub(1);
            }
            Some("status") => status_left = status_left.saturating_sub(1),
            Some("drained") => drain_left = false,
            _ => {}
        }
        if terminals_left == 0 && status_left == 0 && !drain_left {
            break;
        }
    }
    if terminals_left > 0 || drain_left {
        return Err("server closed the connection before all jobs finished".to_string());
    }
    Ok(if bad > 0 {
        ExitCode::FAILURE
    } else if degraded > 0 {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Some(opts)) => match run(&opts) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("gdo-submit: {e}");
                ExitCode::from(5)
            }
        },
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gdo-submit: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_mixed_submission() {
        let opts = parse_args(&argv(&[
            "--addr",
            "127.0.0.1:7199",
            "--circuit",
            "9sym",
            "--file",
            "/tmp/dp96.bench",
            "--work-limit",
            "100",
            "--seed",
            "7",
            "--verify",
            "final",
            "--engine",
            "gdo,resub",
            "--partitions",
            "4",
            "--priority",
            "high",
            "--drain",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(opts.jobs.len(), 2);
        assert_eq!(opts.jobs[0], JobSource::Suite("9sym".to_string()));
        assert_eq!(opts.template.work_limit, Some(100));
        assert_eq!(opts.template.engines.as_deref(), Some("gdo,resub"));
        assert_eq!(opts.template.partitions, Some(4));
        assert_eq!(opts.template.priority, Priority::High);
        assert!(opts.drain);
        assert!(!opts.template.want_netlist);
        assert!(!opts.template.want_progress);
    }

    #[test]
    fn netlist_and_progress_flags_parse() {
        let opts = parse_args(&argv(&[
            "--addr",
            "x:1",
            "--circuit",
            "9sym",
            "--with-netlist",
            "--progress",
        ]))
        .unwrap()
        .unwrap();
        assert!(opts.template.want_netlist);
        assert!(opts.template.want_progress);
    }

    #[test]
    fn unknown_circuit_fails_fast_with_the_valid_names() {
        let err = parse_args(&argv(&["--addr", "x:1", "--circuit", "nope"])).unwrap_err();
        assert!(err.contains("valid names"), "{err}");
        assert!(err.contains("Z5xp1"), "{err}");
    }

    #[test]
    fn unknown_engine_fails_fast_with_the_valid_names() {
        let err = parse_args(&argv(&[
            "--addr",
            "x:1",
            "--circuit",
            "9sym",
            "--engine",
            "frob",
        ]))
        .unwrap_err();
        assert!(err.contains("valid engines"), "{err}");
        assert!(err.contains("resub"), "{err}");
    }

    #[test]
    fn requires_an_addr_and_something_to_do() {
        assert!(parse_args(&argv(&["--circuit", "9sym"])).is_err());
        assert!(parse_args(&argv(&["--addr", "x:1"])).is_err());
        // Control-only invocations are fine.
        assert!(parse_args(&argv(&["--addr", "x:1", "--status"]))
            .unwrap()
            .is_some());
        assert!(parse_args(&argv(&["--addr", "x:1", "--drain"]))
            .unwrap()
            .is_some());
    }
}
