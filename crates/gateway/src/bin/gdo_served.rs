//! `gdo-served` — the batch-optimization server: one gateway with
//! `--workers N` in-process workers.
//!
//! ```text
//! gdo-served [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!            [--admission block|reject] [--library FILE.genlib]
//!            [--work-ceiling UNITS] [--verify POLICY] [--seed N]
//!            [--journal-dir DIR] [--retry-max N] [--batch]
//! ```
//!
//! TCP mode (default) prints the bound address on stdout (`listening
//! HOST:PORT`) and serves NDJSON connections until a client sends
//! `{"op":"drain"}`. `--batch` instead reads request lines from stdin,
//! writes events to stdout, and drains at EOF — no socket involved.
//!
//! It runs the gateway `gdo-gateway` runs — same admission, result
//! cache, journal and supervisor — with its workers in-process, linked
//! by pipes, one job each. Admission blocks on a full queue by default,
//! so a batch longer than the queue loses nothing.

use gateway::cli::{self, number, value};
use gateway::{output_from, spawn_local_workers, Admission, Gateway, GatewayConfig, WorkerOptions};
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: gdo-served [options]\n\noptions:\n{}{}",
        cli::SHARED_USAGE,
        "  --workers N              in-process workers, one job each (default 2)
  --admission block|reject full-queue policy (default block)
  --batch                  serve stdin/stdout NDJSON instead of TCP; drain at EOF
  --help                   print this help
"
    )
}

struct Options {
    addr: String,
    batch: bool,
    workers: usize,
    cfg: GatewayConfig,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        batch: false,
        workers: 2,
        cfg: GatewayConfig {
            admission: Admission::Block,
            ..GatewayConfig::default()
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if cli::parse_shared(arg, &mut it, &mut opts.addr, &mut opts.cfg)? {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(None);
            }
            "--batch" => opts.batch = true,
            "--workers" => {
                opts.workers = number(&mut it, arg, "a positive integer")?;
                if opts.workers == 0 {
                    return Err("--workers must be positive".to_string());
                }
            }
            "--admission" => {
                let v = value(&mut it, arg)?;
                opts.cfg.admission = Admission::from_name(&v)
                    .ok_or_else(|| format!("--admission must be block or reject, got {v:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gdo-served: {e}");
            return ExitCode::from(2);
        }
    };
    let listener = if opts.batch {
        None
    } else {
        let bound = TcpListener::bind(&opts.addr)
            .map_err(|e| format!("cannot bind {}: {e}", opts.addr))
            .and_then(|l| {
                let addr = l.local_addr().map_err(|e| e.to_string())?;
                println!("listening {addr}");
                let _ = std::io::stdout().flush();
                Ok(l)
            });
        match bound {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("gdo-served: {e}");
                return ExitCode::from(5);
            }
        }
    };
    let worker_opts = WorkerOptions {
        name: "local".to_string(),
        library: opts.cfg.library.clone(),
        ..WorkerOptions::default()
    };
    let gw = Gateway::new(opts.cfg);
    let workers = match spawn_local_workers(&gw, opts.workers, &worker_opts) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("gdo-served: cannot start workers: {e}");
            return ExitCode::FAILURE;
        }
    };
    let served = match listener {
        None => {
            gw.run_batch(std::io::stdin().lock(), &output_from(std::io::stdout()));
            Ok(())
        }
        Some(l) => gw.serve_clients(&l),
    };
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("gdo-served: {e}"),
            Err(_) => eprintln!("gdo-served: a worker thread panicked"),
        }
    }
    if let Err(e) = served {
        eprintln!("gdo-served: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let opts = parse_args(&argv(&[
            "--addr",
            "127.0.0.1:7199",
            "--workers",
            "4",
            "--queue-cap",
            "8",
            "--admission",
            "reject",
            "--work-ceiling",
            "5000",
            "--verify",
            "every:8",
            "--seed",
            "7",
            "--journal-dir",
            "/tmp/j",
            "--retry-max",
            "5",
            "--batch",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7199");
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.cfg.queue_cap, 8);
        assert_eq!(opts.cfg.admission, Admission::Reject);
        assert_eq!(opts.cfg.shed.work_ceiling, Some(5000));
        assert_eq!(opts.cfg.default_seed, 7);
        assert_eq!(
            opts.cfg.journal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/j"))
        );
        assert_eq!(opts.cfg.retry_max, 5);
        assert!(opts.batch);
        let defaults = parse_args(&[]).unwrap().unwrap();
        assert_eq!(defaults.cfg.admission, Admission::Block);
        assert_eq!(defaults.workers, 2);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&argv(&["--workers", "0"])).is_err());
        assert!(parse_args(&argv(&["--queue-cap", "0"])).is_err());
        assert!(parse_args(&argv(&["--admission", "maybe"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
        assert!(parse_args(&argv(&["--workers"])).is_err());
        // Jobs checkpoint at a fixed cadence: there is no such flag.
        assert!(parse_args(&argv(&["--checkpoint-every", "2"])).is_err());
    }
}
