//! `gdo-gateway` — the shardable optimization front door.
//!
//! ```text
//! gdo-gateway [--addr HOST:PORT] [--worker-addr HOST:PORT]
//!             [--http-addr HOST:PORT] [--queue-cap N]
//!             [--library FILE.genlib] [--verify POLICY] [--seed N]
//!             [--journal-dir DIR] [--cache-dir DIR] [--cache-cap N]
//!             [--work-ceiling UNITS] [--heartbeat-ms MS]
//!             [--retry-max N]
//! ```
//!
//! Binds three listeners and prints one line per bound address:
//! `listening HOST:PORT` (clients, the NDJSON protocol `gdo-submit`
//! speaks), `workers HOST:PORT` (`gdo-worker` registrations), and
//! `http HOST:PORT` (plain-text `/metrics` and `/status`). Serves until
//! a client sends `{"op":"drain"}`. It is the gateway `gdo-served` runs,
//! with remote workers instead of in-process ones.

use gateway::cli::{self, number, value};
use gateway::{Gateway, GatewayConfig};
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    format!(
        "usage: gdo-gateway [options]\n\noptions:\n{}{}",
        cli::SHARED_USAGE,
        "  --worker-addr HOST:PORT  worker listen address (default 127.0.0.1:0)
  --http-addr HOST:PORT    /metrics and /status address (default 127.0.0.1:0)
  --cache-dir DIR          persistent result cache directory (default: in-memory)
  --cache-cap N            result cache capacity in entries, 0 disables (default 64)
  --heartbeat-ms MS        worker heartbeat interval (default 2000)
  --help                   print this help
"
    )
}

struct Options {
    addr: String,
    worker_addr: String,
    http_addr: String,
    cfg: GatewayConfig,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        worker_addr: "127.0.0.1:0".to_string(),
        http_addr: "127.0.0.1:0".to_string(),
        cfg: GatewayConfig::default(),
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
            "--worker-addr" => opts.worker_addr = value(&mut it, arg)?,
            "--http-addr" => opts.http_addr = value(&mut it, arg)?,
            "--cache-dir" => opts.cfg.cache_dir = Some(value(&mut it, arg)?.into()),
            "--cache-cap" => opts.cfg.cache_cap = number(&mut it, arg, "a non-negative integer")?,
            "--heartbeat-ms" => {
                opts.cfg.heartbeat_ms = number(&mut it, arg, "a positive integer")?;
                if opts.cfg.heartbeat_ms == 0 {
                    return Err("--heartbeat-ms must be positive".to_string());
                }
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(Some(opts))
}

fn bind(label: &str, addr: &str) -> Result<TcpListener, String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("cannot bind {label} {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    println!("{label} {bound}");
    let _ = std::io::stdout().flush();
    Ok(listener)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gdo-gateway: {e}");
            return ExitCode::from(2);
        }
    };
    let bound = bind("listening", &opts.addr)
        .and_then(|c| Ok((c, bind("workers", &opts.worker_addr)?)))
        .and_then(|(c, w)| Ok((c, w, bind("http", &opts.http_addr)?)));
    let (clients, workers, http) = match bound {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gdo-gateway: {e}");
            return ExitCode::from(5);
        }
    };
    let gw = Gateway::new(opts.cfg);
    let worker_gw = Arc::clone(&gw);
    let worker_thread = std::thread::spawn(move || worker_gw.serve_workers(&workers));
    let http_gw = Arc::clone(&gw);
    let http_thread = std::thread::spawn(move || gateway::http::serve_http(&http_gw, &http));
    let result = gw.serve_clients(&clients);
    let _ = worker_thread.join();
    let _ = http_thread.join();
    if let Err(e) = result {
        eprintln!("gdo-gateway: {e}");
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
            "127.0.0.1:7310",
            "--worker-addr",
            "127.0.0.1:7311",
            "--http-addr",
            "127.0.0.1:7312",
            "--queue-cap",
            "32",
            "--verify",
            "every:8",
            "--seed",
            "7",
            "--journal-dir",
            "/tmp/gw-journal",
            "--cache-dir",
            "/tmp/gw-cache",
            "--cache-cap",
            "128",
            "--work-ceiling",
            "90000",
            "--heartbeat-ms",
            "500",
            "--retry-max",
            "1",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(opts.addr, "127.0.0.1:7310");
        assert_eq!(opts.worker_addr, "127.0.0.1:7311");
        assert_eq!(opts.http_addr, "127.0.0.1:7312");
        assert_eq!(opts.cfg.queue_cap, 32);
        assert_eq!(opts.cfg.default_seed, 7);
        assert_eq!(opts.cfg.cache_cap, 128);
        assert_eq!(opts.cfg.shed.work_ceiling, Some(90_000));
        assert_eq!(opts.cfg.shed.queue_low_mark, 16, "marks follow queue cap");
        assert_eq!(opts.cfg.heartbeat_ms, 500);
        assert_eq!(opts.cfg.retry_max, 1);
        assert_eq!(
            opts.cfg.journal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/gw-journal"))
        );
        assert_eq!(
            opts.cfg.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/gw-cache"))
        );
    }

    #[test]
    fn ceiling_survives_queue_cap_reordering() {
        // --queue-cap after --work-ceiling must not wipe the ceiling.
        let opts = parse_args(&argv(&["--work-ceiling", "5000", "--queue-cap", "8"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.cfg.shed.work_ceiling, Some(5000));
        assert_eq!(opts.cfg.shed.queue_low_mark, 4);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&argv(&["--queue-cap", "0"])).is_err());
        assert!(parse_args(&argv(&["--heartbeat-ms", "0"])).is_err());
        assert!(parse_args(&argv(&["--bogus"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
    }
}
