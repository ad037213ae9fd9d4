//! Helpers shared by the serving-stack test suites: an in-memory event
//! sink, a line-oriented TCP client, event inspection, and
//! `gdo-served`'s stack built in-process.

#![allow(dead_code)] // each suite uses its own subset

use gateway::{output_from, spawn_local_workers, Admission, Gateway, GatewayConfig, WorkerOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A `Write` handle into a shared buffer, so a test can read back the
/// event stream a run produced.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn lines(&self) -> Vec<String> {
        String::from_utf8(self.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn event_kind(line: &str) -> String {
    proto::json::parse(line)
        .unwrap_or_else(|e| panic!("bad event line {line:?}: {e}"))
        .get("event")
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("event line without kind: {line:?}"))
}

pub fn is_terminal(line: &str) -> bool {
    matches!(
        event_kind(line).as_str(),
        "rejected" | "done" | "degraded" | "failed" | "cancelled" | "poisoned"
    )
}

pub fn count_kind(lines: &[String], kind: &str) -> usize {
    lines.iter().filter(|l| event_kind(l) == kind).count()
}

/// One client connection with line-oriented send/receive helpers.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request line, newline included, in one write: a line
    /// split over two writes would wait for the gateway's delayed ACK.
    pub fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
    }

    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "connection closed early"
        );
        line.trim_end().to_string()
    }

    /// Reads events until `n` terminal events were seen; returns all
    /// lines read.
    pub fn recv_until_terminals(&mut self, n: usize) -> Vec<String> {
        let mut lines = Vec::new();
        let mut terminals = 0;
        while terminals < n {
            let line = self.recv();
            if is_terminal(&line) {
                terminals += 1;
            }
            lines.push(line);
        }
        lines
    }

    pub fn recv_until_drained(&mut self) {
        while event_kind(&self.recv()) != "drained" {}
    }
}

/// `gdo-served`'s configuration: the gateway defaults with blocking
/// admission.
pub fn served() -> GatewayConfig {
    GatewayConfig {
        admission: Admission::Block,
        ..GatewayConfig::default()
    }
}

pub type Workers = Vec<JoinHandle<Result<(), String>>>;

/// `gdo-served`'s stack, in-process: the gateway and `n` pipe-linked
/// workers.
pub fn launch(cfg: GatewayConfig, n: usize, opts: &WorkerOptions) -> (Arc<Gateway>, Workers) {
    let gw = Gateway::new(cfg);
    let workers = spawn_local_workers(&gw, n, opts).unwrap();
    (gw, workers)
}

/// Waits for drained workers to exit cleanly.
pub fn join(workers: Workers) {
    for w in workers {
        w.join().unwrap().unwrap();
    }
}

/// Runs `input` through the stack in batch mode, joins its workers, and
/// returns the event lines.
pub fn run_batch(cfg: GatewayConfig, n: usize, opts: &WorkerOptions, input: &str) -> Vec<String> {
    run_batch_keeping_gateway(cfg, n, opts, input).0
}

/// [`run_batch`], also returning the drained gateway for its counters.
pub fn run_batch_keeping_gateway(
    cfg: GatewayConfig,
    n: usize,
    opts: &WorkerOptions,
    input: &str,
) -> (Vec<String>, Arc<Gateway>) {
    let (gw, workers) = launch(cfg, n, opts);
    let buf = SharedBuf::default();
    gw.run_batch(input.as_bytes(), &output_from(buf.clone()));
    join(workers);
    (buf.lines(), gw)
}

/// One of `gw`'s `status`/`/metrics` counters (0 when not listed).
pub fn counter_of(gw: &Gateway, name: &str) -> u64 {
    gw.counter_pairs()
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}
