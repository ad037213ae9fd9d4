//! The operator HTTP endpoint: plain-text `/metrics` and `/status`.
//!
//! Hand-rolled HTTP/1.0-style responses over the same blocking TCP the
//! rest of the gateway uses — enough for `curl`, a scraper, or a shell
//! one-liner in CI, with no framework dependency. `/metrics` emits one
//! `name value` line per counter (the `gateway.*` family plus queue
//! lane depths); `/status` emits a short human-readable summary.

use crate::gateway::{accept_loop, Gateway};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Serves `/metrics` and `/status` until the gateway shuts down, on the
/// accept loop the client and worker listeners use: each request is
/// answered on its own connection thread, so a client that sends
/// nothing holds that thread for the 500 ms read timeout, not the
/// listener.
///
/// # Errors
///
/// IO errors from the listener itself (individual connection failures
/// are swallowed).
pub fn serve_http(gw: &Arc<Gateway>, listener: &TcpListener) -> std::io::Result<()> {
    accept_loop(listener, gw, |gw, stream| {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        answer(gw, stream);
    })
}

/// Reads one request and writes the whole response in one write: a
/// response split over several sends would wait for the client's
/// delayed ACK (DESIGN.md §11).
fn answer(gw: &Gateway, mut stream: TcpStream) {
    // One small read is enough for the request line; scrapers send tiny
    // GETs and we never read a body.
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap_or(0);
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, body) = match path {
        "/metrics" => ("200 OK", metrics_text(gw)),
        "/status" => ("200 OK", status_text(gw)),
        _ => (
            "404 Not Found",
            "not found (try /metrics or /status)\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// The `/metrics` body: one `name value` line per gateway counter.
#[must_use]
pub fn metrics_text(gw: &Gateway) -> String {
    let mut out = String::new();
    for (name, value) in gw.counter_pairs() {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

/// The `/status` body: a short human-readable summary.
#[must_use]
pub fn status_text(gw: &Gateway) -> String {
    let pairs = gw.counter_pairs();
    let get = |name: &str| {
        pairs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let hits = get("gateway.cache.hits");
    let misses = get("gateway.cache.misses");
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 * 100.0 / lookups as f64
    };
    let mut workers = String::new();
    for (name, alive, jobs) in gw.worker_table() {
        workers.push_str(&format!(
            "  {name}: {} ({jobs} in flight)\n",
            if alive { "alive" } else { "dead" }
        ));
    }
    format!(
        "gdo-gateway\n\
         workers alive:   {}\n\
         queue depth:     {} (high {}, normal {}, low {})\n\
         running:         {}\n\
         admitted:        {}\n\
         rejected:        {} ({} shed)\n\
         cache:           {} entries, {hits} hits / {misses} misses ({hit_rate:.1}% hit rate)\n\
         done:            {}\n\
         degraded:        {}\n\
         failed:          {}\n\
         cancelled:       {}\n\
         poisoned:        {}\n\
         requeued:        {}\n\
         recovered:       {}\n\
         draining:        {}\n\
         workers:\n{workers}",
        get("gateway.workers.alive"),
        get("gateway.queue.depth"),
        get("gateway.queue.high"),
        get("gateway.queue.normal"),
        get("gateway.queue.low"),
        get("gateway.running"),
        get("gateway.admitted"),
        get("gateway.rejected"),
        get("gateway.shed"),
        get("gateway.cache.entries"),
        get("gateway.jobs.done"),
        get("gateway.jobs.degraded"),
        get("gateway.jobs.failed"),
        get("gateway.jobs.cancelled"),
        get("gateway.jobs.poisoned"),
        get("gateway.requeued"),
        get("gateway.recovered"),
        get("gateway.draining") != 0,
    )
}
