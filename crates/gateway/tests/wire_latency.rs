//! Wire time on a client connection over loopback TCP: a reply that
//! needs no job leaves at once, instead of waiting for the client's
//! delayed ACK (40 ms on Linux) behind a line split over two sends.

mod common;

use common::{event_kind, join, launch, served, Client};
use gateway::WorkerOptions;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round trips per timed phase.
const ROUNDS: usize = 10;

/// Budget for both phases together. When each reply waited out a
/// delayed ACK, each phase alone took about 440 ms.
const LIMIT: Duration = Duration::from_millis(200);

const SUBMIT: &str = r#"{"op":"submit","circuit":"9sym","verify":"off"}"#;

/// Regression: the gateway wrote every event line in two sends with
/// Nagle's algorithm on, so each `status` reply, and each cached
/// `accepted`+`done` pair, waited about 40 ms for the client's delayed
/// ACK. Only the untimed first submit runs a job.
#[test]
fn status_and_cache_hit_round_trips_skip_the_delayed_ack() {
    let (gw, workers) = launch(served(), 1, &WorkerOptions::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serving = Arc::clone(&gw);
    let clients = std::thread::spawn(move || serving.serve_clients(&listener).unwrap());
    let mut client = Client::connect(addr);

    client.send(SUBMIT);
    let first = client.recv_until_terminals(1);
    assert_eq!(event_kind(first.last().unwrap()), "done");

    let mut lines = Vec::new();
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        client.send(r#"{"op":"status"}"#);
        lines.push(client.recv());
    }
    let status = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        client.send(SUBMIT);
        lines.push(client.recv());
        lines.push(client.recv());
    }
    let hits = t0.elapsed();

    client.send(r#"{"op":"drain"}"#);
    client.recv_until_drained();
    clients.join().unwrap();
    join(workers);

    let (status_lines, hit_lines) = lines.split_at(ROUNDS);
    assert!(status_lines.iter().all(|l| event_kind(l) == "status"));
    for pair in hit_lines.chunks(2) {
        assert_eq!(event_kind(&pair[0]), "accepted");
        assert_eq!(event_kind(&pair[1]), "done");
        assert!(pair[1].contains("\"cached\":true"), "{}", pair[1]);
    }
    assert!(
        status + hits < LIMIT,
        "{ROUNDS} round trips took {status:?} (status) and {hits:?} (cache hits)"
    );
}
