//! A long-lived gateway keeps nothing of its finished client
//! connections: the accept loop drops a connection thread's handle once
//! the thread has ended, so the thread's stack is released instead of
//! staying mapped until the gateway exits. The test is alone in its
//! binary, so the process's memory map changes only with the gateway.

#![cfg(target_os = "linux")]

mod common;

use common::{event_kind, Client};
use gateway::{Gateway, GatewayConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Lines in this process's memory map: each mapped thread stack (and
/// its guard page) adds its own.
fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .unwrap()
        .lines()
        .count()
}

/// One client connection that asks for `status` and hangs up.
fn status_round_trip(addr: SocketAddr) {
    let mut client = Client::connect(addr);
    client.send(r#"{"op":"status"}"#);
    assert_eq!(event_kind(&client.recv()), "status");
}

/// Regression: the accept loop kept the handle of every connection
/// thread until the gateway exited, so each finished connection left
/// its thread's stack and guard mappings behind.
#[test]
fn finished_connections_release_their_threads() {
    let gw = Gateway::new(GatewayConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serving = Arc::clone(&gw);
    let clients = std::thread::spawn(move || serving.serve_clients(&listener).unwrap());

    // Warm-up: the allocator's arenas and the thread-stack cache reach
    // their working size.
    for _ in 0..50 {
        status_round_trip(addr);
    }
    let before = mapped_regions();
    for _ in 0..300 {
        status_round_trip(addr);
    }
    let grown = mapped_regions().saturating_sub(before);

    let mut client = Client::connect(addr);
    client.send(r#"{"op":"drain"}"#);
    client.recv_until_drained();
    clients.join().unwrap();
    assert!(
        grown < 100,
        "300 finished connections added {grown} lines to /proc/self/maps"
    );
}
