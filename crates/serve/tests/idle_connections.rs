//! Idle connections cost file descriptors, not threads.
//!
//! The check compares the process-wide `Threads:` count of
//! `/proc/self/status` before and after opening idle connections, so it
//! needs a process no other test's server shares: this file is its own
//! test binary with this one test.

#![cfg(unix)]

mod common;

use common::request;
use dvf_serve::{Server, ServerConfig};
use std::time::Duration;

#[cfg(target_os = "linux")]
#[test]
fn idle_connections_cost_fds_not_threads() {
    fn thread_count() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    }

    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    // Let the server finish spawning, then baseline.
    let reply = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);
    let before = thread_count();

    const IDLE: usize = 300;
    let idle = dvf_serve::loadgen::open_idle(addr, IDLE).expect("open idle connections");
    std::thread::sleep(Duration::from_millis(300));

    let after = thread_count();
    assert_eq!(
        after, before,
        "{IDLE} idle connections must not grow the thread count"
    );

    // They do show up in the gauge (>= because other tests share the
    // process? No — servers are per-test; the loop counts its own).
    let reply = request(addr, "GET", "/v1/metrics", None);
    let open = reply
        .json()
        .get("serve")
        .unwrap()
        .get("open_connections")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        open >= IDLE as u64,
        "open_connections gauge says {open}, expected >= {IDLE}"
    );

    // The server still serves happily alongside the idle herd.
    let reply = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);

    drop(idle);
    server.shutdown();
}
