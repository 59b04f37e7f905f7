//! Event loops: balanced accept spreads connections over loops, and a
//! slow request delays only the connections on its own loop.

mod common;

use common::{connect, read_reply, request, send};
use dvf_serve::{Server, ServerConfig};
use std::io::BufReader;
use std::time::{Duration, Instant};

#[test]
fn two_connections_on_two_loops_run_side_by_side() {
    let server = Server::bind(ServerConfig {
        workers: 2,
        slow_route: true,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Both connections are accepted before either sends: balanced accept
    // must put them on different loops.
    let mut a = connect(addr);
    let mut b = connect(addr);
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    send(&mut a, "POST", "/v1/_slow", Some(r#"{"ms":300}"#), false);
    send(&mut b, "POST", "/v1/_slow", Some(r#"{"ms":300}"#), false);
    assert_eq!(
        read_reply(&mut BufReader::new(a.try_clone().unwrap())).status,
        200
    );
    assert_eq!(
        read_reply(&mut BufReader::new(b.try_clone().unwrap())).status,
        200
    );
    let elapsed = started.elapsed();
    // One loop holding both would take 600 ms.
    assert!(
        elapsed < Duration::from_millis(550),
        "two slow requests on two loops took {elapsed:?}"
    );
    drop((a, b));
    server.shutdown();
}

#[test]
fn one_loop_answers_behind_a_slow_request_with_a_queue_phase() {
    let server = Server::bind(ServerConfig {
        workers: 1,
        slow_route: true,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    let mut slow = connect(addr);
    send(&mut slow, "POST", "/v1/_slow", Some(r#"{"ms":300}"#), false);
    std::thread::sleep(Duration::from_millis(50));

    // The one loop is inside the slow handler: this request waits for
    // it, then is answered.
    let behind = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(behind.status, 200);
    let trace_id = behind.header("X-Dvf-Trace-Id").expect("trace header");
    assert_eq!(
        read_reply(&mut BufReader::new(slow.try_clone().unwrap())).status,
        200
    );

    let detail = request(addr, "GET", &format!("/v1/debug/requests/{trace_id}"), None);
    assert_eq!(detail.status, 200, "{}", detail.body);
    let doc = detail.json();
    let phases = doc
        .get("request")
        .and_then(|r| r.get("phases"))
        .and_then(|p| p.as_arr())
        .expect("phases");
    assert!(
        phases.iter().any(|p| {
            p.get("path").unwrap().as_str() == Some("queue")
                && p.get("depth").unwrap().as_u64() == Some(0)
        }),
        "{}",
        detail.body
    );
    drop(slow);
    server.shutdown();
}

#[test]
fn a_connection_burst_is_accepted_without_waiting_out_poll_ticks() {
    // A loop that has just become the least loaded while polling without
    // the listener is rung awake; left to its 100 ms poll tick, a burst of
    // 100 connections on two loops takes seconds to accept.
    let server = Server::bind(ServerConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("bind");
    let started = Instant::now();
    let idle = dvf_serve::loadgen::open_idle(server.addr(), 100).expect("open idle connections");
    while server.ctx().open_connections() < 100 {
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "only {} of 100 connections accepted after {:?}",
            server.ctx().open_connections(),
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(idle);
    server.shutdown();
}
