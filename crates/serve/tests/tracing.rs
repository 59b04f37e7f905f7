//! End-to-end tests for per-request tracing, the flight recorder
//! endpoints, and the Prometheus exposition.

mod common;

use common::{json_str, request, MODEL};
use dvf_serve::{Server, ServerConfig};

fn boot() -> Server {
    Server::bind(ServerConfig::default()).expect("bind")
}

fn sweep_body() -> String {
    format!(
        r#"{{"source":{},"param":"n","lo":100,"hi":800,"steps":8}}"#,
        json_str(MODEL)
    )
}

#[test]
fn every_response_carries_a_trace_id() {
    let server = boot();
    let addr = server.addr();
    let a = request(addr, "GET", "/v1/healthz", None);
    let b = request(addr, "GET", "/v1/healthz", None);
    let ta = a.header("X-Dvf-Trace-Id").expect("trace header").to_owned();
    let tb = b.header("X-Dvf-Trace-Id").expect("trace header").to_owned();
    assert_eq!(ta.len(), 16, "{ta}");
    assert!(ta.bytes().all(|c| c.is_ascii_hexdigit()), "{ta}");
    assert_ne!(ta, tb, "distinct requests get distinct trace ids");
    // Error responses are traced too.
    let nf = request(addr, "GET", "/v1/nope", None);
    assert_eq!(nf.status, 404);
    assert!(nf.header("X-Dvf-Trace-Id").is_some());
    server.shutdown();
}

#[test]
fn trace_ids_are_deterministic_from_the_seed() {
    let config = ServerConfig {
        trace_seed: 1234,
        ..Default::default()
    };
    let server = Server::bind(config.clone()).expect("bind");
    let first = request(server.addr(), "GET", "/v1/healthz", None)
        .header("X-Dvf-Trace-Id")
        .expect("trace header")
        .to_owned();
    server.shutdown();
    // A fresh server with the same seed hands out the same first id.
    let server = Server::bind(config).expect("bind");
    let again = request(server.addr(), "GET", "/v1/healthz", None)
        .header("X-Dvf-Trace-Id")
        .expect("trace header")
        .to_owned();
    assert_eq!(first, again);
    assert_eq!(first, format!("{:016x}", dvf_obs::trace::trace_id(1234, 0)));
    server.shutdown();
}

#[test]
fn sweep_trace_resolves_to_a_consistent_timeline() {
    let server = boot();
    let addr = server.addr();
    let reply = request(addr, "POST", "/v1/sweep", Some(&sweep_body()));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace_id = reply
        .header("X-Dvf-Trace-Id")
        .expect("trace header")
        .to_owned();

    let detail = request(addr, "GET", &format!("/v1/debug/requests/{trace_id}"), None);
    assert_eq!(detail.status, 200, "{}", detail.body);
    let doc = detail.json();
    let rec = doc.get("request").expect("request object");
    assert_eq!(rec.get("id").unwrap().as_str(), Some(trace_id.as_str()));
    assert_eq!(rec.get("route").unwrap().as_str(), Some("POST /v1/sweep"));
    assert_eq!(rec.get("status").unwrap().as_u64(), Some(200));

    // Depth-0 phases partition the request: their micros sum to at most
    // the total (floor division only shrinks each term).
    let total_us = rec.get("total_us").unwrap().as_u64().expect("total_us");
    let phases = rec.get("phases").unwrap().as_arr().expect("phases array");
    assert!(!phases.is_empty(), "sweep must record phases");
    let top_level_sum: u64 = phases
        .iter()
        .filter(|p| p.get("depth").unwrap().as_u64() == Some(0))
        .map(|p| p.get("us").unwrap().as_u64().unwrap())
        .sum();
    assert!(
        top_level_sum <= total_us,
        "phase micros {top_level_sum} exceed total {total_us}"
    );
    // The handler's own phases are visible.
    let paths: Vec<&str> = phases
        .iter()
        .map(|p| p.get("path").unwrap().as_str().unwrap())
        .collect();
    assert!(paths.contains(&"parse"), "{paths:?}");
    assert!(paths.contains(&"sweep"), "{paths:?}");

    // The memo-cache deltas are attributed: 8 points, one resolve each.
    let counters = rec.get("counters").unwrap().as_arr().expect("counters");
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some(name))
            .and_then(|c| c.get("value").unwrap().as_u64())
    };
    let hits = counter("sweep.cache.hit").unwrap_or(0);
    let misses = counter("sweep.cache.miss").unwrap_or(0);
    assert!(
        hits + misses >= 8,
        "8 sweep points must touch the memo cache: hits={hits} misses={misses}"
    );
    server.shutdown();
}

#[test]
fn debug_requests_lists_and_filters() {
    let server = boot();
    let addr = server.addr();
    for _ in 0..3 {
        assert_eq!(request(addr, "GET", "/v1/healthz", None).status, 200);
    }
    let list = request(addr, "GET", "/v1/debug/requests?n=2", None);
    assert_eq!(list.status, 200);
    let doc = list.json();
    assert!(doc.get("recorded").unwrap().as_u64().unwrap() >= 3);
    let requests = doc.get("requests").unwrap().as_arr().unwrap();
    assert_eq!(requests.len(), 2, "n=2 caps the listing");
    // Newest first: seq strictly descends.
    let seqs: Vec<u64> = requests
        .iter()
        .map(|r| r.get("seq").unwrap().as_u64().unwrap())
        .collect();
    assert!(seqs[0] > seqs[1], "{seqs:?}");

    // An absurd min-latency filter excludes every healthz round-trip.
    let none = request(addr, "GET", "/v1/debug/requests?min_ms=3600000", None);
    let doc = none.json();
    assert_eq!(
        doc.get("requests").unwrap().as_arr().unwrap().len(),
        0,
        "{}",
        none.body
    );

    // Bad query parameters are a 422, not a panic.
    let bad = request(addr, "GET", "/v1/debug/requests?n=zero", None);
    assert_eq!(bad.status, 422);
    let both = request(addr, "GET", "/v1/debug/requests?min_us=1&min_ms=1", None);
    assert_eq!(both.status, 422);

    // Unknown trace ids are 404, malformed ones 422.
    let missing = request(addr, "GET", "/v1/debug/requests/0000000000000000", None);
    assert_eq!(missing.status, 404);
    let garbage = request(addr, "GET", "/v1/debug/requests/not-hex", None);
    assert_eq!(garbage.status, 422);
    server.shutdown();
}

#[test]
fn prometheus_metrics_render_with_serve_gauges() {
    // The latency histogram only records when obs is globally enabled;
    // flip it on for this test (process-global, but no serve test
    // asserts the disabled state).
    dvf_obs::set_enabled(true);
    let server = boot();
    let addr = server.addr();
    assert_eq!(request(addr, "GET", "/v1/healthz", None).status, 200);

    let prom = request(addr, "GET", "/v1/metrics?format=prometheus", None);
    assert_eq!(prom.status, 200);
    assert_eq!(
        prom.header("Content-Type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let body = &prom.body;
    assert!(body.contains("dvf_serve_latency_us_bucket{le=\""), "{body}");
    assert!(
        body.contains("dvf_serve_latency_us_bucket{le=\"+Inf\"}"),
        "{body}"
    );
    assert!(body.contains("# TYPE dvf_serve_sessions gauge"), "{body}");
    assert!(body.contains("dvf_serve_queue_depth "), "{body}");
    assert!(body.contains("dvf_serve_draining 0"), "{body}");
    assert!(body.contains("dvf_serve_uptime_seconds "), "{body}");
    assert!(body.contains("dvf_serve_workers "), "{body}");
    assert!(body.contains("dvf_serve_queue_capacity "), "{body}");
    assert!(body.contains("dvf_serve_max_connections "), "{body}");
    assert!(body.contains("dvf_serve_open_connections "), "{body}");
    assert!(body.contains("dvf_serve_max_batch_entries "), "{body}");
    assert!(body.contains("dvf_serve_max_sweep_points "), "{body}");
    assert!(body.contains("dvf_build_info{version=\""), "{body}");

    // The JSON rendering is still the default.
    let json = request(addr, "GET", "/v1/metrics", None);
    assert_eq!(json.status, 200);
    let doc = json.json();
    assert!(doc.get("obs").is_some());
    assert!(doc.get("uptime_seconds").unwrap().as_u64().is_some());
    let serve = doc.get("serve").expect("serve object");
    assert!(serve.get("workers").unwrap().as_u64().is_some());
    assert!(serve.get("queue_capacity").unwrap().as_u64().is_some());
    assert!(serve.get("max_connections").unwrap().as_u64().is_some());
    assert!(serve.get("open_connections").unwrap().as_u64().is_some());
    assert_eq!(
        serve.get("max_batch_entries").unwrap().as_u64(),
        Some(dvf_serve::DEFAULT_MAX_BATCH_ENTRIES as u64)
    );
    assert_eq!(
        serve.get("max_sweep_points").unwrap().as_u64(),
        Some(dvf_serve::api::MAX_SWEEP_POINTS as u64)
    );
    let build = doc.get("build").expect("build object");
    assert_eq!(
        build.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(build.get("git").unwrap().as_str().is_some());

    // Unknown formats are rejected.
    let bad = request(addr, "GET", "/v1/metrics?format=xml", None);
    assert_eq!(bad.status, 422);
    server.shutdown();
    dvf_obs::set_enabled(false);
}

#[test]
fn queue_wait_is_a_traced_phase_on_the_event_loop() {
    use common::{connect, read_reply, send};
    use std::io::BufReader;

    // One worker and a slow occupant: the next request waits in the
    // compute queue, and that wait must surface as a depth-0 `queue`
    // phase in its trace even though I/O and compute ran on different
    // threads (the trace is begun backdated at the handoff).
    let server = Server::bind(ServerConfig {
        workers: 1,
        slow_route: true,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    let mut busy = connect(addr);
    send(&mut busy, "POST", "/v1/_slow", Some(r#"{"ms":400}"#), false);
    std::thread::sleep(std::time::Duration::from_millis(100));

    let queued = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(queued.status, 200);
    let trace_id = queued.header("X-Dvf-Trace-Id").expect("trace header");

    let detail = request(addr, "GET", &format!("/v1/debug/requests/{trace_id}"), None);
    assert_eq!(detail.status, 200, "{}", detail.body);
    let doc = detail.json();
    let rec = doc.get("request").expect("request object");
    let total_us = rec.get("total_us").unwrap().as_u64().expect("total_us");
    let phases = rec.get("phases").unwrap().as_arr().expect("phases");
    let queue_us = phases
        .iter()
        .find(|p| p.get("path").unwrap().as_str() == Some("queue"))
        .and_then(|p| {
            assert_eq!(p.get("depth").unwrap().as_u64(), Some(0));
            p.get("us").unwrap().as_u64()
        })
        .expect("queue phase in trace");
    // The occupant held the worker ~300ms past our arrival; allow wide
    // slack for scheduling, but the wait must be clearly visible and
    // covered by the total.
    assert!(
        queue_us >= 100_000,
        "queue wait should reflect the backlog, got {queue_us}us"
    );
    assert!(
        queue_us <= total_us,
        "queue ({queue_us}us) must be covered by the total ({total_us}us)"
    );

    let reply = read_reply(&mut BufReader::new(busy.try_clone().unwrap()));
    assert_eq!(reply.status, 200);
    drop(busy);
    server.shutdown();
}

#[test]
fn healthz_reports_build_and_monotonic_uptime() {
    let server = boot();
    let doc = request(server.addr(), "GET", "/v1/healthz", None).json();
    assert!(doc.get("uptime_seconds").unwrap().as_u64().is_some());
    let build = doc.get("build").expect("build object");
    assert_eq!(
        build.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    server.shutdown();
}

#[test]
fn concurrent_requests_get_unique_trace_ids() {
    let server = boot();
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                (0..10)
                    .map(|_| {
                        request(addr, "GET", "/v1/healthz", None)
                            .header("X-Dvf-Trace-Id")
                            .expect("trace header")
                            .to_owned()
                    })
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    let mut ids: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(ids.len(), 80);
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 80, "trace ids must be unique");
    server.shutdown();
}

#[test]
fn flight_recorder_honors_configured_capacity() {
    let server = Server::bind(ServerConfig {
        flight_capacity: 8,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();
    for _ in 0..20 {
        assert_eq!(request(addr, "GET", "/v1/healthz", None).status, 200);
    }
    let list = request(addr, "GET", "/v1/debug/requests?n=1000", None);
    let doc = list.json();
    assert_eq!(doc.get("capacity").unwrap().as_u64(), Some(8));
    let requests = doc.get("requests").unwrap().as_arr().unwrap();
    assert!(requests.len() <= 8, "{}", requests.len());
    server.shutdown();
}
