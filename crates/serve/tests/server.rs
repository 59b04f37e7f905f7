//! End-to-end tests against a live server on an ephemeral port: the full
//! parse → register → dvf → sweep workflow, every rejection path the API
//! promises (400/404/405/413/422/431/503), panic isolation, keep-alive,
//! and graceful shutdown.

mod common;

use common::{connect, json_str, read_reply, request, send, MODEL};
use dvf_serve::jsonval::Json;
use dvf_serve::{Server, ServerConfig};
use std::io::{BufReader, Read, Write};
use std::net::Shutdown;
use std::time::Duration;

fn spawn_default() -> Server {
    Server::bind(ServerConfig::default()).expect("bind")
}

#[test]
fn healthz_reports_schema_and_uptime() {
    let server = spawn_default();
    let reply = request(server.addr(), "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);
    let v = reply.json();
    assert_eq!(v.get("schema").unwrap().as_str(), Some("dvf-serve/1"));
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert!(v.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
    server.shutdown();
}

#[test]
fn parse_endpoint_reports_structured_diagnostics() {
    let server = spawn_default();

    // A valid program parses cleanly.
    let body = format!(r#"{{"source":{}}}"#, json_str(MODEL));
    let reply = request(server.addr(), "POST", "/v1/parse", Some(&body));
    assert_eq!(reply.status, 200);
    let v = reply.json();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("machines").unwrap().as_u64(), Some(1));
    assert_eq!(v.get("models").unwrap().as_u64(), Some(1));
    let params = v.get("params").unwrap().as_arr().unwrap();
    assert_eq!(params.len(), 1);
    assert_eq!(params[0].as_str(), Some("n"));

    // A broken one comes back with code/line/col — same renderer as
    // `dvf check --json`.
    let body = r#"{"source":"model vm {"}"#;
    let reply = request(server.addr(), "POST", "/v1/parse", Some(body));
    assert_eq!(reply.status, 200);
    let v = reply.json();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    let diags = v.get("diagnostics").unwrap().as_arr().unwrap();
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert!(d.get("code").unwrap().as_str().is_some(), "{}", reply.body);
    assert!(d.get("line").unwrap().as_u64().is_some());
    assert!(d.get("span").unwrap().get("start").is_some());

    server.shutdown();
}

#[test]
fn register_dvf_sweep_workflow_with_cache_hits() {
    let server = spawn_default();
    let addr = server.addr();

    // Register.
    let body = format!(r#"{{"name":"vm","source":{}}}"#, json_str(MODEL));
    let reply = request(addr, "POST", "/v1/sessions", Some(&body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.json().get("ok").unwrap().as_bool(), Some(true));

    // The session shows up in the listing.
    let reply = request(addr, "GET", "/v1/sessions", None);
    let sessions = reply.json();
    let sessions = sessions.get("sessions").unwrap().as_arr().unwrap();
    assert!(sessions
        .iter()
        .any(|s| s.get("name").unwrap().as_str() == Some("vm")));

    // Evaluate against the session; cross-check with a direct evaluation.
    let reply = request(addr, "POST", "/v1/dvf", Some(r#"{"session":"vm"}"#));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let v = reply.json();
    let served_dvf = v.get("dvf_app").unwrap().as_f64().unwrap();
    let expected = dvf_core::workflow::DvfWorkflow::parse(MODEL)
        .unwrap()
        .evaluate(&[])
        .unwrap();
    assert!((served_dvf - expected.dvf_app()).abs() <= 1e-12 * expected.dvf_app().abs());
    assert_eq!(v.get("structures").unwrap().as_arr().unwrap().len(), 2);

    // Parameter overrides flow through.
    let reply = request(
        addr,
        "POST",
        "/v1/dvf",
        Some(r#"{"session":"vm","params":{"n":20000}}"#),
    );
    let big = reply.json().get("dvf_app").unwrap().as_f64().unwrap();
    assert!(big > served_dvf);

    // Sweep twice: the second identical grid must be served from the
    // process-wide memo cache (hits surfaced in the response).
    let sweep = r#"{"session":"vm","param":"n","lo":100,"hi":5000,"steps":6}"#;
    let first = request(addr, "POST", "/v1/sweep", Some(sweep));
    assert_eq!(first.status, 200, "{}", first.body);
    let fv = first.json();
    assert_eq!(fv.get("points").unwrap().as_u64(), Some(6));
    assert_eq!(fv.get("failed").unwrap().as_u64(), Some(0));
    assert_eq!(fv.get("rows").unwrap().as_arr().unwrap().len(), 6);

    let second = request(addr, "POST", "/v1/sweep", Some(sweep));
    let sv = second.json();
    let hits = sv
        .get("cache")
        .unwrap()
        .get("sweep.cache.hit")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(hits > 0, "second sweep saw no cache hits: {}", second.body);
    // Bit-identical results either way.
    assert_eq!(
        fv.get("rows").unwrap().as_arr().unwrap().len(),
        sv.get("rows").unwrap().as_arr().unwrap().len()
    );

    server.shutdown();
}

#[test]
fn unknown_swept_param_is_422() {
    let server = spawn_default();
    let body = format!(
        r#"{{"source":{},"param":"typo","lo":1,"hi":2,"steps":3}}"#,
        json_str(MODEL)
    );
    let reply = request(server.addr(), "POST", "/v1/sweep", Some(&body));
    assert_eq!(reply.status, 422, "{}", reply.body);
    let v = reply.json();
    let err = v.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_str(), Some("unknown_param"));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("`typo`"));
    server.shutdown();
}

/// A chain of `links` kernels, each calling the previous one twice:
/// expanded, 2^links accesses.
fn doubling_chain(links: usize) -> String {
    let mut src = String::from(
        "machine m { cache { associativity = 4 sets = 64 line = 32 } }\n\
         model app { param n = 1\n data A { size = 1024 element = 8 }\n\
         kernel k0 { access A as streaming() }\n",
    );
    for i in 1..=links {
        src.push_str(&format!(
            "kernel k{i} {{ call k{p} call k{p} }}\n",
            p = i - 1
        ));
    }
    src.push('}');
    src
}

#[test]
fn call_expansion_past_the_cap_is_a_fast_422() {
    let server = spawn_default();
    let source = json_str(&doubling_chain(40));
    let start = std::time::Instant::now();
    let reply = request(
        server.addr(),
        "POST",
        "/v1/dvf",
        Some(&format!(r#"{{"source":{source}}}"#)),
    );
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert_eq!(error_code(&reply), "language");
    assert!(reply.body.contains("expand to more than"), "{}", reply.body);
    // Every sweep point fails the same way, just as fast.
    let reply = request(
        server.addr(),
        "POST",
        "/v1/sweep",
        Some(&format!(
            r#"{{"source":{source},"param":"n","lo":1,"hi":8,"steps":8}}"#
        )),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.json().get("failed").unwrap().as_u64(), Some(8));
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "{:?}",
        start.elapsed()
    );
    server.shutdown();
}

#[test]
fn param_count_past_the_cap_is_a_fast_422() {
    let server = spawn_default();
    // 20 000 chained params (~540 KB): every one re-scans the bindings
    // before it, so resolving them all once took most of a second.
    let mut program = String::from("param p0 = 1\n");
    for i in 1..20_000 {
        program.push_str(&format!("param p{i} = p{} + 1\n", i - 1));
    }
    program.push_str(MODEL);
    let source = json_str(&program);
    let start = std::time::Instant::now();
    for (path, extra) in [
        ("/v1/dvf", ""),
        ("/v1/sweep", r#","param":"n","lo":100,"hi":800,"steps":8"#),
    ] {
        let body = format!(r#"{{"source":{source}{extra}}}"#);
        let reply = request(server.addr(), "POST", path, Some(&body));
        assert_eq!(reply.status, 422, "{path}: {}", reply.body);
        assert_eq!(error_code(&reply), "bad_source", "{path}");
        assert!(reply.body.contains("at most 256"), "{}", reply.body);
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "{:?}",
        start.elapsed()
    );
    server.shutdown();
}

#[test]
fn data_and_kernel_counts_past_the_cap_are_a_fast_422() {
    let server = spawn_default();
    let datas: String = (0..=256)
        .map(|i| format!("  data d{i} {{ size = 8 element = 8 }}\n"))
        .collect();
    let kernels: String = (0..=256)
        .map(|i| format!("  kernel k{i} {{ flops = 1 }}\n"))
        .collect();
    for (decls, what) in [(datas, "`data` structures"), (kernels, "`kernel`s")] {
        let source = json_str(&format!(
            "machine m {{ cache {{ associativity = 4 sets = 64 line = 32 }} }}\n\
             model app {{\n{decls}}}"
        ));
        let start = std::time::Instant::now();
        let body = format!(r#"{{"source":{source}}}"#);
        let reply = request(server.addr(), "POST", "/v1/dvf", Some(&body));
        assert_eq!(reply.status, 422, "{what}: {}", reply.body);
        assert_eq!(error_code(&reply), "bad_source", "{what}");
        assert!(
            reply.body.contains(&format!("at most 256 {what}")),
            "{}",
            reply.body
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
    }
    server.shutdown();
}

#[test]
fn malformed_json_is_400() {
    let server = spawn_default();
    let reply = request(server.addr(), "POST", "/v1/parse", Some(r#"{"source": "#));
    assert_eq!(reply.status, 400);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("bad_json")
    );
    server.shutdown();
}

#[test]
fn oversized_body_is_413() {
    let server = Server::bind(ServerConfig {
        max_body_bytes: 256,
        ..Default::default()
    })
    .expect("bind");
    let big = format!(r#"{{"source":"{}"}}"#, "x".repeat(1000));
    let reply = request(server.addr(), "POST", "/v1/parse", Some(&big));
    assert_eq!(reply.status, 413);
    server.shutdown();
}

#[test]
fn unknown_route_is_404_and_wrong_method_is_405() {
    let server = spawn_default();
    let reply = request(server.addr(), "GET", "/v1/nope", None);
    assert_eq!(reply.status, 404);

    let reply = request(server.addr(), "GET", "/v1/parse", None);
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("Allow"), Some("POST"));
    server.shutdown();
}

#[test]
fn missing_session_is_404() {
    let server = spawn_default();
    let reply = request(
        server.addr(),
        "POST",
        "/v1/dvf",
        Some(r#"{"session":"ghost"}"#),
    );
    assert_eq!(reply.status, 404);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("no_such_session")
    );
    server.shutdown();
}

#[test]
fn oversized_header_block_in_one_write_is_431() {
    // The whole block, terminator included, lands in a single read: the
    // 16 KiB cap must hold even though the parser sees a complete header.
    let server = spawn_default();
    let mut stream = connect(server.addr());
    let pad = "a".repeat(32 * 1024);
    let raw = format!("GET /v1/healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {pad}\r\n\r\n");
    stream.write_all(raw.as_bytes()).unwrap();
    let reply = read_reply(&mut BufReader::new(stream));
    assert_eq!(reply.status, 431, "{}", reply.body);
    assert_eq!(error_code(&reply), "headers_too_large");
    server.shutdown();
}

#[test]
fn body_cut_short_by_eof_is_400() {
    // The header promises 10 body bytes, 3 arrive, then the client shuts
    // its write half: the server answers before closing.
    let server = spawn_default();
    let mut stream = connect(server.addr());
    stream
        .write_all(b"POST /v1/parse HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let reply = read_reply(&mut BufReader::new(stream));
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert_eq!(error_code(&reply), "truncated_body");
    server.shutdown();
}

#[test]
fn eof_before_any_request_closes_quietly() {
    let server = spawn_default();
    let mut stream = connect(server.addr());
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    assert!(out.is_empty(), "{}", String::from_utf8_lossy(&out));
    server.shutdown();
}

fn error_code(reply: &common::Reply) -> String {
    let v = reply.json();
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .unwrap_or_default()
        .to_owned()
}

#[test]
fn handler_panic_is_500_and_server_survives() {
    let server = Server::bind(ServerConfig {
        panic_route: true,
        ..Default::default()
    })
    .expect("bind");
    let reply = request(server.addr(), "POST", "/v1/_panic", Some("{}"));
    assert_eq!(reply.status, 500);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("handler_panic")
    );
    // The worker lives: the next request is served normally.
    let reply = request(server.addr(), "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);
    server.shutdown();
}

#[test]
fn panic_route_is_absent_by_default() {
    let server = spawn_default();
    let reply = request(server.addr(), "POST", "/v1/_panic", Some("{}"));
    assert_eq!(reply.status, 404);
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let server = spawn_default();
    let mut stream = connect(server.addr());
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..3 {
        send(&mut stream, "GET", "/v1/healthz", None, false);
        let reply = read_reply(&mut reader);
        assert_eq!(reply.status, 200);
    }
    // An explicit close is honored.
    send(&mut stream, "GET", "/v1/healthz", None, true);
    let reply = read_reply(&mut reader);
    assert_eq!(reply.status, 200);
    server.shutdown();
}

#[test]
fn session_delete_and_lru_eviction() {
    let server = Server::bind(ServerConfig {
        max_sessions: 2,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();
    for name in ["a", "b", "c"] {
        let body = format!(r#"{{"name":"{name}","source":{}}}"#, json_str(MODEL));
        let reply = request(addr, "POST", "/v1/sessions", Some(&body));
        assert_eq!(reply.status, 200, "{}", reply.body);
    }
    // Capacity 2: registering `c` evicted the least recently used (`a`).
    let reply = request(addr, "POST", "/v1/dvf", Some(r#"{"session":"a"}"#));
    assert_eq!(reply.status, 404);
    let reply = request(addr, "POST", "/v1/dvf", Some(r#"{"session":"c"}"#));
    assert_eq!(reply.status, 200);

    // Explicit delete.
    let reply = request(addr, "DELETE", "/v1/sessions/c", None);
    assert_eq!(reply.status, 200);
    let reply = request(addr, "DELETE", "/v1/sessions/c", None);
    assert_eq!(reply.status, 404);
    server.shutdown();
}

#[test]
fn metrics_exposes_obs_and_cache_sections() {
    let server = spawn_default();
    let reply = request(server.addr(), "GET", "/v1/metrics", None);
    assert_eq!(reply.status, 200);
    let v = reply.json();
    assert_eq!(v.get("schema").unwrap().as_str(), Some("dvf-serve/1"));
    // The embedded obs document keeps its own schema tag.
    assert_eq!(
        v.get("obs").unwrap().get("schema").unwrap().as_str(),
        Some("dvf-obs/1")
    );
    assert!(v
        .get("cache")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_u64()
        .is_some());
    // The memo lock-stripe count is surfaced (a constant 16).
    let stripes = v
        .get("cache")
        .unwrap()
        .get("stripes")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(stripes, 16);
    let prom = request(server.addr(), "GET", "/v1/metrics?format=prometheus", None);
    assert_eq!(prom.status, 200);
    assert!(
        prom.body.contains(&format!("dvf_memo_stripes {stripes}")),
        "{}",
        prom.body
    );
    server.shutdown();
}

#[test]
fn dvf_hierarchy_option_splits_exposures_per_storage() {
    let server = spawn_default();
    let addr = server.addr();

    // Two-level stack: quarter-size L1 over the machine's 8 KiB cache.
    let body = format!(
        r#"{{"source":{},"hierarchy":[
            {{"assoc":4,"sets":16,"line":32}},
            {{"assoc":4,"sets":64,"line":32}}]}}"#,
        json_str(MODEL)
    );
    let reply = request(addr, "POST", "/v1/dvf", Some(&body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let v = reply.json();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    let storages: Vec<_> = v
        .get("storages")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(storages, ["L2", "memory"]);
    // Every structure reports one exposure per storage, non-increasing
    // down the stack (the bigger level filters at least as much).
    for s in v.get("structures").unwrap().as_arr().unwrap() {
        let e = s.get("exposures").unwrap();
        let l2 = e.get("L2").unwrap().as_f64().unwrap();
        let mem = e.get("memory").unwrap().as_f64().unwrap();
        assert!(mem <= l2, "{}", reply.body);
    }
    // Protect rows: none, L2, memory — protection can only help.
    let rows = v.get("protect").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 3);
    let none = rows[0].get("dvf_app").unwrap().as_f64().unwrap();
    assert_eq!(rows[0].get("protected").unwrap().as_str(), Some("none"));
    for row in &rows[1..] {
        assert!(row.get("dvf_app").unwrap().as_f64().unwrap() <= none);
    }

    // An inverted stack is a structured 422, not a worker panic: the
    // hierarchy constructor returns Result and maps onto `bad_cache`.
    let body = format!(
        r#"{{"source":{},"hierarchy":[
            {{"assoc":8,"sets":512,"line":32}},
            {{"assoc":4,"sets":16,"line":32}}]}}"#,
        json_str(MODEL)
    );
    let reply = request(addr, "POST", "/v1/dvf", Some(&body));
    assert_eq!(reply.status, 422, "{}", reply.body);
    let v = reply.json();
    let err = v.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_str(), Some("bad_cache"));
    assert!(
        err.get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("smaller than the level above"),
        "{}",
        reply.body
    );

    // So is one set of 1-byte lines, whose tag would be the whole
    // address, as a hierarchy level or as the machine's cache.
    let one_set_of_bytes = MODEL.replace("sets = 64  line = 32", "sets = 1  line = 1");
    for body in [
        format!(
            r#"{{"source":{},"hierarchy":[{{"assoc":2,"sets":1,"line":1}}]}}"#,
            json_str(MODEL)
        ),
        format!(r#"{{"source":{}}}"#, json_str(&one_set_of_bytes)),
    ] {
        let reply = request(addr, "POST", "/v1/dvf", Some(&body));
        assert_eq!(reply.status, 422, "{}", reply.body);
        let v = reply.json();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("bad_cache"));
        assert!(reply.body.contains("1-byte lines"), "{}", reply.body);
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_closes_the_listener() {
    let server = spawn_default();
    let addr = server.addr();
    let reply = request(addr, "GET", "/v1/healthz", None);
    assert_eq!(reply.status, 200);
    server.shutdown();
    // All threads joined, listener closed: new connections are refused
    // (or reset before a response arrives).
    match std::net::TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = write!(s, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = String::new();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let n = s.read_to_string(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "server answered after shutdown: {buf}");
        }
    }
}

#[test]
fn inline_source_requests_need_no_session() {
    let server = spawn_default();
    let body = format!(r#"{{"source":{}}}"#, json_str(MODEL));
    let reply = request(server.addr(), "POST", "/v1/dvf", Some(&body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.json().get("dvf_app").unwrap().as_f64().unwrap() > 0.0);

    // ... but giving both targets is ambiguous.
    let body = format!(r#"{{"source":{},"session":"vm"}}"#, json_str(MODEL));
    let reply = request(server.addr(), "POST", "/v1/dvf", Some(&body));
    assert_eq!(reply.status, 422);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("ambiguous_target")
    );
    server.shutdown();
}

/// Cache geometry in a request body has no upper bound, so a cold random
/// pattern's cost must not grow with it: a 1 GiB cache holding
/// m = 2³⁰ one-byte elements of N = 2³² answers well inside the 10 s
/// client timeout that `connect` sets.
#[test]
fn cold_random_pattern_on_a_huge_cache_answers_promptly() {
    const HUGE: &str = r#"
machine gib {
  cache { associativity = 16  sets = 1048576  line = 64 }
  memory { fit = 5000 }
  core { flops = 1e9  bandwidth = 4e9 }
}
model cold {
  data X { size = 4294967296  element = 1 }
  kernel main {
    flops = 1e9
    access X as random(k = 2147483648, iters = 1)
  }
}
"#;
    let server = spawn_default();
    let body = format!(r#"{{"source":{}}}"#, json_str(HUGE));
    let started = std::time::Instant::now();
    let reply = request(server.addr(), "POST", "/v1/dvf", Some(&body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.json().get("dvf_app").unwrap().as_f64().unwrap() > 0.0);
    assert!(started.elapsed() < Duration::from_secs(10));
    server.shutdown();
}

#[test]
fn sweep_grid_validation() {
    let server = spawn_default();
    let addr = server.addr();
    let src = json_str(MODEL);

    // steps < 2
    let body = format!(r#"{{"source":{src},"param":"n","lo":1,"hi":2,"steps":1}}"#);
    assert_eq!(request(addr, "POST", "/v1/sweep", Some(&body)).status, 422);

    // absurd grid size
    let body = format!(r#"{{"source":{src},"param":"n","lo":1,"hi":2,"steps":1000000}}"#);
    let reply = request(addr, "POST", "/v1/sweep", Some(&body));
    assert_eq!(reply.status, 422);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("too_many_points")
    );

    // explicit value list works
    let body = format!(r#"{{"source":{src},"param":"n","values":[100,200,300]}}"#);
    let reply = request(addr, "POST", "/v1/sweep", Some(&body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.json().get("points").unwrap().as_u64(), Some(3));

    server.shutdown();
}

#[test]
fn response_bodies_parse_with_serde_like_reader() {
    // Sanity net: every 2xx/4xx body in this suite went through
    // `Json::parse` already; here, pin the envelope shape once.
    let server = spawn_default();
    let reply = request(server.addr(), "GET", "/v1/healthz", None);
    let v = reply.json();
    assert!(matches!(v, Json::Obj(_)));
    server.shutdown();
}
