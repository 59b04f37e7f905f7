//! `POST /v1/batch`: many dvf/sweep questions in one round-trip, with
//! per-entry error isolation and byte-deterministic responses.

mod common;

use common::{json_str, request, MODEL};
use dvf_serve::{Server, ServerConfig};
use std::io::{BufReader, Write};

fn server() -> Server {
    Server::bind(ServerConfig::default()).expect("bind")
}

#[test]
fn empty_entries_array_is_a_valid_batch() {
    let server = server();
    let reply = request(
        server.addr(),
        "POST",
        "/v1/batch",
        Some(r#"{"entries":[]}"#),
    );
    assert_eq!(reply.status, 200);
    let doc = reply.json();
    assert_eq!(doc.get("entries").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("failed_entries").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("results").unwrap().as_arr().unwrap().len(), 0);
    server.shutdown();
}

#[test]
fn missing_or_oversized_entries_fail_whole_request() {
    let server = server();
    let reply = request(server.addr(), "POST", "/v1/batch", Some("{}"));
    assert_eq!(reply.status, 422);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("missing_field")
    );

    // 257 entries: the cap check fires before any entry is validated.
    let entries: Vec<String> = (0..257).map(|_| "{}".to_owned()).collect();
    let body = format!(r#"{{"entries":[{}]}}"#, entries.join(","));
    let reply = request(server.addr(), "POST", "/v1/batch", Some(&body));
    assert_eq!(reply.status, 422);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("too_many_entries")
    );
    // The rejection body names the active cap, so clients can right-size
    // without a second round-trip.
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("max_entries")
            .unwrap()
            .as_u64(),
        Some(dvf_serve::DEFAULT_MAX_BATCH_ENTRIES as u64)
    );
    server.shutdown();
}

#[test]
fn batch_entry_cap_is_configurable() {
    let server = Server::bind(ServerConfig {
        max_batch_entries: 3,
        ..ServerConfig::default()
    })
    .expect("bind");

    // Three empty entries are within the lowered cap (they fail
    // individually, but the request as a whole is accepted)...
    let reply = request(
        server.addr(),
        "POST",
        "/v1/batch",
        Some(r#"{"entries":[{},{},{}]}"#),
    );
    assert_eq!(reply.status, 200);

    // ...four are not, and the 422 reports the configured cap.
    let reply = request(
        server.addr(),
        "POST",
        "/v1/batch",
        Some(r#"{"entries":[{},{},{},{}]}"#),
    );
    assert_eq!(reply.status, 422);
    let error = reply.json();
    let error = error.get("error").unwrap();
    assert_eq!(
        error.get("code").unwrap().as_str(),
        Some("too_many_entries")
    );
    assert_eq!(error.get("max_entries").unwrap().as_u64(), Some(3));

    // The active cap is visible on /v1/metrics for capacity planning.
    let metrics = request(server.addr(), "GET", "/v1/metrics", None);
    assert_eq!(
        metrics
            .json()
            .get("serve")
            .unwrap()
            .get("max_batch_entries")
            .unwrap()
            .as_u64(),
        Some(3)
    );
    server.shutdown();
}

#[test]
fn single_dvf_entry_is_bit_identical_to_v1_dvf() {
    let server = server();
    let body = format!(r#"{{"source":{}}}"#, json_str(MODEL));
    let direct = request(server.addr(), "POST", "/v1/dvf", Some(&body));
    assert_eq!(direct.status, 200);

    let batch_body = format!(r#"{{"entries":[{{"source":{}}}]}}"#, json_str(MODEL));
    let batched = request(server.addr(), "POST", "/v1/batch", Some(&batch_body));
    assert_eq!(batched.status, 200);
    let doc = batched.json();
    assert_eq!(doc.get("failed_entries").unwrap().as_u64(), Some(0));

    // Both bodies carry the same serialization from `"ok":true` onward
    // (the direct response prefixes a schema, the entry a kind) — the
    // entry must be byte-for-byte the same evaluation, not a re-rendering
    // that happens to be numerically close.
    let entry_raw = {
        let results_at = batched.body.find(r#""results":["#).expect("results array");
        let tail = &batched.body[results_at..];
        let from_ok = tail.find(r#""ok":true"#).expect("entry ok");
        // Entry object ends just before the closing `]}` of the response.
        &tail[from_ok..tail.len() - 2].trim_end_matches('}')
    };
    let direct_tail = {
        let from_ok = direct.body.find(r#""ok":true"#).expect("direct ok");
        direct.body[from_ok..].trim_end_matches('}')
    };
    assert_eq!(
        entry_raw, &direct_tail,
        "batch entry diverged from /v1/dvf serialization"
    );
    server.shutdown();
}

#[test]
fn one_bad_entry_fails_alone_not_the_batch() {
    let server = server();
    let body = format!(
        r#"{{"entries":[
            {{"source":{model}}},
            {{"source":"broken ]["}},
            {{"source":{model},"param":"n","lo":100,"hi":300,"steps":3}},
            {{"kind":"nope","source":{model}}},
            {{"kind":"dvf","source":{model},"param":"n"}}
        ]}}"#,
        model = json_str(MODEL)
    );
    let reply = request(server.addr(), "POST", "/v1/batch", Some(&body));
    assert_eq!(reply.status, 200, "bad entries must not fail the batch");
    let doc = reply.json();
    assert_eq!(doc.get("entries").unwrap().as_u64(), Some(5));
    assert_eq!(doc.get("failed_entries").unwrap().as_u64(), Some(3));
    let results = doc.get("results").unwrap().as_arr().unwrap();

    assert_eq!(results[0].get("kind").unwrap().as_str(), Some("dvf"));
    assert_eq!(results[0].get("ok").unwrap().as_bool(), Some(true));

    let err = |i: usize| {
        results[i]
            .get("error")
            .unwrap_or_else(|| panic!("entry {i} should be an error object"))
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned()
    };
    assert_eq!(err(1), "bad_source");

    // `param` present, no explicit kind: inferred as a sweep.
    assert_eq!(results[2].get("kind").unwrap().as_str(), Some("sweep"));
    assert_eq!(results[2].get("points").unwrap().as_u64(), Some(3));
    assert_eq!(results[2].get("failed").unwrap().as_u64(), Some(0));

    assert_eq!(err(3), "bad_kind");
    assert_eq!(err(4), "bad_entry");
    server.shutdown();
}

#[test]
fn batch_responses_are_bit_identical_under_concurrency() {
    // The point of this test: entry-order rendering plus the striped memo
    // cache must give byte-identical batch responses no matter how many
    // threads hammer the server at once or how warm the cache is.
    let server = Server::bind(ServerConfig {
        workers: 4,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Register a session so every request shares one workflow (and the
    // sweep entries share memoized pattern models across threads).
    let body = format!(r#"{{"name":"batchdet","source":{}}}"#, json_str(MODEL));
    let reply = request(addr, "POST", "/v1/sessions", Some(&body));
    assert_eq!(reply.status, 200);

    let batch = r#"{"entries":[
        {"session":"batchdet"},
        {"session":"batchdet","param":"n","lo":50,"hi":800,"steps":16},
        {"session":"batchdet","params":{"n":512}},
        {"session":"batchdet","param":"n","values":[100,200,300,400]}
    ]}"#;

    let reference = request(addr, "POST", "/v1/batch", Some(batch));
    assert_eq!(reference.status, 200);

    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    for _ in 0..ROUNDS {
                        let reply = request(addr, "POST", "/v1/batch", Some(batch));
                        assert_eq!(reply.status, 200);
                        seen.push(reply.body);
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("batch thread"))
            .collect()
    });
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(
            body, &reference.body,
            "batch response {i} diverged from the cold-cache reference"
        );
    }
    server.shutdown();
}

#[test]
fn batch_is_cheaper_than_sequential_round_trips() {
    // The endpoint's reason to exist: N questions in one round-trip must
    // beat N sequential HTTP round-trips on one connection. Generous
    // margin (1.5x) keeps this meaningful but not flaky on slow CI.
    use common::{read_reply, send};
    let server = server();
    let addr = server.addr();
    let body = format!(r#"{{"name":"batchperf","source":{}}}"#, json_str(MODEL));
    assert_eq!(
        request(addr, "POST", "/v1/sessions", Some(&body)).status,
        200
    );

    const N: usize = 64;
    // Warm up both paths (cache, connection establishment noise).
    let entries: Vec<String> = (0..N)
        .map(|i| format!(r#"{{"session":"batchperf","params":{{"n":{}}}}}"#, 100 + i))
        .collect();
    let batch_body = format!(r#"{{"entries":[{}]}}"#, entries.join(","));
    assert_eq!(
        request(addr, "POST", "/v1/batch", Some(&batch_body)).status,
        200
    );

    // Min-of-3 on both sides: scheduler noise must not decide this.
    let mut sequential = std::time::Duration::MAX;
    for _ in 0..3 {
        let mut conn = common::connect(addr);
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let started = std::time::Instant::now();
        for i in 0..N {
            let body = format!(r#"{{"session":"batchperf","params":{{"n":{}}}}}"#, 100 + i);
            send(&mut conn, "POST", "/v1/dvf", Some(&body), false);
            assert_eq!(read_reply(&mut reader).status, 200);
        }
        sequential = sequential.min(started.elapsed());
        conn.flush().unwrap();
    }

    let mut batched = std::time::Duration::MAX;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let reply = request(addr, "POST", "/v1/batch", Some(&batch_body));
        batched = batched.min(started.elapsed());
        assert_eq!(reply.status, 200);
        assert_eq!(
            reply.json().get("failed_entries").unwrap().as_u64(),
            Some(0)
        );
    }

    assert!(
        batched < sequential,
        "one batch ({batched:?}) should beat {N} sequential round-trips ({sequential:?})"
    );
    server.shutdown();
}

/// `flops = 1e307 * n` overflows the modeled time to infinity at
/// `n = 200`. `/v1/dvf` and a batch dvf entry spell the non-finite time
/// and DVFs as a sweep row does, not as `null`.
#[test]
fn non_finite_report_values_are_spelled_not_null() {
    let server = server();
    let model = json_str(&MODEL.replace("flops = 2 * n", "flops = 1e307 * n"));
    let dvf_body = format!(r#"{{"source":{model},"params":{{"n":200}}}}"#);
    let direct = request(server.addr(), "POST", "/v1/dvf", Some(&dvf_body));
    assert_eq!(direct.status, 200, "{}", direct.body);
    let batch_body = format!(r#"{{"entries":[{dvf_body}]}}"#);
    let batched = request(server.addr(), "POST", "/v1/batch", Some(&batch_body));
    assert_eq!(batched.status, 200, "{}", batched.body);
    let entry = batched.json().get("results").unwrap().as_arr().unwrap()[0].clone();

    for doc in [direct.json(), entry] {
        assert_eq!(doc.get("time_s").unwrap().as_str(), Some("inf"), "{doc:?}");
        assert_eq!(doc.get("dvf_app").unwrap().as_str(), Some("inf"), "{doc:?}");
        for s in doc.get("structures").unwrap().as_arr().unwrap() {
            assert_eq!(s.get("dvf").unwrap().as_str(), Some("inf"), "{doc:?}");
        }
    }
    assert!(!direct.body.contains("null"), "{}", direct.body);
    assert!(!batched.body.contains("null"), "{}", batched.body);
    server.shutdown();
}

/// Explicit `values` are capped like a `lo/hi/steps` grid: a 4097-value
/// batch sweep entry fails alone with `too_many_points`, and `/v1/sweep`
/// still answers 422 with the same code.
#[test]
fn explicit_value_grids_are_capped() {
    let server = server();
    let model = json_str(MODEL);
    let values: Vec<String> = (1..=dvf_serve::api::MAX_SWEEP_POINTS + 1)
        .map(|v| v.to_string())
        .collect();
    let sweep = format!(
        r#"{{"source":{model},"param":"n","values":[{}]}}"#,
        values.join(",")
    );

    let body = format!(r#"{{"entries":[{sweep},{{"source":{model}}}]}}"#);
    let reply = request(server.addr(), "POST", "/v1/batch", Some(&body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let doc = reply.json();
    assert_eq!(doc.get("failed_entries").unwrap().as_u64(), Some(1));
    let results = doc.get("results").unwrap().as_arr().unwrap();
    let code = |v: &dvf_serve::jsonval::Json| {
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str())
            .map(str::to_owned)
    };
    assert_eq!(code(&results[0]).as_deref(), Some("too_many_points"));
    assert_eq!(results[1].get("ok").unwrap().as_bool(), Some(true));

    let reply = request(server.addr(), "POST", "/v1/sweep", Some(&sweep));
    assert_eq!(reply.status, 422);
    assert_eq!(code(&reply.json()).as_deref(), Some("too_many_points"));
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str(),
        Some("sweep grids are capped at 4096 points")
    );
    server.shutdown();
}
