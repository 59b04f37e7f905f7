//! What a `/v1/sweepchunk` request's flight-recorder record says about
//! its own evaluation.
//!
//! A chunk runs on the worker that took it, so the record's counters are
//! the request's own: no fan-out (`par.*`) counters, and memo-cache
//! deltas equal to the `cache` object in the response. The response's
//! tallies are process-wide differences, so this file holds a single
//! test: no other test in the process touches the memo cache meanwhile.

mod common;

use common::{json_str, request, MODEL};
use dvf_serve::jsonval::Json;
use dvf_serve::{Server, ServerConfig};

fn name_of(counter: &Json) -> &str {
    counter.get("name").unwrap().as_str().unwrap()
}

#[test]
fn sweepchunk_record_counts_its_own_cache_lookups_and_no_fan_out() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    // Two passes over the same points: the first misses, the second hits.
    for pass in 0..2 {
        let body = format!(
            r#"{{"source":{},"dims":["n"],"chunk":{pass},"points":[[100],[200],[300],[400]]}}"#,
            json_str(MODEL)
        );
        let reply = request(addr, "POST", "/v1/sweepchunk", Some(&body));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let doc = reply.json();
        let cache = doc.get("cache").expect("cache object");
        let replied = |key: &str| cache.get(key).and_then(|v| v.as_u64()).unwrap();
        let (hits, misses) = (replied("sweep.cache.hit"), replied("sweep.cache.miss"));
        assert!(hits + misses >= 4, "hits={hits} misses={misses}");
        assert_eq!(pass == 0, misses > 0, "pass {pass}: misses={misses}");

        let id = reply.header("X-Dvf-Trace-Id").expect("trace header");
        let detail = request(addr, "GET", &format!("/v1/debug/requests/{id}"), None);
        assert_eq!(detail.status, 200, "{}", detail.body);
        let doc = detail.json();
        let counters = doc
            .get("request")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.as_arr())
            .expect("counters array");
        let recorded = |name: &str| {
            counters
                .iter()
                .find(|c| name_of(c) == name)
                .map_or(0, |c| c.get("value").unwrap().as_u64().unwrap())
        };
        assert!(
            counters.iter().all(|c| !name_of(c).starts_with("par.")),
            "a chunk spawns no fan-out: {}",
            detail.body
        );
        assert_eq!(recorded("sweep.cache.hit"), hits, "pass {pass}");
        assert_eq!(recorded("sweep.cache.miss"), misses, "pass {pass}");
    }
    server.shutdown();
}
