//! Golden response bodies for every path that writes sweep rows:
//! `/v1/sweep` (explicit `values` and `lo`/`hi`/`steps`), `/v1/sweepchunk`,
//! `/v1/batch` sweep entries, and one `--manifest` journal line.
//!
//! Each body is pinned byte for byte, so a change to how a row is
//! evaluated, written or ordered shows up here as a diff. The `cache`
//! object's counts are masked: they are process-wide memo tallies that
//! depend on what else this test binary evaluated first.

use dvf_serve::coordinator::RowOutcome;
use dvf_serve::http::Request;
use dvf_serve::{api, manifest, ServeCtx, ServerConfig};

/// At `n = 100` the streaming pattern over `A` touches zero elements:
/// the resolve succeeds and the pattern model rejects it, a model error
/// on an otherwise valid grid point.
const MODEL: &str = "machine m {\n  param fit = 5000\n  cache { associativity = 4  sets = 64  line = 32 }\n  memory { fit = fit }\n  core { flops = 1e9  bandwidth = 4e9 }\n}\nmodel app {\n  param n = 200\n  data A { size = n * 8  element = 8 }\n  data B { size = 1600  element = 8 }\n  kernel k {\n    flops = 2 * n + 1\n    access A as streaming(stride = 4, count = n - 100)\n    access B as random(k = 10, iters = 10)\n  }\n}\n";

/// The model source as a JSON string literal.
fn source() -> String {
    let mut w = dvf_obs::JsonWriter::new();
    w.string(MODEL);
    w.finish()
}

/// POST `body` to `path` on a fresh context; the 200 body with the
/// `cache` object's digits replaced by `#`.
fn post(path: &str, body: &str) -> String {
    let ctx = ServeCtx::new(ServerConfig::default());
    let req = Request {
        method: "POST".to_owned(),
        path: path.to_owned(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let resp = api::route(&req, &ctx);
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    mask_cache(&resp.body)
}

fn mask_cache(body: &str) -> String {
    let Some(start) = body.find("\"cache\":{") else {
        return body.to_owned();
    };
    let end = start + body[start..].find('}').expect("cache object closes");
    // One `#` per run of digits: the shape is pinned, the counts (which
    // other tests in this process move) are not.
    let mut masked = String::new();
    for c in body[start..end].chars() {
        if !c.is_ascii_digit() {
            masked.push(c);
        } else if !masked.ends_with('#') {
            masked.push('#');
        }
    }
    format!("{}{masked}{}", &body[..start], &body[end..])
}

#[test]
fn sweep_with_values_body() {
    let body = format!(
        r#"{{"source":{},"param":"n","values":[200,100,300],"params":{{"fit":1000}}}}"#,
        source()
    );
    assert_eq!(
        post("/v1/sweep", &body),
        r#"{"schema":"dvf-serve/1","ok":true,"param":"n","points":3,"rows":[{"value":200.0,"time_s":6.4375e-7,"dvf_app":1.8418402777777778e-16},{"value":100.0,"error":"model error for data structure `A`: parameter num_elements must be nonzero"},{"value":300.0,"time_s":8.875e-7,"dvf_app":4.462152777777777e-16}],"failed":1,"cache":{"sweep.cache.hit":#,"sweep.cache.miss":#,"entries":#}}"#
    );
}

#[test]
fn sweep_with_lo_hi_steps_body() {
    let body = format!(
        r#"{{"source":{},"param":"n","lo":100,"hi":300,"steps":3}}"#,
        source()
    );
    assert_eq!(
        post("/v1/sweep", &body),
        r#"{"schema":"dvf-serve/1","ok":true,"param":"n","points":3,"rows":[{"value":100.0,"error":"model error for data structure `A`: parameter num_elements must be nonzero"},{"value":200.0,"time_s":6.4375e-7,"dvf_app":9.209201388888888e-16},{"value":300.0,"time_s":8.875e-7,"dvf_app":2.231076388888889e-15}],"failed":1,"cache":{"sweep.cache.hit":#,"sweep.cache.miss":#,"entries":#}}"#
    );
}

#[test]
fn sweepchunk_two_dims_body() {
    let body = format!(
        r#"{{"source":{},"dims":["fit","n"],"chunk":7,"points":[[1000,200],[5000,100],[5000,300]]}}"#,
        source()
    );
    assert_eq!(
        post("/v1/sweepchunk", &body),
        r#"{"schema":"dvf-serve/1","ok":true,"chunk":7,"points":3,"rows":[{"time_s":6.4375e-7,"dvf_app":1.8418402777777778e-16},{"error":"model error for data structure `A`: parameter num_elements must be nonzero"},{"time_s":8.875e-7,"dvf_app":2.231076388888889e-15}],"failed":1,"cache":{"sweep.cache.hit":#,"sweep.cache.miss":#,"entries":#}}"#
    );
}

#[test]
fn batch_dvf_sweep_and_bad_entry_body() {
    let src = source();
    let body = format!(
        r#"{{"entries":[{{"source":{src},"params":{{"n":150}}}},{{"source":{src},"param":"n","values":[100,200]}},{{"source":{src},"param":"bogus","values":[1]}}]}}"#
    );
    assert_eq!(
        post("/v1/batch", &body),
        r#"{"schema":"dvf-serve/1","ok":true,"entries":3,"failed_entries":1,"results":[{"kind":"dvf","ok":true,"app":"app","fit_per_mbit":5000.0,"time_s":5.2675e-7,"dvf_app":5.794981597222221e-16,"structures":[{"name":"A","size_bytes":1200,"n_ha":15.84375,"dvf":1.1127593749999997e-16},{"name":"B","size_bytes":1600,"n_ha":50.0,"dvf":4.682222222222222e-16}]},{"kind":"sweep","ok":true,"param":"n","points":2,"rows":[{"value":100.0,"error":"model error for data structure `A`: parameter num_elements must be nonzero"},{"value":200.0,"time_s":6.4375e-7,"dvf_app":9.209201388888888e-16}],"failed":1},{"error":{"code":"unknown_param","message":"unknown parameter `bogus` (declared parameters: fit, n)"}}]}"#
    );
}

#[test]
fn manifest_chunk_line() {
    let rows = [
        RowOutcome::Ok {
            time_s: 1.5e-7,
            dvf_app: 0.30000000000000004,
        },
        RowOutcome::Err("model error for data structure `A`: boom".to_owned()),
    ];
    assert_eq!(
        manifest::chunk_line(4, &rows),
        r#"{"chunk":4,"rows":[{"time_s":1.5e-7,"dvf_app":0.30000000000000004},{"error":"model error for data structure `A`: boom"}]}"#
    );
}

/// `flops = 1e306 * n` overflows to infinity at `n = 200`: time and DVF
/// are `inf`. JSON has no infinities, so the row spells them as strings.
#[test]
fn non_finite_rows_are_spelled_as_strings() {
    let overflow = MODEL.replace("flops = 2 * n + 1", "flops = 1e306 * n");
    let mut w = dvf_obs::JsonWriter::new();
    w.string(&overflow);
    let body = format!(
        r#"{{"source":{},"param":"n","values":[101,200]}}"#,
        w.finish()
    );
    assert_eq!(
        post("/v1/sweep", &body),
        r#"{"schema":"dvf-serve/1","ok":true,"param":"n","points":2,"rows":[{"value":101.0,"time_s":1.01e299,"dvf_app":9.088288611111112e289},{"value":200.0,"time_s":"inf","dvf_app":"inf"}],"failed":0,"cache":{"sweep.cache.hit":#,"sweep.cache.miss":#,"entries":#}}"#
    );
    let rows = [RowOutcome::Ok {
        time_s: f64::INFINITY,
        dvf_app: f64::NAN,
    }];
    assert_eq!(
        manifest::chunk_line(0, &rows),
        r#"{"chunk":0,"rows":[{"time_s":"inf","dvf_app":"NaN"}]}"#
    );
}
