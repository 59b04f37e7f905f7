//! The versioned `dvf-serve/1` JSON API.
//!
//! | endpoint                  | verb   | purpose                                    |
//! |---------------------------|--------|--------------------------------------------|
//! | `/v1/healthz`             | GET    | liveness + uptime + session count          |
//! | `/v1/metrics`             | GET    | `dvf-obs` snapshot + memo-cache stats      |
//! | `/v1/parse`               | POST   | Aspen source → structured diagnostics      |
//! | `/v1/sessions`            | POST   | register a named model (LRU-capped)        |
//! | `/v1/sessions`            | GET    | list resident sessions                     |
//! | `/v1/sessions/{name}`     | DELETE | evict one session                          |
//! | `/v1/dvf`                 | POST   | full Fig. 3 pipeline → per-structure DVF   |
//! | `/v1/sweep`               | POST   | memoized parameter-grid sweep              |
//! | `/v1/sweepchunk`          | POST   | one coordinator chunk: explicit grid points|
//! | `/v1/batch`               | POST   | many dvf/sweep questions in one round-trip |
//! | `/v1/predict`             | POST   | learned `N_ha` from stream features        |
//! | `/v1/debug/requests`      | GET    | flight recorder: recent request records    |
//! | `/v1/debug/requests/{id}` | GET    | one request's full phase timeline          |
//!
//! `/v1/metrics?format=prometheus` renders the same snapshot in the
//! Prometheus text exposition format (plus serve gauges and build info).
//! `/v1/debug/requests` takes `n` (max records, default 20) and
//! `min_us`/`min_ms` (minimum total latency) query parameters; `{id}` is
//! the 16-hex-digit value from the `X-Dvf-Trace-Id` response header.
//!
//! Every response body is `{"schema":"dvf-serve/1", ...}`; errors are
//! `{"schema":…,"error":{"code":…,"message":…}}` with 4xx/5xx status.
//! `/v1/dvf` and `/v1/sweep` accept either `"source"` (evaluate inline)
//! or `"session"` (evaluate a registered model). `/v1/dvf` additionally
//! accepts `"hierarchy"`: an array of `{assoc, sets, line}` cache levels
//! (top first, optional `prefetch` degree); the response then splits each
//! structure's exposure per storage (`L2`…, `memory`) and appends the
//! protect-which-level DVF rows.
//!
//! `/v1/predict` (served only when the process was started with
//! `--model`, 503 otherwise) takes `{"features": <dvf-learn/1 feature
//! vector>, "levels": [{assoc, sets, line}, ...]}` (or a single
//! `"geometry"` object) and answers the learned per-level `N_ha`
//! together with the model's held-out error bound; a feature vector
//! whose schema does not match the loaded model is a 422.

use crate::http::{error_response, Request, Response};
use crate::jsonval::Json;
use crate::registry::Session;
use crate::ServeCtx;
use dvf_cachesim::{CacheConfig, HierarchyConfig, LevelSpec, MAX_PREFETCH_DEGREE};
use dvf_core::memo;
use dvf_core::workflow::{DvfWorkflow, HierarchyDvf, WorkflowError};
use dvf_obs::JsonWriter;
use std::sync::Arc;

/// Hard cap on sweep grid sizes (and `/v1/sweepchunk` chunk sizes),
/// guarding worker time per request. Public so the distributed sweep
/// coordinator clamps its chunk size to what a shard will accept.
pub const MAX_SWEEP_POINTS: usize = 4096;

/// Dispatch one request. Infallible by construction: every error path is
/// a `Response` (panics are caught one level up, in the worker).
pub fn route(req: &Request, ctx: &ServeCtx) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(ctx),
        ("GET", "/v1/metrics") => metrics(req, ctx),
        ("GET", "/v1/debug/requests") => debug_requests(req, ctx),
        ("GET", path) if path.strip_prefix("/v1/debug/requests/").is_some() => {
            debug_request_by_id(path.strip_prefix("/v1/debug/requests/").unwrap_or(""), ctx)
        }
        ("POST", "/v1/parse") => with_json(req, |body| parse_source(&body)),
        ("POST", "/v1/sessions") => with_json(req, |body| register_session(&body, ctx)),
        ("GET", "/v1/sessions") => list_sessions(ctx),
        ("DELETE", path) if path.strip_prefix("/v1/sessions/").is_some() => {
            delete_session(path.strip_prefix("/v1/sessions/").unwrap_or(""), ctx)
        }
        ("POST", "/v1/dvf") => with_json(req, |body| evaluate_dvf(&body, ctx)),
        ("POST", "/v1/sweep") => with_json(req, |body| sweep(&body, ctx)),
        ("POST", "/v1/sweepchunk") => with_json(req, |body| sweepchunk(&body, ctx)),
        ("POST", "/v1/batch") => with_json(req, |body| batch(&body, ctx)),
        ("POST", "/v1/predict") => with_json(req, |body| predict(&body, ctx)),
        ("POST", "/v1/_panic") if ctx.config.panic_route => {
            panic!("deliberate panic via /v1/_panic (test configuration)")
        }
        ("POST", "/v1/_slow") if ctx.config.slow_route => slow(req),
        (_, path)
            if KNOWN_PATHS.contains(&path)
                || path.starts_with("/v1/sessions/")
                || path.starts_with("/v1/debug/requests/") =>
        {
            error_response(
                405,
                "method_not_allowed",
                "method not allowed for this route",
            )
            .with_header("Allow", allow_of(path))
        }
        _ => error_response(404, "not_found", "no such route (API root is /v1/)"),
    }
}

const KNOWN_PATHS: [&str; 10] = [
    "/v1/healthz",
    "/v1/metrics",
    "/v1/parse",
    "/v1/sessions",
    "/v1/dvf",
    "/v1/sweep",
    "/v1/sweepchunk",
    "/v1/batch",
    "/v1/predict",
    "/v1/debug/requests",
];

fn allow_of(path: &str) -> &'static str {
    match path {
        "/v1/healthz" | "/v1/metrics" | "/v1/debug/requests" => "GET",
        "/v1/parse" | "/v1/dvf" | "/v1/sweep" | "/v1/sweepchunk" | "/v1/batch" | "/v1/predict" => {
            "POST"
        }
        "/v1/sessions" => "GET, POST",
        path if path.starts_with("/v1/debug/requests/") => "GET",
        _ => "DELETE",
    }
}

/// Decode the body as UTF-8 JSON, then hand it to the endpoint.
fn with_json(req: &Request, f: impl FnOnce(Json) -> Response) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(400, "bad_utf8", "request body is not valid UTF-8");
    };
    let parsed = dvf_obs::span_scope("parse", || Json::parse(text));
    match parsed {
        Ok(body) => f(body),
        Err(e) => error_response(400, "bad_json", &format!("malformed JSON body: {e}")),
    }
}

/// A structured endpoint failure: status, machine-readable code, human
/// message. Kept apart from [`Response`] so `/v1/batch` can embed one
/// entry's failure as a JSON object instead of failing the whole batch.
#[derive(Debug, Clone)]
struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
        }
    }

    /// Render as a whole-request failure.
    fn into_response(self) -> Response {
        error_response(self.status, self.code, &self.message)
    }

    /// Render as one batch entry's `{"error":{...}}` object.
    fn write_entry(&self, w: &mut JsonWriter) {
        w.begin_object()
            .key("error")
            .begin_object()
            .key("code")
            .string(self.code)
            .key("message")
            .string(&self.message)
            .end_object()
            .end_object();
    }
}

/// Test-configuration route (`slow_route`): hold a compute worker for
/// `{"ms": N}` milliseconds, so overload tests can occupy the pool
/// deterministically instead of racing real work.
fn slow(req: &Request) -> Response {
    let ms = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|body| body.get("ms").and_then(Json::as_u64))
        .unwrap_or(25)
        .min(5_000);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    let mut w = writer();
    w.key("ok").bool(true);
    w.key("slept_ms").u64(ms);
    w.end_object();
    Response::json(200, w.finish())
}

/// Crate version + build identity for `/v1/healthz`, `/v1/metrics` and
/// the Prometheus `dvf_build_info` series. The git describe string is
/// injected at compile time via the `DVF_BUILD_GIT` environment variable
/// (absent in plain `cargo build`, hence the fallback).
fn build_info() -> (&'static str, &'static str) {
    (
        env!("CARGO_PKG_VERSION"),
        option_env!("DVF_BUILD_GIT").unwrap_or("unknown"),
    )
}

fn write_build(w: &mut JsonWriter) {
    let (version, git) = build_info();
    w.key("build")
        .begin_object()
        .key("version")
        .string(version)
        .key("git")
        .string(git)
        .end_object();
}

fn writer() -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(crate::SCHEMA);
    w
}

fn healthz(ctx: &ServeCtx) -> Response {
    let mut w = writer();
    w.key("ok").bool(true);
    w.key("uptime_s").f64(ctx.started.elapsed().as_secs_f64());
    // Monotone integer seconds: what the serve-smoke CI step asserts
    // liveness against (never decreases, no float formatting to parse).
    w.key("uptime_seconds").u64(ctx.started.elapsed().as_secs());
    write_build(&mut w);
    w.key("sessions").u64(ctx.registry.len() as u64);
    w.key("draining").bool(ctx.draining());
    w.end_object();
    Response::json(200, w.finish())
}

fn metrics(req: &Request, ctx: &ServeCtx) -> Response {
    match req.query_param("format") {
        Some("prometheus") => metrics_prometheus(ctx),
        None | Some("json") => metrics_json(ctx),
        Some(other) => error_response(
            422,
            "bad_format",
            &format!("unknown metrics format `{other}` (json or prometheus)"),
        ),
    }
}

fn metrics_json(ctx: &ServeCtx) -> Response {
    let stats = memo::stats();
    let mut w = writer();
    // The embedded document is itself schema-versioned (`dvf-obs/1`).
    w.key("obs").raw(&dvf_obs::snapshot().render_json());
    w.key("cache")
        .begin_object()
        .key("hits")
        .u64(stats.hits)
        .key("misses")
        .u64(stats.misses)
        .key("entries")
        .u64(stats.entries)
        // Resolved lock-stripe count: lets an operator confirm their
        // `DVF_MEMO_STRIPES` override actually took (an unparseable value
        // warns once on stderr and falls back to the default).
        .key("stripes")
        .u64(memo::stripe_count() as u64)
        .end_object();
    w.key("sessions").u64(ctx.registry.len() as u64);
    w.key("uptime_seconds").u64(ctx.started.elapsed().as_secs());
    // Serve shape: configuration (workers, capacities) next to the
    // live gauges (queued requests, open connections) they bound.
    w.key("serve")
        .begin_object()
        .key("workers")
        .u64(ctx.config.workers as u64)
        .key("queue_capacity")
        .u64(ctx.config.queue_depth as u64)
        .key("queued")
        .u64(ctx.queued())
        .key("max_connections")
        .u64(ctx.config.max_connections as u64)
        .key("open_connections")
        .u64(ctx.open_connections())
        // Request-shaping caps a coordinator sizes its chunks against.
        .key("max_batch_entries")
        .u64(ctx.config.max_batch_entries as u64)
        .key("max_sweep_points")
        .u64(MAX_SWEEP_POINTS as u64)
        .end_object();
    // Learned-predictor state: whether /v1/predict will answer, and the
    // identity + promised accuracy of the model behind it.
    w.key("learn").begin_object();
    w.key("model_loaded").bool(ctx.model.is_some());
    if let Some(m) = &ctx.model {
        w.key("model_seed").u64(m.seed);
        w.key("model_grid")
            .string(if m.smoke { "smoke" } else { "full" });
        w.key("model_stumps").u64(m.stumps.len() as u64);
        w.key("bound_max_rel_err").f64(m.bound.max_rel_err);
    }
    w.end_object();
    write_build(&mut w);
    w.end_object();
    Response::json(200, w.finish())
}

/// Content type scrapers expect for text exposition format 0.0.4.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

fn metrics_prometheus(ctx: &ServeCtx) -> Response {
    use std::fmt::Write as _;
    let mut out = dvf_obs::snapshot().render_prometheus();
    // Serve-level gauges the obs registry doesn't know about.
    let gauges: [(&str, u64); 14] = [
        ("dvf_learn_model_loaded", u64::from(ctx.model.is_some())),
        (
            "dvf_learn_model_stumps",
            ctx.model.as_ref().map_or(0, |m| m.stumps.len() as u64),
        ),
        ("dvf_serve_sessions", ctx.registry.len() as u64),
        ("dvf_memo_stripes", memo::stripe_count() as u64),
        ("dvf_serve_queue_depth", ctx.queued()),
        ("dvf_serve_draining", u64::from(ctx.draining())),
        ("dvf_serve_uptime_seconds", ctx.started.elapsed().as_secs()),
        ("dvf_serve_flight_records", ctx.recorder.pushed()),
        ("dvf_serve_workers", ctx.config.workers as u64),
        ("dvf_serve_queue_capacity", ctx.config.queue_depth as u64),
        (
            "dvf_serve_max_connections",
            ctx.config.max_connections as u64,
        ),
        ("dvf_serve_open_connections", ctx.open_connections()),
        (
            "dvf_serve_max_batch_entries",
            ctx.config.max_batch_entries as u64,
        ),
        ("dvf_serve_max_sweep_points", MAX_SWEEP_POINTS as u64),
    ];
    for (name, value) in gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    let (version, git) = build_info();
    let _ = writeln!(out, "# TYPE dvf_build_info gauge");
    let _ = writeln!(
        out,
        "dvf_build_info{{version=\"{version}\",git=\"{git}\"}} 1"
    );
    Response::text(200, out, PROMETHEUS_CONTENT_TYPE)
}

/// Render one flight-recorder record as a JSON object.
fn write_record(w: &mut JsonWriter, r: &dvf_obs::RequestRecord) {
    w.begin_object();
    w.key("seq").u64(r.seq);
    w.key("id").string(&format!("{:016x}", r.id));
    w.key("route").string(&r.route);
    w.key("status").u64(u64::from(r.status));
    w.key("total_us").u64(r.total_us);
    w.key("phases").begin_array();
    for p in &r.phases {
        w.begin_object();
        w.key("path").string(&p.path);
        w.key("depth").u64(p.depth as u64);
        w.key("us").u64(p.us);
        w.end_object();
    }
    w.end_array();
    w.key("counters").begin_array();
    for (name, value) in &r.counters {
        w.begin_object();
        w.key("name").string(name);
        w.key("value").u64(*value);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// Most records a single `/v1/debug/requests` response will list.
const MAX_DEBUG_REQUESTS: usize = 1024;

fn debug_requests(req: &Request, ctx: &ServeCtx) -> Response {
    let n = match req.query_param("n") {
        None => 20,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_DEBUG_REQUESTS),
            _ => return error_response(422, "bad_query", "`n` must be a positive integer"),
        },
    };
    let min_us = match (req.query_param("min_us"), req.query_param("min_ms")) {
        (Some(_), Some(_)) => {
            return error_response(
                422,
                "bad_query",
                "give either `min_us` or `min_ms`, not both",
            )
        }
        (Some(us), None) => match us.parse::<u64>() {
            Ok(v) => v,
            Err(_) => return error_response(422, "bad_query", "`min_us` must be an integer"),
        },
        (None, Some(ms)) => match ms.parse::<u64>() {
            Ok(v) => v.saturating_mul(1_000),
            Err(_) => return error_response(422, "bad_query", "`min_ms` must be an integer"),
        },
        (None, None) => 0,
    };
    let records = ctx.recorder.recent(n, min_us);
    let mut w = writer();
    w.key("recorded").u64(ctx.recorder.pushed());
    w.key("capacity").u64(ctx.recorder.capacity() as u64);
    w.key("requests").begin_array();
    for r in &records {
        write_record(&mut w, r);
    }
    w.end_array();
    w.end_object();
    Response::json(200, w.finish())
}

fn debug_request_by_id(id: &str, ctx: &ServeCtx) -> Response {
    let Ok(id) = u64::from_str_radix(id, 16) else {
        return error_response(
            422,
            "bad_trace_id",
            "trace ids are the hex value from X-Dvf-Trace-Id",
        );
    };
    match ctx.recorder.get(id) {
        Some(r) => {
            let mut w = writer();
            w.key("request");
            write_record(&mut w, &r);
            w.end_object();
            Response::json(200, w.finish())
        }
        None => error_response(
            404,
            "no_such_trace",
            "no retained record with that trace id (the flight recorder \
             keeps only the most recent requests)",
        ),
    }
}

fn parse_source(body: &Json) -> Response {
    let Some(source) = body.get("source").and_then(Json::as_str) else {
        return error_response(422, "missing_field", "body needs a string `source` field");
    };
    let mut w = writer();
    match dvf_aspen::parse(source) {
        Ok(doc) => {
            let machines = doc
                .items
                .iter()
                .filter(|i| matches!(i, dvf_aspen::ast::Item::Machine(_)))
                .count();
            let models = doc
                .items
                .iter()
                .filter(|i| matches!(i, dvf_aspen::ast::Item::Model(_)))
                .count();
            w.key("ok").bool(true);
            w.key("machines").u64(machines as u64);
            w.key("models").u64(models as u64);
            w.key("params").begin_array();
            for name in doc.param_names() {
                w.string(name);
            }
            w.end_array();
            w.key("diagnostics").begin_array().end_array();
        }
        Err(d) => {
            w.key("ok").bool(false);
            w.key("diagnostics").begin_array();
            d.write_json(source, &mut w);
            w.end_array();
        }
    }
    w.end_object();
    Response::json(200, w.finish())
}

/// Session (and data-structure) names the URL path can round-trip.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'))
}

fn register_session(body: &Json, ctx: &ServeCtx) -> Response {
    let Some(name) = body.get("name").and_then(Json::as_str) else {
        return error_response(422, "missing_field", "body needs a string `name` field");
    };
    if !valid_name(name) {
        return error_response(
            422,
            "bad_name",
            "session names are 1-128 chars of [A-Za-z0-9_.-]",
        );
    }
    let Some(source) = body.get("source").and_then(Json::as_str) else {
        return error_response(422, "missing_field", "body needs a string `source` field");
    };
    let workflow = match DvfWorkflow::parse(source) {
        Ok(wf) => wf,
        Err(WorkflowError::Language(d)) => {
            let mut w = writer();
            w.key("error")
                .begin_object()
                .key("code")
                .string("bad_source")
                .key("message")
                .string(&format!("source does not parse: {d}"))
                .end_object();
            w.key("diagnostics").begin_array();
            d.write_json(source, &mut w);
            w.end_array();
            w.end_object();
            return Response::json(422, w.finish());
        }
        Err(e) => return error_response(422, "bad_source", &e.to_string()),
    };
    let workflow = apply_selection(workflow, body);
    let evicted = ctx.registry.insert(name, workflow, source.len());
    let mut w = writer();
    w.key("ok").bool(true);
    w.key("name").string(name);
    w.key("evicted").begin_array();
    for e in &evicted {
        w.string(e);
    }
    w.end_array();
    w.key("sessions").u64(ctx.registry.len() as u64);
    w.end_object();
    Response::json(200, w.finish())
}

fn list_sessions(ctx: &ServeCtx) -> Response {
    let mut w = writer();
    w.key("sessions").begin_array();
    for (name, source_bytes) in ctx.registry.list() {
        w.begin_object();
        w.key("name").string(&name);
        w.key("source_bytes").u64(source_bytes as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    Response::json(200, w.finish())
}

fn delete_session(name: &str, ctx: &ServeCtx) -> Response {
    if ctx.registry.remove(name) {
        let mut w = writer();
        w.key("ok").bool(true);
        w.key("name").string(name);
        w.end_object();
        Response::json(200, w.finish())
    } else {
        error_response(
            404,
            "no_such_session",
            &format!("no session named `{name}`"),
        )
    }
}

/// Apply optional `"machine"`/`"model"` selections from a request body.
fn apply_selection(mut wf: DvfWorkflow, body: &Json) -> DvfWorkflow {
    if let Some(machine) = body.get("machine").and_then(Json::as_str) {
        wf = wf.with_machine(machine);
    }
    if let Some(model) = body.get("model").and_then(Json::as_str) {
        wf = wf.with_model(model);
    }
    wf
}

/// The workflow a request addresses: an inline source (owned) or a
/// registered session (shared, evaluated concurrently without cloning).
enum WfRef {
    Owned(DvfWorkflow),
    Shared(Arc<Session>),
}

impl WfRef {
    fn workflow(&self) -> &DvfWorkflow {
        match self {
            WfRef::Owned(wf) => wf,
            WfRef::Shared(s) => &s.workflow,
        }
    }
}

/// Resolve `"source"` or `"session"` (exactly one) into a workflow.
fn resolve_workflow(body: &Json, ctx: &ServeCtx) -> Result<WfRef, ApiError> {
    match (
        body.get("source").and_then(Json::as_str),
        body.get("session").and_then(Json::as_str),
    ) {
        (Some(_), Some(_)) => Err(ApiError::new(
            422,
            "ambiguous_target",
            "give either `source` or `session`, not both",
        )),
        (None, None) => Err(ApiError::new(
            422,
            "missing_field",
            "body needs a `source` (inline program) or `session` (registered name)",
        )),
        (Some(source), None) => match DvfWorkflow::parse(source) {
            Ok(wf) => Ok(WfRef::Owned(apply_selection(wf, body))),
            Err(e) => Err(ApiError::new(422, "bad_source", e.to_string())),
        },
        (None, Some(name)) => {
            let session = ctx.registry.get(name).ok_or_else(|| {
                ApiError::new(
                    404,
                    "no_such_session",
                    format!("no session named `{name}` (register via POST /v1/sessions)"),
                )
            })?;
            // Per-request machine/model overrides force a private copy;
            // the common path shares the session's workflow directly.
            if body.get("machine").is_some() || body.get("model").is_some() {
                Ok(WfRef::Owned(apply_selection(
                    session.workflow.clone(),
                    body,
                )))
            } else {
                Ok(WfRef::Shared(session))
            }
        }
    }
}

/// Decode `"params": {"name": number, ...}` overrides.
fn overrides_of(body: &Json) -> Result<Vec<(String, f64)>, ApiError> {
    let Some(params) = body.get("params") else {
        return Ok(Vec::new());
    };
    let Some(members) = params.as_obj() else {
        return Err(ApiError::new(
            422,
            "bad_params",
            "`params` must be an object of name → number",
        ));
    };
    members
        .iter()
        .map(|(k, v)| match v.as_f64() {
            Some(n) => Ok((k.clone(), n)),
            None => Err(ApiError::new(
                422,
                "bad_params",
                format!("parameter `{k}` must be a number"),
            )),
        })
        .collect()
}

/// Map a workflow failure onto the error envelope.
fn workflow_error(e: &WorkflowError) -> ApiError {
    let code = match e {
        WorkflowError::Language(_) => "language",
        WorkflowError::BadCache(_) => "bad_cache",
        WorkflowError::Model { .. } => "model",
        WorkflowError::UnknownParameter { .. } => "unknown_param",
    };
    ApiError::new(422, code, e.to_string())
}

/// The `/v1/dvf` success fields, shared with `/v1/batch` entries.
fn write_dvf_report(w: &mut JsonWriter, report: &dvf_core::dvf::DvfReport) {
    w.key("ok").bool(true);
    w.key("app").string(&report.app);
    w.key("fit_per_mbit").f64(report.fit.0);
    w.key("time_s").f64(report.time_s);
    w.key("dvf_app").f64(report.dvf_app());
    w.key("structures").begin_array();
    for (profile, dvf) in &report.structures {
        w.begin_object();
        w.key("name").string(&profile.name);
        w.key("size_bytes").u64(profile.size_bytes);
        w.key("n_ha").f64(profile.n_ha);
        w.key("dvf").f64(*dvf);
        w.end_object();
    }
    w.end_array();
}

/// Decode the optional `"hierarchy"` option of `/v1/dvf`: an array of
/// level objects, top (CPU side) first, each `{"assoc": N, "sets": N,
/// "line": N}`. Invalid stacks (inverted capacities, shrinking lines,
/// zero geometry) come back as the same structured 422 `bad_cache`
/// diagnostic a bad machine cache produces — the constructor returns
/// `Result` now, so no panic ever reaches the worker's catch_unwind.
fn hierarchy_of(body: &Json) -> Result<Option<HierarchyConfig>, ApiError> {
    let Some(h) = body.get("hierarchy") else {
        return Ok(None);
    };
    let bad = |msg: String| ApiError::new(422, "bad_cache", msg);
    let Some(items) = h.as_arr() else {
        return Err(bad(
            "`hierarchy` must be an array of {assoc, sets, line} levels, top first".to_owned(),
        ));
    };
    let mut specs = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |name: &str| {
            item.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("hierarchy level {i} needs integer `{name}`")))
        };
        let cache = CacheConfig::new(
            field("assoc")? as usize,
            field("sets")? as usize,
            field("line")? as usize,
        )
        .map_err(|e| bad(format!("hierarchy level {i}: {e}")))?;
        let mut spec = LevelSpec::new(cache);
        if let Some(p) = item.get("prefetch").and_then(Json::as_u64) {
            if p as usize > MAX_PREFETCH_DEGREE {
                return Err(bad(format!(
                    "hierarchy level {i}: prefetch degree is capped at {MAX_PREFETCH_DEGREE}"
                )));
            }
            spec.prefetch_degree = p as usize;
        }
        specs.push(spec);
    }
    HierarchyConfig::new(specs)
        .map(Some)
        .map_err(|e| bad(e.to_string()))
}

/// The `/v1/dvf` success fields in hierarchy mode: per-storage exposure
/// splits plus the protect-which-level rows.
fn write_hierarchy_report(w: &mut JsonWriter, split: &HierarchyDvf) {
    w.key("ok").bool(true);
    w.key("app").string(&split.app);
    w.key("fit_per_mbit").f64(split.fit.0);
    w.key("time_s").f64(split.time_s);
    w.key("dvf_app").f64(split.dvf_app(&[]));
    w.key("storages").begin_array();
    for s in &split.storages {
        w.string(s);
    }
    w.end_array();
    w.key("structures").begin_array();
    for (name, size, exposures) in &split.exposures {
        w.begin_object();
        w.key("name").string(name);
        w.key("size_bytes").u64(*size);
        w.key("exposures").begin_object();
        for (storage, e) in split.storages.iter().zip(exposures) {
            w.key(storage).f64(*e);
        }
        w.end_object();
        w.key("dvf").f64(split.dvf_of(name, &[]).unwrap_or(0.0));
        w.end_object();
    }
    w.end_array();
    w.key("protect").begin_array();
    for (label, dvf) in split.protect_rows() {
        w.begin_object();
        w.key("protected").string(&label);
        w.key("dvf_app").f64(dvf);
        w.end_object();
    }
    w.end_array();
}

/// Decode the `/v1/predict` level list: `"levels"` (array of
/// `{assoc, sets, line}`, top first) or a single-level `"geometry"`
/// object. Exactly one of the two must be present.
fn predict_levels_of(body: &Json) -> Result<Vec<CacheConfig>, ApiError> {
    let bad = |msg: String| ApiError::new(422, "bad_geometry", msg);
    let level_of = |item: &Json, label: &str| -> Result<CacheConfig, ApiError> {
        let field = |name: &str| {
            item.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("{label} needs integer `{name}`")))
        };
        CacheConfig::new(
            field("assoc")? as usize,
            field("sets")? as usize,
            field("line")? as usize,
        )
        .map_err(|e| bad(format!("{label}: {e}")))
    };
    match (body.get("levels"), body.get("geometry")) {
        (Some(_), Some(_)) => Err(bad(
            "give either `levels` or `geometry`, not both".to_owned()
        )),
        (Some(levels), None) => {
            let Some(items) = levels.as_arr() else {
                return Err(bad(
                    "`levels` must be an array of {assoc, sets, line} objects, top first"
                        .to_owned(),
                ));
            };
            if items.is_empty() {
                return Err(bad("`levels` must be non-empty".to_owned()));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, item)| level_of(item, &format!("level {i}")))
                .collect()
        }
        (None, Some(g)) => Ok(vec![level_of(g, "`geometry`")?]),
        (None, None) => Err(bad(
            "predict needs `levels` (array) or `geometry` (object)".to_owned()
        )),
    }
}

/// `POST /v1/predict`: learned per-level `N_ha` from a client-supplied
/// `dvf-learn/1` feature vector — no trace travels over the wire, only
/// the fixed-width features the client computed in-stream while
/// recording. The hot path is allocation-free past decoding: one
/// [`assemble`](dvf_learn::assemble) + stump walk per level.
fn predict(body: &Json, ctx: &ServeCtx) -> Response {
    let Some(model) = ctx.model.as_ref() else {
        dvf_obs::add("serve.predict.rejected", 1);
        return error_response(
            503,
            "no_model",
            "no model loaded; start the server with --model model.json",
        );
    };
    let reject = |e: ApiError| {
        dvf_obs::add("serve.predict.rejected", 1);
        e.into_response()
    };
    let Some(features) = body.get("features") else {
        return reject(ApiError::new(
            422,
            "bad_features",
            "predict needs a `features` object (dvf-learn/1 feature vector)",
        ));
    };
    let fv = match dvf_learn::FeatureVector::from_json(features) {
        Ok(fv) => fv,
        Err(e) => return reject(ApiError::new(422, "bad_features", e)),
    };
    let levels = match predict_levels_of(body) {
        Ok(l) => l,
        Err(e) => return reject(e),
    };

    let predictions = dvf_obs::span_scope("predict", || model.predict_levels(&fv, &levels));
    dvf_obs::add("serve.predict.ok", 1);

    let mut w = writer();
    w.key("ok").bool(true);
    w.key("accesses").u64(fv.accesses);
    w.key("model")
        .begin_object()
        .key("seed")
        .u64(model.seed)
        .key("grid")
        .string(if model.smoke { "smoke" } else { "full" })
        .key("samples")
        .u64(model.samples)
        .key("stumps")
        .u64(model.stumps.len() as u64)
        .key("feature_schema")
        .string(dvf_learn::FEATURE_SCHEMA)
        .end_object();
    w.key("levels").begin_array();
    for (g, n_ha) in levels.iter().zip(&predictions) {
        w.begin_object();
        w.key("assoc").u64(g.associativity as u64);
        w.key("sets").u64(g.num_sets as u64);
        w.key("line").u64(g.line_bytes as u64);
        w.key("n_ha").f64(*n_ha);
        w.end_object();
    }
    w.end_array();
    // Every prediction carries the model's held-out error distribution:
    // a client deciding whether to trust the number never has to make a
    // second request (or guess) to learn how wrong it might be.
    w.key("error_bound")
        .begin_object()
        .key("max_rel_err")
        .f64(model.bound.max_rel_err)
        .key("p95_rel_err")
        .f64(model.bound.p95_rel_err)
        .key("mean_rel_err")
        .f64(model.bound.mean_rel_err)
        .end_object();
    w.end_object();
    Response::json(200, w.finish())
}

fn evaluate_dvf(body: &Json, ctx: &ServeCtx) -> Response {
    let wf = match resolve_workflow(body, ctx) {
        Ok(wf) => wf,
        Err(e) => return e.into_response(),
    };
    let overrides = match overrides_of(body) {
        Ok(o) => o,
        Err(e) => return e.into_response(),
    };
    let hierarchy = match hierarchy_of(body) {
        Ok(h) => h,
        Err(e) => return e.into_response(),
    };
    let point: Vec<(&str, f64)> = overrides.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut w = writer();
    if let Some(hierarchy) = hierarchy {
        let split = match wf.workflow().evaluate_hierarchy(&point, &hierarchy) {
            Ok(s) => s,
            Err(e) => return workflow_error(&e).into_response(),
        };
        write_hierarchy_report(&mut w, &split);
    } else {
        let report = match wf.workflow().evaluate(&point) {
            Ok(r) => r,
            Err(e) => return workflow_error(&e).into_response(),
        };
        write_dvf_report(&mut w, &report);
    }
    w.end_object();
    Response::json(200, w.finish())
}

/// Decode the grid: `"values": [..]` or `"lo"/"hi"/"steps"`.
fn grid_of(body: &Json) -> Result<Vec<f64>, ApiError> {
    if let Some(values) = body.get("values") {
        let Some(items) = values.as_arr() else {
            return Err(ApiError::new(422, "bad_grid", "`values` must be an array"));
        };
        let values: Option<Vec<f64>> = items.iter().map(Json::as_f64).collect();
        return match values {
            Some(v) if !v.is_empty() => Ok(v),
            Some(_) => Err(ApiError::new(422, "bad_grid", "`values` must be non-empty")),
            None => Err(ApiError::new(422, "bad_grid", "`values` must hold numbers")),
        };
    }
    let (lo, hi, steps) = match (
        body.get("lo").and_then(Json::as_f64),
        body.get("hi").and_then(Json::as_f64),
        body.get("steps").and_then(Json::as_u64),
    ) {
        (Some(lo), Some(hi), Some(steps)) => (lo, hi, steps as usize),
        _ => {
            return Err(ApiError::new(
                422,
                "bad_grid",
                "give `values` (array) or numeric `lo`, `hi` and integer `steps` >= 2",
            ))
        }
    };
    if steps < 2 {
        return Err(ApiError::new(422, "bad_grid", "`steps` must be at least 2"));
    }
    if steps > MAX_SWEEP_POINTS {
        return Err(ApiError::new(
            422,
            "too_many_points",
            format!("sweep grids are capped at {MAX_SWEEP_POINTS} points"),
        ));
    }
    Ok((0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect())
}

/// The per-point `rows` array + `failed` tally, shared between
/// `/v1/sweep` and `/v1/batch` sweep entries.
fn write_sweep_rows(
    w: &mut JsonWriter,
    values: &[f64],
    results: &[Result<dvf_core::dvf::DvfReport, WorkflowError>],
) -> u64 {
    let mut failed = 0u64;
    w.key("rows").begin_array();
    for (v, r) in values.iter().zip(results) {
        w.begin_object();
        w.key("value").f64(*v);
        match r {
            Ok(report) => {
                w.key("time_s").f64(report.time_s);
                w.key("dvf_app").f64(report.dvf_app());
            }
            Err(e) => {
                failed += 1;
                w.key("error").string(&e.to_string());
            }
        }
        w.end_object();
    }
    w.end_array();
    w.key("failed").u64(failed);
    failed
}

fn sweep(body: &Json, ctx: &ServeCtx) -> Response {
    let _sweep = dvf_obs::span("sweep");
    let wf = match resolve_workflow(body, ctx) {
        Ok(wf) => wf,
        Err(e) => return e.into_response(),
    };
    let Some(param) = body.get("param").and_then(Json::as_str) else {
        return error_response(422, "missing_field", "body needs a string `param` field");
    };
    let values = match grid_of(body) {
        Ok(v) => v,
        Err(e) => return e.into_response(),
    };
    if values.len() > MAX_SWEEP_POINTS {
        return error_response(
            422,
            "too_many_points",
            &format!("sweep grids are capped at {MAX_SWEEP_POINTS} points"),
        );
    }
    let overrides = match overrides_of(body) {
        Ok(o) => o,
        Err(e) => return e.into_response(),
    };
    // Same validation as `dvf sweep`: a typo'd parameter is an error, not
    // a silently flat curve.
    if let Err(e) = wf.workflow().check_param(param) {
        return workflow_error(&e).into_response();
    }

    let before = memo::stats();
    let results = dvf_core::sweep::par_map(&values, |&v| {
        let mut point: Vec<(&str, f64)> = overrides
            .iter()
            .map(|(k, val)| (k.as_str(), *val))
            .collect();
        point.push((param, v));
        wf.workflow().evaluate(&point)
    });
    let cache = memo::stats().since(&before);
    // Attribute the memo-cache effect to this request's trace as an
    // absolute overwrite: the per-point bumps happen on `par_map` worker
    // threads the trace cannot see (except the single-point inline case,
    // which would otherwise double-count against these deltas).
    dvf_obs::trace::set_delta("sweep.cache.hit", cache.hits);
    dvf_obs::trace::set_delta("sweep.cache.miss", cache.misses);

    let mut w = writer();
    w.key("ok").bool(true);
    w.key("param").string(param);
    w.key("points").u64(values.len() as u64);
    write_sweep_rows(&mut w, &values, &results);
    // Cache-effect deltas, named after the obs counters they mirror.
    // Process-wide: concurrent requests' evaluations land in the same
    // tallies, so treat these as indicative under contention.
    w.key("cache")
        .begin_object()
        .key("sweep.cache.hit")
        .u64(cache.hits)
        .key("sweep.cache.miss")
        .u64(cache.misses)
        .key("entries")
        .u64(cache.entries)
        .end_object();
    w.end_object();
    Response::json(200, w.finish())
}

/// A 422 whose error object carries the configured cap as a structured
/// field (`cap_key`), so a coordinator can read the limit instead of
/// parsing it out of the message.
fn capped_response(code: &str, message: &str, cap_key: &str, cap: usize) -> Response {
    let mut w = writer();
    w.key("error")
        .begin_object()
        .key("code")
        .string(code)
        .key("message")
        .string(message)
        .key(cap_key)
        .u64(cap as u64)
        .end_object();
    w.end_object();
    Response::json(422, w.finish())
}

/// `POST /v1/sweepchunk`: evaluate one coordinator chunk — an explicit
/// list of grid points over named sweep dimensions. The distributed
/// `dvf sweep --shards` coordinator fans chunks of one grid across
/// shards through this endpoint and merges the rows back by grid index;
/// row values round-trip bit-exactly (shortest-round-trip float
/// serialization both ways), which is what keeps the merged output
/// byte-identical to a local sweep.
///
/// Body: `source`/`session` (+ optional `machine`/`model`), fixed
/// `params` overrides, `dims` (array of parameter names), `points`
/// (array of per-point coordinate arrays, one value per dim), and an
/// optional `chunk` id echoed back for correlation. Every dim is
/// validated like `/v1/sweep`'s `param`; chunks are capped at the same
/// grid-point limit.
fn sweepchunk(body: &Json, ctx: &ServeCtx) -> Response {
    let _sweep = dvf_obs::span("sweepchunk");
    let wf = match resolve_workflow(body, ctx) {
        Ok(wf) => wf,
        Err(e) => return e.into_response(),
    };
    let Some(dims_json) = body.get("dims").and_then(Json::as_arr) else {
        return error_response(
            422,
            "missing_field",
            "body needs a `dims` array of parameter names",
        );
    };
    let dims: Option<Vec<&str>> = dims_json.iter().map(Json::as_str).collect();
    let Some(dims) = dims else {
        return error_response(422, "bad_dims", "`dims` must hold strings");
    };
    if dims.is_empty() {
        return error_response(422, "bad_dims", "`dims` must be non-empty");
    }
    let Some(points_json) = body.get("points").and_then(Json::as_arr) else {
        return error_response(
            422,
            "missing_field",
            "body needs a `points` array of coordinate arrays",
        );
    };
    if points_json.len() > MAX_SWEEP_POINTS {
        return capped_response(
            "too_many_points",
            &format!("sweep chunks are capped at {MAX_SWEEP_POINTS} points"),
            "max_points",
            MAX_SWEEP_POINTS,
        );
    }
    let mut points: Vec<Vec<f64>> = Vec::with_capacity(points_json.len());
    for (i, p) in points_json.iter().enumerate() {
        let coords = p
            .as_arr()
            .and_then(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>());
        match coords {
            Some(c) if c.len() == dims.len() => points.push(c),
            _ => {
                return error_response(
                    422,
                    "bad_points",
                    &format!(
                        "point {i} must be an array of {} number(s), one per dim",
                        dims.len()
                    ),
                )
            }
        }
    }
    let overrides = match overrides_of(body) {
        Ok(o) => o,
        Err(e) => return e.into_response(),
    };
    for dim in &dims {
        if let Err(e) = wf.workflow().check_param(dim) {
            return workflow_error(&e).into_response();
        }
    }
    let chunk_id = body.get("chunk").and_then(Json::as_u64).unwrap_or(0);

    let before = memo::stats();
    let results = dvf_core::sweep::par_map(&points, |coords| {
        let mut point: Vec<(&str, f64)> = overrides
            .iter()
            .map(|(k, val)| (k.as_str(), *val))
            .collect();
        for (dim, v) in dims.iter().zip(coords) {
            point.push((dim, *v));
        }
        wf.workflow().evaluate(&point)
    });
    let cache = memo::stats().since(&before);
    dvf_obs::trace::set_delta("sweep.cache.hit", cache.hits);
    dvf_obs::trace::set_delta("sweep.cache.miss", cache.misses);

    let mut w = writer();
    w.key("ok").bool(true);
    w.key("chunk").u64(chunk_id);
    w.key("points").u64(points.len() as u64);
    let mut failed = 0u64;
    w.key("rows").begin_array();
    for r in &results {
        w.begin_object();
        match r {
            Ok(report) => {
                w.key("time_s").f64(report.time_s);
                w.key("dvf_app").f64(report.dvf_app());
            }
            Err(e) => {
                failed += 1;
                w.key("error").string(&e.to_string());
            }
        }
        w.end_object();
    }
    w.end_array();
    w.key("failed").u64(failed);
    // Per-chunk memo-cache delta. Process-wide tallies: chunks evaluated
    // concurrently on this shard overlap in these windows, so treat the
    // per-chunk split as indicative and the per-shard `/v1/metrics`
    // delta as exact.
    w.key("cache")
        .begin_object()
        .key("sweep.cache.hit")
        .u64(cache.hits)
        .key("sweep.cache.miss")
        .u64(cache.misses)
        .key("entries")
        .u64(cache.entries)
        .end_object();
    w.end_object();
    Response::json(200, w.finish())
}

/// One batch entry, fully validated and ready to evaluate.
enum BatchWork {
    Dvf {
        wf: WfRef,
        overrides: Vec<(String, f64)>,
    },
    Sweep {
        wf: WfRef,
        param: String,
        values: Vec<f64>,
        overrides: Vec<(String, f64)>,
    },
}

/// Validate one batch entry. The kind is explicit (`"kind"`) or inferred:
/// a `param` field means sweep, otherwise dvf.
fn prepare_entry(entry: &Json, ctx: &ServeCtx) -> Result<BatchWork, ApiError> {
    let is_sweep = match entry.get("kind").and_then(Json::as_str) {
        Some("dvf") => false,
        Some("sweep") => true,
        Some(other) => {
            return Err(ApiError::new(
                422,
                "bad_kind",
                format!("unknown entry kind `{other}` (dvf or sweep)"),
            ))
        }
        None => entry.get("param").is_some(),
    };
    let wf = resolve_workflow(entry, ctx)?;
    let overrides = overrides_of(entry)?;
    if is_sweep {
        let Some(param) = entry.get("param").and_then(Json::as_str) else {
            return Err(ApiError::new(
                422,
                "missing_field",
                "sweep entries need a string `param` field",
            ));
        };
        let values = grid_of(entry)?;
        wf.workflow()
            .check_param(param)
            .map_err(|e| workflow_error(&e))?;
        Ok(BatchWork::Sweep {
            wf,
            param: param.to_owned(),
            values,
            overrides,
        })
    } else {
        if entry.get("param").is_some() {
            return Err(ApiError::new(
                422,
                "bad_entry",
                "`param` is a sweep field; use `\"kind\":\"sweep\"` or drop it",
            ));
        }
        Ok(BatchWork::Dvf { wf, overrides })
    }
}

/// Evaluate one prepared entry into its result object (rendered to a
/// string here so entries can run on different threads and still be
/// spliced into the response in entry order). Returns `(json, ok)`.
fn run_entry(work: &BatchWork) -> (String, bool) {
    let mut w = JsonWriter::new();
    let ok = match work {
        BatchWork::Dvf { wf, overrides } => {
            let point: Vec<(&str, f64)> = overrides.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            match wf.workflow().evaluate(&point) {
                Ok(report) => {
                    w.begin_object();
                    w.key("kind").string("dvf");
                    write_dvf_report(&mut w, &report);
                    w.end_object();
                    true
                }
                Err(e) => {
                    workflow_error(&e).write_entry(&mut w);
                    false
                }
            }
        }
        BatchWork::Sweep {
            wf,
            param,
            values,
            overrides,
        } => {
            // Points run sequentially within an entry; the batch already
            // parallelises across entries.
            let results: Vec<_> = values
                .iter()
                .map(|&v| {
                    let mut point: Vec<(&str, f64)> = overrides
                        .iter()
                        .map(|(k, val)| (k.as_str(), *val))
                        .collect();
                    point.push((param, v));
                    wf.workflow().evaluate(&point)
                })
                .collect();
            w.begin_object();
            w.key("kind").string("sweep");
            w.key("ok").bool(true);
            w.key("param").string(param);
            w.key("points").u64(values.len() as u64);
            write_sweep_rows(&mut w, values, &results);
            w.end_object();
            true
        }
    };
    (w.finish(), ok)
}

/// `POST /v1/batch`: answer many dvf/sweep questions in one round-trip.
/// Entries are validated serially (cheap), evaluated in parallel
/// (expensive), and rendered back in entry order — the response bytes are
/// deterministic however the parallel evaluation interleaves. A bad entry
/// yields a per-entry `{"error":{...}}` object, never a whole-batch
/// failure; the sweep `cache` object is deliberately omitted (its values
/// depend on what other requests did to the process-wide memo cache).
fn batch(body: &Json, ctx: &ServeCtx) -> Response {
    let Some(entries) = body.get("entries").and_then(Json::as_arr) else {
        return error_response(422, "missing_field", "body needs an `entries` array");
    };
    let cap = ctx.config.max_batch_entries;
    if entries.len() > cap {
        return capped_response(
            "too_many_entries",
            &format!("batches are capped at {cap} entries"),
            "max_entries",
            cap,
        );
    }
    let prepared: Vec<Result<BatchWork, ApiError>> =
        entries.iter().map(|e| prepare_entry(e, ctx)).collect();
    let fragments = dvf_core::sweep::par_map(&prepared, |p| match p {
        Ok(work) => run_entry(work),
        Err(e) => {
            let mut w = JsonWriter::new();
            e.write_entry(&mut w);
            (w.finish(), false)
        }
    });
    let failed = fragments.iter().filter(|(_, ok)| !ok).count() as u64;
    let mut w = writer();
    w.key("ok").bool(true);
    w.key("entries").u64(entries.len() as u64);
    w.key("failed_entries").u64(failed);
    w.key("results").begin_array();
    for (fragment, _) in &fragments {
        w.raw(fragment);
    }
    w.end_array();
    w.end_object();
    Response::json(200, w.finish())
}
