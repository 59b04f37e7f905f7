//! # dvf-serve
//!
//! A resident DVF evaluation service: the parse-once workflow
//! ([`dvf_core::workflow::DvfWorkflow`]) and the process-wide sweep memo
//! cache ([`dvf_core::memo`]) behind a dependency-free HTTP/1.1 JSON API.
//!
//! The CLI pays the parse + first-evaluation cost on every invocation;
//! a long-lived server amortizes it. Registered models stay parsed in an
//! LRU-capped [`registry::Registry`], and every sweep the server answers
//! warms the same memo cache, so interactive clients (notebooks,
//! dashboards, CI bots) see cache-hit latencies after the first call.
//!
//! ## Shape
//!
//! One readiness-based transport serves the HTTP grammar ([`http`]) and
//! the API ([`api`]):
//!
//! ```text
//! poll(2) loop (1 thread) ──ready requests──▶ bounded queue ──▶ compute
//!   owns listener + every        │                workers (N threads)
//!   connection state machine     └ full ⇒ per-request 503 + Retry-After
//!   (non-blocking reads/writes,    completions return via channel +
//!    keep-alive, pipelining)       self-pipe wakeup
//! ```
//!
//! Connections cost a file descriptor and a small state struct, never a
//! thread: 10k idle keep-alive clients are 10k pollfds, while compute
//! parallelism stays pinned at `workers`. Requests are parsed on the I/O
//! thread and only *complete* requests are handed to workers, so a slow
//! client cannot occupy one.
//!
//! Overload is answered *immediately* with `503` instead of queueing
//! without bound; handler panics are isolated (`500`, server lives);
//! per-connection read/write timeouts and body/header limits are
//! enforced; and [`Server::shutdown`] (or SIGTERM via [`signal`] in the
//! CLI) drains gracefully: stop accepting, finish what is in flight,
//! join every thread.
//!
//! The event loop sits on a `poll(2)` shim, so the service is unix-only:
//! elsewhere [`Server::bind`] returns [`std::io::ErrorKind::Unsupported`].
//!
//! The wire schema is versioned (`dvf-serve/1`, [`SCHEMA`]); see
//! [`api`] for the endpoint table.
//!
//! ## Example
//!
//! ```
//! let server = dvf_serve::Server::bind(dvf_serve::ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..Default::default()
//! })
//! .unwrap();
//! let addr = server.addr();
//! // ... point clients at http://{addr}/v1/ ...
//! server.shutdown();
//! ```

// Off unix nothing drives the request path, so its helpers are unused.
#![cfg_attr(not(unix), allow(dead_code))]

pub mod api;
pub mod client;
pub mod coordinator;
#[cfg(unix)]
mod eventloop;
/// Off unix there is no `poll(2)` shim and so no transport: spawning
/// fails, and [`Server::bind`] reports it as `Unsupported`.
#[cfg(not(unix))]
mod eventloop {
    #[derive(Debug)]
    pub(crate) struct Handle;

    impl Handle {
        pub(crate) fn shutdown(self) {}
    }

    pub(crate) fn spawn(
        _: std::net::TcpListener,
        _: std::sync::Arc<crate::ServeCtx>,
    ) -> std::io::Result<Handle> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "dvf serve needs a unix poll(2) event loop",
        ))
    }
}
pub mod http;
/// Minimal JSON reader. Lives in `dvf_obs::jsonval` (the leaf crate) so
/// model artifacts and sweep manifests can be decoded without depending
/// on the server; re-exported here because this is where request-body
/// decoding happens.
pub mod jsonval {
    pub use dvf_obs::jsonval::*;
}
pub mod loadgen;
pub mod manifest;
pub mod registry;
pub mod signal;
mod sys;

use http::{error_response, Request, Response};
use registry::Registry;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wire schema identifier carried by every response body.
pub const SCHEMA: &str = "dvf-serve/1";

/// Default `/v1/batch` entry cap (the historical hard-coded value).
pub const DEFAULT_MAX_BATCH_ENTRIES: usize = 256;

/// Largest value `--max-batch-entries` may be raised to: one batch is
/// answered by one worker pass, so an unbounded cap would let a single
/// request monopolize the pool arbitrarily long.
pub const MAX_BATCH_ENTRIES_CEILING: usize = 4096;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Compute worker threads executing parsed requests.
    pub workers: usize,
    /// Parsed requests waiting for a worker before further requests are
    /// answered with `503`.
    pub queue_depth: usize,
    /// Concurrently-open connections the event loop will hold before
    /// answering new arrivals with `503` at accept.
    pub max_connections: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout (also bounds keep-alive idle).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Requests served per connection before it is closed.
    pub keep_alive_max: usize,
    /// Registered-session cap (LRU eviction beyond it).
    pub max_sessions: usize,
    /// Largest accepted `POST /v1/batch` entry count (`--max-batch-entries`,
    /// clamped to `1..=MAX_BATCH_ENTRIES_CEILING`; surfaced in
    /// `/v1/metrics` and in the 422 body when exceeded).
    pub max_batch_entries: usize,
    /// Expose `POST /v1/_panic` (worker panic isolation test hook).
    pub panic_route: bool,
    /// Expose `POST /v1/_slow` (deterministic worker-occupancy test hook:
    /// the handler sleeps for the requested milliseconds).
    pub slow_route: bool,
    /// Seed for the deterministic per-request trace ids (the `n`-th
    /// request gets `dvf_obs::trace::trace_id(trace_seed, n)`); fixed by
    /// default so tests and replays see reproducible ids.
    pub trace_seed: u64,
    /// Completed-request records retained by the flight recorder
    /// (rounded up to a stripe multiple; see [`dvf_obs::FlightRecorder`]).
    pub flight_capacity: usize,
    /// Log a structured JSON line to stderr for every request slower
    /// than this (the `dvf serve --slow-ms N` flag); `None` disables.
    pub slow_request: Option<Duration>,
    /// Path to a `dvf-learn-model/1` artifact to load at startup (the
    /// `dvf serve --model path` flag). When set, `POST /v1/predict`
    /// serves learned `N_ha` predictions; when unset the route answers
    /// 503 so load balancers can tell "no model" from "bad request".
    pub model_path: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            max_connections: 4096,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            keep_alive_max: 1000,
            max_sessions: 32,
            max_batch_entries: DEFAULT_MAX_BATCH_ENTRIES,
            panic_route: false,
            slow_route: false,
            trace_seed: 0x0DF5_C0DE_D00D_FEED,
            flight_capacity: 256,
            slow_request: None,
            model_path: None,
        }
    }
}

/// Shared server state every worker sees.
#[derive(Debug)]
pub struct ServeCtx {
    /// The configuration the server was started with.
    pub config: ServerConfig,
    /// Named parse-once sessions.
    pub registry: Registry,
    /// Server start time (for `/v1/healthz` uptime).
    pub started: Instant,
    /// Always-on ring of completed request records (`/v1/debug/requests`).
    pub recorder: dvf_obs::FlightRecorder,
    /// Learned `N_ha` predictor loaded from [`ServerConfig::model_path`]
    /// at bind time (`None` until a model is attached; `/v1/predict`
    /// answers 503 without one).
    pub model: Option<dvf_learn::NhaModel>,
    draining: AtomicBool,
    trace_counter: AtomicU64,
    queued: AtomicU64,
    open_connections: AtomicU64,
}

impl ServeCtx {
    /// Fresh context from a configuration.
    pub fn new(config: ServerConfig) -> Self {
        let registry = Registry::new(config.max_sessions);
        let recorder = dvf_obs::FlightRecorder::new(config.flight_capacity);
        Self {
            config,
            registry,
            started: Instant::now(),
            recorder,
            model: None,
            draining: AtomicBool::new(false),
            trace_counter: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
        }
    }

    /// Attach a loaded predictor model (builder style; used by
    /// [`Server::bind`] and by tests that skip the filesystem).
    pub fn with_model(mut self, model: dvf_learn::NhaModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Is the server refusing new connections while finishing old ones?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Parsed requests currently waiting for a worker (the queue-depth
    /// gauge exposed by `/v1/metrics`).
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Connections currently open (accepted and not yet closed), the
    /// `dvf_serve_open_connections` gauge.
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    pub(crate) fn queued_add(&self, n: i64) {
        if n >= 0 {
            self.queued.fetch_add(n as u64, Ordering::Relaxed);
        } else {
            self.queued.fetch_sub(n.unsigned_abs(), Ordering::Relaxed);
        }
    }

    pub(crate) fn conn_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn set_draining(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Next deterministic trace id from the server's seeded counter.
    pub(crate) fn next_trace_id(&self) -> u64 {
        let n = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        dvf_obs::trace::trace_id(self.config.trace_seed, n)
    }
}

/// A running server.
///
/// Dropping a `Server` without calling [`Server::shutdown`] detaches the
/// threads (the process must exit to stop them); call `shutdown` for a
/// deterministic drain.
#[derive(Debug)]
pub struct Server {
    ctx: Arc<ServeCtx>,
    addr: SocketAddr,
    handle: eventloop::Handle,
}

impl Server {
    /// Bind, spawn the event loop and its compute workers, and return
    /// immediately.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let model = match config.model_path.as_deref() {
            Some(path) => Some(load_model(path)?),
            None => None,
        };
        let mut ctx = ServeCtx::new(config);
        if let Some(m) = model {
            ctx = ctx.with_model(m);
        }
        let ctx = Arc::new(ctx);
        let handle = eventloop::spawn(listener, Arc::clone(&ctx))?;
        Ok(Self { ctx, addr, handle })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (for introspection in tests and the CLI).
    pub fn ctx(&self) -> &Arc<ServeCtx> {
        &self.ctx
    }

    /// Graceful drain: stop accepting, serve everything already accepted
    /// or queued, join all threads. Consumes the server.
    pub fn shutdown(self) {
        self.ctx.set_draining();
        self.handle.shutdown();
    }
}

/// Read and validate a `dvf-learn-model/1` artifact, mapping decode
/// failures to `InvalidData` so [`Server::bind`] reports them as bind
/// errors (a server that silently dropped its model would 503 every
/// predict request with no hint why).
fn load_model(path: &str) -> std::io::Result<dvf_learn::NhaModel> {
    let text = std::fs::read_to_string(path)?;
    dvf_learn::NhaModel::from_json(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}")))
}

/// Latency buckets for `serve.latency_us` (µs, roughly ×4 apart).
pub(crate) const LATENCY_BOUNDS_US: [u64; 8] =
    [100, 400, 1_600, 6_400, 25_600, 102_400, 409_600, 1_638_400];

/// Route one request under panic isolation and stamp the trace header,
/// so a panicking handler is a `500` (never a dead compute worker).
pub(crate) fn run_handler(request: &Request, ctx: &ServeCtx, trace_id: u64) -> Response {
    let resp = catch_unwind(AssertUnwindSafe(|| api::route(request, ctx))).unwrap_or_else(|_| {
        error_response(
            500,
            "handler_panic",
            "the request handler panicked; the server is still up",
        )
    });
    resp.with_header("X-Dvf-Trace-Id", format!("{trace_id:016x}"))
}

/// Per-request bookkeeping once a response exists: latency histogram,
/// ok/err counters, slow-request logging, and the flight-recorder entry
/// assembled from the finished trace. `latency` is the full server-side
/// latency, queue wait included (traces are begun backdated to cover it).
pub(crate) fn finish_request(
    ctx: &ServeCtx,
    request: &Request,
    resp: &Response,
    trace_guard: dvf_obs::trace::TraceGuard,
    latency: Duration,
) {
    dvf_obs::histogram("serve.latency_us", &LATENCY_BOUNDS_US)
        .observe(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    dvf_obs::add(
        if resp.status < 400 {
            "serve.req.ok"
        } else {
            "serve.req.err"
        },
        1,
    );
    if let Some(trace) = trace_guard.finish() {
        let route = format!("{} {}", request.method, request.path);
        if let Some(threshold) = ctx.config.slow_request {
            if trace.elapsed_ns >= threshold.as_nanos() as u64 {
                log_slow_request(&trace, &route, resp.status);
            }
        }
        ctx.recorder.push(dvf_obs::RequestRecord::from_trace(
            &trace,
            route,
            resp.status,
        ));
    }
}

/// Emit one structured JSON line to stderr for a slow request, naming
/// the phase that dominated it (`dvf serve --slow-ms N`).
fn log_slow_request(trace: &dvf_obs::FinishedTrace, route: &str, status: u16) {
    let mut w = dvf_obs::JsonWriter::new();
    w.begin_object();
    w.key("event").string("slow_request");
    w.key("trace_id").string(&format!("{:016x}", trace.id));
    w.key("route").string(route);
    w.key("status").u64(u64::from(status));
    w.key("total_us").u64(trace.elapsed_ns / 1_000);
    match trace.dominant_phase() {
        Some(p) => {
            w.key("dominant_phase").string(&p.path);
            w.key("dominant_us").u64(p.elapsed_ns / 1_000);
        }
        None => {
            w.key("dominant_phase").null();
        }
    }
    w.key("phases").begin_array();
    for p in trace.phases.iter().filter(|p| p.depth == 0) {
        w.begin_object();
        w.key("path").string(&p.path);
        w.key("us").u64(p.elapsed_ns / 1_000);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    eprintln!("{}", w.finish());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let status: u16 = out
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        (status, body)
    }

    #[test]
    fn binds_serves_healthz_and_shuts_down() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let addr = server.addr();
        let (status, body) = get(addr, "/v1/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"schema\":\"dvf-serve/1\""), "{body}");
        assert!(body.contains("\"ok\":true"), "{body}");
        server.shutdown();
        // The port is released: a fresh bind to the same address works.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn unknown_route_is_404_and_server_survives() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let (status, body) = get(server.addr(), "/nope");
        assert_eq!(status, 404);
        assert!(body.contains("not_found"), "{body}");
        let (status, _) = get(server.addr(), "/v1/healthz");
        assert_eq!(status, 200);
        server.shutdown();
    }
}
