//! # dvf-obs
//!
//! A lightweight, `std`-only observability layer for the DVF toolchain.
//!
//! The paper's headline claim is that the analytical models answer "in
//! seconds instead of hours of simulation"; this crate is how the
//! reproduction *shows* where that time goes. It provides:
//!
//! * **hierarchical timed spans** — RAII guards ([`span`]) that record
//!   wall-clock time under a `/`-joined path reflecting their nesting
//!   (`eval/patterns/A`), with call counts and min/max;
//! * **counters** ([`counter`]) and fixed-bucket **histograms**
//!   ([`histogram`]) behind a thread-safe global registry (atomics +
//!   `OnceLock`, safe to bump from any number of threads);
//! * **exporters** — a human-readable text report and a stable JSON
//!   schema (`dvf-obs/1`), both derived from an immutable [`Snapshot`];
//! * a global **enable switch** ([`set_enabled`]): when disabled (the
//!   default), every instrumentation call is a single relaxed atomic load
//!   and a branch, so hot loops pay near-zero cost;
//! * **per-request traces** ([`trace`]) — a thread-local recording scope
//!   that spans and counter deltas attach to, independent of the global
//!   switch, giving each request its own phase timeline;
//! * a **flight recorder** ([`ring`]) — a fixed-capacity lock-striped
//!   ring retaining the most recent completed request records;
//! * a **Prometheus text renderer** ([`Snapshot::render_prometheus`])
//!   alongside the text and JSON exporters;
//! * a [`Heartbeat`] progress ticker for long-running CLI jobs;
//! * an ordered scoped-thread fan-out ([`par`]) — the one place the
//!   toolchain spreads independent work over threads, counted under
//!   `par.items` / `par.workers` — and its streaming counterpart, a
//!   two-stage pipeline ([`par::Stage`]).
//!
//! ## Example
//!
//! ```
//! dvf_obs::set_enabled(true);
//! dvf_obs::reset();
//! {
//!     let _eval = dvf_obs::span("eval");
//!     let _parse = dvf_obs::span("parse"); // records as "eval/parse"
//!     dvf_obs::counter("pattern.streaming").add(3);
//! }
//! let snap = dvf_obs::snapshot();
//! assert_eq!(snap.counter_value("pattern.streaming"), Some(3));
//! assert!(snap.render_json().starts_with("{\"schema\":\"dvf-obs/1\""));
//! dvf_obs::set_enabled(false);
//! ```

pub mod export;
pub mod heartbeat;
pub mod json;
pub mod jsonval;
pub mod par;
pub mod registry;
pub mod ring;
pub mod span;
pub mod trace;

pub use export::{CounterEntry, HistogramEntry, Snapshot, SpanEntry};
pub use heartbeat::Heartbeat;
pub use json::JsonWriter;
pub use jsonval::{Json, JsonError};
pub use registry::{Counter, Histogram};
pub use ring::{FlightRecorder, PhaseRecord, RequestRecord};
pub use span::{span, span_scope, SpanGuard};
pub use trace::{FinishedTrace, PhaseSample, TraceGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is instrumentation globally enabled?
///
/// Every recording primitive checks this first; when `false` the only cost
/// of an instrumentation call is this relaxed load and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn instrumentation on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Output format selected by a `--profile[=json]` flag or the
/// `DVF_PROFILE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Human-readable table.
    Text,
    /// The `dvf-obs/1` JSON document.
    Json,
}

impl ProfileFormat {
    /// Print `snap` to stderr in this format.
    pub fn eprint(self, snap: &Snapshot) {
        match self {
            ProfileFormat::Text => eprint!("{}", snap.render_text()),
            ProfileFormat::Json => eprintln!("{}", snap.render_json()),
        }
    }
}

/// Enable instrumentation if the `DVF_PROFILE` environment variable asks
/// for it: unset, empty or `0` leave it off; `json` selects JSON output;
/// anything else selects text. Returns the selected format, if any.
pub fn init_from_env() -> Option<ProfileFormat> {
    let value = std::env::var("DVF_PROFILE").ok()?;
    let format = match value.as_str() {
        "" | "0" => return None,
        "json" => ProfileFormat::Json,
        _ => ProfileFormat::Text,
    };
    set_enabled(true);
    Some(format)
}

/// Handle to the counter registered under `name` (creating it if needed).
///
/// Cache the handle outside hot loops; bumping it is one atomic add.
pub fn counter(name: &str) -> Counter {
    registry::global().counter(name)
}

/// One-shot convenience: `counter(name).add(v)`, plus attribution to
/// the per-request trace active on this thread (if any). Either sink
/// can be on independently; when both are off this is two cheap flag
/// checks.
pub fn add(name: &str, v: u64) {
    if enabled() {
        counter(name).add(v);
    }
    trace::add_delta(name, v);
}

/// Handle to the histogram registered under `name` with the given
/// inclusive upper bucket bounds (a catch-all `+Inf` bucket is implicit).
/// Bounds are fixed at first registration; later calls reuse them.
pub fn histogram(name: &str, bounds: &[u64]) -> Histogram {
    registry::global().histogram(name, bounds)
}

/// Immutable copy of everything recorded so far.
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Clear all recorded spans, counters and histograms (existing handles
/// keep working: counters are zeroed, not dropped).
pub fn reset() {
    registry::global().reset();
}

/// Serialize tests that flip the global [`set_enabled`] switch or call
/// [`reset`], which would otherwise race across the parallel test runner.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
