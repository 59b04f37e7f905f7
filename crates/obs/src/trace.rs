//! Per-request trace contexts.
//!
//! A [`TraceCtx`] is a cheap, thread-local recording scope identified by a
//! 64-bit trace id. While a trace is active on a thread, every [`crate::span`]
//! completing on that thread appends a [`PhaseSample`] to the trace's
//! timeline, and every [`crate::add`] call accumulates a named counter
//! delta — so one request's phase breakdown and counter attribution can be
//! assembled without touching (or being polluted by) the process-global
//! registry, which aggregates across *all* requests.
//!
//! Activation is independent of the global [`crate::set_enabled`] switch:
//! a server can keep its always-on flight recorder running while the
//! global profile registry stays off. When *neither* is on, instrumented
//! code pays the same near-zero cost as before — one relaxed atomic load
//! plus one thread-local flag load and a branch.
//!
//! Trace ids are caller-assigned. [`trace_id`] derives well-spread,
//! collision-free ids deterministically from a `(seed, counter)` pair
//! (a SplitMix64 step), so tests never need wall-clock entropy.
//!
//! ```
//! let guard = dvf_obs::trace::begin(dvf_obs::trace::trace_id(7, 0));
//! {
//!     let _phase = dvf_obs::span("parse");
//! }
//! dvf_obs::trace::add_delta("memo.hit", 3);
//! let done = guard.finish().expect("trace was active");
//! assert_eq!(done.phases.len(), 1);
//! assert_eq!(done.phases[0].path, "parse");
//! assert_eq!(done.deltas, vec![("memo.hit".to_owned(), 3)]);
//! ```

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Upper bound on recorded phase samples per trace; a runaway span loop
/// degrades to a truncated (but bounded) timeline instead of an
/// unbounded allocation. The drop count is reported on the finished trace.
pub const MAX_PHASES: usize = 512;

thread_local! {
    /// Fast-path flag mirroring `CTX.is_some()`; read on every span and
    /// counter call, so it lives in its own `Cell`.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CTX: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// One completed span attributed to a trace, in completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSample {
    /// `/`-joined span path (same convention as the global registry).
    pub path: String,
    /// Nesting depth at record time; depth-0 samples partition the
    /// request wall-clock (they never overlap), so their durations sum
    /// to at most the trace total.
    pub depth: usize,
    /// Wall-clock nanoseconds of this completion.
    pub elapsed_ns: u64,
}

/// The live, thread-local recording state of one trace.
#[derive(Debug)]
struct TraceCtx {
    id: u64,
    started: Instant,
    phases: Vec<PhaseSample>,
    phases_dropped: u64,
    deltas: Vec<(String, u64)>,
}

/// Everything a finished trace recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// The id [`begin`] was called with.
    pub id: u64,
    /// Wall-clock nanoseconds between [`begin`] and [`TraceGuard::finish`].
    pub elapsed_ns: u64,
    /// Completed spans in completion order (children before parents).
    pub phases: Vec<PhaseSample>,
    /// Samples discarded beyond [`MAX_PHASES`].
    pub phases_dropped: u64,
    /// Counter deltas accumulated via [`add_delta`], in first-touch
    /// order.
    pub deltas: Vec<(String, u64)>,
}

impl FinishedTrace {
    /// Total nanoseconds of depth-0 phases (the disjoint partition of the
    /// request timeline).
    pub fn top_level_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.depth == 0)
            .map(|p| p.elapsed_ns)
            .sum()
    }

    /// The depth-0 phase that consumed the most wall-clock, if any.
    pub fn dominant_phase(&self) -> Option<&PhaseSample> {
        self.phases
            .iter()
            .filter(|p| p.depth == 0)
            .max_by_key(|p| p.elapsed_ns)
    }

    /// Value of one recorded counter delta.
    pub fn delta(&self, name: &str) -> Option<u64> {
        self.deltas.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// RAII handle for one active trace. Dropping it without calling
/// [`TraceGuard::finish`] discards the recording (panic safety: a handler
/// that unwinds does not leave a stale trace attached to the thread).
#[derive(Debug)]
#[must_use = "dropping a trace guard discards the recording; call finish()"]
pub struct TraceGuard {
    armed: bool,
    /// `!Send`: the trace is bound to the thread it began on.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Start recording a trace with the given id on this thread.
///
/// If a trace is already active (a misuse — traces do not nest) the old
/// recording is discarded and a fresh one starts; debug builds assert.
pub fn begin(id: u64) -> TraceGuard {
    begin_at(id, Instant::now())
}

/// Start recording a trace whose clock started `backdate_ns` in the past.
///
/// This is the queue-boundary handoff primitive: when a request is parsed
/// on one thread, queued, and executed on another, the executing thread
/// begins the trace backdated by the queue wait so `elapsed_ns` covers
/// the request's whole server-side life, not just the compute slice.
/// Pair it with [`add_phase`] to record the wait itself as a `queue`
/// phase, keeping the depth-0 partition invariant (top-level phase sum ≤
/// trace total) intact.
pub fn begin_backdated(id: u64, backdate_ns: u64) -> TraceGuard {
    let now = Instant::now();
    let started = now
        .checked_sub(std::time::Duration::from_nanos(backdate_ns))
        .unwrap_or(now);
    begin_at(id, started)
}

fn begin_at(id: u64, started: Instant) -> TraceGuard {
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        debug_assert!(ctx.is_none(), "trace::begin while a trace is active");
        *ctx = Some(TraceCtx {
            id,
            started,
            phases: Vec::new(),
            phases_dropped: 0,
            deltas: Vec::new(),
        });
    });
    ACTIVE.set(true);
    TraceGuard {
        armed: true,
        _not_send: std::marker::PhantomData,
    }
}

impl TraceGuard {
    /// Stop recording and return everything captured since [`begin`].
    ///
    /// Returns `None` only if the trace was already taken (e.g. a nested
    /// `begin` replaced it — a misuse caught by debug asserts).
    pub fn finish(mut self) -> Option<FinishedTrace> {
        self.armed = false;
        take()
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = take();
        }
    }
}

fn take() -> Option<FinishedTrace> {
    ACTIVE.set(false);
    CTX.with(|ctx| ctx.borrow_mut().take()).map(|ctx| {
        let elapsed_ns = u64::try_from(ctx.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        FinishedTrace {
            id: ctx.id,
            elapsed_ns,
            phases: ctx.phases,
            phases_dropped: ctx.phases_dropped,
            deltas: ctx.deltas,
        }
    })
}

/// Is a trace active on this thread? (The fast path every instrumented
/// call checks: a thread-local flag load and a branch.)
#[inline]
pub fn active() -> bool {
    ACTIVE.get()
}

/// Id of the trace active on this thread, if any.
pub fn active_id() -> Option<u64> {
    if !active() {
        return None;
    }
    CTX.with(|ctx| ctx.borrow().as_ref().map(|c| c.id))
}

/// Attribute one completed span to the active trace (no-op otherwise).
pub(crate) fn attach_span(path: &str, depth: usize, elapsed_ns: u64) {
    if !active() {
        return;
    }
    CTX.with(|ctx| {
        if let Some(ctx) = ctx.borrow_mut().as_mut() {
            if ctx.phases.len() >= MAX_PHASES {
                ctx.phases_dropped += 1;
            } else {
                ctx.phases.push(PhaseSample {
                    path: path.to_owned(),
                    depth,
                    elapsed_ns,
                });
            }
        }
    });
}

/// Record a synthetic phase on the active trace (no-op otherwise).
///
/// Spans measure themselves; this is for durations measured elsewhere —
/// e.g. the time a request spent in a queue before any handler span ran.
/// A depth-0 synthetic phase participates in the partition invariant, so
/// only record time the trace's clock actually covers (see
/// [`begin_backdated`]).
pub fn add_phase(path: &str, depth: usize, elapsed_ns: u64) {
    attach_span(path, depth, elapsed_ns);
}

/// Accumulate `v` into the active trace's delta for `name` (no-op when no
/// trace is active). [`crate::add`] calls this, so counter sites
/// attribute automatically; call it directly for trace-only deltas.
#[inline]
pub fn add_delta(name: &str, v: u64) {
    if !active() {
        return;
    }
    CTX.with(|ctx| {
        if let Some(ctx) = ctx.borrow_mut().as_mut() {
            match ctx.deltas.iter_mut().find(|(n, _)| n == name) {
                Some((_, slot)) => *slot = slot.saturating_add(v),
                None => ctx.deltas.push((name.to_owned(), v)),
            }
        }
    });
}

/// Deterministic, well-spread trace id for request number `n` of a server
/// seeded with `seed`: one SplitMix64 step over `seed + (n + 1) · φ⁻¹`.
///
/// The underlying map is a bijection of `u64`, so for a fixed seed every
/// `n` yields a distinct id — uniqueness without clocks or randomness.
pub fn trace_id(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_spans_without_global_enable() {
        let _lock = crate::test_guard();
        crate::set_enabled(false);
        crate::reset();
        let guard = begin(trace_id(1, 0));
        assert!(active());
        {
            let _outer = crate::span("handle");
            let _inner = crate::span("parse");
        }
        let done = guard.finish().expect("active trace");
        assert!(!active());
        let paths: Vec<(&str, usize)> = done
            .phases
            .iter()
            .map(|p| (p.path.as_str(), p.depth))
            .collect();
        assert_eq!(paths, vec![("handle/parse", 1), ("handle", 0)]);
        // The global registry stayed untouched: obs was disabled.
        assert!(crate::snapshot().spans.is_empty());
    }

    #[test]
    fn deltas_accumulate_per_name() {
        let _lock = crate::test_guard();
        crate::set_enabled(false);
        let guard = begin(42);
        add_delta("memo.hit", 2);
        add_delta("memo.hit", 3);
        add_delta("refs", 10);
        let done = guard.finish().unwrap();
        assert_eq!(done.delta("memo.hit"), Some(5));
        assert_eq!(done.delta("refs"), Some(10));
        assert_eq!(done.delta("absent"), None);
    }

    #[test]
    fn crate_add_attributes_to_active_trace() {
        let _lock = crate::test_guard();
        crate::set_enabled(false);
        let guard = begin(7);
        crate::add("trace.test.counter", 5);
        let done = guard.finish().unwrap();
        assert_eq!(done.delta("trace.test.counter"), Some(5));
        // Disabled: the global counter never moved.
        assert_eq!(crate::snapshot().counter_value("trace.test.counter"), None);
    }

    #[test]
    fn dropping_guard_discards_and_deactivates() {
        let _lock = crate::test_guard();
        let guard = begin(9);
        add_delta("x", 1);
        drop(guard);
        assert!(!active());
        assert_eq!(active_id(), None);
    }

    #[test]
    fn top_level_and_dominant_ignore_nested_phases() {
        let done = FinishedTrace {
            id: 1,
            elapsed_ns: 100,
            phases: vec![
                PhaseSample {
                    path: "parse".into(),
                    depth: 0,
                    elapsed_ns: 10,
                },
                PhaseSample {
                    path: "workflow/resolve".into(),
                    depth: 1,
                    elapsed_ns: 500,
                },
                PhaseSample {
                    path: "workflow".into(),
                    depth: 0,
                    elapsed_ns: 60,
                },
            ],
            phases_dropped: 0,
            deltas: vec![],
        };
        assert_eq!(done.top_level_ns(), 70);
        assert_eq!(done.dominant_phase().unwrap().path, "workflow");
    }

    #[test]
    fn phase_cap_bounds_the_timeline() {
        let _lock = crate::test_guard();
        crate::set_enabled(false);
        let guard = begin(3);
        for _ in 0..(MAX_PHASES + 10) {
            let _s = crate::span("tick");
        }
        let done = guard.finish().unwrap();
        assert_eq!(done.phases.len(), MAX_PHASES);
        assert_eq!(done.phases_dropped, 10);
    }

    #[test]
    fn backdated_trace_covers_the_queue_wait() {
        let _lock = crate::test_guard();
        crate::set_enabled(false);
        let wait_ns = 5_000_000; // a pretend 5 ms queue wait
        let guard = begin_backdated(11, wait_ns);
        add_phase("queue", 0, wait_ns);
        {
            let _work = crate::span("compute");
        }
        let done = guard.finish().expect("active trace");
        // The trace's clock started before the queue wait, so the total
        // covers it and the depth-0 partition invariant holds.
        assert!(done.elapsed_ns >= wait_ns, "{}", done.elapsed_ns);
        assert!(done.top_level_ns() <= done.elapsed_ns);
        assert_eq!(done.phases[0].path, "queue");
        assert_eq!(done.phases[0].elapsed_ns, wait_ns);
        assert!(done.phases.iter().any(|p| p.path == "compute"));
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..1000).map(|n| trace_id(0xABCD, n)).collect();
        let b: Vec<u64> = (0..1000).map(|n| trace_id(0xABCD, n)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
        assert_ne!(trace_id(1, 0), trace_id(2, 0));
    }

    #[test]
    fn inactive_calls_are_no_ops() {
        let _lock = crate::test_guard();
        assert!(!active());
        add_delta("ghost", 1);
        attach_span("ghost", 0, 1);
        assert_eq!(active_id(), None);
    }
}
