//! The disabled instrumentation path costs a flag check, not a recording.
//!
//! This binary holds one test so that no sibling flips `set_enabled`
//! while it times. The ceiling is absolute: far above a flag check (tens
//! of instructions) and far below a real recording path (allocation and
//! a lock), so a regression that starts doing work while disabled fails
//! on any hardware. A debug build runs the span path at
//! 70–90 ns/op, so the test runs in release builds only.

use std::hint::black_box;
use std::time::Instant;

const OPS: u64 = 1_000_000;
const CEILING_NS_PER_OP: f64 = 50.0;

#[test]
#[cfg_attr(debug_assertions, ignore = "times optimised code; run with --release")]
fn disabled_span_and_add_stay_under_the_ceiling() {
    dvf_obs::set_enabled(false);

    let started = Instant::now();
    for _ in 0..OPS {
        drop(black_box(dvf_obs::span("disabled_cost")));
    }
    let span_ns = started.elapsed().as_nanos() as f64 / OPS as f64;

    let started = Instant::now();
    for _ in 0..OPS {
        dvf_obs::add("disabled_cost.counter", black_box(1));
    }
    let add_ns = started.elapsed().as_nanos() as f64 / OPS as f64;

    println!("disabled path: span {span_ns:.1} ns/op, add {add_ns:.1} ns/op");
    assert!(
        span_ns < CEILING_NS_PER_OP && add_ns < CEILING_NS_PER_OP,
        "disabled-path overhead regressed: span {span_ns:.1} ns/op, \
         add {add_ns:.1} ns/op (ceiling {CEILING_NS_PER_OP} ns/op)"
    );
}
