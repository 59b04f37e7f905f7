//! Memo-cache contention: warm-hit throughput as threads are added,
//! labeled with the cache's stripe count.
//!
//! ```text
//! cargo run --release -p dvf-core --example memo_contention
//! ```
//!
//! Every key is cached before the storm starts, so each operation is a
//! hit and the contended path is the stripe lock around a `HashMap`
//! probe.

use dvf_cachesim::CacheConfig;
use dvf_core::memo::{self, EvalKey, PatternKey};
use dvf_core::patterns::{CacheView, StreamingSpec};
use std::hint::black_box;
use std::time::Instant;

/// Distinct warm keys the threads cycle through.
const KEYS: u64 = 64;
const OPS_PER_THREAD: usize = 200_000;

fn view() -> CacheView {
    CacheView::exclusive(CacheConfig::new(4, 64, 32).expect("valid geometry"))
}

fn spec(n: u64) -> StreamingSpec {
    StreamingSpec {
        element_bytes: 8,
        num_elements: n,
        stride_elements: 1,
    }
}

fn key_of(n: u64, view: &CacheView) -> EvalKey {
    memo::key(
        PatternKey::Streaming {
            element_bytes: 8,
            num_elements: n,
            stride_elements: 1,
        },
        view,
    )
}

fn n_of(i: u64) -> u64 {
    10_000 + (i % KEYS) * 37
}

/// Aggregate warm-hit operations per second with `threads` threads
/// cycling through the warm keys.
fn storm(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let v = view();
                for i in 0..OPS_PER_THREAD as u64 {
                    let n = n_of(i);
                    let got = memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v));
                    black_box(got.expect("warm hit"));
                }
            });
        }
    });
    (threads * OPS_PER_THREAD) as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    memo::set_enabled(true);
    memo::clear();
    let v = view();
    for i in 0..KEYS {
        let n = n_of(i);
        memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v)).expect("warm");
    }
    for threads in [1usize, 2, 4, 8] {
        let ops_per_s = storm(threads);
        println!(
            "memo_contention stripes={} threads={threads} ops={} ~{:.2} Mops/s",
            memo::stripe_count(),
            threads * OPS_PER_THREAD,
            ops_per_s / 1e6,
        );
    }
}
