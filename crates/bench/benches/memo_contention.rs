//! Memo-cache contention: warm-hit throughput as threads are added,
//! labeled with the cache's stripe count (a constant 16):
//!
//! ```text
//! cargo bench -p dvf-bench --bench memo_contention
//! ```
//!
//! The startup report prints aggregate ops/s per thread count; the
//! criterion rows then time the single-threaded hit and miss paths.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use dvf_cachesim::CacheConfig;
use dvf_core::memo::{self, EvalKey, PatternKey};
use dvf_core::patterns::{CacheView, StreamingSpec};
use std::hint::black_box;
use std::time::Instant;

fn view() -> CacheView {
    CacheView::exclusive(CacheConfig::new(4, 64, 32).unwrap())
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

/// Pre-populate `KEYS` entries so the storm below is all hits — the
/// contended path is the stripe lock around a `HashMap` probe.
const KEYS: u64 = 64;

fn warm() {
    memo::set_enabled(true);
    memo::clear();
    let v = view();
    for i in 0..KEYS {
        let n = 10_000 + i * 37;
        memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v)).expect("warm");
    }
}

/// Aggregate warm-hit throughput with `threads` threads hammering the
/// cache round-robin over the warm keys.
fn storm(threads: usize, ops_per_thread: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let v = view();
                for i in 0..ops_per_thread {
                    let n = 10_000 + (i as u64 % KEYS) * 37;
                    let got = memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v));
                    black_box(got.expect("hit"));
                }
            });
        }
    });
    (threads * ops_per_thread) as f64 / started.elapsed().as_secs_f64()
}

fn contention_report() {
    let ops_per_thread = if std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms < 100)
    {
        20_000 // CI smoke: keep the storm short
    } else {
        200_000
    };
    warm();
    for threads in [1usize, 2, 4, 8] {
        let ops_per_s = storm(threads, ops_per_thread);
        println!(
            "memo_contention stripes={} threads={threads} ops={} ~{:.2} Mops/s",
            memo::stripe_count(),
            threads * ops_per_thread,
            ops_per_s / 1e6,
        );
    }
}

fn memo_benches(c: &mut Criterion) {
    contention_report();

    let mut group = c.benchmark_group("memo");
    warm();
    let v = view();

    group.bench_function("warm_hit", |b| {
        b.iter(|| {
            let got = memo::evaluate(black_box(key_of(10_000, &v)), || {
                spec(10_000).mem_accesses(&v)
            });
            black_box(got.expect("hit"))
        })
    });

    // The miss path: every iteration a fresh key (monotone n), so this
    // times compute + insert. Entries accumulate; clear afterwards.
    let mut n = 50_000_000u64;
    group.bench_function("cold_miss", |b| {
        b.iter(|| {
            n += 1;
            let got = memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v));
            black_box(got.expect("miss"))
        })
    });
    memo::clear();

    group.finish();
}

criterion_group!(benches, memo_benches);
criterion_main!(benches);
