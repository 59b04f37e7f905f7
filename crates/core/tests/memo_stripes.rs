//! Concurrency properties of the striped memo cache: consistent stats
//! snapshots and bit-identical results under parallel lookup storms.
//!
//! This file is its own test binary (own process), so only its own tests
//! touch the cache — unlike the in-crate unit tests, which share the
//! process-wide cache with every other `dvf-core` test. Its tests
//! serialize, and the exact-count assertions read deltas from a
//! `memo::stats()` snapshot, because `memo::clear()` keeps the lifetime
//! tallies.

use dvf_cachesim::CacheConfig;
use dvf_core::memo::{self, EvalKey, PatternKey};
use dvf_core::patterns::{CacheView, StreamingSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The three tests share one process-wide cache; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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

#[test]
fn concurrent_lookups_account_exactly_and_match_sequential() {
    let _guard = serial();
    memo::set_enabled(true);
    memo::clear();
    // `clear` keeps the lifetime hit/miss tallies (sibling tests in this
    // binary leave their own behind), so count from a snapshot.
    let base = memo::stats();

    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    const KEYS: u64 = 16;

    // Sequential baseline: one evaluation per key, bit-exact reference.
    let v = view();
    let baseline: Vec<u64> = (0..KEYS)
        .map(|i| {
            let n = 10_000 + i * 37;
            memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v))
                .unwrap()
                .to_bits()
        })
        .collect();
    let warm = memo::stats();
    let warmup = warm.since(&base);
    assert_eq!(warmup.misses, KEYS, "{warmup:?}");
    assert_eq!(warmup.entries, KEYS, "{warmup:?}");

    // Storm: THREADS threads × ROUNDS passes over all KEYS keys, all hits.
    let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let v = view();
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(ROUNDS * KEYS as usize);
                    for _ in 0..ROUNDS {
                        for i in 0..KEYS {
                            let n = 10_000 + i * 37;
                            let got =
                                memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v)).unwrap();
                            out.push(got.to_bits());
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every concurrent result is bit-identical to the sequential baseline.
    for per_thread in &results {
        for (i, bits) in per_thread.iter().enumerate() {
            assert_eq!(
                *bits,
                baseline[i % KEYS as usize],
                "thread result diverged at lookup {i}"
            );
        }
    }

    // Exact accounting: the cache was warm, so the storm is all hits, and
    // the consistent snapshot must show precisely THREADS×ROUNDS×KEYS of
    // them on top of the warm-up misses.
    let after = memo::stats().since(&warm);
    assert_eq!(after.hits, (THREADS * ROUNDS) as u64 * KEYS, "{after:?}");
    assert_eq!(after.misses, 0, "{after:?}");
    assert_eq!(after.entries, KEYS, "{after:?}");
}

#[test]
fn stats_snapshots_are_monotone_while_hammered() {
    let _guard = serial();
    memo::set_enabled(true);
    memo::clear();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Two hammer threads mixing hits and misses.
        for t in 0..2u64 {
            let stop = &stop;
            scope.spawn(move || {
                let v = view();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Revisit a small working set (hits) and add fresh
                    // keys (misses) in a 3:1 ratio.
                    let n = 20_000 + t * 1_000_000 + if i.is_multiple_of(4) { i } else { i % 8 };
                    let _ = memo::evaluate(key_of(n, &v), || spec(n).mem_accesses(&v));
                    i += 1;
                }
            });
        }
        // Observer: every snapshot must be component-wise monotone and
        // internally consistent (hits+misses never decreases, entries
        // never exceeds lifetime misses).
        let mut prev = memo::stats();
        for _ in 0..200 {
            let now = memo::stats();
            assert!(now.hits >= prev.hits, "{now:?} vs {prev:?}");
            assert!(now.misses >= prev.misses, "{now:?} vs {prev:?}");
            assert!(
                now.entries <= now.misses,
                "entries can only come from misses: {now:?}"
            );
            prev = now;
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn stripe_count_is_fixed_and_positive() {
    assert_eq!(memo::stripe_count(), 16);
}
