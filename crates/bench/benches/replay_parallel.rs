//! Parallel trace-replay driver throughput: one borrowed trace fanned
//! across a (config, policy) job grid with `dvf_obs::par::map`, swept
//! over worker-thread counts.
//!
//! On a single-core host the multi-thread rows mostly measure scheduling
//! overhead; on a multi-core host they show the scaling `simulate_many`
//! buys `fig4`/`ablation`. Both are worth tracking.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dvf_cachesim::{
    config::table4, simulate_with_policy, AccessKind, MemRef, PolicyKind, SimJob, Trace,
};
use std::hint::black_box;

fn synthetic_trace(refs: usize) -> Trace {
    let mut t = Trace::new();
    let a = t.registry.register("A");
    let b = t.registry.register("B");
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..refs {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let ds = if i % 3 == 0 { b } else { a };
        let kind = if state.is_multiple_of(4) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        t.push(MemRef::new(ds, state % (1 << 22), kind));
    }
    t
}

/// The `fig4`-shaped grid: every profiling geometry under every policy.
fn job_grid() -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for config in table4::PROFILING {
        for policy in PolicyKind::ALL {
            jobs.push(SimJob { config, policy });
        }
    }
    jobs
}

fn replay_parallel(c: &mut Criterion) {
    let trace = synthetic_trace(50_000);
    let jobs = job_grid();
    let mut group = c.benchmark_group("replay_parallel");
    // Total references replayed per iteration: trace length x job count.
    group.throughput(Throughput::Elements((trace.len() * jobs.len()) as u64));

    let cores = dvf_obs::par::available();
    let mut counts = vec![1, 2, 4, 8];
    counts.retain(|&t| t == 1 || t <= 2 * cores);
    for threads in counts {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let trace = black_box(&trace);
                    black_box(dvf_obs::par::map(black_box(&jobs), threads, |j| {
                        simulate_with_policy(trace, j.config, j.policy)
                    }))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, replay_parallel);
criterion_main!(benches);
