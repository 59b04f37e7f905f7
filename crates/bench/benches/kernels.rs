//! Kernel runtimes, plain vs traced — the cost of source-level
//! instrumentation relative to the untraced computation.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use dvf_bench::sizes;
use dvf_kernels::{barnes_hut, cg, fft, mc, mg, pcg, vm, Recorder};
use std::hint::black_box;

fn kernel_runtimes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    let vm_params = vm::VmParams {
        n: sizes::VM_N,
        stride_a: 4,
    };
    group.bench_function("vm/plain", |b| {
        b.iter(|| black_box(vm::run_plain(black_box(vm_params))))
    });
    group.bench_function("vm/traced", |b| {
        b.iter(|| {
            let rec = Recorder::new();
            black_box(vm::run_traced(black_box(vm_params), &rec))
        })
    });

    let cg_params = cg::CgParams::new(200, 20, 1e-10);
    group.bench_function("cg/plain", |b| {
        b.iter(|| black_box(cg::run_plain(black_box(cg_params))))
    });
    group.bench_function("pcg/plain", |b| {
        b.iter(|| black_box(pcg::run_plain(black_box(cg_params))))
    });

    let nb_params = barnes_hut::NbParams {
        bodies: sizes::NB_BODIES,
        theta: 0.5,
        seed: 42,
    };
    group.bench_function("nb/plain", |b| {
        b.iter(|| black_box(barnes_hut::run_plain(black_box(nb_params))))
    });

    let mg_params = mg::MgParams {
        n: 32,
        cycles: 1,
        smooths: 2,
    };
    group.bench_function("mg/plain", |b| {
        b.iter(|| black_box(mg::run_plain(black_box(mg_params))))
    });

    group.bench_function("ft/plain", |b| {
        b.iter(|| {
            let mut x = fft::input_signal(2048);
            fft::fft_plain(black_box(&mut x), false);
            black_box(x[0])
        })
    });

    let mc_params = mc::McParams {
        grid_points: 20_000,
        xs_entries: 12_000,
        lookups: sizes::MC_LOOKUPS,
        seed: 42,
    };
    group.bench_function("mc/plain", |b| {
        b.iter(|| black_box(mc::run_plain(black_box(mc_params))))
    });

    group.finish();
}

criterion_group!(benches, kernel_runtimes);
criterion_main!(benches);
