//! End-to-end pipeline throughput: trace formats (DVFT v1 vs the
//! compressed block-indexed DVFT2), fused kernel→simulator streaming vs
//! buffered record-then-replay, and memoized parallel sweep grids.
//!
//! At startup the harness also prints the encoded size of each oracle
//! workload trace in both formats (sizes are deterministic facts, not
//! timings); `perfbench/ledger.json` `history` records both.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dvf_cachesim::binio::{read_binary, write_binary, write_binary_v2, TraceReader, DEFAULT_CHUNK};
use dvf_cachesim::{simulate_many, CacheConfig, PolicyKind, SimJob, Simulator, Trace};
use dvf_core::memo;
use dvf_core::workflow::DvfWorkflow;
use dvf_difftest::workloads;
use dvf_kernels::{cg, record_fanout, Recorder};
use std::hint::black_box;

/// The memory-bound geometry of the cachesim study: 32 MB, whose
/// simulator metadata dwarfs the host LLC.
fn geom_32mb() -> CacheConfig {
    CacheConfig {
        associativity: 16,
        num_sets: 32_768,
        line_bytes: 64,
    }
}

/// Oracle-style workload traces (the difftest generators at sizes whose
/// footprints exercise a 32 MB geometry), plus their encodings.
fn oracle_traces() -> Vec<(&'static str, Trace)> {
    let g = [geom_32mb()];
    vec![
        ("streaming", workloads::streaming(500_000, 2, &g, 1.0).trace),
        (
            "random",
            workloads::random(7, 65_536, 8_192, 10, &g, 1.0).trace,
        ),
        (
            "template",
            workloads::template(11, 16_384, 65_536, 4, &g, 1.0).trace,
        ),
        (
            "reuse",
            workloads::reuse(13, 2_048, 8_192, 8, &g, 1.0).trace,
        ),
    ]
}

fn encode(trace: &Trace) -> (Vec<u8>, Vec<u8>) {
    let mut v1 = Vec::new();
    write_binary(trace, &mut v1).unwrap();
    let mut v2 = Vec::new();
    write_binary_v2(trace, &mut v2).unwrap();
    (v1, v2)
}

/// Print the deterministic size comparison once, before any timing.
fn report_sizes(traces: &[(&'static str, Trace)]) {
    for (name, trace) in traces {
        let (v1, v2) = encode(trace);
        eprintln!(
            "pipeline/size/{name}: {} refs, v1 {} B, v2 {} B, ratio {:.2}x",
            trace.len(),
            v1.len(),
            v2.len(),
            v1.len() as f64 / v2.len() as f64
        );
    }
}

/// Cold replay: bytes → decoded references → 32 MB LRU simulator, the
/// full path a trace file takes from disk cache to report.
fn cold_replay(c: &mut Criterion) {
    let traces = oracle_traces();
    report_sizes(&traces);
    let mut group = c.benchmark_group("pipeline");

    // One combined stream, like a real kernel trace mixing phases.
    let mut combined = Trace::new();
    for (_, t) in &traces {
        let map: Vec<_> = t
            .registry
            .iter()
            .map(|(_, name)| combined.registry.register(name))
            .collect();
        for r in &t.refs {
            combined.push(dvf_cachesim::MemRef::new(map[r.ds.index()], r.addr, r.kind));
        }
    }
    let (v1, v2) = encode(&combined);
    let refs = combined.len() as u64;
    group.throughput(Throughput::Elements(refs));

    for (label, bytes) in [("v1", &v1), ("v2", &v2)] {
        group.bench_with_input(BenchmarkId::new("decode", label), bytes, |b, bytes| {
            b.iter(|| black_box(read_binary(bytes.as_slice()).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("cold_replay", label), bytes, |b, bytes| {
            b.iter(|| {
                let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
                let mut sim = Simulator::new(geom_32mb());
                let mut chunk = Vec::new();
                while reader.read_chunk(&mut chunk, DEFAULT_CHUNK).unwrap() > 0 {
                    sim.run(&chunk);
                }
                black_box(sim.finish())
            })
        });
    }
    group.finish();
}

/// Record→replay pipeline: the CG kernel driven into the memory-bound
/// 32 MB geometry three ways — via a v1 trace file on disk (the pre-DVFT2
/// pipeline), via an in-memory buffered trace, and fused (no trace
/// materialized at all).
fn record_paths(c: &mut Criterion) {
    let jobs = [SimJob {
        config: geom_32mb(),
        policy: PolicyKind::Lru,
    }];
    // Reference count for throughput: one dry recording.
    let rec = Recorder::new();
    cg::run_traced(cg::CgParams::verification(), &rec);
    let refs = rec.into_trace().len() as u64;
    let tmp = std::env::temp_dir().join(format!("dvf-bench-pipeline-{}.dvft", std::process::id()));

    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(refs));
    group.bench_function("record/file_v1", |b| {
        b.iter(|| {
            let rec = Recorder::new();
            cg::run_traced(cg::CgParams::verification(), &rec);
            let trace = rec.into_trace();
            let f = std::fs::File::create(&tmp).unwrap();
            write_binary(&trace, std::io::BufWriter::new(f)).unwrap();
            let back =
                read_binary(std::io::BufReader::new(std::fs::File::open(&tmp).unwrap())).unwrap();
            black_box(simulate_many(&back, &jobs))
        })
    });
    group.bench_function("record/buffered", |b| {
        b.iter(|| {
            let rec = Recorder::new();
            cg::run_traced(cg::CgParams::verification(), &rec);
            let trace = rec.into_trace();
            black_box(simulate_many(&trace, &jobs))
        })
    });
    group.bench_function("record/fused", |b| {
        b.iter(|| {
            black_box(record_fanout(&jobs, |rec| {
                cg::run_traced(cg::CgParams::verification(), rec);
            }))
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&tmp);
}

/// A fig7-style grid at production scale (n = 1e6): the swept parameter
/// `w` reaches only the time model, so with memoization every CGPMAC
/// pattern evaluation after the first grid point is a cache hit.
const SWEEP_SOURCE: &str = r#"
    machine m {
      cache { associativity = 8  sets = 8192  line = 64 }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model app {
      param n = 1000000
      param w = 1
      data A { size = n * 8  element = 8 }
      data G { size = n * 16  element = 16 }
      data p { size = 64 * KiB  element = 8 }
      kernel main {
        flops = 10 * n * w
        access A as streaming(stride = 2)
        access G as random(k = n / 8, iters = 1000)
        access p as reuse(reuses = 500)
      }
    }
"#;

fn sweep_grid(c: &mut Criterion) {
    let wf = DvfWorkflow::parse(SWEEP_SOURCE).unwrap();
    let values: Vec<f64> = (1..=16).map(|i| i as f64).collect();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(values.len() as u64));

    group.bench_function("sweep/uncached", |b| {
        memo::set_enabled(false);
        b.iter(|| black_box(wf.sweep_param("w", &values)));
        memo::set_enabled(true);
    });
    group.bench_function("sweep/cached", |b| {
        memo::set_enabled(true);
        memo::clear();
        b.iter(|| black_box(wf.sweep_param("w", &values)));
    });
    group.finish();
}

criterion_group!(benches, cold_replay, record_paths, sweep_grid);
criterion_main!(benches);
