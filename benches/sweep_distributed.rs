//! Distributed sweep scaling: local vs 1-shard vs 2-shard, and
//! memo-affine vs round-robin chunk routing (the headline numbers are in
//! `perfbench/ledger.json` `history`).
//!
//! Every shard is a real `dvf serve` subprocess with its own memo
//! cache, talked to over loopback HTTP — the same path `dvf sweep
//! --shards` takes. The startup study runs each configuration once from
//! cold and reports wall time, points/s, and per-shard cache hit rates;
//! it asserts that memo-affine routing strictly out-hits round-robin on
//! the fit x n grid (equal-fingerprint points co-locate under affine,
//! scatter under RR) and prints `sweep_affinity assert: ok` for CI to
//! grep. The criterion rows then time the steady-state pieces: planning
//! (fingerprints + chunking) and warm local/distributed passes.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use dvf::core::gridplan::{Assignment, ChunkPlan, GridSpec};
use dvf::core::workflow::DvfWorkflow;
use dvf::serve::coordinator::{self, CoordinatorConfig, DistReport, RowOutcome, SweepJob};
use std::hint::black_box;
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// FIT is a machine parameter: points differing only in `fit` share
/// every memo key, so affine routing has something to exploit.
const MODEL: &str = r#"
machine m {
  param fit = 5000
  cache { associativity = 4  sets = 64  line = 32 }
  memory { fit = fit }
  core { flops = 1e9  bandwidth = 4e9 }
}
model app {
  param n = 200
  data A { size = n * 8  element = 8 }
  data B { size = n * 8  element = 8 }
  kernel k {
    flops = 2 * n
    access A as streaming(stride = 4)
    access B as streaming()
  }
}
"#;

const CHUNK_POINTS: usize = 32;

/// `fit` slow, `n` fast: contiguous round-robin chunks split each n's
/// fit-variants across shards; affine reunites them.
fn grid() -> GridSpec {
    let smoke = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms < 100);
    // Keep n_values / CHUNK_POINTS odd: with an even chunks-per-fit-row
    // count, round-robin's chunk rotation happens to re-align identical
    // n-runs on the same shard and the A/B collapses.
    let n_values = if smoke { 96 } else { 480 };
    GridSpec::new(vec![
        ("fit".to_owned(), vec![1000.0, 2000.0, 5000.0, 10000.0]),
        (
            "n".to_owned(),
            (0..n_values).map(|i| 100.0 + i as f64).collect(),
        ),
    ])
    .expect("grid")
}

struct Shard {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_shard() -> Shard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvf"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dvf serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup banner");
    let addr: SocketAddr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split("/v1/").next())
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("shard addr");
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    Shard { child, addr }
}

fn job() -> SweepJob {
    SweepJob {
        source: MODEL.to_owned(),
        machine: None,
        model: None,
        overrides: Vec::new(),
    }
}

fn plan_for(grid: &GridSpec, shards: usize, assignment: Assignment) -> ChunkPlan {
    let wf = DvfWorkflow::parse(MODEL).expect("model parses");
    ChunkPlan::plan(grid, shards, CHUNK_POINTS, assignment, |idx| {
        let point = dvf::core::sweep::point(&[], &grid.names(), &grid.point(idx));
        wf.point_fingerprint(&point).unwrap_or(0)
    })
}

fn local_rows(grid: &GridSpec) -> Vec<RowOutcome> {
    let wf = DvfWorkflow::parse(MODEL).expect("model parses");
    let indices: Vec<usize> = (0..grid.len()).collect();
    dvf::core::sweep::par_map(&indices, |&idx| {
        wf.evaluate_row(&[], &grid.names(), &grid.point(idx))
    })
}

fn run_distributed(grid: &GridSpec, shards: &[SocketAddr], assignment: Assignment) -> DistReport {
    let plan = plan_for(grid, shards.len(), assignment);
    coordinator::run(
        &job(),
        grid,
        &plan,
        shards,
        &CoordinatorConfig::default(),
        |_| {},
    )
    .expect("distributed sweep")
}

fn describe_shards(report: &DistReport) -> (String, f64) {
    let mut parts = Vec::new();
    let (mut hits, mut total) = (0u64, 0u64);
    for s in &report.shards {
        let lookups = s.cache_hits + s.cache_misses;
        hits += s.cache_hits;
        total += lookups;
        parts.push(format!(
            "[{} chunks={} points={} hits={} misses={} rate={:.3}]",
            s.addr,
            s.chunks,
            s.points,
            s.cache_hits,
            s.cache_misses,
            if lookups == 0 {
                0.0
            } else {
                s.cache_hits as f64 / lookups as f64
            }
        ));
    }
    let rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    };
    (parts.join(" "), rate)
}

/// The cold-cache scaling study: one pass per configuration against
/// fresh shard processes, printed for the record.
fn scaling_study() {
    let grid = grid();
    let points = grid.len();

    let t0 = Instant::now();
    let local = local_rows(&grid);
    let local_s = t0.elapsed().as_secs_f64();
    println!(
        "sweep_scaling/local points={points} wall={local_s:.3}s rate={:.0} pts/s",
        points as f64 / local_s
    );

    for (label, shard_count, assignment) in [
        ("1shard_affine", 1usize, Assignment::MemoAffine),
        ("2shard_affine", 2, Assignment::MemoAffine),
        ("2shard_roundrobin", 2, Assignment::RoundRobin),
    ] {
        let shards: Vec<Shard> = (0..shard_count).map(|_| spawn_shard()).collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
        let t0 = Instant::now();
        let report = run_distributed(&grid, &addrs, assignment);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(report.rows, local, "distributed rows must match local");
        let (per_shard, rate) = describe_shards(&report);
        println!(
            "sweep_scaling/{label} points={points} wall={wall:.3}s rate={:.0} pts/s \
             hit_rate={rate:.3} shards={per_shard}",
            points as f64 / wall
        );
        // Keep the two 2-shard hit rates for the affinity assertion.
        if label == "2shard_affine" {
            AFFINE_RATE.with(|c| c.set(rate));
        }
        if label == "2shard_roundrobin" {
            let affine = AFFINE_RATE.with(|c| c.get());
            assert!(
                affine > rate,
                "memo-affine hit rate {affine:.3} must beat round-robin {rate:.3}"
            );
            println!("sweep_affinity assert: ok (affine {affine:.3} > round-robin {rate:.3})");
        }
        drop(shards);
    }
}

thread_local! {
    static AFFINE_RATE: std::cell::Cell<f64> = const { std::cell::Cell::new(0.0) };
}

fn sweep_benches(c: &mut Criterion) {
    scaling_study();

    let grid = grid();
    let mut group = c.benchmark_group("sweep_dist");

    // Planning cost: per-point fingerprints + chunking, no evaluation.
    group.bench_function("plan_affine", |b| {
        b.iter(|| black_box(plan_for(&grid, 2, Assignment::MemoAffine)))
    });

    // Warm passes: every pattern evaluation is a memo hit, so these
    // time the sweep machinery itself (and, distributed, the RPC tax).
    group.bench_function("local_warm", |b| b.iter(|| black_box(local_rows(&grid))));

    let shards: Vec<Shard> = (0..2).map(|_| spawn_shard()).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    run_distributed(&grid, &addrs, Assignment::MemoAffine); // warm the shards
    group.bench_function("2shard_warm", |b| {
        b.iter(|| black_box(run_distributed(&grid, &addrs, Assignment::MemoAffine)))
    });
    drop(shards);
    group.finish();
}

criterion_group!(benches, sweep_benches);
criterion_main!(benches);
