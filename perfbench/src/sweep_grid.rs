//! `sweep-grid`: one `fit × work × n` grid over a model with streaming,
//! random and reuse patterns, run three ways and checked against itself.
//!
//! Only `n` reaches the pattern memo keys; `fit` (a machine parameter)
//! and `work` (a flops-only parameter) do not. Each repetition runs:
//!
//! - **cold**: in-process after `memo::clear()`, through `par_map`;
//! - **warm**: the same grid again, [`WARM_PASSES`] times;
//! - **sharded**: planned with memo-affine assignment and run by
//!   `coordinator::run` against two freshly started `dvf serve` shards.
//!
//! Cold and sharded passes are timed in own seconds (see
//! [`PassClock::own_secs`]); a warm pass is too short for the host's steal
//! counters.
//!
//! Warm rows must equal cold rows and sharded rows local rows, bit for
//! bit. The traced variant adds a cold pass that times resolve, patterns
//! and report per point, the planner, and the in-process cost of the
//! sharded chunks.

use crate::common::{median, quantile, rng, secs, Env, Ledger, PassClock, Server, SetupParts};
use dvf_core::gridplan::{Assignment, ChunkPlan, GridSpec};
use dvf_core::memo;
use dvf_core::workflow::{account_accesses, evaluate, DvfWorkflow};
use dvf_serve::coordinator::{self, CoordinatorConfig, RowOutcome, SweepJob};
use rand::Rng as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The swept model: `S` streams, `T` is read at random, `P` is reused.
const MODEL: &str = r#"
machine m {
  param fit = 5000
  cache { associativity = 8  sets = 512  line = 64 }
  memory { fit = fit }
  core { flops = 1e9  bandwidth = 4e9 }
}
model grid {
  param n = 50000
  param work = 4
  data S { size = n * 8  element = 8 }
  data T { size = n * 16  element = 16 }
  data P { size = n * 8  element = 8 }
  kernel k {
    flops = work * n
    access S as streaming()
    access T as random(k = 6000, iters = 64)
    access P as reuse(interfering = n * 8, reuses = 8)
  }
}
"#;

/// Grid shape: `fit` values × `work` values × `n` values.
const FITS: usize = 4;
const WORKS: usize = 2;
const NS: usize = 100;
/// Warm passes per repetition (one warm pass is a few milliseconds).
const WARM_PASSES: usize = 8;
/// Grid points per coordinator chunk.
const CHUNK_POINTS: usize = 32;
/// Workers of the in-process fan-out (`par_map` uses every core; the
/// host has two).
const WORKERS: f64 = 2.0;

/// The seeded grid: distinct `n` values, so every `n` is a memo miss once.
fn grid(seed: u64) -> GridSpec {
    let mut rng = rng(seed, "sweep-grid");
    let mut draw = |count: usize, lo: u64, hi: u64| {
        let mut v: Vec<f64> = Vec::with_capacity(count);
        while v.len() < count {
            let x = rng.gen_range(lo..hi) as f64;
            if !v.contains(&x) {
                v.push(x);
            }
        }
        v
    };
    let fits = draw(FITS, 500, 20_000);
    let works = draw(WORKS, 1, 64);
    let ns = draw(NS, 40_000, 240_000);
    GridSpec::new(vec![
        ("fit".to_owned(), fits),
        ("work".to_owned(), works),
        ("n".to_owned(), ns),
    ])
    .expect("grid dimensions are non-empty and distinct")
}

/// One grid point as workflow overrides.
fn point(grid: &GridSpec, idx: usize) -> Vec<(&str, f64)> {
    grid.dims()
        .iter()
        .zip(grid.point(idx))
        .map(|((name, _), v)| (name.as_str(), v))
        .collect()
}

fn eval_row(wf: &DvfWorkflow, grid: &GridSpec, idx: usize) -> RowOutcome {
    match wf.evaluate(&point(grid, idx)) {
        Ok(r) => RowOutcome::Ok {
            time_s: r.time_s,
            dvf_app: r.dvf_app(),
        },
        Err(e) => RowOutcome::Err(e.to_string()),
    }
}

/// Bitwise row equality (`PartialEq` on floats is not bitwise).
fn same_rows(a: &[RowOutcome], b: &[RowOutcome]) -> bool {
    let bits = |r: &RowOutcome| match r {
        RowOutcome::Ok { time_s, dvf_app } => Ok((time_s.to_bits(), dvf_app.to_bits())),
        RowOutcome::Err(e) => Err(e.clone()),
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Two fresh shards, started by set-up or between repetitions.
pub type Shards = (Server, Server);

/// Start two shards.
pub fn start_shards(env: &Env) -> Result<Shards, String> {
    Ok((Server::start(&env.dvf, &[])?, Server::start(&env.dvf, &[])?))
}

/// Start the first two shards, as a part of set-up.
pub fn setup(env: &Env, parts: &mut SetupParts) -> Result<Shards, String> {
    let t = Instant::now();
    let shards = start_shards(env)?;
    parts.push(("shard boot", secs(t)));
    Ok(shards)
}

/// Per-point layer times of one traced cold pass, summed in nanoseconds.
#[derive(Debug, Default)]
struct PointLayers {
    resolve: AtomicU64,
    patterns: AtomicU64,
    report: AtomicU64,
    /// The extra warm accounting `report` is derived with: the
    /// instrumentation's own cost, outside every layer and the program.
    probe: AtomicU64,
    point: AtomicU64,
}

/// Cold pass with every point split into resolve, patterns (accounting
/// on a cold memo) and report (evaluation minus a warm accounting).
/// Returns the pass's wall and own seconds (see [`PassClock::own_secs`]).
fn traced_cold(doc: &dvf_aspen::Document, grid: &GridSpec) -> (f64, f64, PointLayers) {
    let layers = PointLayers::default();
    let indices: Vec<usize> = (0..grid.len()).collect();
    memo::clear();
    let clock = PassClock::start();
    dvf_core::sweep::par_map(&indices, |&idx| {
        let ns = |t: Instant| t.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let mut resolver = dvf_aspen::Resolver::new(doc);
        for (k, v) in point(grid, idx) {
            resolver = resolver.set_param(k, v);
        }
        let spec = resolver
            .machine(None)
            .and_then(|m| Ok((m, resolver.model(None)?)));
        layers.resolve.fetch_add(ns(t0), Ordering::Relaxed);
        let Ok((machine, app)) = spec else { return };
        let t1 = Instant::now();
        std::hint::black_box(account_accesses(&app, &machine).is_ok());
        layers.patterns.fetch_add(ns(t1), Ordering::Relaxed);
        let t2 = Instant::now();
        std::hint::black_box(account_accesses(&app, &machine).is_ok());
        let warm = ns(t2);
        layers.probe.fetch_add(warm, Ordering::Relaxed);
        let t3 = Instant::now();
        std::hint::black_box(evaluate(&app, &machine).is_ok());
        layers
            .report
            .fetch_add(ns(t3).saturating_sub(warm), Ordering::Relaxed);
        layers.point.fetch_add(ns(t0), Ordering::Relaxed);
    });
    (clock.secs(), clock.own_secs(), layers)
}

/// The scenario's state across its interleaved repetitions.
pub struct Scenario<'a> {
    env: &'a Env,
    grid: GridSpec,
    wf: DvfWorkflow,
    doc: dvf_aspen::Document,
    job: SweepJob,
    traced: bool,
    next: Option<Shards>,
    shard_rss: f64,
    cold: Vec<f64>,
    warm: Vec<f64>,
    sharded: Vec<f64>,
    traced_cold: Vec<f64>,
    /// Own seconds of the traced cold passes.
    traced_cold_own: Vec<f64>,
    plan: Vec<f64>,
    rpc: Vec<f64>,
    /// Σ resolve, patterns, report, probe and whole-point µs over traced
    /// passes.
    layer_sums: [f64; 5],
}

impl<'a> Scenario<'a> {
    /// Prepare the seeded grid; `shards` serve the first repetition.
    pub fn new(env: &'a Env, shards: Shards, seed: u64, traced: bool) -> Result<Self, String> {
        Ok(Self {
            env,
            grid: grid(seed),
            wf: DvfWorkflow::parse(MODEL).map_err(|e| format!("sweep model: {e}"))?,
            doc: dvf_aspen::parse(MODEL).map_err(|e| format!("sweep model: {e}"))?,
            job: SweepJob {
                source: MODEL.to_owned(),
                machine: None,
                model: None,
                overrides: Vec::new(),
            },
            traced,
            next: Some(shards),
            shard_rss: 0.0,
            cold: Vec::new(),
            warm: Vec::new(),
            sharded: Vec::new(),
            traced_cold: Vec::new(),
            traced_cold_own: Vec::new(),
            plan: Vec::new(),
            rpc: Vec::new(),
            layer_sums: [0.0; 5],
        })
    }

    /// Peak resident set of the busiest shard pair, in MiB.
    pub fn shard_rss_mb(&self) -> f64 {
        self.shard_rss
    }

    /// One cold pass, [`WARM_PASSES`] warm passes and one sharded pass
    /// (plus, when traced, the layer-timed passes).
    pub fn rep(&mut self, ledger: &mut Ledger) -> Result<(), String> {
        let (grid, wf) = (&self.grid, &self.wf);
        let indices: Vec<usize> = (0..grid.len()).collect();
        let first = self.cold.is_empty();
        memo::clear();
        let before = memo::stats();
        let clock = PassClock::start();
        let rows = dvf_core::sweep::par_map(&indices, |&i| eval_row(wf, grid, i));
        self.cold.push(clock.own_secs());
        if first {
            let delta = memo::stats().since(&before);
            ledger.count("core.memo.hits", delta.hits);
            ledger.count("core.memo.misses", delta.misses);
            ledger.count("core.memo.entries", memo::len() as u64);
        }
        ledger.attempted += grid.len() as u64;
        let failed = rows
            .iter()
            .filter(|r| matches!(r, RowOutcome::Err(_)))
            .count();
        ledger.failed += failed as u64;
        ledger.check(failed == 0, || {
            format!("sweep-grid: {failed} cold point(s) failed")
        });

        for _ in 0..WARM_PASSES {
            let t = Instant::now();
            let again = dvf_core::sweep::par_map(&indices, |&i| eval_row(wf, grid, i));
            self.warm.push(secs(t));
            ledger.check(same_rows(&rows, &again), || {
                "sweep-grid: warm rows differ from cold rows".to_owned()
            });
        }

        let pair = match self.next.take() {
            Some(p) => p,
            None => start_shards(self.env)?,
        };
        let addrs = [pair.0.addr, pair.1.addr];
        let clock = PassClock::start();
        let t = Instant::now();
        let plan = ChunkPlan::plan(grid, 2, CHUNK_POINTS, Assignment::MemoAffine, |idx| {
            wf.point_fingerprint(&point(grid, idx)).unwrap_or(0)
        });
        let planned = secs(t);
        let report = coordinator::run(
            &self.job,
            grid,
            &plan,
            &addrs,
            &CoordinatorConfig::default(),
            |_| {},
        )
        .map_err(|e| format!("sharded sweep: {e}"))?;
        let wall = secs(t);
        self.sharded.push(clock.own_secs());
        self.shard_rss = self
            .shard_rss
            .max(pair.0.peak_rss_mb() + pair.1.peak_rss_mb());
        drop(pair);
        ledger.attempted += grid.len() as u64;
        ledger.check(same_rows(&rows, &report.rows), || {
            "sweep-grid: sharded rows differ from local rows".to_owned()
        });
        if first {
            let s = &report.shards;
            ledger.count("coordinator.chunks", s.iter().map(|x| x.chunks).sum());
            ledger.count("coordinator.retries", s.iter().map(|x| x.retries).sum());
            ledger.count("coordinator.failed_over", report.failed_over_chunks);
            ledger.count("coordinator.shard_memo.hits", report.cache_hits());
            ledger.count("coordinator.shard_memo.misses", report.cache_misses());
        }

        if self.traced {
            let (wall_t, own_t, layers) = traced_cold(&self.doc, grid);
            self.traced_cold.push(wall_t);
            self.traced_cold_own.push(own_t);
            for (sum, slot) in self.layer_sums.iter_mut().zip([
                &layers.resolve,
                &layers.patterns,
                &layers.report,
                &layers.probe,
                &layers.point,
            ]) {
                *sum += slot.load(Ordering::Relaxed) as f64 / 1e3;
            }
            self.plan.push(planned);
            // The same chunks in-process, one at a time on a memo of
            // their shard's, shared by the two cores the shards run on.
            let mut local = 0.0;
            for shard in 0..2 {
                memo::clear();
                for chunk in plan.chunks_of_shard(shard) {
                    let t = Instant::now();
                    for &i in &chunk.indices {
                        std::hint::black_box(eval_row(wf, grid, i));
                    }
                    local += secs(t) / WORKERS;
                }
            }
            self.rpc.push(wall - planned - local);
        }
        Ok(())
    }

    /// Report the scenario's metrics.
    pub fn finish(self, ledger: &mut Ledger) {
        let points = self.grid.len() as f64;
        let cold = median(&self.cold);
        // A warm pass lasts about 4 ms on two threads, and one in which
        // the host ran another guest on either vCPU takes 1.5-2x as long.
        // At 10-20% host steal those are most passes, and the median
        // jumped from 4.0 to 7.4 ms between runs; the fastest fifth of
        // the few hundred passes a run holds stays put.
        let warm = quantile(&self.warm, 0.2);
        for (name, reps) in [
            ("sweep.cold (pass, s)", &self.cold),
            ("sweep.warm (pass, s)", &self.warm),
            ("sweep.sharded (pass, s)", &self.sharded),
        ] {
            crate::common::print_reps(name, reps);
        }
        ledger.put("sweep.cold_pts_per_s", points / cold, "1/s");
        ledger.put("sweep.warm_pts_per_s", points / warm, "1/s");
        ledger.put(
            "sweep.sharded_pts_per_s",
            points / median(&self.sharded),
            "1/s",
        );
        println!(
            "sweep-grid: {} points ({FITS} fit x {WORKS} work x {NS} n); {} repetitions: cold {:.1} ms, warm {:.2} ms (20th percentile), sharded {:.1} ms (medians of own time)",
            self.grid.len(),
            self.cold.len(),
            cold * 1e3,
            warm * 1e3,
            median(&self.sharded) * 1e3
        );
        if !self.traced {
            return;
        }
        let passes = self.traced_cold.len() as f64;
        let per_pt = |sum: f64| sum / passes / points;
        let [resolve, patterns, report, probe, point_us] = self.layer_sums;
        ledger.put("aspen.resolve_us", per_pt(resolve), "us");
        ledger.put("core.patterns_us", per_pt(patterns), "us");
        ledger.put("core.report_us", per_pt(report), "us");
        // Worker time of the traced cold passes, less the instrumentation's
        // extra warm accounting.
        let worker_us = WORKERS * self.traced_cold.iter().sum::<f64>() * 1e6 - probe;
        ledger.put(
            "core.par_map.busy_frac",
            (point_us - probe) / worker_us,
            "frac",
        );
        ledger.put(
            "gridplan.plan_us_per_pt",
            median(&self.plan) * 1e6 / points,
            "us",
        );
        ledger.put(
            "coordinator.rpc_us_per_pt",
            median(&self.rpc) * 1e6 / points,
            "us",
        );
        // The traced pass's extra warm accounting counts as overhead.
        ledger.put(
            "sweep.trace_overhead_frac",
            median(&self.traced_cold_own) / cold - 1.0,
            "frac",
        );
        // That worker time minus the layers' self time.
        ledger.put(
            "sweep.unattributed_frac",
            1.0 - (resolve + patterns + report) / worker_us,
            "frac",
        );
    }
}
