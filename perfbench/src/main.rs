//! End-to-end and per-layer benchmark of the DVF toolchain.
//!
//! ```text
//! perfbench --workload serve-mixed|sweep-grid|simulate-cg --seed N
//!           --seconds S --trace 0|1 --dvf PATH --repo DIR --work DIR
//! ```
//!
//! Every run sets up once, then interleaves repetitions of all three
//! scenarios: the named workload for 40% of the measured time and the
//! other two for 30% each, so every run prints every metric. Fourteen
//! more set-ups, each torn down at once, are spread over the run; the
//! median of the fifteen set-up times is reported. `--trace 1` adds the
//! per-layer split of each scenario, its unattributed remainder and its
//! tracing overhead.
//! Outputs are checked on every run; the last stdout line is the JSON
//! result, and the exit code is non-zero when a check failed.

mod common;
mod serve_mixed;
mod simulate_cg;
mod sweep_grid;

use common::{median, Env, Ledger, SetupParts};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The three workloads, in the order their scenarios run.
const WORKLOADS: [&str; 3] = ["serve-mixed", "sweep-grid", "simulate-cg"];
/// The end-to-end metrics; `--trace 1` prints every other metric instead.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "ok_frac",
    "peak_rss_mb",
    "serve.p50_us",
    "serve.cpu_us_per_req",
    "sweep.cold_pts_per_s",
    "sweep.warm_pts_per_s",
    "sweep.sharded_pts_per_s",
    "sim.fused_mref_per_s",
    "sim.hier_mref_per_s",
    "sim.file_mref_per_s",
];
/// Set-up repetitions per run (the median is reported).
const SETUPS: usize = 15;

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: Env,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut dvf, mut repo, mut work) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().position(|w| *w == value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--dvf" => dvf = Some(PathBuf::from(value)),
            "--repo" => repo = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload must be one of serve-mixed, sweep-grid, simulate-cg")?,
        seed: seed.ok_or("--seed needs an unsigned integer")?,
        seconds: seconds.ok_or("--seconds needs a positive number")?,
        trace: trace.ok_or("--trace needs 0 or 1")?,
        env: Env {
            dvf: dvf.ok_or("--dvf is required")?,
            repo: repo.ok_or("--repo is required")?,
            work: work.ok_or("--work is required")?,
        },
    })
}

/// Everything one set-up starts and records.
struct Setup {
    serve: serve_mixed::Setup,
    shards: sweep_grid::Shards,
    sim: simulate_cg::Setup,
}

fn setup(env: &Env, seed: u64, parts: &mut SetupParts) -> Result<Setup, String> {
    Ok(Setup {
        serve: serve_mixed::setup(env, seed, parts)?,
        shards: sweep_grid::setup(env, parts)?,
        sim: simulate_cg::setup(env, seed, parts)?,
    })
}

/// Set-up times of one run. The first set-up starts the run; the others
/// are spread over it and torn down at once, so a burst of load from
/// other processes on the host moves only a few of the samples.
#[derive(Default)]
struct SetupClock {
    times: Vec<f64>,
    parts: SetupParts,
}

impl SetupClock {
    /// Set up once, in a work directory of its own, and time it.
    fn setup(&mut self, args: &Args) -> Result<Setup, String> {
        let env = Env {
            work: args.env.work.join(format!("setup-{}", self.times.len())),
            ..args.env.clone()
        };
        std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;
        let t = Instant::now();
        let done = setup(&env, args.seed, &mut self.parts)?;
        self.times.push(common::secs(t));
        Ok(done)
    }

    /// Whether the next set-up is due, `elapsed` seconds into a run of
    /// `seconds`.
    fn due(&self, elapsed: f64, seconds: f64) -> bool {
        self.times.len() < SETUPS && elapsed * SETUPS as f64 >= seconds * self.times.len() as f64
    }

    /// Print each part's samples and record the median set-up time.
    fn finish(self, ledger: &mut Ledger) {
        common::print_reps("setup (s)", &self.times);
        // Every set-up records the same parts in the same order.
        let per_setup = self.parts.len() / self.times.len();
        for (name, _) in &self.parts[..per_setup] {
            let samples: Vec<f64> = self
                .parts
                .iter()
                .filter(|p| p.0 == *name)
                .map(|p| p.1)
                .collect();
            common::print_reps(&format!("setup {name} (s)"), &samples);
        }
        ledger.put("setup_s", median(&self.times), "s");
    }
}

/// Compare this run's deterministic counts with the last run of the same
/// workload, seed and mode, and record them for the next one. Returns
/// one line per count that drifted.
fn drift(args: &Args, ledger: &Ledger) -> Vec<String> {
    let path = args.env.work.join(format!(
        "counts-{}-{}-{}.txt",
        WORKLOADS[args.workload],
        args.seed,
        u8::from(args.trace)
    ));
    let now: String = ledger
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    let mut lines = Vec::new();
    if let Ok(before) = std::fs::read_to_string(&path) {
        let old: std::collections::BTreeMap<&str, &str> =
            before.lines().filter_map(|l| l.split_once(' ')).collect();
        for (k, v) in &ledger.counts {
            match old.get(k.as_str()) {
                Some(o) if *o == v.to_string() => {}
                o => lines.push(format!("{k}: {} -> {v}", o.unwrap_or(&"absent"))),
            }
        }
    }
    let _ = std::fs::write(&path, now);
    lines
}

fn run(args: &Args) -> Result<Ledger, String> {
    std::fs::create_dir_all(&args.env.work)
        .map_err(|e| format!("{}: {e}", args.env.work.display()))?;
    let mut ledger = Ledger::default();
    let steal0 = common::steal_ticks();
    let mut clock = SetupClock::default();
    let Setup { serve, shards, sim } = clock.setup(args)?;

    // Interleave the scenarios' repetitions over the whole run, the named
    // workload taking 40% of the time and the other two 30% each: always
    // run the scenario furthest behind its share. Each runs at least
    // twice, so a traced run also has a traced serve window.
    let share = |w: usize| if w == args.workload { 0.4 } else { 0.3 };
    let mut serve_s = serve_mixed::Scenario::new(&serve, args.seed, args.trace, &mut ledger)?;
    let mut sweep_s = sweep_grid::Scenario::new(&args.env, shards, args.seed, args.trace)?;
    let mut sim_s = simulate_cg::Scenario::new(&sim, args.seed, args.trace);
    let mut spent = [0f64; 3];
    let mut reps = [0usize; 3];
    let t_all = Instant::now();
    while common::secs(t_all) < args.seconds || reps.iter().any(|&n| n < 2) {
        if clock.due(common::secs(t_all), args.seconds) {
            drop(clock.setup(args)?);
            continue;
        }
        let w = (0..3)
            .min_by(|&a, &b| (spent[a] / share(a)).total_cmp(&(spent[b] / share(b))))
            .expect("three scenarios");
        let t = Instant::now();
        match w {
            0 => serve_s.rep(&mut ledger)?,
            1 => sweep_s.rep(&mut ledger)?,
            _ => sim_s.rep(&mut ledger)?,
        }
        spent[w] += common::secs(t);
        reps[w] += 1;
    }
    clock.finish(&mut ledger);
    let shard_rss = sweep_s.shard_rss_mb();
    serve_s.finish(&mut ledger);
    sweep_s.finish(&mut ledger);
    sim_s.finish(&mut ledger);

    let parts = [
        common::peak_rss_mb("self"),
        serve_mixed::server_rss_mb(&serve),
        shard_rss,
    ];
    println!(
        "peak rss: harness {:.1} MB, server {:.1} MB, shard pair {:.1} MB",
        parts[0], parts[1], parts[2]
    );
    // Other guests on the host slow whole runs; say how much they took.
    println!(
        "host steal: {:.1}% of CPU time during the run",
        100.0 * common::steal_share(steal0)
    );
    let rss = parts.iter().sum();
    ledger.put("peak_rss_mb", rss, "MB");
    let ok = ledger.attempted - ledger.failed;
    ledger.put(
        "ok_frac",
        ok as f64 / ledger.attempted.max(1) as f64,
        "frac",
    );
    if args.trace {
        let counts: Vec<(String, u64)> = ledger.counts.clone().into_iter().collect();
        for (k, v) in counts {
            ledger.put(&k, v as f64, "count");
        }
    }
    Ok(ledger)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spin") {
        common::spin_forever();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ledger = match run(&args) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, (value, unit)) in &ledger.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for (name, value) in &ledger.counts {
        println!("count {name} = {value}");
    }
    for line in drift(&args, &ledger) {
        println!("count drift: {line}");
    }
    for f in &ledger.failures {
        println!("check failed: {f}");
    }
    let correct = ledger.failed_checks == 0;
    let mut w = dvf_obs::JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(correct);
    w.key("attempted").u64(ledger.attempted);
    w.key("failed").u64(ledger.failed);
    w.key("metrics").begin_object();
    let reported = ledger
        .metrics
        .iter()
        .filter(|(name, _)| END_TO_END.contains(&name.as_str()) != args.trace);
    for (name, (value, unit)) in reported {
        w.key(name)
            .begin_object()
            .key("value")
            .f64(*value)
            .key("unit")
            .string(unit)
            .end_object();
    }
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
