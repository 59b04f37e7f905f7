//! Shared plumbing: the seeded generator, metric and count ledgers,
//! summary statistics, and the child processes (`dvf serve`) a run
//! starts and must stop.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::collections::BTreeMap;
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The seeded generator of one named input stream, so adding a stream
/// never shifts the values another stream draws.
pub fn rng(seed: u64, stream: &str) -> StdRng {
    let h = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ h)
}

/// Shuffle `items` in seeded order (Fisher-Yates).
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `name → (value, unit)`.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Counts that must repeat exactly for a given seed.
    pub counts: BTreeMap<String, u64>,
    /// Output checks that failed.
    pub failed_checks: u64,
    /// The first few failed checks, one line each.
    pub failures: Vec<String>,
    /// Operations attempted (requests, grid points, replays).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Ledger {
    /// Record one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    /// Record one deterministic count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_owned(), value);
    }

    /// Record the outcome of one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Print the spread of one metric's per-repetition samples.
pub fn print_reps(name: &str, samples: &[f64]) {
    let q = |p: f64| quantile(samples, p);
    println!(
        "reps {name}: n={} min {:.6} p10 {:.6} p20 {:.6} p50 {:.6} p80 {:.6} mean {:.6} iqm {:.6}",
        samples.len(),
        q(0.0),
        q(0.1),
        q(0.2),
        q(0.5),
        q(0.8),
        mean(samples),
        iq_mean(samples)
    );
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Interquartile mean: the mean of the middle half of a sample (all of
/// it below four values; 0 for an empty one). Stalls in the outer
/// quarters do not move it, and unlike the median it moves smoothly
/// when the sample mixes a fast and a slow mode.
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds each part of one set-up took, in the order they ran.
pub type SetupParts = Vec<(&'static str, f64)>;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU ticks since boot: `(steal, total)`, where steal is the
/// time the hypervisor ran other guests while this one had work.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // The first line sums every CPU: user nice system idle iowait irq
    // softirq steal, then guest time already counted in user.
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of host-wide CPU time the hypervisor stole since `since`, a
/// [`steal_ticks`] reading.
pub fn steal_share(since: (u64, u64)) -> f64 {
    let now = steal_ticks();
    now.0.saturating_sub(since.0) as f64 / now.1.saturating_sub(since.1).max(1) as f64
}

/// A pass's timer that also reads the host's steal counters.
pub struct PassClock {
    start: Instant,
    steal: (u64, u64),
}

impl PassClock {
    /// Start timing a pass now.
    pub fn start() -> Self {
        Self {
            steal: steal_ticks(),
            start: Instant::now(),
        }
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        secs(self.start)
    }

    /// Seconds since the start, less the share of them the hypervisor ran
    /// other guests on this guest's vCPUs: the time the pass had the CPUs
    /// it asked for, when it kept both busy. A pass that runs during a
    /// spell of host steal is slower by about that share, and such spells
    /// cover from none to most of a run.
    pub fn own_secs(&self) -> f64 {
        let wall = self.secs();
        wall * (1.0 - steal_share(self.steal))
    }
}

/// The least-stolen `share` of `(steal share, sample)` pairs, with every
/// pair tied with the last of them.
pub fn least_stolen<T>(samples: &[(f64, T)], share: f64) -> Vec<&T> {
    let steal: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let cut = quantile(&steal, share);
    samples
        .iter()
        .filter(|s| s.0 <= cut)
        .map(|s| &s.1)
        .collect()
}

/// CPU time (user + system) a process has used, its exited threads
/// included, in nanoseconds (the kernel reports 10 ms ticks).
pub fn cpu_ns(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// One `dvf serve` child process; killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// Loopback address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Start `dvf serve` on an ephemeral loopback port with two workers
    /// (plus `extra` flags) and wait for its listening banner.
    pub fn start(dvf: &Path, extra: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(dvf)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dvf.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split("/v1/").next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("dvf serve did not start (banner {line:?})"));
        };
        // Drain the rest of stdout so the server never blocks on a full
        // pipe; the thread ends when the process exits.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Ok(Self { child, addr })
    }

    /// Process id, for `/proc` sampling.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.pid().to_string())
    }

    /// A keep-alive client for this server.
    pub fn client(&self) -> dvf_serve::client::ShardClient {
        dvf_serve::client::ShardClient::new(
            self.addr,
            Duration::from_secs(30),
            Duration::from_secs(30),
        )
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything a run reads from the checkout and writes to its work
/// directory.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `dvf` binary built from this checkout.
    pub dvf: PathBuf,
    /// Root of the checkout (the repro models are read from it).
    pub repo: PathBuf,
    /// Directory inside the checkout for this run's files.
    pub work: PathBuf,
}

/// JSON string literal of `s`.
pub fn json_str(s: &str) -> String {
    let mut w = dvf_obs::JsonWriter::new();
    w.string(s);
    w.finish()
}

/// Two busy loops at the idle scheduling class (`chrt --idle`), one per
/// vCPU, for the life of the guard. They run only when a vCPU has
/// nothing else to do, so they take no time from the program, but they
/// keep the vCPUs out of the hypervisor's idle state: a wakeup then costs
/// the program's own handoff instead of the host waking a halted vCPU,
/// which on a shared host varies two-fold from run to run.
#[derive(Debug)]
pub struct Spinners(Vec<Child>);

impl Spinners {
    /// Start the spinners.
    pub fn start() -> Result<Self, String> {
        let me = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut spinners = Self(Vec::new());
        for _ in 0..2 {
            let child = Command::new("chrt")
                .args(["--idle", "0"])
                .arg(&me)
                .arg("--spin")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start an idle-class spinner with chrt: {e}"))?;
            spinners.0.push(child);
        }
        Ok(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Body of a spinner process: spin until killed.
pub fn spin_forever() -> ! {
    loop {
        std::hint::spin_loop();
    }
}
