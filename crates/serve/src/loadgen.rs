//! Open-loop HTTP load generation (`dvf loadgen`).
//!
//! A closed-loop client sends the next request only after the previous
//! response arrives, so it can never observe queueing collapse: when the
//! server slows down, the client slows down with it and offered load
//! self-throttles. This module
//! generates *open-loop* arrivals instead — requests are scheduled on a
//! fixed-rate or Poisson clock that does not care how the server is doing
//! — and measures each latency **from the scheduled arrival time**, not
//! from when the socket write finally happened. A request stuck behind a
//! backlog therefore reports schedule-to-response time, which is what a
//! real user behind the same backlog would see (no coordinated omission).
//!
//! Arrivals are spread round-robin over `connections` keep-alive
//! connections, each owned by one thread; a connection that falls behind
//! its schedule queues its own arrivals (and their waiting time is
//! charged to their latencies) without disturbing the other connections'
//! clocks. Randomness is a seeded SplitMix64, so a run is reproducible.

use crate::client::ShardClient;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One open-loop run's shape.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server to hit.
    pub addr: SocketAddr,
    /// Keep-alive connections (one thread each).
    pub connections: usize,
    /// Total offered load, requests per second across all connections.
    pub rate_per_s: f64,
    /// How long to keep offering arrivals.
    pub duration: Duration,
    /// Poisson (exponential inter-arrival) instead of a fixed-rate clock.
    pub poisson: bool,
    /// Seed for the arrival-process randomness (Poisson only).
    pub seed: u64,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Request body (sent with `Content-Length`; `None` for none).
    pub body: Option<String>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            connections: 4,
            rate_per_s: 1000.0,
            duration: Duration::from_secs(2),
            poisson: false,
            seed: 0x10AD_6E4E,
            method: "GET".to_owned(),
            path: "/v1/healthz".to_owned(),
            body: None,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Offered load the schedule asked for (requests/second).
    pub offered_rps: f64,
    /// Arrivals the schedule produced within the duration.
    pub sent: u64,
    /// Responses received.
    pub completed: u64,
    /// Completions per second of wall-clock run time.
    pub achieved_rps: f64,
    /// Responses with a 2xx status.
    pub status_2xx: u64,
    /// Responses with a 4xx status.
    pub status_4xx: u64,
    /// `503` responses (backpressure shed, counted apart from other 5xx).
    pub status_503: u64,
    /// Responses with a 5xx status other than `503`.
    pub errors_5xx: u64,
    /// Requests lost to socket errors (after one reconnect attempt).
    pub errors_io: u64,
    /// Schedule-to-response latency percentiles, microseconds.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl LoadReport {
    /// Render as one `dvf-loadgen/1` JSON object.
    pub fn to_json(&self, spec: &LoadSpec) -> String {
        let mut w = dvf_obs::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("dvf-loadgen/1");
        w.key("addr").string(&spec.addr.to_string());
        w.key("path").string(&spec.path);
        w.key("connections").u64(spec.connections as u64);
        w.key("poisson").bool(spec.poisson);
        w.key("duration_ms").u64(spec.duration.as_millis() as u64);
        w.key("offered_rps").f64(round2(self.offered_rps));
        w.key("achieved_rps").f64(round2(self.achieved_rps));
        w.key("sent").u64(self.sent);
        w.key("completed").u64(self.completed);
        w.key("status_2xx").u64(self.status_2xx);
        w.key("status_4xx").u64(self.status_4xx);
        w.key("status_503").u64(self.status_503);
        w.key("errors_5xx").u64(self.errors_5xx);
        w.key("errors_io").u64(self.errors_io);
        w.key("latency_us")
            .begin_object()
            .key("p50")
            .u64(self.p50_us)
            .key("p90")
            .u64(self.p90_us)
            .key("p99")
            .u64(self.p99_us)
            .key("max")
            .u64(self.max_us)
            .end_object();
        w.end_object();
        w.finish()
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Run one open-loop step and aggregate what came back.
pub fn run(spec: &LoadSpec) -> LoadReport {
    let conns = spec.connections.max(1);
    let per_conn_rate = (spec.rate_per_s / conns as f64).max(0.001);
    let started = Instant::now();

    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let spec = spec.clone();
                scope.spawn(move || connection_loop(&spec, per_conn_rate, t, started))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen connection thread"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let mut report = LoadReport {
        offered_rps: spec.rate_per_s,
        sent: 0,
        completed: 0,
        achieved_rps: 0.0,
        status_2xx: 0,
        status_4xx: 0,
        status_503: 0,
        errors_5xx: 0,
        errors_io: 0,
        p50_us: 0,
        p90_us: 0,
        p99_us: 0,
        max_us: 0,
    };
    for o in outcomes {
        report.sent += o.sent;
        report.completed += o.completed;
        report.status_2xx += o.status_2xx;
        report.status_4xx += o.status_4xx;
        report.status_503 += o.status_503;
        report.errors_5xx += o.errors_5xx;
        report.errors_io += o.errors_io;
        latencies.extend(o.latencies_us);
    }
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 0.50);
    report.p90_us = percentile(&latencies, 0.90);
    report.p99_us = percentile(&latencies, 0.99);
    report.max_us = latencies.last().copied().unwrap_or(0);
    report.achieved_rps = report.completed as f64 / elapsed.as_secs_f64().max(1e-9);
    report
}

/// Open `n` keep-alive connections and leave them idle (the
/// idle-connection-cost experiments; callers keep the streams alive for
/// as long as the experiment needs them).
pub fn open_idle(addr: SocketAddr, n: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..n).map(|_| TcpStream::connect(addr)).collect()
}

/// Nearest-rank percentile of an already-sorted sample (0 for empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[derive(Debug, Default)]
struct ConnOutcome {
    sent: u64,
    completed: u64,
    status_2xx: u64,
    status_4xx: u64,
    status_503: u64,
    errors_5xx: u64,
    errors_io: u64,
    latencies_us: Vec<u64>,
}

/// One connection's schedule: fire arrivals until the deadline, measuring
/// from scheduled time. Sequential within the connection (HTTP/1.1
/// without pipelining), so a slow response delays this connection's later
/// arrivals — and their latency samples say so.
fn connection_loop(
    spec: &LoadSpec,
    rate_per_s: f64,
    thread_idx: usize,
    started: Instant,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let deadline = started + spec.duration;
    let mean_gap = Duration::from_secs_f64(1.0 / rate_per_s);
    // Stagger thread starts across one mean gap so the per-connection
    // clocks do not all tick at once.
    let mut next = started + mean_gap.mul_f64(thread_idx as f64 / spec.connections.max(1) as f64);
    let mut rng =
        SplitMix64::new(spec.seed ^ (thread_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

    let request = wire_request(spec);
    let timeout = Duration::from_secs(10);
    let mut client = ShardClient::new(spec.addr, timeout, timeout);

    while next < deadline {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        let scheduled = next;
        next += if spec.poisson {
            mean_gap.mul_f64(rng.exp_unit())
        } else {
            mean_gap
        };
        out.sent += 1;

        // A connection the server closed (keep-alive budget, drain) is
        // replaced transparently, once per arrival.
        match client.roundtrip(&request).map(|reply| reply.status) {
            Ok(code) => {
                out.completed += 1;
                match code {
                    200..=299 => out.status_2xx += 1,
                    400..=499 => out.status_4xx += 1,
                    503 => out.status_503 += 1,
                    500..=599 => out.errors_5xx += 1,
                    _ => {}
                }
                let us = u64::try_from(scheduled.elapsed().as_micros()).unwrap_or(u64::MAX);
                out.latencies_us.push(us);
            }
            Err(_) => out.errors_io += 1,
        }
    }
    out
}

/// Serialize the request once; every arrival writes the same bytes.
fn wire_request(spec: &LoadSpec) -> Vec<u8> {
    let body = spec.body.as_deref().unwrap_or("");
    format!(
        "{} {} HTTP/1.1\r\nHost: loadgen\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{}",
        spec.method,
        spec.path,
        body.len(),
        body
    )
    .into_bytes()
}

/// SplitMix64: tiny, seedable, good enough to drive an arrival process.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is safe).
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponentially-distributed multiple of the mean (unit mean).
    fn exp_unit(&mut self) -> f64 {
        -self.unit().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        // Index scale is 0..n-1, so p50 of 1..=100 rounds to index 50.
        assert_eq!(percentile(&sorted, 0.50), 51);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn exponential_gaps_are_deterministic_with_unit_mean() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let draws_a: Vec<f64> = (0..1000).map(|_| a.exp_unit()).collect();
        let draws_b: Vec<f64> = (0..1000).map(|_| b.exp_unit()).collect();
        assert_eq!(draws_a, draws_b, "same seed, same schedule");
        let mean = draws_a.iter().sum::<f64>() / draws_a.len() as f64;
        assert!(
            (mean - 1.0).abs() < 0.15,
            "exponential mean ≈ 1, got {mean}"
        );
        assert!(draws_a.iter().all(|&g| g > 0.0));
    }

    #[test]
    fn report_json_is_parseable() {
        let spec = LoadSpec::default();
        let report = LoadReport {
            offered_rps: 1000.0,
            sent: 10,
            completed: 10,
            achieved_rps: 998.7654,
            status_2xx: 10,
            status_4xx: 0,
            status_503: 0,
            errors_5xx: 0,
            errors_io: 0,
            p50_us: 120,
            p90_us: 250,
            p99_us: 900,
            max_us: 1500,
        };
        let doc = crate::jsonval::Json::parse(&report.to_json(&spec)).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("dvf-loadgen/1"));
        assert_eq!(doc.get("errors_5xx").unwrap().as_u64(), Some(0));
        assert_eq!(
            doc.get("latency_us").unwrap().get("p99").unwrap().as_u64(),
            Some(900)
        );
    }
}
