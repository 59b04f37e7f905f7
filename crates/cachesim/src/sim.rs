//! One-shot simulation driver.

use crate::cache::AnyCache;
use crate::config::CacheConfig;
use crate::replacement::PolicyKind;
use crate::stats::{CacheStats, DsStats};
use crate::trace::{DsId, MemRef, Trace};

/// Final report of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Cache geometry the run used.
    pub config: CacheConfig,
    /// Name of the replacement policy.
    pub policy: &'static str,
    /// Number of references replayed.
    pub refs: u64,
    stats: CacheStats,
}

impl SimReport {
    /// Stats for one data structure.
    pub fn ds(&self, ds: DsId) -> DsStats {
        self.stats.ds(ds)
    }

    /// Aggregate stats.
    pub fn total(&self) -> DsStats {
        self.stats.total()
    }

    /// Underlying per-structure table.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

/// Streaming simulator: feed references one at a time, then [`finish`].
///
/// The replacement policy is chosen at run time ([`PolicyKind`]); each
/// [`run`] chunk dispatches on it once and then replays in the policy's
/// monomorphized loop.
///
/// [`finish`]: Simulator::finish
/// [`run`]: Simulator::run
#[derive(Debug)]
pub struct Simulator {
    cache: AnyCache,
    refs: u64,
    /// Whether `finish` flushes resident dirty lines (default: true, so
    /// that the end-of-run state reaches main memory as on a real system).
    pub flush_at_end: bool,
}

impl Simulator {
    /// LRU simulator (the paper's configuration).
    pub fn new(config: CacheConfig) -> Self {
        Self::with_policy(config, PolicyKind::Lru)
    }

    /// Simulator with an explicit replacement policy.
    pub fn with_policy(config: CacheConfig, policy: PolicyKind) -> Self {
        Self {
            cache: AnyCache::new(config, policy),
            refs: 0,
            flush_at_end: true,
        }
    }

    /// Replay one reference.
    #[inline]
    pub fn access(&mut self, r: MemRef) {
        self.refs += 1;
        self.cache.access(r);
    }

    /// Replay a slice of references (prefetching replay loop).
    pub fn run(&mut self, refs: &[MemRef]) {
        self.refs += refs.len() as u64;
        self.cache.replay(refs);
    }

    /// Statistics accumulated so far (mid-run snapshotting; resident dirty
    /// lines are not yet counted as writebacks).
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Flush (if enabled) and produce the report.
    pub fn finish(mut self) -> SimReport {
        if self.flush_at_end {
            let _ = self.cache.drain_dirty();
        }
        let report = SimReport {
            config: self.cache.config(),
            policy: self.cache.policy().name(),
            refs: self.refs,
            stats: self.cache.into_stats(),
        };
        // Observability: one batched update per run, so the per-reference
        // hot path stays instrumentation-free. Also fires when only a
        // per-request trace is active, so fused-path simulations
        // attribute their reference counts to the requesting trace.
        if dvf_obs::enabled() || dvf_obs::trace::active() {
            let total = report.total();
            dvf_obs::add("cachesim.refs", report.refs);
            dvf_obs::add("cachesim.hits", total.hits);
            dvf_obs::add("cachesim.misses", total.misses);
            dvf_obs::add("cachesim.writebacks", total.writebacks);
        }
        report
    }
}

/// Simulate a whole trace under one configuration with LRU replacement.
///
/// This is the paper's verification path: kernel trace in, per-data-structure
/// main-memory access counts out.
pub fn simulate(trace: &Trace, config: CacheConfig) -> SimReport {
    simulate_with_policy(trace, config, PolicyKind::Lru)
}

/// Simulate a whole trace under a selectable replacement policy.
pub fn simulate_with_policy(trace: &Trace, config: CacheConfig, policy: PolicyKind) -> SimReport {
    let mut sim = Simulator::with_policy(config, policy);
    sim.run(&trace.refs);
    sim.finish()
}

/// One (geometry, policy) replay job for [`simulate_many`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimJob {
    /// Cache geometry for this job.
    pub config: CacheConfig,
    /// Replacement policy for this job.
    pub policy: PolicyKind,
}

impl SimJob {
    /// Job with the given geometry and LRU replacement (the paper's setup).
    pub fn lru(config: CacheConfig) -> Self {
        Self {
            config,
            policy: PolicyKind::Lru,
        }
    }
}

/// Replay one borrowed trace through every job in parallel.
///
/// The trace is shared by reference across [`dvf_obs::par::map`] workers
/// (one per core) — never cloned — so fanning a multi-million-reference
/// trace across a config × policy grid costs one trace, not N. Reports
/// come back in job order and are bit-identical to running
/// [`simulate_with_policy`] per job sequentially (each job owns its
/// cache; no shared mutable state). To pin the worker count, call
/// [`dvf_obs::par::map`] over the jobs directly.
pub fn simulate_many(trace: &Trace, jobs: &[SimJob]) -> Vec<SimReport> {
    let _span = dvf_obs::span("cachesim.par");
    dvf_obs::par::map(jobs, dvf_obs::par::available(), |j| {
        simulate_with_policy(trace, j.config, j.policy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::table4;
    use crate::trace::AccessKind;

    fn streaming_trace(bytes: u64, stride: u64) -> Trace {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for addr in (0..bytes).step_by(stride as usize) {
            t.push(MemRef::new(a, addr, AccessKind::Read));
        }
        t
    }

    #[test]
    fn simulate_counts_compulsory_misses() {
        let t = streaming_trace(4096, 8);
        let cfg = table4::SMALL_VERIFICATION; // 32 B lines
        let report = simulate(&t, cfg);
        let a = t.registry.id("A").unwrap();
        assert_eq!(report.ds(a).misses, 4096 / 32);
        assert_eq!(report.refs, 4096 / 8);
        assert_eq!(report.policy, "lru");
    }

    #[test]
    fn finish_flushes_dirty_lines() {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        t.push(MemRef::write(a, 0));
        let report = simulate(&t, table4::SMALL_VERIFICATION);
        // one miss + flush writeback
        assert_eq!(report.ds(a).mem_accesses(), 2);
    }

    #[test]
    fn flush_can_be_disabled() {
        let cfg = table4::SMALL_VERIFICATION;
        let mut sim = Simulator::new(cfg);
        sim.flush_at_end = false;
        sim.access(MemRef::write(DsId(0), 0));
        let report = sim.finish();
        assert_eq!(report.ds(DsId(0)).mem_accesses(), 1);
    }

    #[test]
    fn policies_are_selectable() {
        let t = streaming_trace(1024, 8);
        for kind in PolicyKind::ALL {
            let r = simulate_with_policy(&t, table4::SMALL_VERIFICATION, kind);
            assert_eq!(r.policy, kind.name());
            // streaming: identical compulsory misses under every policy
            assert_eq!(r.total().misses, 1024 / 32);
        }
    }

    #[test]
    fn simulate_many_matches_sequential_in_job_order() {
        let t = streaming_trace(64 * 1024, 8);
        let mut jobs = Vec::new();
        for kind in PolicyKind::ALL {
            jobs.push(SimJob {
                config: table4::SMALL_VERIFICATION,
                policy: kind,
            });
            jobs.push(SimJob {
                config: table4::PROFILE_16KB,
                policy: kind,
            });
        }
        let par = simulate_many(&t, &jobs);
        assert_eq!(par.len(), jobs.len());
        for (job, report) in jobs.iter().zip(&par) {
            let seq = simulate_with_policy(&t, job.config, job.policy);
            assert_eq!(*report, seq, "{} on {}", job.policy.name(), job.config);
        }
    }

    #[test]
    fn simulate_many_handles_edge_thread_counts() {
        let t = streaming_trace(4096, 16);
        let jobs = [SimJob::lru(table4::SMALL_VERIFICATION)];
        for threads in [0, 1, 7] {
            let out = dvf_obs::par::map(&jobs, threads, |j| {
                simulate_with_policy(&t, j.config, j.policy)
            });
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].total().misses, 4096 / 32);
        }
        assert_eq!(simulate_many(&t, &jobs)[0].total().misses, 4096 / 32);
        assert!(simulate_many(&t, &[]).is_empty());
    }
}
