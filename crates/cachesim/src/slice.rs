//! Set slicing: one cache simulated as independent slices of its sets.
//!
//! A reference only ever touches the set its block maps to, and under a
//! replacement policy whose per-set state does not depend on the set's
//! index (LRU, FIFO, tree-PLRU) nothing that happens in one set changes
//! another. So a cache's sets can be cut into `2^bits` slices, each
//! simulated by a cache of `num_sets >> bits` sets that sees only the
//! references mapping to it, and the slices' per-structure counts add up
//! to the whole cache's exactly. Slices can then replay on different
//! threads, in any interleaving, as long as each sees its own references
//! in order.
//!
//! [`SetSlices`] picks a reference's slice by `bits` address bits just
//! above the largest line of a group of jobs and cuts those bits out of
//! the address, so one cut serves every job in the group: in each job's
//! cache the cut bits fall inside the set index, the slice's cache sees
//! each of its sets at a dense index, and the tag is unchanged.
//! [`SimReport::from_slices`] adds the slices' reports back up.

use crate::config::CacheConfig;
use crate::replacement::PolicyKind;
use crate::sim::{SimJob, SimReport};
use crate::trace::MemRef;

/// A cut of every cache in a group of jobs into `2^bits` set slices.
///
/// ```
/// use dvf_cachesim::{simulate, CacheConfig, DsId, MemRef, SetSlices, SimJob, SimReport, Simulator};
///
/// let job = SimJob::lru(CacheConfig::new(4, 64, 32).unwrap());
/// let slices = SetSlices::new(&[job], 2).expect("64 sets cut into 4 slices");
/// let refs: Vec<MemRef> = (0..4096u64).map(|i| MemRef::write(DsId(0), i * 40 % 9000)).collect();
///
/// let mut sims: Vec<Simulator> = (0..slices.count()).map(|_| Simulator::new(slices.job(job).config)).collect();
/// for &r in &refs {
///     let (slice, r) = slices.cut(r);
///     sims[slice].access(r);
/// }
/// let whole = SimReport::from_slices(sims.into_iter().map(Simulator::finish).collect());
///
/// let mut trace = dvf_cachesim::Trace::new();
/// refs.iter().for_each(|&r| trace.push(r));
/// assert_eq!(whole, simulate(&trace, job.config));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetSlices {
    bits: u32,
    /// `log2` of the largest line in the group: the lowest cut bit.
    shift: u32,
}

impl SetSlices {
    /// Cut every job's cache into `2^bits` slices, or `None` when `jobs`
    /// is empty, a job uses random replacement (its per-set streams are
    /// seeded by set index), or a job's cache has too few sets for the cut
    /// bits to fall inside its set index.
    pub fn new(jobs: &[SimJob], bits: u32) -> Option<Self> {
        let shift = jobs
            .iter()
            .map(|j| j.config.line_bytes.trailing_zeros())
            .max()?;
        let exact = jobs.iter().all(|j| {
            let CacheConfig {
                num_sets,
                line_bytes,
                ..
            } = j.config;
            j.policy != PolicyKind::Random
                && j.config.validate().is_ok()
                && shift - line_bytes.trailing_zeros() + bits <= num_sets.trailing_zeros()
        });
        exact.then_some(Self { bits, shift })
    }

    /// Number of slices per cache.
    pub fn count(&self) -> usize {
        1 << self.bits
    }

    /// The job that simulates one slice of `job`'s cache.
    pub fn job(&self, job: SimJob) -> SimJob {
        SimJob {
            config: CacheConfig {
                num_sets: job.config.num_sets >> self.bits,
                ..job.config
            },
            ..job
        }
    }

    /// The slice `r` falls in, and `r` as that slice's cache sees it.
    #[inline(always)]
    pub fn cut(&self, r: MemRef) -> (usize, MemRef) {
        let slice = (r.addr >> self.shift) as usize & ((1 << self.bits) - 1);
        let low = r.addr & ((1 << self.shift) - 1);
        let addr = (r.addr >> (self.shift + self.bits) << self.shift) | low;
        (slice, MemRef { addr, ..r })
    }
}

impl SimReport {
    /// The whole cache's report, added up from the reports of its
    /// [`SetSlices`] (one per slice, any order).
    ///
    /// Panics if `slices` is empty.
    pub fn from_slices(slices: Vec<SimReport>) -> SimReport {
        let n = slices.len();
        let mut slices = slices.into_iter();
        let mut whole = slices.next().expect("at least one slice");
        whole.config.num_sets *= n;
        for s in slices {
            whole.refs += s.refs;
            whole.merge_stats(s.stats());
        }
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_with_policy;
    use crate::trace::{AccessKind, DsId, Trace};
    use crate::Simulator;

    fn jobs() -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for policy in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru] {
            for config in [
                CacheConfig::new(4, 64, 32).unwrap(),
                CacheConfig::new(8, 512, 64).unwrap(),
                CacheConfig::new(3, 16, 16).unwrap(),
            ] {
                jobs.push(SimJob { config, policy });
            }
        }
        jobs
    }

    /// Reuse, conflict misses and writebacks over three structures.
    fn trace() -> Trace {
        let mut t = Trace::new();
        let mut x = 12345u64;
        for i in 0..40_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = match i % 3 {
                0 => i * 8 % 24_000,
                1 => (x >> 33) % 70_000,
                _ => 1 << 20 | (i * 136 % 50_000),
            };
            let kind = if x >> 63 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            t.push(MemRef::new(DsId((i % 3) as u16), addr, kind));
        }
        t
    }

    fn sliced(trace: &Trace, slices: SetSlices, job: SimJob) -> SimReport {
        let part = slices.job(job);
        let mut sims: Vec<Simulator> = (0..slices.count())
            .map(|_| Simulator::with_policy(part.config, part.policy))
            .collect();
        for &r in &trace.refs {
            let (k, r) = slices.cut(r);
            sims[k].access(r);
        }
        SimReport::from_slices(sims.into_iter().map(Simulator::finish).collect())
    }

    #[test]
    fn slices_add_up_to_the_whole_cache() {
        let trace = trace();
        let jobs = jobs();
        for bits in 0..=2 {
            let slices = SetSlices::new(&jobs, bits).expect("every job has enough sets");
            assert_eq!(slices.count(), 1 << bits);
            for &job in &jobs {
                let whole = simulate_with_policy(&trace, job.config, job.policy);
                assert!(whole.total().writebacks > 0 && whole.total().hits > 0);
                assert_eq!(sliced(&trace, slices, job), whole, "{bits} bits, {job:?}");
            }
        }
    }

    #[test]
    fn a_cut_keeps_the_slice_bits_out_of_the_address() {
        let slices = SetSlices::new(&jobs(), 2).unwrap();
        // 64 B is the group's largest line: bits 6 and 7 pick the slice.
        let r = MemRef::read(DsId(1), (0b1010 << 8) | (0b11 << 6) | 0b01_0101);
        let (k, cut) = slices.cut(r);
        assert_eq!(k, 0b11);
        assert_eq!(cut.addr, (0b1010 << 6) | 0b01_0101);
        assert_eq!((cut.ds, cut.kind), (r.ds, r.kind));
    }

    #[test]
    fn caches_that_cannot_be_cut_exactly_are_refused() {
        let lru = |sets, line| SimJob::lru(CacheConfig::new(2, sets, line).unwrap());
        assert!(SetSlices::new(&[], 1).is_none());
        // Random replacement seeds each set's stream by its index.
        let random = SimJob {
            policy: PolicyKind::Random,
            ..lru(64, 64)
        };
        assert!(SetSlices::new(&[random], 1).is_none());
        // Two sets cannot be cut four ways.
        assert!(SetSlices::new(&[lru(2, 64)], 2).is_none());
        assert!(SetSlices::new(&[lru(4, 64)], 2).is_some());
        // Beside a 64 B line, a 16 B-line cache's cut bits sit two bits
        // higher in its block number.
        assert!(SetSlices::new(&[lru(4, 64), lru(8, 16)], 2).is_none());
        assert!(SetSlices::new(&[lru(4, 64), lru(16, 16)], 2).is_some());
    }
}
