//! Configurable N-level cache hierarchy (extension).
//!
//! The paper models the LLC only ("it has the largest impact on the
//! number of main memory accesses", §III-C) and leaves richer hierarchies
//! as ongoing work. Related work shows why that matters: vulnerability
//! shifts dramatically across the hierarchy (Jaulmes et al., "Memory
//! Vulnerability: A Case for Delaying Error Reporting"), so per-level
//! exposure — not just the LLC filter — decides where ECC buys the most
//! DVF reduction. This module provides the substrate for that study: an
//! arbitrary stack of
//! [`SetAssociativeCache`](crate::cache::SetAssociativeCache) levels,
//! each with its own geometry, replacement policy, inclusion
//! relationship to the levels above, and an optional next-line /
//! constant-stride prefetcher.
//!
//! # Demand path
//!
//! Level 0 is closest to the CPU; every reference goes there. A miss
//! walks down the stack issuing a line-sized read at each level until one
//! hits; missing every level charges one DRAM read. Fills happen during
//! the walk; evicted victims are collected and routed *after* the walk
//! completes, so an incoming fill never observes (or is perturbed by) its
//! own level's victim traffic.
//!
//! # Writeback semantics ("write-no-fill")
//!
//! A dirty victim evicted from level `i` is offered to the levels below
//! as a *writeback*, not as an access: a level that holds the line
//! absorbs it (promote + mark dirty); a level that does not hold it
//! forwards the writeback downward, ultimately to DRAM as one write.
//! Crucially a writeback never read-allocates — the data is moving *down*
//! with no demand attached, so allocating would charge a phantom memory
//! read (the bug the original two-level stub had) and perturb the lower
//! level's recency order. Clean victims die silently unless the next
//! level is exclusive (a victim cache is filled by the level above's
//! victims, clean ones included).
//!
//! # Inclusion
//!
//! Each level's [`InclusionPolicy`] describes its relationship to the
//! levels *above* it (level 0's is ignored):
//!
//! * `Nine` — non-inclusive, non-exclusive: no invariant maintained.
//! * `Inclusive` — evicting a line here back-invalidates every copy
//!   above; an upper dirty copy merges into the single downstream
//!   writeback.
//! * `Exclusive` — the level holds only what the levels above evicted:
//!   the demand walk *extracts* on hit (the line moves up, its dirty bit
//!   migrating with it) and installs nothing on miss.
//!
//! # Main-memory accounting
//!
//! DVF cares about main-memory accesses. The hierarchy charges DRAM
//! directly: demand reads that miss every level, writebacks that reach
//! the bottom, and (separately, so demand statistics stay unpolluted)
//! prefetch fills sourced from memory. `mem_accesses` sums all three.

use crate::cache::{AnyCache, Victim};
use crate::config::{CacheConfig, ConfigError};
use crate::replacement::PolicyKind;
use crate::stats::{CacheStats, DsStats};
use crate::trace::{AccessKind, DsId, MemRef, Trace};

/// Relationship of a hierarchy level to the levels above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InclusionPolicy {
    /// Non-inclusive, non-exclusive: fills go everywhere, no invariant.
    #[default]
    Nine,
    /// Evictions back-invalidate the levels above.
    Inclusive,
    /// Holds only victims of the levels above; hits are extracted upward.
    Exclusive,
}

impl InclusionPolicy {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            InclusionPolicy::Nine => "nine",
            InclusionPolicy::Inclusive => "inclusive",
            InclusionPolicy::Exclusive => "exclusive",
        }
    }
}

impl std::str::FromStr for InclusionPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "nine" | "ni" => Ok(InclusionPolicy::Nine),
            "inclusive" | "incl" => Ok(InclusionPolicy::Inclusive),
            "exclusive" | "excl" => Ok(InclusionPolicy::Exclusive),
            other => Err(format!(
                "unknown inclusion policy '{other}' (expected nine|inclusive|exclusive)"
            )),
        }
    }
}

/// Hard cap on the prefetch degree (candidates issued per trigger);
/// larger requested degrees are clamped.
pub const MAX_PREFETCH_DEGREE: usize = 8;

/// One level of a [`HierarchyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSpec {
    /// Geometry of this level.
    pub cache: CacheConfig,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Relationship to the levels above (ignored for level 0).
    pub inclusion: InclusionPolicy,
    /// Prefetch degree: 0 disables the prefetcher, `1..=`
    /// [`MAX_PREFETCH_DEGREE`] issues that many candidates per trigger.
    pub prefetch_degree: usize,
}

impl LevelSpec {
    /// An LRU, NINE, no-prefetch level — the paper's configuration.
    pub fn new(cache: CacheConfig) -> Self {
        Self {
            cache,
            policy: PolicyKind::Lru,
            inclusion: InclusionPolicy::Nine,
            prefetch_degree: 0,
        }
    }

    /// Replace the replacement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the inclusion relationship.
    pub fn with_inclusion(mut self, inclusion: InclusionPolicy) -> Self {
        self.inclusion = inclusion;
        self
    }

    /// Enable the prefetcher with the given degree (0 disables).
    pub fn with_prefetch(mut self, degree: usize) -> Self {
        self.prefetch_degree = degree;
        self
    }
}

/// A validated stack of cache levels, ordered from closest-to-CPU
/// (level 0) to closest-to-memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    levels: Vec<LevelSpec>,
}

impl HierarchyConfig {
    /// Validate and build. Capacities must be non-decreasing going down
    /// (equal is allowed — degeneracy tests rely on it) and line sizes
    /// must not shrink going down (a writeback or back-invalidation would
    /// otherwise straddle lower-level lines).
    pub fn new(levels: Vec<LevelSpec>) -> Result<Self, ConfigError> {
        if levels.is_empty() {
            return Err(ConfigError::EmptyHierarchy);
        }
        for (idx, pair) in levels.windows(2).enumerate() {
            let (upper, lower) = (&pair[0].cache, &pair[1].cache);
            let level = idx + 1;
            if lower.capacity() < upper.capacity() {
                return Err(ConfigError::InvertedHierarchy {
                    level,
                    upper_bytes: upper.capacity(),
                    lower_bytes: lower.capacity(),
                });
            }
            if lower.line_bytes < upper.line_bytes {
                return Err(ConfigError::ShrinkingLineBytes {
                    level,
                    upper_bytes: upper.line_bytes,
                    lower_bytes: lower.line_bytes,
                });
            }
        }
        for spec in &levels {
            spec.cache.validate()?;
        }
        Ok(Self { levels })
    }

    /// The paper-default two-level shape: LRU at both levels, NINE, no
    /// prefetch.
    pub fn two_level(l1: CacheConfig, llc: CacheConfig) -> Result<Self, ConfigError> {
        Self::new(vec![LevelSpec::new(l1), LevelSpec::new(llc)])
    }

    /// The validated levels, top (CPU side) first.
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// Compact human-readable shape label, e.g.
    /// `2w16s32B:lru:nine+4w64s32B:lru:nine`.
    pub fn label(&self) -> String {
        self.levels
            .iter()
            .map(|l| {
                let mut s = format!(
                    "{}w{}s{}B:{}:{}",
                    l.cache.associativity,
                    l.cache.num_sets,
                    l.cache.line_bytes,
                    l.policy.name(),
                    l.inclusion.name()
                );
                if l.prefetch_degree > 0 {
                    s.push_str(&format!(
                        ":pf{}",
                        l.prefetch_degree.min(MAX_PREFETCH_DEGREE)
                    ));
                }
                s
            })
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Prefetcher counters for one level. Prefetch fills are tagged apart
/// from demand traffic: they never appear in the level's demand hit/miss
/// statistics, and their DRAM reads are charged to a separate
/// [`HierarchyReport::dram_prefetch`] pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Candidates issued (after dropping negative addresses).
    pub issued: u64,
    /// Candidates already resident at this level (no work done).
    pub redundant: u64,
    /// Candidates installed into this level.
    pub filled: u64,
    /// Fills whose data came from main memory (no lower level held it).
    pub dram_reads: u64,
}

/// Per-data-structure stride stream: the last observed block, the last
/// delta between observed blocks, and whether a block has been seen yet.
#[derive(Debug, Clone, Copy)]
struct Stream {
    last_block: i64,
    last_delta: i64,
    primed: bool,
}

/// Next-line + constant-stride prefetcher.
///
/// Trained on the demand stream a level actually observes (level 0 sees
/// every reference; level i sees the misses of the levels above). Two
/// consecutive equal non-zero deltas lock a stride; otherwise the
/// prefetcher degrades to next-line. Streams are tracked per data
/// structure, matching how the trace generators interleave kernels.
#[derive(Debug, Clone)]
struct Prefetcher {
    degree: usize,
    streams: Vec<Stream>,
    stats: PrefetchStats,
}

impl Prefetcher {
    fn new(degree: usize) -> Self {
        Self {
            degree: degree.clamp(1, MAX_PREFETCH_DEGREE),
            streams: Vec::new(),
            stats: PrefetchStats::default(),
        }
    }

    /// Observe one demand block; return candidate blocks to prefetch.
    fn advance(&mut self, ds: usize, block: i64) -> ([i64; MAX_PREFETCH_DEGREE], usize) {
        if self.streams.len() <= ds {
            self.streams.resize(
                ds + 1,
                Stream {
                    last_block: 0,
                    last_delta: 0,
                    primed: false,
                },
            );
        }
        let s = &mut self.streams[ds];
        let step = if s.primed {
            let delta = block - s.last_block;
            let locked = delta != 0 && delta == s.last_delta;
            s.last_delta = delta;
            if locked {
                delta
            } else {
                1
            }
        } else {
            s.primed = true;
            1
        };
        s.last_block = block;
        let mut out = [0i64; MAX_PREFETCH_DEGREE];
        let mut len = 0;
        for k in 1..=self.degree as i64 {
            let cand = block + step * k;
            if cand >= 0 {
                out[len] = cand;
                len += 1;
            }
        }
        (out, len)
    }
}

/// One live level of a running hierarchy.
#[derive(Debug, Clone)]
struct Level {
    cache: AnyCache,
    inclusion: InclusionPolicy,
    line_bytes: u64,
    line_shift: u32,
    prefetcher: Option<Prefetcher>,
}

/// A running N-level write-back hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    levels: Vec<Level>,
    /// DRAM demand traffic: `misses` = reads, `writebacks` = writes.
    dram: CacheStats,
    /// DRAM reads performed on behalf of prefetchers, kept apart so
    /// demand statistics stay unpolluted.
    dram_prefetch: CacheStats,
    refs: u64,
    /// Reusable victim scratch (level index, victim); taken/restored per
    /// access so the demand path never allocates.
    pending: Vec<(usize, Victim)>,
}

impl CacheHierarchy {
    /// Back-compatible two-level constructor (LRU, NINE, no prefetch).
    ///
    /// Returns the validation error instead of panicking: an inverted
    /// hierarchy is a client mistake, not a programming error, and
    /// callers like dvf-serve map it to a structured 422.
    pub fn new(l1: CacheConfig, llc: CacheConfig) -> Result<Self, ConfigError> {
        Ok(Self::from_config(HierarchyConfig::two_level(l1, llc)?))
    }

    /// Build from a validated configuration.
    pub fn from_config(config: HierarchyConfig) -> Self {
        let levels = config
            .levels
            .iter()
            .map(|spec| Level {
                cache: AnyCache::new(spec.cache, spec.policy),
                inclusion: spec.inclusion,
                line_bytes: spec.cache.line_bytes as u64,
                line_shift: spec.cache.line_bytes.trailing_zeros(),
                prefetcher: (spec.prefetch_degree > 0)
                    .then(|| Prefetcher::new(spec.prefetch_degree)),
            })
            .collect();
        Self {
            config,
            levels,
            dram: CacheStats::new(),
            dram_prefetch: CacheStats::new(),
            refs: 0,
            pending: Vec::new(),
        }
    }

    /// The configuration this hierarchy was built from.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Issue one reference.
    pub fn access(&mut self, mref: MemRef) {
        self.refs += 1;
        let n = self.levels.len();
        let out0 = self.levels[0].cache.demand_access(mref);
        let mut hit_level = if out0.hit { 0 } else { n };
        let mut pending = std::mem::take(&mut self.pending);
        debug_assert!(pending.is_empty());
        if let Some(v) = out0.victim {
            pending.push((0, v));
        }
        if !out0.hit {
            // Walk down until a level holds the line; every level on the
            // way sees one line-sized read. Fills happen here; victim
            // routing is deferred until the walk is complete.
            let mut extracted_dirty = false;
            for i in 1..n {
                let lower = MemRef::new(mref.ds, mref.addr, AccessKind::Read);
                if self.levels[i].inclusion == InclusionPolicy::Exclusive {
                    if let Some(dirty) = self.levels[i].cache.lookup_extract(lower) {
                        extracted_dirty |= dirty;
                        hit_level = i;
                        break;
                    }
                } else {
                    let out = self.levels[i].cache.demand_access(lower);
                    if let Some(v) = out.victim {
                        pending.push((i, v));
                    }
                    if out.hit {
                        hit_level = i;
                        break;
                    }
                }
            }
            if hit_level == n {
                self.dram.ds_mut(mref.ds).misses += 1;
            }
            if extracted_dirty {
                // The exclusive copy's dirtiness migrates up with the
                // line (conservatively onto the one level-0 line the
                // demand touched when line sizes differ).
                self.levels[0].cache.mark_dirty(mref.addr);
            }
            // Fill-before-writeback: only now do victims move down.
            for (i, v) in pending.drain(..) {
                self.push_victim(i, v);
            }
        }
        self.pending = pending;
        // Prefetchers train on the demand stream each level observed:
        // level 0 always, deeper levels only when everything above missed.
        for i in 0..=hit_level.min(n - 1) {
            if self.levels[i].prefetcher.is_some() {
                self.issue_prefetches(i, mref.ds, mref.addr);
            }
        }
    }

    /// Route a victim evicted from `from` down the stack.
    fn push_victim(&mut self, from: usize, victim: Victim) {
        let mut v = victim;
        if self.levels[from].inclusion == InclusionPolicy::Inclusive
            && from > 0
            && self.invalidate_above(from, v.addr)
        {
            // An upper dirty copy rides along on the one downstream
            // writeback instead of being silently dropped.
            v.dirty = true;
        }
        let n = self.levels.len();
        let mut j = from + 1;
        while j < n {
            if self.levels[j].inclusion == InclusionPolicy::Exclusive {
                // Victim cache: allocate clean and dirty victims alike;
                // its own victim continues down.
                match self.levels[j].cache.install(v.owner, v.addr, v.dirty) {
                    None => return,
                    Some(next) => {
                        v = next;
                        j += 1;
                    }
                }
            } else {
                if !v.dirty {
                    return; // clean data is already present below or in DRAM
                }
                if self.levels[j].cache.absorb_writeback(v.addr) {
                    return; // write-no-fill: updated the resident copy
                }
                j += 1; // not resident: forward the writeback downward
            }
        }
        if v.dirty {
            self.dram.ds_mut(v.owner).writebacks += 1;
        }
    }

    /// Invalidate every copy of the level-`j` line at `addr` in the
    /// levels above `j`, returning whether any removed copy was dirty.
    /// Upper levels may have shorter lines, so each is probed once per
    /// contained sub-line.
    fn invalidate_above(&mut self, j: usize, addr: u64) -> bool {
        let line_j = self.levels[j].line_bytes;
        let mut dirty = false;
        for i in 0..j {
            let line_i = self.levels[i].line_bytes;
            let mut a = addr;
            while a < addr + line_j {
                if let Some(v) = self.levels[i].cache.invalidate(a) {
                    dirty |= v.dirty;
                }
                a += line_i;
            }
        }
        dirty
    }

    /// Train level `i`'s prefetcher on the observed demand reference and
    /// issue its candidates. A candidate already resident is redundant;
    /// otherwise it is installed clean, sourced from the first lower
    /// level holding it (a probe — prefetch never perturbs lower-level
    /// recency) or, failing that, from DRAM on the prefetch account.
    fn issue_prefetches(&mut self, i: usize, ds: DsId, addr: u64) {
        let block = (addr >> self.levels[i].line_shift) as i64;
        let shift = self.levels[i].line_shift;
        let pf = self.levels[i].prefetcher.as_mut().expect("caller checked");
        let (cands, len) = pf.advance(ds.0 as usize, block);
        for &cand in &cands[..len] {
            let paddr = (cand as u64) << shift;
            fn pf_stats(lvl: &mut Level) -> &mut PrefetchStats {
                &mut lvl.prefetcher.as_mut().expect("caller checked").stats
            }
            pf_stats(&mut self.levels[i]).issued += 1;
            if self.levels[i].cache.probe(paddr) {
                pf_stats(&mut self.levels[i]).redundant += 1;
                continue;
            }
            let from_below = (i + 1..self.levels.len()).any(|j| self.levels[j].cache.probe(paddr));
            if !from_below {
                self.dram_prefetch.ds_mut(ds).misses += 1;
                pf_stats(&mut self.levels[i]).dram_reads += 1;
            }
            pf_stats(&mut self.levels[i]).filled += 1;
            if let Some(v) = self.levels[i].cache.install(ds, paddr, false) {
                self.push_victim(i, v);
            }
        }
    }

    /// Replay a slice of references.
    pub fn replay(&mut self, refs: &[MemRef]) {
        for &r in refs {
            self.access(r);
        }
    }

    /// Flush the whole stack top-down: each level's dirty lines drain
    /// into the levels below (absorbing, allocating into exclusive
    /// levels, or forwarding) and ultimately to DRAM.
    pub fn flush(&mut self) {
        for i in 0..self.levels.len() {
            let drained = self.levels[i].cache.drain_dirty();
            for wb in drained {
                self.push_victim(
                    i,
                    Victim {
                        owner: wb.owner,
                        addr: wb.addr,
                        dirty: true,
                    },
                );
            }
        }
    }

    /// Finish (flushing) and report.
    pub fn into_report(mut self) -> HierarchyReport {
        self.flush();
        let specs = self.config.levels.clone();
        let levels = self
            .levels
            .into_iter()
            .zip(specs)
            .map(|(level, spec)| LevelReport {
                config: spec.cache,
                policy: spec.policy,
                inclusion: spec.inclusion,
                prefetch_degree: spec.prefetch_degree.min(MAX_PREFETCH_DEGREE),
                prefetch: level
                    .prefetcher
                    .as_ref()
                    .map(|p| p.stats)
                    .unwrap_or_default(),
                stats: level.cache.into_stats(),
            })
            .collect();
        HierarchyReport {
            levels,
            dram: self.dram,
            dram_prefetch: self.dram_prefetch,
            refs: self.refs,
        }
    }
}

/// Statistics of one level after a hierarchy run.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Geometry the level ran with.
    pub config: CacheConfig,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Inclusion relationship to the levels above.
    pub inclusion: InclusionPolicy,
    /// Effective prefetch degree (0 = disabled).
    pub prefetch_degree: usize,
    /// Demand statistics (prefetch fills excluded by construction).
    pub stats: CacheStats,
    /// Prefetcher counters (zeroes when disabled).
    pub prefetch: PrefetchStats,
}

/// Full per-level statistics of a hierarchy run.
#[derive(Debug, Clone)]
pub struct HierarchyReport {
    /// Per-level reports, top (CPU side) first.
    pub levels: Vec<LevelReport>,
    /// DRAM demand traffic: `misses` = reads, `writebacks` = writes.
    pub dram: CacheStats,
    /// DRAM reads made by prefetchers (kept off the demand account).
    pub dram_prefetch: CacheStats,
    /// References issued.
    pub refs: u64,
}

impl HierarchyReport {
    /// Main-memory accesses attributed to `ds`, prefetch reads included.
    pub fn mem_accesses(&self, ds: DsId) -> u64 {
        self.dram.ds(ds).mem_accesses() + self.dram_prefetch.ds(ds).misses
    }

    /// Main-memory accesses attributed to `ds` by demand traffic alone.
    pub fn demand_mem_accesses(&self, ds: DsId) -> u64 {
        self.dram.ds(ds).mem_accesses()
    }

    /// Aggregate main-memory accesses, prefetch reads included.
    pub fn total_mem_accesses(&self) -> u64 {
        self.dram.total().mem_accesses() + self.dram_prefetch.total().misses
    }

    /// Aggregate per-level summary `(first level, last level)` —
    /// back-compatible with the old two-level `(l1, llc)` shape.
    pub fn totals(&self) -> (DsStats, DsStats) {
        (
            self.levels
                .first()
                .map(|l| l.stats.total())
                .unwrap_or_default(),
            self.levels
                .last()
                .map(|l| l.stats.total())
                .unwrap_or_default(),
        )
    }
}

/// Simulate a whole trace through a two-level LRU/NINE hierarchy.
///
/// Panics with the [`ConfigError`] message on an invalid shape; use
/// [`simulate_hierarchy_config`] for fallible construction.
pub fn simulate_hierarchy(trace: &Trace, l1: CacheConfig, llc: CacheConfig) -> HierarchyReport {
    let config = HierarchyConfig::two_level(l1, llc).expect("invalid two-level hierarchy");
    simulate_hierarchy_config(trace, &config)
}

/// Simulate a whole trace through an arbitrary validated hierarchy.
pub fn simulate_hierarchy_config(trace: &Trace, config: &HierarchyConfig) -> HierarchyReport {
    let mut h = CacheHierarchy::from_config(config.clone());
    h.replay(&trace.refs);
    h.into_report()
}

/// Fan a trace across a grid of hierarchy shapes, one report per shape.
///
/// The trace is shared by reference across [`dvf_obs::par::map`] workers
/// (one per core) — never cloned — and reports come back in job order,
/// bit-identical to running [`simulate_hierarchy_config`] per shape
/// sequentially.
pub fn simulate_hierarchy_many(trace: &Trace, configs: &[HierarchyConfig]) -> Vec<HierarchyReport> {
    let _span = dvf_obs::span("cachesim.hier.par");
    dvf_obs::par::map(configs, dvf_obs::par::available(), |c| {
        simulate_hierarchy_config(trace, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, simulate_with_policy};
    use std::collections::VecDeque;

    fn l1() -> CacheConfig {
        CacheConfig::new(2, 16, 32).unwrap() // 1 KiB
    }

    fn llc() -> CacheConfig {
        CacheConfig::new(4, 64, 32).unwrap() // 8 KiB
    }

    fn streaming_trace(bytes: u64) -> Trace {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for addr in (0..bytes).step_by(8) {
            t.push(MemRef::read(a, addr));
        }
        t
    }

    /// Deterministic mixed read/write trace with reuse (SplitMix64).
    fn mixed_trace(len: usize, seed: u64, addr_space: u64) -> Trace {
        let mut t = Trace::new();
        let a = t.registry.register("A");
        let b = t.registry.register("B");
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..len {
            let r = next();
            let ds = if r & 1 == 0 { a } else { b };
            let kind = if (r >> 1) & 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            t.push(MemRef::new(ds, (r >> 8) % addr_space, kind));
        }
        t
    }

    #[test]
    fn streaming_sees_same_dram_traffic_as_llc_alone() {
        // Pure streaming: L1 filters nothing at line granularity; DRAM
        // loads equal the single-level LLC count.
        let trace = streaming_trace(64 * 1024);
        let hier = simulate_hierarchy(&trace, l1(), llc());
        let single = simulate(&trace, llc());
        let a = trace.registry.id("A").unwrap();
        assert_eq!(hier.mem_accesses(a), single.ds(a).mem_accesses());
    }

    #[test]
    fn l1_absorbs_hot_working_set() {
        // A tiny working set reused many times: after the first pass
        // everything hits in L1 and the LLC sees almost nothing.
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for _ in 0..100 {
            for addr in (0..512u64).step_by(8) {
                t.push(MemRef::read(a, addr));
            }
        }
        let report = simulate_hierarchy(&t, l1(), llc());
        let a_id = t.registry.id("A").unwrap();
        assert_eq!(report.levels[0].stats.ds(a_id).misses, 512 / 32);
        assert_eq!(report.levels[1].stats.ds(a_id).reads, 512 / 32);
        assert_eq!(report.mem_accesses(a_id), 512 / 32);
    }

    #[test]
    fn dram_traffic_never_exceeds_l1_misses_plus_writebacks() {
        let trace = streaming_trace(32 * 1024);
        let report = simulate_hierarchy(&trace, l1(), llc());
        let (l1_total, llc_total) = report.totals();
        assert!(llc_total.misses <= l1_total.misses);
        assert_eq!(l1_total.accesses(), trace.len() as u64);
        assert!(report.total_mem_accesses() <= l1_total.misses + l1_total.writebacks);
    }

    #[test]
    fn writes_propagate_as_writebacks() {
        // Write a region larger than both caches; every line must
        // eventually be written back to memory.
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for addr in (0..32 * 1024u64).step_by(8) {
            t.push(MemRef::write(a, addr));
        }
        let report = simulate_hierarchy(&t, l1(), llc());
        let a_id = t.registry.id("A").unwrap();
        let lines = 32 * 1024 / 32;
        assert_eq!(report.levels[1].stats.ds(a_id).writebacks, lines);
        assert_eq!(report.dram.ds(a_id).misses, lines);
        assert_eq!(report.dram.ds(a_id).writebacks, lines);
        assert_eq!(report.mem_accesses(a_id), 2 * lines); // load + store each line
    }

    #[test]
    fn rejects_inverted_hierarchy() {
        let err = CacheHierarchy::new(llc(), l1()).unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvertedHierarchy {
                level: 1,
                upper_bytes: 8192,
                lower_bytes: 1024,
            }
        );
        // The message names the offending level and sizes.
        assert!(err.to_string().contains("smaller than the level above"));
    }

    #[test]
    fn rejects_empty_and_shrinking_line_hierarchies() {
        assert_eq!(
            HierarchyConfig::new(vec![]).unwrap_err(),
            ConfigError::EmptyHierarchy
        );
        let wide = CacheConfig::new(2, 16, 64).unwrap();
        let narrow = CacheConfig::new(4, 64, 32).unwrap();
        assert_eq!(
            HierarchyConfig::new(vec![LevelSpec::new(wide), LevelSpec::new(narrow)]).unwrap_err(),
            ConfigError::ShrinkingLineBytes {
                level: 1,
                upper_bytes: 64,
                lower_bytes: 32,
            }
        );
    }

    /// The headline bugfix: a dirty L1 victim whose line the LLC already
    /// evicted must forward to DRAM as ONE write — not read-allocate in
    /// the LLC, which charged a phantom DRAM read (and perturbed LLC
    /// recency) in the old two-level stub.
    ///
    /// Shape: L1 = 1-way x 2 sets, LLC = 2-way x 1 set, 16 B lines (equal
    /// 32 B capacity, which validation allows). X stays hot in L1 via a
    /// write hit (invisible to the LLC), reads stream through the shared
    /// LLC set and evict X's stale-clean LLC copy, then a conflicting
    /// read forces X's dirty eviction from L1.
    #[test]
    fn victim_writeback_forwards_to_dram_without_phantom_read() {
        let small_l1 = CacheConfig::new(1, 2, 16).unwrap();
        let small_llc = CacheConfig::new(2, 1, 16).unwrap();
        let mut t = Trace::new();
        let a = t.registry.register("A");
        t.push(MemRef::write(a, 0)); // X: L1 set 0, dirty
        t.push(MemRef::read(a, 16)); // L1 set 1
        t.push(MemRef::read(a, 48)); // L1 set 1; LLC evicts X (clean there)
        t.push(MemRef::write(a, 0)); // X hits in L1; LLC sees nothing
        t.push(MemRef::read(a, 32)); // L1 set 0: evicts X dirty -> LLC miss
        let report = simulate_hierarchy(&t, small_l1, small_llc);
        // Demand reads: lines 0, 16, 48, 32 — and nothing for the
        // writeback of X (the old code charged a fifth, phantom read).
        assert_eq!(report.dram.ds(a).misses, 4);
        // X's writeback reaches DRAM exactly once, at eviction time.
        assert_eq!(report.dram.ds(a).writebacks, 1);
        assert_eq!(report.mem_accesses(a), 5);
        // The LLC never observed the writeback as an access.
        assert_eq!(report.levels[1].stats.ds(a).accesses(), 4);
    }

    /// Reference two-level hierarchy: per-set VecDeques (front = MRU),
    /// LRU + NINE + equal line sizes, mirroring the documented semantics
    /// — fill during the walk, victims routed after, write-no-fill
    /// absorption, forward-to-DRAM otherwise.
    struct RefHierarchy {
        line: u64,
        sets: [usize; 2],
        assoc: [usize; 2],
        levels: [Vec<VecDeque<(u64, bool)>>; 2], // (block, dirty)
        hits: [u64; 2],
        misses: [u64; 2],
        dram_reads: u64,
        dram_writes: u64,
    }

    impl RefHierarchy {
        fn new(l1: CacheConfig, llc: CacheConfig) -> Self {
            assert_eq!(l1.line_bytes, llc.line_bytes);
            Self {
                line: l1.line_bytes as u64,
                sets: [l1.num_sets, llc.num_sets],
                assoc: [l1.associativity, llc.associativity],
                levels: [
                    vec![VecDeque::new(); l1.num_sets],
                    vec![VecDeque::new(); llc.num_sets],
                ],
                hits: [0; 2],
                misses: [0; 2],
                dram_reads: 0,
                dram_writes: 0,
            }
        }

        /// Demand lookup at level `i`; on miss, fill and return victim.
        fn demand(&mut self, i: usize, block: u64, write: bool) -> (bool, Option<(u64, bool)>) {
            let set = (block % self.sets[i] as u64) as usize;
            let ways = &mut self.levels[i][set];
            if let Some(pos) = ways.iter().position(|&(b, _)| b == block) {
                self.hits[i] += 1;
                let (b, d) = ways.remove(pos).unwrap();
                ways.push_front((b, d || write));
                return (true, None);
            }
            self.misses[i] += 1;
            let victim = if ways.len() == self.assoc[i] {
                ways.pop_back()
            } else {
                None
            };
            ways.push_front((block, write));
            (false, victim)
        }

        /// Absorb a dirty writeback at the LLC or forward it to DRAM.
        fn writeback(&mut self, block: u64) {
            let set = (block % self.sets[1] as u64) as usize;
            let ways = &mut self.levels[1][set];
            if let Some(pos) = ways.iter().position(|&(b, _)| b == block) {
                let (b, _) = ways.remove(pos).unwrap();
                ways.push_front((b, true));
            } else {
                self.dram_writes += 1;
            }
        }

        fn access(&mut self, r: MemRef) {
            let block = r.addr / self.line;
            let write = r.kind == AccessKind::Write;
            let (hit, v1) = self.demand(0, block, write);
            if hit {
                return;
            }
            let (hit2, v2) = self.demand(1, block, false);
            if !hit2 {
                self.dram_reads += 1;
            }
            if let Some((b, dirty)) = v1 {
                if dirty {
                    self.writeback(b);
                }
            }
            if let Some((_, dirty)) = v2 {
                if dirty {
                    self.dram_writes += 1;
                }
            }
        }

        fn flush(&mut self) {
            for set in 0..self.sets[0] {
                while let Some((b, dirty)) = self.levels[0][set].pop_front() {
                    if dirty {
                        self.writeback(b);
                    }
                }
            }
            for set in 0..self.sets[1] {
                while let Some((_, dirty)) = self.levels[1][set].pop_front() {
                    if dirty {
                        self.dram_writes += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn matches_reference_model_on_seeded_traces() {
        for (seed, space) in [(1u64, 4 * 1024), (7, 16 * 1024), (42, 64 * 1024)] {
            let trace = mixed_trace(20_000, seed, space);
            let report = simulate_hierarchy(&trace, l1(), llc());
            let mut reference = RefHierarchy::new(l1(), llc());
            for &r in &trace.refs {
                reference.access(r);
            }
            reference.flush();
            let (l1_total, llc_total) = report.totals();
            assert_eq!(l1_total.hits, reference.hits[0], "seed {seed}");
            assert_eq!(l1_total.misses, reference.misses[0], "seed {seed}");
            assert_eq!(llc_total.hits, reference.hits[1], "seed {seed}");
            assert_eq!(llc_total.misses, reference.misses[1], "seed {seed}");
            assert_eq!(
                report.dram.total().misses,
                reference.dram_reads,
                "seed {seed}"
            );
            assert_eq!(
                report.dram.total().writebacks,
                reference.dram_writes,
                "seed {seed}"
            );
        }
    }

    /// With a hit-insensitive policy (FIFO) every same-geometry level
    /// shadows level 0 exactly, so the stack degenerates to the
    /// single-level simulator bit-identically — writebacks included,
    /// because a dirty L1 victim always finds its lower copies evicted in
    /// the same breath and forwards straight to DRAM.
    #[test]
    fn same_geometry_fifo_stack_degenerates_to_single_level() {
        let cfg = CacheConfig::new(4, 16, 32).unwrap();
        let trace = mixed_trace(30_000, 3, 8 * 1024);
        for depth in [2usize, 3] {
            let levels = vec![LevelSpec::new(cfg).with_policy(PolicyKind::Fifo); depth];
            let hier = simulate_hierarchy_config(&trace, &HierarchyConfig::new(levels).unwrap());
            let single = simulate_with_policy(&trace, cfg, PolicyKind::Fifo);
            assert_eq!(
                hier.levels[0].stats.total(),
                single.total(),
                "depth {depth}"
            );
            assert_eq!(hier.dram.total().misses, single.total().misses);
            assert_eq!(hier.dram.total().writebacks, single.total().writebacks);
        }
    }

    /// Single-pass streaming never revisits a line, so no policy has
    /// anything to decide: every policy's same-geometry stack degenerates
    /// bit-identically.
    #[test]
    fn same_geometry_streaming_degenerates_for_all_policies() {
        let cfg = CacheConfig::new(2, 8, 32).unwrap();
        let mut trace = Trace::new();
        let a = trace.registry.register("A");
        for addr in (0..16 * 1024u64).step_by(16) {
            let kind = if addr % 64 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            trace.push(MemRef::new(a, addr, kind));
        }
        for kind in PolicyKind::ALL {
            let levels = vec![LevelSpec::new(cfg).with_policy(kind); 3];
            let hier = simulate_hierarchy_config(&trace, &HierarchyConfig::new(levels).unwrap());
            let single = simulate_with_policy(&trace, cfg, kind);
            assert_eq!(
                hier.levels[0].stats.total(),
                single.total(),
                "{}",
                kind.name()
            );
            assert_eq!(hier.dram.total().misses, single.total().misses);
            assert_eq!(hier.dram.total().writebacks, single.total().writebacks);
        }
    }

    #[test]
    fn inclusive_eviction_back_invalidates_and_merges_dirty() {
        // L1 and inclusive LLC both 2-way x 1 set, 16 B lines. A write
        // hit keeps X most-recent in L1 but is invisible to the LLC, so
        // the LLC's stale recency evicts X while L1 still holds it dirty:
        // back-invalidation must remove L1's copy and merge its dirtiness
        // into one DRAM write.
        let cfg = CacheConfig::new(2, 1, 16).unwrap();
        let config = HierarchyConfig::new(vec![
            LevelSpec::new(cfg),
            LevelSpec::new(cfg).with_inclusion(InclusionPolicy::Inclusive),
        ])
        .unwrap();
        let mut t = Trace::new();
        let a = t.registry.register("A");
        t.push(MemRef::write(a, 0)); // X dirty in L1, clean in LLC
        t.push(MemRef::read(a, 16)); // both levels: {X, 16}
        t.push(MemRef::write(a, 0)); // L1 hit: X MRU in L1, still LRU in LLC
        t.push(MemRef::read(a, 32)); // LLC evicts X -> back-invalidates dirty L1 copy
        t.push(MemRef::read(a, 0)); // X must MISS everywhere now
        let report = simulate_hierarchy_config(&t, &config);
        // Reads: X, 16, 32, X-again. Without back-invalidation the last
        // read would hit L1's (stale) copy and only 3 would be charged.
        assert_eq!(report.dram.ds(a).misses, 4);
        // X's dirty data reached DRAM exactly once, via the merged
        // back-invalidation writeback; nothing is dirty at flush.
        assert_eq!(report.dram.ds(a).writebacks, 1);
    }

    #[test]
    fn exclusive_level_acts_as_victim_cache() {
        // L1 = 1-way x 1 set; exclusive L2 = 2-way x 1 set. L2 is filled
        // only by L1's victims (clean ones included) and extracts on hit.
        let cfg_l1 = CacheConfig::new(1, 1, 16).unwrap();
        let cfg_l2 = CacheConfig::new(2, 1, 16).unwrap();
        let config = HierarchyConfig::new(vec![
            LevelSpec::new(cfg_l1),
            LevelSpec::new(cfg_l2).with_inclusion(InclusionPolicy::Exclusive),
        ])
        .unwrap();
        let mut h = CacheHierarchy::from_config(config);
        let a = DsId(0);
        h.access(MemRef::read(a, 0)); // miss both; DRAM read; L2 NOT filled
        assert_eq!(h.dram.total().misses, 1);
        h.access(MemRef::read(a, 16)); // L1 evicts clean 0 -> installs into L2
        assert_eq!(h.dram.total().misses, 2);
        h.access(MemRef::read(a, 0)); // L1 miss, L2 HIT: extracted, no DRAM
        assert_eq!(h.dram.total().misses, 2);
        let report = h.into_report();
        assert_eq!(report.levels[1].stats.total().hits, 1);
        // After extraction the line lives above only; L2 held at most the
        // victims in flight, so its demand misses are the other lookups.
        assert_eq!(report.levels[1].stats.total().misses, 2);
    }

    #[test]
    fn exclusive_extraction_migrates_dirty_upward() {
        let cfg_l1 = CacheConfig::new(1, 1, 16).unwrap();
        let cfg_l2 = CacheConfig::new(2, 1, 16).unwrap();
        let config = HierarchyConfig::new(vec![
            LevelSpec::new(cfg_l1),
            LevelSpec::new(cfg_l2).with_inclusion(InclusionPolicy::Exclusive),
        ])
        .unwrap();
        let mut h = CacheHierarchy::from_config(config);
        let a = DsId(0);
        h.access(MemRef::write(a, 0)); // dirty in L1
        h.access(MemRef::read(a, 16)); // dirty 0 -> L2
        h.access(MemRef::read(a, 0)); // extracted: dirtiness back in L1
        let report = h.into_report(); // flush must write 0 back once
        assert_eq!(report.dram.total().writebacks, 1);
    }

    #[test]
    fn next_line_prefetch_covers_a_stream_without_polluting_demand_stats() {
        // Unit-stride read stream with a degree-1 prefetcher at the LLC:
        // after the first compulsory miss the prefetcher stays one line
        // ahead, so the LLC's *demand* misses stay at 1 while every
        // remaining line arrives on the prefetch account.
        let cfg_llc = llc();
        let config = HierarchyConfig::new(vec![
            LevelSpec::new(l1()),
            LevelSpec::new(cfg_llc).with_prefetch(1),
        ])
        .unwrap();
        let trace = streaming_trace(32 * 1024);
        let a = trace.registry.id("A").unwrap();
        let lines = 32 * 1024 / 32;
        let report = simulate_hierarchy_config(&trace, &config);
        assert_eq!(report.levels[1].stats.ds(a).misses, 1);
        // One fill per observed line (the last one overshoots the stream
        // end by a line — the price of staying one line ahead).
        assert_eq!(report.levels[1].prefetch.filled, lines);
        assert_eq!(report.dram_prefetch.ds(a).misses, lines);
        // Conservation: demand + prefetch DRAM reads = lines + overshoot.
        assert_eq!(report.mem_accesses(a), lines + 1);
        // Without the prefetcher the same DRAM total arrives as demand.
        let plain = simulate_hierarchy(&trace, l1(), cfg_llc);
        assert_eq!(plain.mem_accesses(a), lines);
        assert_eq!(plain.levels[1].stats.ds(a).misses, lines);
    }

    #[test]
    fn stride_prefetcher_locks_onto_constant_stride() {
        // Read every 4th line with a degree-1 level-0 prefetcher: two
        // deltas prime the stride, after which every demand hits a line
        // the prefetcher already pulled in.
        let cfg = CacheConfig::new(4, 16, 32).unwrap();
        let config = HierarchyConfig::new(vec![LevelSpec::new(cfg).with_prefetch(1)]).unwrap();
        let mut t = Trace::new();
        let a = t.registry.register("A");
        for i in 0..256u64 {
            t.push(MemRef::read(a, i * 4 * 32));
        }
        let report = simulate_hierarchy_config(&t, &config);
        // Misses: line 0 (cold), line 4 (next-line guess missed), line 8
        // (stride locks here); everything after is prefetched in time.
        assert_eq!(report.levels[0].stats.ds(a).misses, 3);
        assert!(report.levels[0].prefetch.filled >= 253);
    }

    #[test]
    fn hierarchy_fanout_matches_sequential() {
        let trace = mixed_trace(10_000, 11, 16 * 1024);
        let cfg_small = CacheConfig::new(2, 8, 32).unwrap();
        let configs: Vec<HierarchyConfig> = vec![
            HierarchyConfig::two_level(l1(), llc()).unwrap(),
            HierarchyConfig::new(vec![
                LevelSpec::new(cfg_small).with_policy(PolicyKind::Fifo),
                LevelSpec::new(l1()),
                LevelSpec::new(llc()).with_inclusion(InclusionPolicy::Inclusive),
            ])
            .unwrap(),
            HierarchyConfig::new(vec![
                LevelSpec::new(cfg_small),
                LevelSpec::new(llc()).with_prefetch(2),
            ])
            .unwrap(),
        ];
        let seq: Vec<HierarchyReport> = configs
            .iter()
            .map(|c| simulate_hierarchy_config(&trace, c))
            .collect();
        let pinned = dvf_obs::par::map(&configs, 3, |c| simulate_hierarchy_config(&trace, c));
        for par in [simulate_hierarchy_many(&trace, &configs), pinned] {
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                assert_eq!(p.refs, s.refs);
                assert_eq!(p.dram.total(), s.dram.total());
                assert_eq!(p.dram_prefetch.total(), s.dram_prefetch.total());
                for (pl, sl) in p.levels.iter().zip(&s.levels) {
                    assert_eq!(pl.stats.total(), sl.stats.total());
                    assert_eq!(pl.prefetch, sl.prefetch);
                }
            }
        }
    }

    #[test]
    fn flush_cascades_dirty_lines_to_dram_once() {
        let mut h = CacheHierarchy::new(l1(), llc()).unwrap();
        let a = DsId(0);
        h.access(MemRef::write(a, 0));
        let report = h.into_report();
        // One dirty line: L1 drains it into the LLC copy, the LLC drain
        // writes it to DRAM — exactly one memory write, two level-local
        // writeback charges.
        assert_eq!(report.dram.ds(a).writebacks, 1);
        assert_eq!(report.levels[0].stats.ds(a).writebacks, 1);
        assert_eq!(report.levels[1].stats.ds(a).writebacks, 1);
    }

    #[test]
    fn label_is_stable_and_parseable() {
        let config = HierarchyConfig::new(vec![
            LevelSpec::new(l1()),
            LevelSpec::new(llc())
                .with_policy(PolicyKind::Fifo)
                .with_inclusion(InclusionPolicy::Exclusive)
                .with_prefetch(2),
        ])
        .unwrap();
        assert_eq!(
            config.label(),
            "2w16s32B:lru:nine+4w64s32B:fifo:exclusive:pf2"
        );
        assert_eq!(
            "incl".parse::<InclusionPolicy>().unwrap(),
            InclusionPolicy::Inclusive
        );
        assert!("mesi".parse::<InclusionPolicy>().is_err());
    }
}
