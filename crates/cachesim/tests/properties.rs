//! Property-based tests for the cache simulator invariants.

use dvf_cachesim::{
    simulate, simulate_hierarchy_config, simulate_with_policy, AccessKind, CacheConfig,
    CacheHierarchy, ConfigError, DsId, HierarchyConfig, HierarchyReport, InclusionPolicy,
    LevelSpec, MemRef, PolicyKind, SimJob, Simulator, Trace,
};
use dvf_obs::par;
use proptest::prelude::*;

/// Strategy: a random but well-formed cache geometry.
fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (1usize..=8, 0u32..=6, 3u32..=7).prop_map(|(assoc, sets_log2, line_log2)| {
        CacheConfig::new(assoc, 1 << sets_log2, 1 << line_log2).unwrap()
    })
}

/// Strategy: a trace over up to 4 data structures within a 64 KiB region.
fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u16..4, 0u64..65536, prop::bool::ANY), 1..max_len).prop_map(|refs| {
        let mut t = Trace::new();
        for name in ["A", "B", "C", "D"] {
            t.registry.register(name);
        }
        for (ds, addr, write) in refs {
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            t.push(MemRef::new(dvf_cachesim::DsId(ds), addr, kind));
        }
        t
    })
}

/// Strategy: a trace with the locality the replay loops' recent-line
/// filter serves. Each step alternates two streams of 8-byte elements for
/// one to four pairs (a mat-vec's `A[i·n+j], p[j]`) inside a 2 KiB region,
/// so lines repeat back to back, interleave, and collide in their sets.
/// With `top`, about one stream in sixteen sits in the top four bytes of
/// the address space instead, where a 1-byte line's block is `u64::MAX`.
fn arb_local_trace(max_steps: usize, top: bool) -> impl Strategy<Value = Trace> {
    let step = (0u16..3, 0u64..2048, 0u64..2048, 1u64..=4, 0u8..=255);
    prop::collection::vec(step, 1..max_steps).prop_map(move |steps| {
        let mut t = Trace::new();
        for name in ["A", "B", "C"] {
            t.registry.register(name);
        }
        let addr = |pick: u64, k: u64| {
            if top && pick.is_multiple_of(16) {
                u64::MAX - (pick / 16 + k) % 4
            } else {
                pick + 8 * k
            }
        };
        for (ds, a, b, pairs, writes) in steps {
            for k in 0..pairs {
                for (bit, pick) in [(2 * k, a), (2 * k + 1, b)] {
                    let kind = if writes >> bit & 1 == 1 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    t.push(MemRef::new(DsId(ds), addr(pick, k), kind));
                }
            }
        }
        t
    })
}

/// Cut `refs` into consecutive chunks at the given positions (taken
/// modulo the length, in any order).
fn chunks(refs: &[MemRef], cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (refs.len() + 1)).collect();
    at.push(0);
    at.push(refs.len());
    at.sort_unstable();
    at.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Strategy: a valid 1–3 level hierarchy. Lines grow (or stay) going
/// down, capacities never shrink, every level draws its own policy,
/// levels below the first are NINE, inclusive or exclusive, and any level
/// — level 0 included — may prefetch.
fn arb_hierarchy() -> impl Strategy<Value = HierarchyConfig> {
    let level = (
        1usize..=4,
        0u32..=4,
        0u32..=1,
        prop::sample::select(PolicyKind::ALL.to_vec()),
        prop::sample::select(vec![
            InclusionPolicy::Nine,
            InclusionPolicy::Inclusive,
            InclusionPolicy::Exclusive,
        ]),
        0usize..=5,
    );
    (prop::collection::vec(level, 1..4), 0u32..=5).prop_map(|(levels, line_log2)| {
        let mut line = 1usize << line_log2;
        let mut capacity = 0;
        let specs = levels
            .into_iter()
            .enumerate()
            .map(
                |(i, (assoc, sets_log2, grow, policy, inclusion, prefetch))| {
                    line <<= grow;
                    let mut sets = 1usize << sets_log2;
                    while assoc * sets * line < capacity {
                        sets *= 2;
                    }
                    let cache = CacheConfig::new(assoc, sets, line).unwrap_or_else(|e| {
                        // One set of 1-byte lines is refused; take two sets.
                        assert_eq!((e, sets, line), (ConfigError::WholeAddressTag, 1, 1));
                        sets = 2;
                        CacheConfig::new(assoc, sets, line).unwrap()
                    });
                    capacity = assoc * sets * line;
                    let spec = LevelSpec::new(cache)
                        .with_policy(policy)
                        // Prefetch at one level in three.
                        .with_prefetch(prefetch.saturating_sub(2));
                    if i == 0 {
                        spec
                    } else {
                        spec.with_inclusion(inclusion)
                    }
                },
            )
            .collect();
        HierarchyConfig::new(specs).unwrap()
    })
}

/// Assert two hierarchy runs charged every level, pool and prefetcher
/// alike.
fn same_hierarchy_run(a: &HierarchyReport, b: &HierarchyReport) -> Result<(), String> {
    prop_assert_eq!(a.refs, b.refs);
    prop_assert_eq!(&a.dram, &b.dram);
    prop_assert_eq!(&a.dram_prefetch, &b.dram_prefetch);
    prop_assert_eq!(a.levels.len(), b.levels.len());
    for (i, (x, y)) in a.levels.iter().zip(&b.levels).enumerate() {
        prop_assert_eq!(&x.stats, &y.stats, "level {} statistics differ", i);
        prop_assert_eq!(x.prefetch, y.prefetch, "level {} prefetcher differs", i);
    }
    Ok(())
}

proptest! {
    /// Misses never exceed references; hits + misses == references.
    #[test]
    fn conservation_of_references(cfg in arb_config(), trace in arb_trace(200)) {
        let report = simulate(&trace, cfg);
        let total = report.total();
        prop_assert_eq!(total.accesses(), trace.len() as u64);
        prop_assert_eq!(total.hits + total.misses, total.accesses());
    }

    /// Writebacks can never exceed the number of write misses + write hits
    /// (a line only becomes dirty via a write, and each dirtying write can
    /// produce at most one eventual writeback per fill).
    #[test]
    fn writebacks_bounded_by_writes(cfg in arb_config(), trace in arb_trace(200)) {
        let report = simulate(&trace, cfg);
        let total = report.total();
        prop_assert!(total.writebacks <= total.writes);
    }

    /// The number of misses is at least the number of distinct blocks
    /// touched (compulsory misses) and at most the number of references.
    #[test]
    fn miss_bounds(cfg in arb_config(), trace in arb_trace(200)) {
        let report = simulate(&trace, cfg);
        let mut blocks: Vec<u64> = trace.refs.iter().map(|r| cfg.block_of(r.addr)).collect();
        blocks.sort_unstable();
        blocks.dedup();
        let total = report.total();
        prop_assert!(total.misses >= blocks.len() as u64);
        prop_assert!(total.misses <= trace.len() as u64);
    }

    /// A fully-associative-equivalent bigger cache never has more misses
    /// than a smaller cache with the same line size under LRU (inclusion
    /// property of LRU stacks holds per set when sets are identical and
    /// associativity grows).
    #[test]
    fn lru_inclusion_across_associativity(trace in arb_trace(300)) {
        let small = CacheConfig::new(2, 16, 32).unwrap();
        let large = CacheConfig::new(8, 16, 32).unwrap();
        let rs = simulate(&trace, small);
        let rl = simulate(&trace, large);
        prop_assert!(rl.total().misses <= rs.total().misses);
    }

    /// Replaying the same trace twice through an untouched simulator gives
    /// identical statistics (determinism), for every policy.
    #[test]
    fn deterministic_replay(cfg in arb_config(), trace in arb_trace(150)) {
        for kind in PolicyKind::ALL {
            let r1 = simulate_with_policy(&trace, cfg, kind);
            let r2 = simulate_with_policy(&trace, cfg, kind);
            prop_assert_eq!(r1.total(), r2.total());
        }
    }

    /// Per-data-structure stats sum to the totals.
    #[test]
    fn per_ds_sums_to_total(cfg in arb_config(), trace in arb_trace(200)) {
        let report = simulate(&trace, cfg);
        let mut sum = dvf_cachesim::DsStats::default();
        for (_, s) in report.stats().iter() {
            sum.merge(s);
        }
        prop_assert_eq!(sum, report.total());
    }

    /// Trace text round-trip preserves the simulation outcome.
    #[test]
    fn text_roundtrip_same_simulation(cfg in arb_config(), trace in arb_trace(100)) {
        let back = Trace::from_text(&trace.to_text()).unwrap();
        let r1 = simulate(&trace, cfg);
        let r2 = simulate(&back, cfg);
        prop_assert_eq!(r1.total(), r2.total());
    }

    /// Parallel fan-out is bit-identical to per-job sequential replay for
    /// every policy, any geometry mix, and any worker count.
    #[test]
    fn simulate_many_matches_sequential(
        cfg_a in arb_config(),
        cfg_b in arb_config(),
        trace in arb_trace(200),
        threads in 1usize..6,
    ) {
        let jobs: Vec<SimJob> = PolicyKind::ALL
            .iter()
            .flat_map(|&policy| {
                [SimJob { config: cfg_a, policy }, SimJob { config: cfg_b, policy }]
            })
            .collect();
        let reports = par::map(&jobs, threads, |j| simulate_with_policy(&trace, j.config, j.policy));
        prop_assert_eq!(reports.len(), jobs.len());
        for (job, report) in jobs.iter().zip(&reports) {
            let seq = simulate_with_policy(&trace, job.config, job.policy);
            prop_assert_eq!(report, &seq);
        }
    }

    /// Replaying chunks — through the recent-line filter — counts exactly
    /// what issuing each reference alone does, for every policy, 1–8
    /// ways, 1–64 sets, 1–128 byte lines and references at the top of the
    /// address space; flushed writebacks show every dirty bit the filter
    /// set. One set of 1-byte lines, whose tag would be the whole
    /// address, is refused.
    #[test]
    fn replay_matches_per_reference_access(
        assoc in 1usize..=8,
        sets_log2 in 0u32..=6,
        line_log2 in 0u32..=7,
        policy in prop::sample::select(PolicyKind::ALL.to_vec()),
        trace in arb_local_trace(150, true),
        cuts in prop::collection::vec(0usize..2000, 0..6),
    ) {
        let cfg = match CacheConfig::new(assoc, 1 << sets_log2, 1 << line_log2) {
            Ok(cfg) => cfg,
            Err(e) => {
                prop_assert_eq!(e, ConfigError::WholeAddressTag);
                prop_assert_eq!((sets_log2, line_log2), (0, 0));
                return Ok(());
            }
        };
        let mut one = Simulator::with_policy(cfg, policy);
        for &r in &trace.refs {
            one.access(r);
        }
        let mut replayed = Simulator::with_policy(cfg, policy);
        for chunk in chunks(&trace.refs, &cuts) {
            replayed.run(&trace.refs[chunk]);
        }
        prop_assert_eq!(replayed.finish(), one.finish(), "{} {}", policy.name(), cfg);
    }
}

proptest! {
    /// Hierarchy invariants over random traces: every reference hits L1;
    /// the LLC sees at most L1's misses + writebacks; LLC misses are at
    /// least the compulsory minimum (distinct blocks actually forwarded).
    ///
    /// Note what is *not* asserted: hierarchy DRAM misses can exceed the
    /// LLC-only count by a little — L1 filtering thins the LLC's reference
    /// stream, perturbing its LRU history (the classic non-inclusive
    /// hierarchy anomaly) — so no inclusion property holds across
    /// configurations.
    #[test]
    fn hierarchy_invariants(trace in arb_trace(250)) {
        let l1 = CacheConfig::new(2, 8, 32).unwrap();
        let llc = CacheConfig::new(4, 64, 32).unwrap();
        let report = dvf_cachesim::simulate_hierarchy(&trace, l1, llc);
        let (l1_total, llc_total) = report.totals();
        prop_assert_eq!(l1_total.accesses(), trace.len() as u64);
        prop_assert!(llc_total.accesses() <= l1_total.misses + l1_total.writebacks);
        // Compulsory lower bound: every distinct block the program touches
        // must be loaded from DRAM at least once.
        let mut blocks: Vec<u64> = trace.refs.iter().map(|r| llc.block_of(r.addr)).collect();
        blocks.sort_unstable();
        blocks.dedup();
        prop_assert!(llc_total.misses >= blocks.len() as u64);
    }

    /// A stack of identical levels under a *hit-insensitive* policy
    /// (FIFO, seeded random — victim choice ignores hits) degenerates to
    /// the single cache bit-for-bit, writes included: each lower level
    /// sees exactly the upper level's miss stream and, starting cold with
    /// the same geometry, replays the same fills and evictions, so its
    /// content shadows the upper level's at every step. DRAM traffic per
    /// data structure must therefore equal the single-level run's misses
    /// and writebacks exactly. (LRU and PLRU do *not* degenerate: hits
    /// promote in the upper level only, so recency orders diverge.)
    #[test]
    fn same_geometry_stack_degenerates_for_hit_insensitive_policies(
        cfg in arb_config(),
        trace in arb_trace(250),
        depth in 2usize..=3,
    ) {
        for policy in [PolicyKind::Fifo, PolicyKind::Random] {
            let single = simulate_with_policy(&trace, cfg, policy);
            let stack = HierarchyConfig::new(
                (0..depth).map(|_| LevelSpec::new(cfg).with_policy(policy)).collect(),
            ).unwrap();
            let hier = simulate_hierarchy_config(&trace, &stack);
            for (id, _) in trace.registry.iter() {
                prop_assert_eq!(hier.dram.ds(id).misses, single.ds(id).misses);
                prop_assert_eq!(hier.dram.ds(id).writebacks, single.ds(id).writebacks);
            }
        }
    }

    /// A single pass over distinct lines (no reuse) degenerates for
    /// *every* policy: with nothing to re-reference, replacement order is
    /// unobservable and each line costs exactly one DRAM read (plus one
    /// writeback if written).
    #[test]
    fn streaming_degenerates_for_all_policies(
        cfg in arb_config(),
        writes in prop::collection::vec(prop::bool::ANY, 1..300),
    ) {
        let mut trace = Trace::new();
        let id = trace.registry.register("A");
        for (i, &w) in writes.iter().enumerate() {
            let addr = i as u64 * cfg.line_bytes as u64;
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            trace.push(MemRef::new(id, addr, kind));
        }
        let dirty_lines = writes.iter().filter(|&&w| w).count() as u64;
        for policy in PolicyKind::ALL {
            let single = simulate_with_policy(&trace, cfg, policy);
            prop_assert_eq!(single.ds(id).misses, writes.len() as u64);
            prop_assert_eq!(single.ds(id).writebacks, dirty_lines);
            let stack = HierarchyConfig::new(vec![
                LevelSpec::new(cfg).with_policy(policy),
                LevelSpec::new(cfg).with_policy(policy),
            ]).unwrap();
            let hier = simulate_hierarchy_config(&trace, &stack);
            prop_assert_eq!(hier.dram.ds(id).misses, writes.len() as u64);
            prop_assert_eq!(hier.dram.ds(id).writebacks, dirty_lines);
        }
    }

    /// Hierarchy fan-out over scoped threads is bit-identical to running
    /// each stack sequentially, for any worker count and a shape mix
    /// covering every inclusion policy and a prefetcher.
    #[test]
    fn hierarchy_fanout_matches_sequential(
        trace in arb_trace(200),
        threads in 1usize..6,
    ) {
        let l1 = CacheConfig::new(2, 8, 32).unwrap();
        let l2 = CacheConfig::new(4, 32, 32).unwrap();
        let configs: Vec<HierarchyConfig> = [
            InclusionPolicy::Nine,
            InclusionPolicy::Inclusive,
            InclusionPolicy::Exclusive,
        ]
        .iter()
        .map(|&incl| {
            HierarchyConfig::new(vec![
                LevelSpec::new(l1).with_prefetch(1),
                LevelSpec::new(l2).with_inclusion(incl),
            ])
            .unwrap()
        })
        .collect();
        let reports = par::map(&configs, threads, |c| simulate_hierarchy_config(&trace, c));
        prop_assert_eq!(reports.len(), configs.len());
        for (config, report) in configs.iter().zip(&reports) {
            same_hierarchy_run(report, &simulate_hierarchy_config(&trace, config))?;
        }
    }

    /// A hierarchy replaying chunks — level 0 through the recent-line
    /// filter whenever it does not prefetch — charges exactly what issuing
    /// each reference alone does, across random stacks of NINE, inclusive
    /// and exclusive levels with prefetchers anywhere.
    #[test]
    fn hierarchy_replay_matches_per_reference_access(
        config in arb_hierarchy(),
        trace in arb_local_trace(150, true),
        cuts in prop::collection::vec(0usize..2000, 0..6),
    ) {
        let mut one = CacheHierarchy::from_config(config.clone());
        for &r in &trace.refs {
            one.access(r);
        }
        let mut replayed = CacheHierarchy::from_config(config.clone());
        for chunk in chunks(&trace.refs, &cuts) {
            replayed.replay(&trace.refs[chunk]);
        }
        if let Err(e) = same_hierarchy_run(&replayed.into_report(), &one.into_report()) {
            prop_assert!(false, "{}: {}", config.label(), e);
        }
    }

    /// Binary serialization round-trips any trace.
    #[test]
    fn binio_roundtrip(trace in arb_trace(300)) {
        let mut buf = Vec::new();
        dvf_cachesim::binio::write_binary(&trace, &mut buf).unwrap();
        let back = dvf_cachesim::binio::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(back.refs, trace.refs);
        prop_assert_eq!(back.registry.len(), trace.registry.len());
    }
}

#[test]
fn streaming_exactness() {
    // Deterministic check used by Fig. 4's streaming validation: a pure
    // sequential read of D bytes causes exactly ceil(D/CL) misses.
    for (d, cl) in [(4096u64, 32usize), (1000, 64), (7, 8)] {
        let cfg = CacheConfig::new(4, 64, cl).unwrap();
        let mut sim = Simulator::new(cfg);
        let ds = dvf_cachesim::DsId(0);
        for addr in 0..d {
            sim.access(MemRef::read(ds, addr));
        }
        let report = sim.finish();
        assert_eq!(report.ds(ds).misses, d.div_ceil(cl as u64));
    }
}
