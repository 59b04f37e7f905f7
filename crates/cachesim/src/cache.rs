//! The set-associative cache model.
//!
//! Storage is struct-of-arrays: one flat, contiguous tag array (with an
//! invalid-tag sentinel) plus parallel dirty/owner arrays, indexed by
//! `set * associativity + way`. The hit scan — the hot operation of every
//! replay — then walks `associativity` adjacent `u64`s instead of chasing
//! a per-set `Vec<Option<Line>>`, which both removes a pointer indirection
//! per access and shrinks each probed entry from a 24-byte `Option<Line>`
//! to 8 bytes.

use crate::config::{CacheConfig, CacheGeometry};
use crate::replacement::{Fifo, Lru, PolicyKind, RandomEvict, ReplacementPolicy, TreePlru};
use crate::stats::CacheStats;
use crate::trace::{AccessKind, DsId, MemRef};

/// Sentinel marking an empty way in the flat tag array.
///
/// Tag words are stored biased by one (`stored = tag + 1`), so zero means
/// "empty" and a fresh cache is all-zeroes: construction is one `calloc`
/// with no explicit fill, and sets the trace never maps to never fault
/// their pages in — which matters when a short trace replays through a
/// many-megabyte geometry. The bias would wrap for `tag == u64::MAX`, but
/// a tag is the address shifted right by `log2(line) + log2(sets)` bits,
/// and [`CacheConfig::validate`] rejects the one geometry where that
/// shift is zero (one set of 1-byte lines), so every tag is below
/// `u64::MAX` and no stored tag equals `EMPTY_WAY`.
const EMPTY_WAY: u64 = 0;

/// Bias a real tag into its stored representation.
#[inline(always)]
fn store_tag(tag: u64) -> u64 {
    tag.wrapping_add(1)
}

/// Recover the real tag from a stored (non-empty) tag word.
#[inline(always)]
fn load_tag(word: u64) -> u64 {
    word.wrapping_sub(1)
}

/// A dirty line written back on eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Data structure the line belongs to (charged the writeback).
    pub owner: DsId,
    /// Base address of the written-back line.
    pub addr: u64,
}

/// An evicted line — clean or dirty — as reported by
/// [`SetAssociativeCache::demand_access`] and the install paths.
///
/// Unlike [`Writeback`] this also reports *clean* victims, which a cache
/// hierarchy needs: an exclusive lower level is filled exclusively by the
/// level above's victims, clean ones included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Data structure the evicted line belongs to.
    pub owner: DsId,
    /// Base address of the evicted line.
    pub addr: u64,
    /// Whether the line was dirty (its owner was charged one writeback).
    pub dirty: bool,
}

/// Result of one [`SetAssociativeCache::demand_access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandOutcome {
    /// Whether the line was resident.
    pub hit: bool,
    /// The line evicted by the fill, if any (misses only).
    pub victim: Option<Victim>,
}

/// Result of a single access, for callers that want to trace behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was fetched from main memory; if a dirty victim was evicted,
    /// it is reported (its owner was charged one writeback).
    Miss {
        /// The dirty line written back, if any.
        writeback: Option<Writeback>,
    },
}

impl AccessOutcome {
    /// Whether the access missed.
    pub fn is_miss(&self) -> bool {
        matches!(self, AccessOutcome::Miss { .. })
    }
}

/// A write-back, write-allocate, set-associative cache parameterized by
/// replacement policy.
///
/// The simulator models a single last-level cache, following the paper:
/// "we only consider the last level cache during analysis, because it has
/// the largest impact on the number of main memory accesses" (§III-C).
#[derive(Debug, Clone)]
pub struct SetAssociativeCache<P: ReplacementPolicy = Lru> {
    config: CacheConfig,
    geom: CacheGeometry,
    assoc: usize,
    policy: P,
    /// `num_sets * associativity` biased tag words ([`EMPTY_WAY`] = empty).
    tags: Vec<u64>,
    /// Parallel to `tags`: the line's owner [`DsId`] in the high bits and
    /// its dirty flag in bit 0, packed so the miss path touches one array
    /// (one cache line) instead of two.
    meta: Vec<u32>,
    /// Parallel to `tags`: per-way replacement bookkeeping (e.g. LRU
    /// recency stamps), flat like the tag array so policy updates stay on
    /// cache lines the probe already pulled in.
    policy_ways: Vec<P::WayState>,
    /// One replacement-policy residue per set (PLRU bits, RNG streams;
    /// zero-sized for LRU/FIFO, whose ranks live in `policy_ways`).
    policy_state: Vec<P::SetState>,
    /// Whether the simulator metadata fits in [`RESIDENT_META_BYTES`];
    /// decided once at construction, gates the resident short paths.
    resident: bool,
    stats: CacheStats,
}

/// Pack a line's owner and dirty flag into one `meta` word.
#[inline(always)]
fn pack_meta(owner: DsId, dirty: bool) -> u32 {
    (u32::from(owner.0) << 1) | u32::from(dirty)
}

/// The replay loops' recent-line filter: the last two blocks a replay
/// call touched, each with the slot (`set * assoc + way`) it occupies, at
/// most one per set.
///
/// Every entry is its set's most recent line, and a hit there changes
/// nothing but the read/write, hit and dirty counts: `on_hit` on the most
/// recent way is a no-op under every policy (an LRU/FIFO rank is already
/// `assoc - 1`, a tree-PLRU touch is idempotent, random ignores hits). So
/// a reference to a filtered block skips the tag scan and the policy
/// update. The filter lives on the replay call's stack, never in the
/// cache: any path that can move a line outside the call (`access`,
/// `install`, `invalidate`, a hierarchy's miss traffic) runs while no
/// filter is live, or clears it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecentLines([Recent; 2]);

#[derive(Debug, Clone, Copy)]
struct Recent {
    block: u64,
    slot: usize,
}

impl RecentLines {
    /// A filter holding nothing. Any `u64` is a real block when lines are
    /// one byte wide, so the block alone cannot mark an entry empty: an
    /// empty entry's slot lies past every cache's arrays, and the lookup
    /// through it fails.
    pub(crate) const EMPTY: Self = Self(
        [Recent {
            block: u64::MAX,
            slot: usize::MAX,
        }; 2],
    );

    /// The slot of `block` if the filter holds it, else `usize::MAX`.
    #[inline(always)]
    fn slot_of(&self, block: u64) -> usize {
        let [first, second] = self.0;
        if block == first.block {
            first.slot
        } else if block == second.block {
            second.slot
        } else {
            usize::MAX
        }
    }

    /// Record `block`, just touched at `slot`, as its set's most recent
    /// line. The older entry is the one that goes, unless the newer one
    /// shares the set (`base..base + assoc`): it is no longer its set's
    /// most recent line, so it goes instead. The two entries never share
    /// a set, so the older one cannot be in this set as well.
    #[inline(always)]
    fn record(&mut self, block: u64, slot: usize, base: usize, assoc: usize) {
        let [newer, older] = self.0;
        let kept = if newer.slot.wrapping_sub(base) < assoc {
            older
        } else {
            newer
        };
        self.0 = [Recent { block, slot }, kept];
    }
}

/// Simulator-metadata footprint (tags + meta + way state) below which the
/// whole model stays resident in the host CPU's fast cache levels. Resident
/// geometries take short paths: [`scan_set_resident`] instead of the
/// vectorized [`scan_set`], and no software prefetch in
/// [`SetAssociativeCache::replay`], not even after a recent-line filter
/// miss — for them the branch-free masks and the extra peek loads are pure
/// overhead (the 8 KiB verification geometry ran at 0.93x with them on).
const RESIDENT_META_BYTES: usize = 256 * 1024;

/// Hit/free scan for fully cache-resident geometries: a plain early-exit
/// loop. With the metadata already in L1 the loads are free, so exiting at
/// the hit way beats computing full hit/free masks; the free scan runs
/// only on the (rare, compulsory) miss. Same contract as [`scan_set`]:
/// `(hit_way, first_free_way)`, `usize::MAX` for "none" — except that a
/// hit skips the free scan entirely, which the caller never needs then.
#[inline(always)]
fn scan_set_resident(set_tags: &[u64], marked: u64) -> (usize, usize) {
    // Occupied ways form a prefix (fills claim the first empty way, and
    // ways never empty mid-run), so a hit can only live before the first
    // empty word: one pass answers both questions.
    for (way, &t) in set_tags.iter().enumerate() {
        if t == marked {
            return (way, usize::MAX);
        }
        if t == EMPTY_WAY {
            return (usize::MAX, way);
        }
    }
    (usize::MAX, usize::MAX)
}

/// Scan one set's tag slice for the biased tag word `marked`, returning
/// `(hit_way, first_free_way)` with `usize::MAX` marking "none".
///
/// The scan works one cache line (8 tag words) at a time: within a line
/// both comparisons accumulate branch-free into bitmasks the compiler can
/// vectorize, and the only branches are one exit test per line. Fills
/// always claim the *first* empty way (and evictions replace in place),
/// so the occupied ways of a set form a prefix: finding an empty word in
/// a line means nothing valid follows in later lines, and the scan may
/// stop — a sparsely occupied set of a large cache touches one line, not
/// `assoc / 8`.
#[inline(always)]
fn scan_set(set_tags: &[u64], marked: u64) -> (usize, usize) {
    // Sets that fit one cache line take a single branch-free pass.
    if set_tags.len() <= 8 {
        let mut hit = 0u64;
        let mut free = 0u64;
        for (way, &t) in set_tags.iter().enumerate() {
            hit |= u64::from(t == marked) << way;
            free |= u64::from(t == EMPTY_WAY) << way;
        }
        let hit_way = if hit != 0 {
            hit.trailing_zeros() as usize
        } else {
            usize::MAX
        };
        let free_way = if free != 0 {
            free.trailing_zeros() as usize
        } else {
            usize::MAX
        };
        return (hit_way, free_way);
    }
    let mut base = 0;
    let mut lines = set_tags.chunks_exact(8);
    for line in &mut lines {
        let mut hit = 0u64;
        let mut free = 0u64;
        for (way, &t) in line.iter().enumerate() {
            hit |= u64::from(t == marked) << way;
            free |= u64::from(t == EMPTY_WAY) << way;
        }
        if hit != 0 {
            return (base + hit.trailing_zeros() as usize, usize::MAX);
        }
        if free != 0 {
            return (usize::MAX, base + free.trailing_zeros() as usize);
        }
        base += 8;
    }
    let mut hit = 0u64;
    let mut free = 0u64;
    for (way, &t) in lines.remainder().iter().enumerate() {
        hit |= u64::from(t == marked) << way;
        free |= u64::from(t == EMPTY_WAY) << way;
    }
    let hit_way = if hit != 0 {
        base + hit.trailing_zeros() as usize
    } else {
        usize::MAX
    };
    let free_way = if free != 0 {
        base + free.trailing_zeros() as usize
    } else {
        usize::MAX
    };
    (hit_way, free_way)
}

impl<P: ReplacementPolicy> SetAssociativeCache<P> {
    /// Build an empty cache with the given geometry and policy.
    ///
    /// Panics with the descriptive [`crate::config::ConfigError`] message
    /// if `config` violates the power-of-two geometry assumptions (only
    /// possible via a struct literal; [`CacheConfig::new`] validates).
    pub fn with_policy(config: CacheConfig, policy: P) -> Self {
        let geom = config.geometry();
        let blocks = config.num_blocks();
        let policy_state = (0..config.num_sets)
            .map(|i| policy.new_set(config.associativity, i))
            .collect();
        let meta_bytes = blocks * (size_of::<u64>() + size_of::<u32>() + size_of::<P::WayState>());
        Self {
            config,
            geom,
            assoc: config.associativity,
            policy,
            tags: vec![EMPTY_WAY; blocks],
            meta: vec![0; blocks],
            policy_ways: vec![P::WayState::default(); blocks],
            policy_state,
            resident: meta_bytes < RESIDENT_META_BYTES,
            stats: CacheStats::new(),
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Statistics accumulated so far. Note: dirty lines still resident are
    /// *not* yet counted as writebacks; call [`Self::flush`] first if the
    /// end-of-run flush should reach main memory.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Issue one reference.
    #[inline]
    pub fn access(&mut self, mref: MemRef) -> AccessOutcome {
        let out = self.demand_access(mref);
        if out.hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss {
                writeback: out.victim.filter(|v| v.dirty).map(|v| Writeback {
                    owner: v.owner,
                    addr: v.addr,
                }),
            }
        }
    }

    /// Issue one reference, reporting the evicted victim (clean or dirty).
    ///
    /// Same behaviour and statistics as [`Self::access`]; the richer
    /// outcome exists for the hierarchy, whose exclusive levels are filled
    /// by clean victims too.
    #[inline]
    pub fn demand_access(&mut self, mref: MemRef) -> DemandOutcome {
        let mut none = RecentLines::EMPTY;
        self.filtered_access(&mut none, mref)
            .expect("an empty filter serves nothing")
    }

    /// One reference through a replay loop's recent-line filter.
    ///
    /// A reference to a block the filter holds is a hit on its set's most
    /// recent line: only the read/write and hit counts and the dirty bit
    /// change, and `None` says the filter served it. Any other reference
    /// takes the full demand path, whose outcome is returned, and becomes
    /// the filter's newest entry. With [`RecentLines::EMPTY`] this is
    /// [`Self::demand_access`].
    #[inline(always)]
    pub(crate) fn filtered_access(
        &mut self,
        recent: &mut RecentLines,
        mref: MemRef,
    ) -> Option<DemandOutcome> {
        let block = self.geom.block_of(mref.addr);
        let set_idx = self.geom.set_of(block);
        let assoc = self.assoc;
        let base = set_idx * assoc;
        let is_write = mref.kind == AccessKind::Write;

        // One stats resolution per reference, shared by the read/write
        // count and the hit/miss count below.
        let ds_stats = self.stats.ds_mut(mref.ds);
        if is_write {
            ds_stats.writes += 1;
        } else {
            ds_stats.reads += 1;
        }
        if let Some(meta) = self.meta.get_mut(recent.slot_of(block)) {
            ds_stats.hits += 1;
            *meta |= u32::from(is_write);
            return None;
        }

        // One scan over `associativity` contiguous tags serves both paths:
        // it finds the hit, and remembers the first free way for the miss.
        let marked = store_tag(self.geom.tag_of(block));
        let (hit_way, free) = if self.resident {
            scan_set_resident(&self.tags[base..base + assoc], marked)
        } else {
            scan_set(&self.tags[base..base + assoc], marked)
        };
        if hit_way != usize::MAX {
            ds_stats.hits += 1;
            if is_write {
                self.meta[base + hit_way] |= 1;
            }
            self.policy.on_hit(
                &mut self.policy_state[set_idx],
                &mut self.policy_ways[base..base + assoc],
                hit_way,
            );
            recent.record(block, base + hit_way, base, assoc);
            return Some(DemandOutcome {
                hit: true,
                victim: None,
            });
        }

        // Miss: take the free way found above, or evict the policy's victim.
        ds_stats.misses += 1;
        let (slot, victim) = self.fill_way(set_idx, free, marked, mref.ds, is_write);
        recent.record(block, slot, base, assoc);
        Some(DemandOutcome { hit: false, victim })
    }

    /// Fill a line into `set_idx` at the precomputed first free way
    /// (`usize::MAX` = set full, evict the policy's victim). Charges a
    /// dirty victim's writeback to its owner and returns the filled slot
    /// with the victim; shared by the demand-miss fill and the
    /// write-no-fill install paths.
    #[inline]
    fn fill_way(
        &mut self,
        set_idx: usize,
        free: usize,
        marked: u64,
        ds: DsId,
        dirty: bool,
    ) -> (usize, Option<Victim>) {
        let assoc = self.assoc;
        let base = set_idx * assoc;
        let (way, victim) = if free != usize::MAX {
            (free, None)
        } else {
            let way = self.policy.victim(
                &mut self.policy_state[set_idx],
                &mut self.policy_ways[base..base + assoc],
            );
            let slot = base + way;
            let victim_meta = self.meta[slot];
            let owner = DsId((victim_meta >> 1) as u16);
            let victim_dirty = victim_meta & 1 != 0;
            if victim_dirty {
                self.stats.ds_mut(owner).writebacks += 1;
            }
            (
                way,
                Some(Victim {
                    owner,
                    addr: self.geom.addr_of(load_tag(self.tags[slot]), set_idx),
                    dirty: victim_dirty,
                }),
            )
        };
        let slot = base + way;
        self.tags[slot] = marked;
        self.meta[slot] = pack_meta(ds, dirty);
        self.policy.on_fill(
            &mut self.policy_state[set_idx],
            &mut self.policy_ways[base..base + assoc],
            way,
        );
        (slot, victim)
    }

    /// Absorb a victim writeback from the level above ("write-no-fill"):
    /// if the line is resident, promote it and set its dirty bit, and
    /// return `true`. An absent line is *not* allocated — a writeback
    /// carries no demand for the data, so allocating would either charge a
    /// phantom memory read or silently fabricate a fill; the caller
    /// forwards the writeback further down instead. No statistics are
    /// touched either way (no memory access happens at this level).
    pub fn absorb_writeback(&mut self, addr: u64) -> bool {
        let block = self.geom.block_of(addr);
        let set_idx = self.geom.set_of(block);
        let marked = store_tag(self.geom.tag_of(block));
        let base = set_idx * self.assoc;
        match self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == marked)
        {
            Some(way) => {
                self.meta[base + way] |= 1;
                self.policy.on_hit(
                    &mut self.policy_state[set_idx],
                    &mut self.policy_ways[base..base + self.assoc],
                    way,
                );
                true
            }
            None => false,
        }
    }

    /// Install a line without a memory read, *allocating* on absence.
    ///
    /// This is the fill path for data that arrives from above with a
    /// genuine claim to residence: an exclusive level's victim fill or a
    /// tagged prefetch. A resident line is re-promoted and its dirty flag
    /// ORed in; an absent line claims a free way or evicts the policy's
    /// victim — charging the *victim's* writeback if it was dirty, but
    /// counting no read, write, hit, or miss for the installed line
    /// itself, because no memory access happens on its behalf.
    pub fn install(&mut self, owner: DsId, addr: u64, dirty: bool) -> Option<Victim> {
        let block = self.geom.block_of(addr);
        let set_idx = self.geom.set_of(block);
        let marked = store_tag(self.geom.tag_of(block));
        let assoc = self.assoc;
        let base = set_idx * assoc;
        let (hit_way, free) = if self.resident {
            scan_set_resident(&self.tags[base..base + assoc], marked)
        } else {
            scan_set(&self.tags[base..base + assoc], marked)
        };
        if hit_way != usize::MAX {
            if dirty {
                self.meta[base + hit_way] |= 1;
            }
            self.policy.on_hit(
                &mut self.policy_state[set_idx],
                &mut self.policy_ways[base..base + assoc],
                hit_way,
            );
            return None;
        }
        self.fill_way(set_idx, free, marked, owner, dirty).1
    }

    /// Whether the line containing `addr` is resident. Non-mutating: no
    /// statistics, no recency update (a tag probe, not an access).
    pub fn probe(&self, addr: u64) -> bool {
        let block = self.geom.block_of(addr);
        let set_idx = self.geom.set_of(block);
        let marked = store_tag(self.geom.tag_of(block));
        let base = set_idx * self.assoc;
        self.tags[base..base + self.assoc].contains(&marked)
    }

    /// Set the dirty bit of a resident line without touching statistics or
    /// recency; returns whether the line was resident. Used when dirtiness
    /// migrates upward (an exclusive level's dirty copy moves up with the
    /// line).
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let block = self.geom.block_of(addr);
        let set_idx = self.geom.set_of(block);
        let marked = store_tag(self.geom.tag_of(block));
        let base = set_idx * self.assoc;
        match self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == marked)
        {
            Some(way) => {
                self.meta[base + way] |= 1;
                true
            }
            None => false,
        }
    }

    /// Remove the line containing `addr` if resident (hierarchy
    /// back-invalidation and exclusive extraction), reporting it with its
    /// dirty flag. No statistics are touched — the caller decides where
    /// the removed data goes and charges accordingly.
    ///
    /// The occupied ways of a set must stay a prefix (both tag scans rely
    /// on it), so the freed way is back-filled by swapping the set's last
    /// occupied way into the hole; [`ReplacementPolicy::on_invalidate`]
    /// then retires the removed line's policy state.
    pub fn invalidate(&mut self, addr: u64) -> Option<Victim> {
        let block = self.geom.block_of(addr);
        let set_idx = self.geom.set_of(block);
        let marked = store_tag(self.geom.tag_of(block));
        let assoc = self.assoc;
        let base = set_idx * assoc;
        let set_tags = &self.tags[base..base + assoc];
        let way = set_tags.iter().position(|&t| t == marked)?;
        let occupied = set_tags
            .iter()
            .position(|&t| t == EMPTY_WAY)
            .unwrap_or(assoc);
        let meta = self.meta[base + way];
        let victim = Victim {
            owner: DsId((meta >> 1) as u16),
            addr: self.geom.addr_of(load_tag(self.tags[base + way]), set_idx),
            dirty: meta & 1 != 0,
        };
        // Swap the hole to the end of the occupied prefix; the removed
        // line's policy word travels with it for `on_invalidate` to read.
        let last = occupied - 1;
        self.tags.swap(base + way, base + last);
        self.policy_ways.swap(base + way, base + last);
        self.meta.swap(base + way, base + last);
        self.tags[base + last] = EMPTY_WAY;
        self.meta[base + last] = 0;
        self.policy.on_invalidate(
            &mut self.policy_state[set_idx],
            &mut self.policy_ways[base..base + assoc],
            last,
            occupied,
        );
        Some(victim)
    }

    /// Demand lookup *without* fill-on-miss, extracting the line on a hit
    /// — the access pattern of an exclusive hierarchy level. Counts the
    /// read/write and the hit/miss exactly like [`Self::demand_access`],
    /// but a miss installs nothing and a hit removes the line (it moves up
    /// into the levels above), returning whether the extracted copy was
    /// dirty.
    pub fn lookup_extract(&mut self, mref: MemRef) -> Option<bool> {
        let ds_stats = self.stats.ds_mut(mref.ds);
        if mref.kind == AccessKind::Write {
            ds_stats.writes += 1;
        } else {
            ds_stats.reads += 1;
        }
        if self.probe(mref.addr) {
            self.stats.ds_mut(mref.ds).hits += 1;
            let victim = self.invalidate(mref.addr).expect("probe said resident");
            Some(victim.dirty)
        } else {
            self.stats.ds_mut(mref.ds).misses += 1;
            None
        }
    }

    /// Replay a slice of references through [`Self::access`].
    ///
    /// Identical results to calling `access` per reference, faster in two
    /// ways:
    ///
    /// * A two-entry recent-line filter, local to the call, holds the last
    ///   blocks the loop touched, at most one per set. A reference to one
    ///   of them is a hit on its set's most recent line, where no policy
    ///   changes state, so it skips the tag scan and the policy update.
    ///   Streams that revisit a line before moving on (a mat-vec's
    ///   `A[i·n+j], p[j]` alternation) serve most references this way.
    ///   Hits it served are added to the `cachesim.repeat_hits` counter
    ///   once per call.
    /// * When the geometry's metadata arrays are large enough to spill out
    ///   of the fast cache levels, each reference the filter did not serve
    ///   is followed by a peek 12 references ahead that touches the
    ///   upcoming set's tag and way-state words. The touch is a plain load
    ///   whose value is immediately discarded ([`std::hint::black_box`]
    ///   keeps it from being optimized out) — a safe software prefetch
    ///   that hides most of the cache-miss latency a many-megabyte
    ///   geometry otherwise pays per access. A stream the filter serves
    ///   touches little metadata, so peeking after its fast hits too only
    ///   costs loads; a miss-heavy stream peeks on nearly every reference.
    ///   Small geometries (metadata resident in L1/L2) never peek: there
    ///   the extra loads are pure overhead.
    pub fn replay(&mut self, refs: &[MemRef]) {
        let repeats = if self.resident {
            self.replay_filtered::<false>(refs)
        } else {
            self.replay_filtered::<true>(refs)
        };
        dvf_obs::add("cachesim.repeat_hits", repeats);
    }

    /// The [`Self::replay`] loop, with or without the metadata peek after
    /// filter misses; returns how many references the recent-line filter
    /// served.
    #[inline(always)]
    fn replay_filtered<const PEEK: bool>(&mut self, refs: &[MemRef]) -> u64 {
        /// How far ahead the replay loop touches upcoming sets' metadata.
        const LOOKAHEAD: usize = 12;
        let mut recent = RecentLines::EMPTY;
        let mut repeats = 0;
        for (i, &r) in refs.iter().enumerate() {
            let served = self.filtered_access(&mut recent, r).is_none();
            repeats += u64::from(served);
            if PEEK && !served {
                if let Some(r) = refs.get(i + LOOKAHEAD) {
                    let base = self.geom.set_of(self.geom.block_of(r.addr)) * self.assoc;
                    std::hint::black_box(self.tags[base]);
                    std::hint::black_box(self.policy_ways[base]);
                }
            }
        }
        repeats
    }

    /// Write every resident dirty line back to main memory (end of run),
    /// charging each to its owning data structure, and clear the cache
    /// contents (statistics are kept).
    pub fn flush(&mut self) {
        let _ = self.drain_dirty();
    }

    /// Flush and return the dirty lines that were written back, so a
    /// cache level above can forward them (used by the hierarchy).
    pub fn drain_dirty(&mut self) -> Vec<Writeback> {
        let mut drained = Vec::new();
        for slot in 0..self.tags.len() {
            let word = std::mem::replace(&mut self.tags[slot], EMPTY_WAY);
            let meta = std::mem::replace(&mut self.meta[slot], 0);
            if word != EMPTY_WAY && meta & 1 != 0 {
                let owner = DsId((meta >> 1) as u16);
                self.stats.ds_mut(owner).writebacks += 1;
                drained.push(Writeback {
                    owner,
                    addr: self.geom.addr_of(load_tag(word), slot / self.assoc),
                });
            }
        }
        drained
    }

    /// Number of currently resident lines (diagnostic).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_WAY).count()
    }

    /// Consume the cache and return its statistics without flushing.
    pub fn into_stats(self) -> CacheStats {
        self.stats
    }
}

impl SetAssociativeCache<Lru> {
    /// LRU cache (the paper's configuration).
    pub fn new(config: CacheConfig) -> Self {
        Self::with_policy(config, Lru)
    }
}

/// Policy-erased cache: one variant per [`PolicyKind`], so the flat
/// simulator and every hierarchy level pick their policy at run time
/// while each variant's hot loop ([`SetAssociativeCache::replay`]) stays
/// monomorphized — a whole replay chunk costs one dispatch.
#[derive(Debug, Clone)]
pub(crate) enum AnyCache {
    Lru(SetAssociativeCache<Lru>),
    Fifo(SetAssociativeCache<Fifo>),
    Plru(SetAssociativeCache<TreePlru>),
    Random(SetAssociativeCache<RandomEvict>),
}

macro_rules! with_cache {
    ($any:expr, $c:ident => $body:expr) => {
        match $any {
            AnyCache::Lru($c) => $body,
            AnyCache::Fifo($c) => $body,
            AnyCache::Plru($c) => $body,
            AnyCache::Random($c) => $body,
        }
    };
}

impl AnyCache {
    #[inline]
    pub(crate) fn new(config: CacheConfig, policy: PolicyKind) -> Self {
        match policy {
            PolicyKind::Lru => AnyCache::Lru(SetAssociativeCache::with_policy(config, Lru)),
            PolicyKind::Fifo => AnyCache::Fifo(SetAssociativeCache::with_policy(config, Fifo)),
            PolicyKind::Plru => AnyCache::Plru(SetAssociativeCache::with_policy(config, TreePlru)),
            PolicyKind::Random => AnyCache::Random(SetAssociativeCache::with_policy(
                config,
                RandomEvict::default(),
            )),
        }
    }

    #[inline]
    pub(crate) fn policy(&self) -> PolicyKind {
        match self {
            AnyCache::Lru(_) => PolicyKind::Lru,
            AnyCache::Fifo(_) => PolicyKind::Fifo,
            AnyCache::Plru(_) => PolicyKind::Plru,
            AnyCache::Random(_) => PolicyKind::Random,
        }
    }

    #[inline]
    pub(crate) fn config(&self) -> CacheConfig {
        with_cache!(self, c => c.config())
    }

    #[inline]
    pub(crate) fn stats(&self) -> &CacheStats {
        with_cache!(self, c => c.stats())
    }

    #[inline]
    pub(crate) fn access(&mut self, r: MemRef) {
        with_cache!(self, c => {
            c.access(r);
        })
    }

    #[inline]
    pub(crate) fn replay(&mut self, refs: &[MemRef]) {
        with_cache!(self, c => c.replay(refs))
    }

    #[inline]
    pub(crate) fn demand_access(&mut self, r: MemRef) -> DemandOutcome {
        with_cache!(self, c => c.demand_access(r))
    }

    #[inline]
    pub(crate) fn filtered_access(
        &mut self,
        recent: &mut RecentLines,
        r: MemRef,
    ) -> Option<DemandOutcome> {
        with_cache!(self, c => c.filtered_access(recent, r))
    }

    #[inline]
    pub(crate) fn lookup_extract(&mut self, r: MemRef) -> Option<bool> {
        with_cache!(self, c => c.lookup_extract(r))
    }

    #[inline]
    pub(crate) fn absorb_writeback(&mut self, addr: u64) -> bool {
        with_cache!(self, c => c.absorb_writeback(addr))
    }

    #[inline]
    pub(crate) fn install(&mut self, owner: DsId, addr: u64, dirty: bool) -> Option<Victim> {
        with_cache!(self, c => c.install(owner, addr, dirty))
    }

    #[inline]
    pub(crate) fn probe(&self, addr: u64) -> bool {
        with_cache!(self, c => c.probe(addr))
    }

    #[inline]
    pub(crate) fn mark_dirty(&mut self, addr: u64) -> bool {
        with_cache!(self, c => c.mark_dirty(addr))
    }

    #[inline]
    pub(crate) fn invalidate(&mut self, addr: u64) -> Option<Victim> {
        with_cache!(self, c => c.invalidate(addr))
    }

    #[inline]
    pub(crate) fn drain_dirty(&mut self) -> Vec<Writeback> {
        with_cache!(self, c => c.drain_dirty())
    }

    #[inline]
    pub(crate) fn into_stats(self) -> CacheStats {
        with_cache!(self, c => c.into_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::replacement::{Fifo, RandomEvict, TreePlru};
    use crate::trace::DsRegistry;

    fn tiny() -> CacheConfig {
        // 2-way, 2 sets, 16 B lines: 64 B total.
        CacheConfig::new(2, 2, 16).unwrap()
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        assert!(c.access(MemRef::read(a, 0)).is_miss());
        assert_eq!(c.access(MemRef::read(a, 8)), AccessOutcome::Hit);
        assert_eq!(c.stats().ds(a).misses, 1);
        assert_eq!(c.stats().ds(a).hits, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        // Blocks 0, 2, 4 all map to set 0 (block % 2 == 0). 2-way set:
        // loading three conflicting blocks evicts the least recent (block 0).
        assert!(c.access(MemRef::read(a, 0)).is_miss()); // block 0
        assert!(c.access(MemRef::read(a, 32)).is_miss()); // block 2
        assert!(c.access(MemRef::read(a, 64)).is_miss()); // block 4, evicts 0
        assert!(c.access(MemRef::read(a, 0)).is_miss()); // block 0 again: miss, evicts 2
        assert_eq!(c.access(MemRef::read(a, 64)), AccessOutcome::Hit); // block 4 survived
    }

    #[test]
    fn write_dirties_and_eviction_writes_back() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        let b = DsId(1);
        c.access(MemRef::write(a, 0)); // block 0, dirty, owner a
        c.access(MemRef::read(b, 32)); // block 2, same set
        let out = c.access(MemRef::read(b, 64)); // evicts block 0 (LRU) -> writeback of a
        assert_eq!(
            out,
            AccessOutcome::Miss {
                writeback: Some(Writeback {
                    owner: DsId(0),
                    addr: 0, // victim was the line at address 0
                })
            }
        );
        assert_eq!(c.stats().ds(a).writebacks, 1);
        assert_eq!(c.stats().ds(b).writebacks, 0);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        c.access(MemRef::read(a, 0));
        c.access(MemRef::read(a, 32));
        let out = c.access(MemRef::read(a, 64));
        assert_eq!(out, AccessOutcome::Miss { writeback: None });
        assert_eq!(c.stats().ds(a).writebacks, 0);
    }

    #[test]
    fn writeback_reports_victim_address() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        c.access(MemRef::write(a, 32)); // block 2, set 0
        c.access(MemRef::write(a, 64)); // block 4, set 0
                                        // Third conflicting block evicts block 2 (LRU): its line address
                                        // is 32, not the incoming 96.
        match c.access(MemRef::read(a, 96)) {
            AccessOutcome::Miss {
                writeback: Some(wb),
            } => assert_eq!(wb.addr, 32),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn drain_dirty_returns_resident_dirty_lines() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        c.access(MemRef::write(a, 0));
        c.access(MemRef::read(a, 16));
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].addr, 0);
        assert_eq!(drained[0].owner, a);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn flush_writes_back_resident_dirty_lines() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        c.access(MemRef::write(a, 0));
        c.access(MemRef::write(a, 16)); // other set
        c.access(MemRef::read(a, 32));
        assert_eq!(c.stats().ds(a).writebacks, 0);
        c.flush();
        assert_eq!(c.stats().ds(a).writebacks, 2);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn streaming_misses_once_per_line() {
        // 1 KiB streamed through 16 B lines: exactly 64 compulsory misses.
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        for addr in (0..1024u64).step_by(4) {
            c.access(MemRef::read(a, addr));
        }
        assert_eq!(c.stats().ds(a).misses, 1024 / 16);
        assert_eq!(c.stats().ds(a).reads, 256);
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        // 64 B cache: touch 4 distinct blocks (= capacity), then re-touch
        // them repeatedly; only compulsory misses occur.
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        for round in 0..10 {
            for addr in [0u64, 16, 32, 48] {
                let out = c.access(MemRef::read(a, addr));
                if round == 0 {
                    assert!(out.is_miss());
                } else {
                    assert_eq!(out, AccessOutcome::Hit);
                }
            }
        }
        assert_eq!(c.stats().ds(a).misses, 4);
    }

    #[test]
    fn all_policies_agree_on_compulsory_misses() {
        let cfg = CacheConfig::new(4, 4, 16).unwrap();
        let refs: Vec<MemRef> = (0..64u64).map(|i| MemRef::read(DsId(0), i * 16)).collect();
        let run_misses = |m: u64| m;

        let mut lru = SetAssociativeCache::with_policy(cfg, Lru);
        let mut fifo = SetAssociativeCache::with_policy(cfg, Fifo);
        let mut plru = SetAssociativeCache::with_policy(cfg, TreePlru);
        let mut rnd = SetAssociativeCache::with_policy(cfg, RandomEvict::default());
        for r in &refs {
            lru.access(*r);
            fifo.access(*r);
            plru.access(*r);
            rnd.access(*r);
        }
        // A pure streaming workload has only compulsory misses regardless of
        // replacement policy.
        for stats in [lru.stats(), fifo.stats(), plru.stats(), rnd.stats()] {
            assert_eq!(run_misses(stats.ds(DsId(0)).misses), 64);
        }
    }

    #[test]
    fn resident_scan_matches_vectorized_scan() {
        // Both scans must agree on (hit, first-free) for every occupied
        // prefix, probed tag, and associativity — including the >8-way
        // shapes only the vectorized scan chunks. Occupied ways are a
        // prefix by construction (fills claim the first empty way).
        for assoc in [1usize, 2, 4, 8, 12, 16, 24] {
            for occupied in 0..=assoc {
                let mut tags = vec![EMPTY_WAY; assoc];
                for (i, t) in tags.iter_mut().take(occupied).enumerate() {
                    *t = store_tag(100 + i as u64);
                }
                // Probe an absent tag plus every present one.
                for probe in
                    std::iter::once(u64::MAX / 2).chain((0..occupied).map(|i| 100 + i as u64))
                {
                    let marked = store_tag(probe);
                    let fast = scan_set_resident(&tags, marked);
                    let vect = scan_set(&tags, marked);
                    // A hit makes the free way irrelevant; the resident
                    // scan skips it, so compare free ways only on miss.
                    assert_eq!(fast.0, vect.0, "hit way: assoc={assoc} occ={occupied}");
                    if fast.0 == usize::MAX {
                        assert_eq!(fast.1, vect.1, "free way: assoc={assoc} occ={occupied}");
                    }
                }
            }
        }
    }

    #[test]
    fn absorb_writeback_updates_resident_without_stats_and_refuses_absent() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        assert!(c.access(MemRef::read(a, 0)).is_miss());
        let before = c.stats().total();
        // Resident: dirty bit set in place, no read/write/hit/miss counted.
        assert!(c.absorb_writeback(0));
        assert_eq!(c.stats().total(), before);
        // Absent: refused, nothing allocated, still no stats.
        assert!(!c.absorb_writeback(512));
        assert!(!c.probe(512));
        assert_eq!(c.stats().total(), before);
        // The in-place dirtying is real: the line writes back on flush.
        c.flush();
        assert_eq!(c.stats().ds(a).writebacks, 1);
    }

    #[test]
    fn install_allocates_without_memory_read_and_charges_only_victims() {
        let mut c = SetAssociativeCache::new(tiny());
        let (a, b) = (DsId(0), DsId(1));
        // Fresh install: no read/write/hit/miss for the installed line.
        assert!(c.install(a, 0, true).is_none());
        let t = c.stats().total();
        assert_eq!(
            (t.reads, t.writes, t.hits, t.misses, t.writebacks),
            (0, 0, 0, 0, 0)
        );
        // Re-install on a resident line ORs the dirty flag, no stats.
        assert!(c.install(a, 0, false).is_none());
        assert!(c.probe(0));
        // Fill set 0 (blocks 0, 2, 4 collide): the second install evicts
        // the dirty LRU line and charges *its owner's* writeback only.
        assert!(c.install(b, 32, false).is_none());
        let victim = c.install(b, 64, false).expect("set full, must evict");
        assert_eq!(victim.owner, a);
        assert!(victim.dirty);
        assert_eq!(c.stats().ds(a).writebacks, 1);
        assert_eq!(c.stats().ds(b).writebacks, 0);
    }

    #[test]
    fn probe_and_mark_dirty_touch_no_stats_or_recency() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        assert!(c.access(MemRef::read(a, 0)).is_miss()); // block 0
        assert!(c.access(MemRef::read(a, 32)).is_miss()); // block 2, same set
        let before = c.stats().total();
        assert!(c.probe(0));
        assert!(!c.probe(512));
        assert!(c.mark_dirty(0));
        assert!(!c.mark_dirty(512));
        assert_eq!(c.stats().total(), before);
        // Block 0 stayed LRU despite probe/mark_dirty: the next conflict
        // evicts it (and its marked dirty bit makes that a writeback).
        assert!(c.access(MemRef::read(a, 64)).is_miss());
        assert!(!c.probe(0));
        assert_eq!(c.stats().ds(a).writebacks, 1);
    }

    #[test]
    fn invalidate_extracts_victim_and_keeps_scan_invariants() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        assert!(c.access(MemRef::write(a, 0)).is_miss()); // block 0, dirty
        assert!(c.access(MemRef::read(a, 32)).is_miss()); // block 2
        let before = c.stats().total();
        let v = c.invalidate(0).expect("resident");
        assert!(v.dirty);
        assert_eq!(v.owner, a);
        assert_eq!(v.addr, 0);
        assert_eq!(c.stats().total(), before, "invalidate charges nothing");
        assert!(c.invalidate(0).is_none());
        // The freed way is reusable and the survivor still hits: the
        // occupied-prefix compaction kept the set scannable.
        assert_eq!(c.access(MemRef::read(a, 32)), AccessOutcome::Hit);
        assert!(c.access(MemRef::read(a, 64)).is_miss());
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn lookup_extract_counts_like_demand_but_never_fills() {
        let mut c = SetAssociativeCache::new(tiny());
        let a = DsId(0);
        // Miss: counted, nothing installed.
        assert_eq!(c.lookup_extract(MemRef::read(a, 0)), None);
        assert_eq!(c.stats().ds(a).misses, 1);
        assert!(!c.probe(0));
        // Hit: counted, line extracted with its dirty flag.
        assert!(c.access(MemRef::write(a, 0)).is_miss());
        assert_eq!(c.lookup_extract(MemRef::read(a, 0)), Some(true));
        assert_eq!(c.stats().ds(a).hits, 1);
        assert!(!c.probe(0));
        assert_eq!(c.stats().ds(a).reads, 2);
        assert_eq!(c.stats().ds(a).writes, 1);
    }

    /// Replay `refs` in chunks split at every index in `cuts` and issue
    /// them one by one through a second cache; both must end identical.
    fn replay_agrees_with_access<P: ReplacementPolicy>(
        mut replayed: SetAssociativeCache<P>,
        mut one: SetAssociativeCache<P>,
        refs: &[MemRef],
        cuts: &[usize],
    ) {
        let mut from = 0;
        for &to in cuts.iter().chain([&refs.len()]) {
            replayed.replay(&refs[from..to]);
            from = to;
        }
        for &r in refs {
            one.access(r);
        }
        assert_eq!(replayed.stats(), one.stats());
        replayed.flush();
        one.flush();
        assert_eq!(replayed.stats(), one.stats());
    }

    #[test]
    fn an_empty_recent_line_entry_matches_no_block() {
        // With 1-byte lines the top address is block `u64::MAX`. A replay
        // that opens on it (every chunk starts with an empty filter) must
        // miss it, as `access` does, not take an empty entry for it.
        let a = DsId(0);
        let refs = [
            MemRef::read(a, u64::MAX),
            MemRef::write(a, u64::MAX),
            MemRef::read(a, 0),
            MemRef::read(a, u64::MAX),
            MemRef::read(a, 2),
        ];
        for sets in [2, 4] {
            let cfg = CacheConfig::new(2, sets, 1).unwrap();
            let mut c = SetAssociativeCache::new(cfg);
            c.replay(&refs[..1]);
            assert_eq!(c.stats().ds(a).misses, 1, "{sets} sets");
            let cuts = [0, 1, 3, 3];
            replay_agrees_with_access(
                SetAssociativeCache::new(cfg),
                SetAssociativeCache::new(cfg),
                &refs,
                &cuts,
            );
        }
    }

    #[test]
    fn replay_matches_access_on_a_geometry_that_spills() {
        // 8 ways x 4096 sets of 64 B: 448 KiB of metadata, past the
        // resident bound, so the replay loop peeks ahead after filter
        // misses. The trace alternates two streams (a mat-vec's matrix row
        // and vector) with writes, plus a third stream that conflicts in
        // the same sets.
        let cfg = CacheConfig::new(8, 4096, 64).unwrap();
        let (m, v, w) = (DsId(0), DsId(1), DsId(2));
        let mut refs = Vec::new();
        for i in 0..40_000u64 {
            refs.push(MemRef::read(m, i * 8));
            refs.push(MemRef::new(v, (1 << 24) + (i % 512) * 8, AccessKind::Read));
            if i % 7 == 0 {
                refs.push(MemRef::write(w, (2 << 24) + (i * 8) % (1 << 20)));
            }
        }
        let cuts = [1, 5000, 5001, 77_777];
        replay_agrees_with_access(
            SetAssociativeCache::new(cfg),
            SetAssociativeCache::new(cfg),
            &refs,
            &cuts,
        );
        replay_agrees_with_access(
            SetAssociativeCache::with_policy(cfg, TreePlru),
            SetAssociativeCache::with_policy(cfg, TreePlru),
            &refs,
            &cuts,
        );
    }

    #[test]
    fn render_smoke() {
        let mut reg = DsRegistry::new();
        let a = reg.register("A");
        let mut c = SetAssociativeCache::new(tiny());
        c.access(MemRef::read(a, 0));
        let table = c.stats().render(&reg);
        assert!(table.contains('A'));
    }
}
