//! In-stream trace featurization.
//!
//! [`FeatureSink`] consumes the same [`MemRef`] stream the simulators see —
//! it implements [`TraceSink`], so it rides the fused pass as the second
//! half of a `(Fanout, FeatureSink)` pair with no trace materialized — and
//! reduces it to one fixed-width [`FeatureVector`] per data structure:
//!
//! * **Reuse-distance histograms** (log₂ buckets, at 32 B and 64 B block
//!   granularity). Distances are *global*: the distinct-block count between
//!   consecutive touches of a block is taken over the whole merged stream,
//!   so interference between data structures is visible in each structure's
//!   histogram — exactly what a shared cache reacts to. Computed with an
//!   Olken-style Fenwick tree over a bounded window ([`WINDOW`] distinct
//!   blocks); older blocks are evicted deterministically and their
//!   re-touches surface in the `evicted*` saturation counters.
//! * **Stride histogram + entropy** per data structure (signed log₂ byte
//!   deltas between consecutive touches of the same structure).
//! * **Unique footprint** (distinct blocks at both granularities) and
//!   access/read/write counts.
//!
//! The featurizer is deterministic: the same reference sequence always
//! produces the same `FeatureVector`, bit for bit, whether streamed in
//! fused chunks or replayed from a materialized DVFT2 trace (pinned by
//! property tests).

use dvf_cachesim::{AccessKind, DsId, MemRef};
use dvf_kernels::TraceSink;
use dvf_obs::{Json, JsonWriter};
use std::collections::{HashMap, HashSet};

/// Versioned schema identifier of the feature vector.
pub const FEATURE_SCHEMA: &str = "dvf-learn/1";

/// Log₂ reuse-distance buckets: bucket 0 is distance 0 (immediate
/// re-touch), bucket `k ≥ 1` covers distances `[2^(k-1), 2^k)`, and the
/// last bucket absorbs everything beyond — comfortably past the bounded
/// window, so no observable distance overflows.
pub const RD_BUCKETS: usize = 24;

/// Stride buckets: 0 = zero delta, 1..=8 = positive deltas by log₂ byte
/// magnitude (1 B, 2–3 B, …, ≥128 B), 9..=16 the same for negative deltas.
pub const STRIDE_BUCKETS: usize = 17;

/// Maximum distinct blocks tracked per granularity before the oldest are
/// evicted (the "bounded window" of the reuse-distance tracker).
const WINDOW: usize = 1 << 20;

/// Sentinel for a vacated tracker slot.
const EMPTY: u64 = u64::MAX;

/// Fixed-width per-data-structure stream features (schema
/// [`FEATURE_SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeatureVector {
    /// Total references to this data structure.
    pub accesses: u64,
    /// Read references.
    pub reads: u64,
    /// Write references.
    pub writes: u64,
    /// Distinct 32 B blocks touched (first-touch events).
    pub unique32: u64,
    /// Distinct 64 B blocks touched.
    pub unique64: u64,
    /// Touches of 32 B blocks that had been evicted from the bounded
    /// window (their distance saturated; they re-count as first touches).
    pub evicted32: u64,
    /// Same at 64 B granularity.
    pub evicted64: u64,
    /// Log₂-bucketed global reuse distances at 32 B granularity.
    pub rd32: [u64; RD_BUCKETS],
    /// Log₂-bucketed global reuse distances at 64 B granularity.
    pub rd64: [u64; RD_BUCKETS],
    /// Signed log₂-bucketed byte deltas between consecutive touches.
    pub strides: [u64; STRIDE_BUCKETS],
}

impl FeatureVector {
    /// Shannon entropy of the stride histogram, in bits (0 for fewer than
    /// two recorded deltas).
    pub fn stride_entropy(&self) -> f64 {
        let total: u64 = self.strides.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.strides {
            if c > 0 {
                let p = c as f64 / total as f64;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Share of the most common stride bucket (1.0 = perfectly regular).
    pub fn dominant_stride_fraction(&self) -> f64 {
        let total: u64 = self.strides.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = self.strides.iter().copied().max().unwrap_or(0);
        max as f64 / total as f64
    }

    /// Write fraction of all references.
    pub fn write_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.writes as f64 / self.accesses as f64
        }
    }

    /// Estimated fraction of references that miss in a fully-associative
    /// LRU cache of `lines` lines at the given block granularity
    /// (`line_bytes ≤ 32` uses the 32 B histogram, otherwise 64 B):
    /// first touches plus all reuses at distance ≥ `lines`, with
    /// log-linear interpolation inside the straddled bucket. This is the
    /// "physics" feature the learned model leans on.
    pub fn rd_miss_fraction(&self, lines: usize, line_bytes: usize) -> f64 {
        let (hist, unique, evicted) = if line_bytes <= 32 {
            (&self.rd32, self.unique32, self.evicted32)
        } else {
            (&self.rd64, self.unique64, self.evicted64)
        };
        if self.accesses == 0 {
            return 0.0;
        }
        let mut miss = (unique + evicted) as f64;
        for (b, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (lo, hi) = bucket_range(b);
            if lines <= lo {
                miss += count as f64;
            } else if (lines as u64) < hi {
                // Straddled bucket: log-linear share of distances ≥ lines.
                let l_lo = (lo.max(1) as f64).log2();
                let l_hi = (hi as f64).log2();
                let l_at = (lines as f64).log2();
                let frac = ((l_hi - l_at) / (l_hi - l_lo)).clamp(0.0, 1.0);
                miss += count as f64 * frac;
            }
        }
        (miss / self.accesses as f64).clamp(0.0, 1.0)
    }

    /// Footprint in bytes at the coarser (64 B) granularity.
    pub fn footprint_bytes(&self) -> u64 {
        self.unique64 * 64
    }

    /// Serialize as a `dvf-learn/1` JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string(FEATURE_SCHEMA);
        w.key("accesses").u64(self.accesses);
        w.key("reads").u64(self.reads);
        w.key("writes").u64(self.writes);
        w.key("unique32").u64(self.unique32);
        w.key("unique64").u64(self.unique64);
        w.key("evicted32").u64(self.evicted32);
        w.key("evicted64").u64(self.evicted64);
        for (key, hist) in [("rd32", &self.rd32[..]), ("rd64", &self.rd64[..])] {
            w.key(key).begin_array();
            for &v in hist {
                w.u64(v);
            }
            w.end_array();
        }
        w.key("strides").begin_array();
        for &v in &self.strides {
            w.u64(v);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Decode a `dvf-learn/1` JSON object (the inverse of
    /// [`FeatureVector::to_json`]). Rejects missing/mismatched schema and
    /// wrong histogram widths — the 422 path of `POST /v1/predict`.
    pub fn from_json(v: &Json) -> Result<FeatureVector, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("features: missing \"schema\"")?;
        if schema != FEATURE_SCHEMA {
            return Err(format!(
                "features: schema {schema:?} unsupported (want {FEATURE_SCHEMA:?})"
            ));
        }
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("features: missing or non-integer {name:?}"))
        };
        let mut fv = FeatureVector {
            accesses: field("accesses")?,
            reads: field("reads")?,
            writes: field("writes")?,
            unique32: field("unique32")?,
            unique64: field("unique64")?,
            evicted32: field("evicted32")?,
            evicted64: field("evicted64")?,
            ..FeatureVector::default()
        };
        let arr = |name: &str, want: usize| -> Result<Vec<u64>, String> {
            let a = v
                .get(name)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("features: missing array {name:?}"))?;
            if a.len() != want {
                return Err(format!(
                    "features: {name:?} has {} buckets, schema wants {want}",
                    a.len()
                ));
            }
            a.iter()
                .map(|e| {
                    e.as_u64()
                        .ok_or_else(|| format!("features: non-integer entry in {name:?}"))
                })
                .collect()
        };
        fv.rd32.copy_from_slice(&arr("rd32", RD_BUCKETS)?);
        fv.rd64.copy_from_slice(&arr("rd64", RD_BUCKETS)?);
        fv.strides.copy_from_slice(&arr("strides", STRIDE_BUCKETS)?);
        Ok(fv)
    }
}

/// Distance range `[lo, hi)` of reuse-distance bucket `b` (the last bucket
/// is open-ended).
fn bucket_range(b: usize) -> (usize, u64) {
    if b == 0 {
        (0, 1)
    } else if b == RD_BUCKETS - 1 {
        (1 << (b - 1), u64::MAX)
    } else {
        (1 << (b - 1), 1 << b)
    }
}

/// Bucket index of distance `d`.
#[inline]
fn bucket_of(d: u64) -> usize {
    if d == 0 {
        0
    } else {
        ((64 - d.leading_zeros()) as usize).clamp(1, RD_BUCKETS - 1)
    }
}

/// Bucket index of a signed byte delta.
#[inline]
fn stride_bucket(delta: i64) -> usize {
    match delta {
        0 => 0,
        d if d > 0 => 1 + (63 - (d as u64).leading_zeros() as usize).min(7),
        d => 9 + (63 - ((-d) as u64).leading_zeros() as usize).min(7),
    }
}

/// Fenwick (binary indexed) tree of occupied-slot counts.
#[derive(Debug, Default)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    #[inline]
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of slots `0..=i`.
    #[inline]
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Outcome of one tracker touch.
enum Touch {
    /// First touch of the block (within the window).
    Cold,
    /// Re-touch of a block evicted from the bounded window.
    Saturated,
    /// Re-touch at the given global distinct-block distance.
    Distance(u64),
}

/// Olken-style global reuse-distance tracker at one block granularity.
///
/// Each live block owns the slot of its most recent touch; a Fenwick tree
/// counts occupied slots, so the distinct-block distance between two
/// touches is a pair of prefix sums. Slots are compacted (and, past
/// [`WINDOW`] live blocks, the oldest evicted) deterministically by slot
/// order — no HashMap iteration order ever reaches the results.
#[derive(Debug)]
struct RdTracker {
    shift: u32,
    last: HashMap<u64, u32>,
    slots: Vec<u64>,
    fen: Fenwick,
    next: usize,
    evicted_live: HashSet<u64>,
}

impl RdTracker {
    fn new(shift: u32) -> Self {
        Self {
            shift,
            last: HashMap::new(),
            slots: vec![EMPTY; 1024],
            fen: Fenwick::new(1024),
            next: 0,
            evicted_live: HashSet::new(),
        }
    }

    fn touch(&mut self, addr: u64) -> Touch {
        let block = addr >> self.shift;
        let outcome = match self.last.get(&block).copied() {
            Some(prev) => {
                let prev = prev as usize;
                let after = if self.next == 0 {
                    0
                } else {
                    self.fen.prefix(self.next - 1)
                };
                let d = after - self.fen.prefix(prev);
                self.fen.add(prev, -1);
                self.slots[prev] = EMPTY;
                Touch::Distance(d)
            }
            None => {
                if self.evicted_live.remove(&block) {
                    Touch::Saturated
                } else {
                    Touch::Cold
                }
            }
        };
        if self.next == self.slots.len() {
            self.make_room();
        }
        let slot = self.next;
        self.slots[slot] = block;
        self.fen.add(slot, 1);
        self.last.insert(block, slot as u32);
        self.next += 1;
        outcome
    }

    /// Compact vacated slots; past [`WINDOW`] live blocks, evict the
    /// oldest (they re-enter as `Saturated` on their next touch).
    fn make_room(&mut self) {
        let mut live: Vec<u64> = Vec::with_capacity(self.last.len());
        for &b in &self.slots {
            if b != EMPTY {
                live.push(b);
            }
        }
        let excess = live.len().saturating_sub(WINDOW);
        if excess > 0 {
            for &b in &live[..excess] {
                self.last.remove(&b);
                self.evicted_live.insert(b);
            }
            live.drain(..excess);
        }
        let target = (live.len() * 2).clamp(1024, WINDOW * 2);
        self.slots = vec![EMPTY; target];
        self.fen = Fenwick::new(target);
        for (i, &b) in live.iter().enumerate() {
            self.slots[i] = b;
            self.fen.add(i, 1);
            self.last.insert(b, i as u32);
        }
        self.next = live.len();
    }
}

/// The finished featurization: one [`FeatureVector`] per data structure,
/// indexed by [`DsId`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeatureSet {
    /// Per-data-structure vectors, indexed by `DsId::index()`.
    pub vectors: Vec<FeatureVector>,
}

impl FeatureSet {
    /// Vector of one data structure (empty default if it never appeared).
    pub fn ds(&self, id: DsId) -> FeatureVector {
        self.vectors.get(id.index()).cloned().unwrap_or_default()
    }
}

/// Streaming featurizer — a [`TraceSink`] computing [`FeatureVector`]s
/// in-stream, with no trace materialized.
#[derive(Debug)]
pub struct FeatureSink {
    vectors: Vec<FeatureVector>,
    last_addr: Vec<Option<u64>>,
    rd32: RdTracker,
    rd64: RdTracker,
}

impl Default for FeatureSink {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureSink {
    /// Empty featurizer.
    pub fn new() -> Self {
        Self {
            vectors: Vec::new(),
            last_addr: Vec::new(),
            rd32: RdTracker::new(5),
            rd64: RdTracker::new(6),
        }
    }

    /// Record one reference (equivalent to [`TraceSink::emit`], usable
    /// without the trait in scope).
    #[inline]
    pub fn record(&mut self, r: MemRef) {
        let idx = r.ds.index();
        if idx >= self.vectors.len() {
            self.vectors.resize_with(idx + 1, FeatureVector::default);
            self.last_addr.resize(idx + 1, None);
        }
        let t32 = self.rd32.touch(r.addr);
        let t64 = self.rd64.touch(r.addr);
        let fv = &mut self.vectors[idx];
        fv.accesses += 1;
        match r.kind {
            AccessKind::Read => fv.reads += 1,
            AccessKind::Write => fv.writes += 1,
        }
        match t32 {
            Touch::Cold => fv.unique32 += 1,
            Touch::Saturated => fv.evicted32 += 1,
            Touch::Distance(d) => fv.rd32[bucket_of(d)] += 1,
        }
        match t64 {
            Touch::Cold => fv.unique64 += 1,
            Touch::Saturated => fv.evicted64 += 1,
            Touch::Distance(d) => fv.rd64[bucket_of(d)] += 1,
        }
        if let Some(prev) = self.last_addr[idx] {
            fv.strides[stride_bucket(r.addr as i64 - prev as i64)] += 1;
        }
        self.last_addr[idx] = Some(r.addr);
    }

    /// Finish and return the per-data-structure feature vectors.
    pub fn finish(self) -> FeatureSet {
        dvf_obs::add("learn.featurize.refs", {
            self.vectors.iter().map(|v| v.accesses).sum::<u64>()
        });
        FeatureSet {
            vectors: self.vectors,
        }
    }
}

impl TraceSink for FeatureSink {
    #[inline]
    fn emit(&mut self, r: MemRef) {
        self.record(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(seq: &[(u16, u64)]) -> Vec<MemRef> {
        seq.iter()
            .map(|&(ds, addr)| MemRef::read(DsId(ds), addr))
            .collect()
    }

    #[test]
    fn cold_and_reuse_distances() {
        let mut sink = FeatureSink::new();
        // Two 64 B blocks of ds 0, then re-touch the first: distance 1 at
        // both granularities (one distinct other block in between).
        for r in refs(&[(0, 0), (0, 64), (0, 0)]) {
            sink.record(r);
        }
        let set = sink.finish();
        let fv = &set.vectors[0];
        assert_eq!(fv.accesses, 3);
        assert_eq!(fv.unique64, 2);
        assert_eq!(fv.rd64[bucket_of(1)], 1);
        assert_eq!(fv.unique32, 2);
    }

    #[test]
    fn interference_is_visible_across_ds() {
        let mut sink = FeatureSink::new();
        // ds0 touches a block, ds1 touches 4 others, ds0 re-touches:
        // the distance attributed to ds0 must include ds1's blocks.
        let mut seq = vec![(0u16, 0u64)];
        for i in 0..4u64 {
            seq.push((1, 4096 + i * 64));
        }
        seq.push((0, 0));
        for r in refs(&seq) {
            sink.record(r);
        }
        let set = sink.finish();
        assert_eq!(set.vectors[0].rd64[bucket_of(4)], 1);
    }

    #[test]
    fn immediate_retouch_is_distance_zero() {
        let mut sink = FeatureSink::new();
        for r in refs(&[(0, 8), (0, 16)]) {
            sink.record(r);
        }
        let set = sink.finish();
        // Same 32 B and 64 B block: distance-0 reuse.
        assert_eq!(set.vectors[0].rd64[0], 1);
        assert_eq!(set.vectors[0].rd32[0], 1);
        assert_eq!(set.vectors[0].unique64, 1);
    }

    #[test]
    fn compaction_preserves_distances() {
        // Drive well past the initial 1024-slot table; distances must
        // survive compaction. Touch N distinct blocks then re-touch the
        // last one: distance 0.
        let mut sink = FeatureSink::new();
        let n = 5000u64;
        for i in 0..n {
            sink.record(MemRef::read(DsId(0), i * 64));
        }
        sink.record(MemRef::read(DsId(0), (n - 1) * 64));
        let set = sink.finish();
        let fv = &set.vectors[0];
        assert_eq!(fv.unique64, n);
        assert_eq!(fv.rd64[0], 1);
        assert_eq!(fv.evicted64, 0);
    }

    #[test]
    fn rd_miss_fraction_matches_streaming() {
        // A strided single pass never reuses: miss fraction 1.0 at any size.
        let mut sink = FeatureSink::new();
        for i in 0..1024u64 {
            sink.record(MemRef::read(DsId(0), i * 64));
        }
        let fv = sink.finish().vectors[0].clone();
        assert!((fv.rd_miss_fraction(512, 64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let mut sink = FeatureSink::new();
        for i in 0..300u64 {
            sink.record(MemRef::new(
                DsId(0),
                (i * 37) % 2048,
                if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            ));
        }
        let fv = sink.finish().vectors[0].clone();
        let json = fv.to_json();
        let parsed = Json::parse(&json).unwrap();
        let back = FeatureVector::from_json(&parsed).unwrap();
        assert_eq!(fv, back);
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let doc = Json::parse("{\"schema\":\"dvf-learn/999\"}").unwrap();
        assert!(FeatureVector::from_json(&doc)
            .unwrap_err()
            .contains("schema"));
    }
}
