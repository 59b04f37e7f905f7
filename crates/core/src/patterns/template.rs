//! Template-based access pattern (paper §III-C, Fig. 2).
//!
//! For structured accesses (stencils, FFT butterflies) the user supplies the
//! exact reference order as a *template*: a sequence of element indices,
//! either listed or given as `starts : step : ends` lanes
//! ([`TemplateRefs`]). Elements are converted to cache blocks, then the
//! paper's two-step algorithm runs:
//!
//! 1. a block's **first** appearance costs one main-memory access;
//! 2. a **repeat** appearance costs one access iff the distance to its
//!    previous appearance exceeds the available cache capacity.
//!
//! The paper leaves "distance" informal; we use the LRU *stack distance*
//! (number of distinct blocks referenced since the block's last use), which
//! makes step 2 exact for a fully-associative LRU cache of the same
//! capacity `C`. An integer distance `d` satisfies `d < C` exactly when the
//! block is among the `⌈C⌉` most recently referenced distinct blocks, so
//! the counter streams the blocks through an LRU set of that size: one
//! pass over the references, memory `O(min(distinct blocks, C))`, and no
//! expansion of a lane template.

use super::{CacheView, ModelError};
use dvf_aspen::{LaneTemplate, TemplateRefs};
use std::collections::hash_map::{Entry, HashMap};

/// Specification of a template-based access: the element size plus the
/// element-granular reference template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateSpec {
    /// Element size `E` in bytes.
    pub element_bytes: u64,
    /// Element indices in reference order.
    pub references: TemplateRefs,
}

impl TemplateSpec {
    /// Build a spec from an explicit list of element references.
    pub fn new(element_bytes: u64, references: Vec<u64>) -> Self {
        Self {
            element_bytes,
            references: TemplateRefs::Explicit(references),
        }
    }

    /// Build a spec from a `starts : step : ends` lane template.
    pub fn lanes(element_bytes: u64, lanes: LaneTemplate) -> Self {
        Self {
            element_bytes,
            references: TemplateRefs::Lanes(lanes),
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<(), ModelError> {
        validate(self.element_bytes, &self.references)
    }

    /// Expected main-memory accesses (`N_ha`) for one pass over the
    /// template.
    pub fn mem_accesses(&self, cache: &CacheView) -> Result<f64, ModelError> {
        self.mem_accesses_repeated(cache, 1)
    }

    /// Expected main-memory accesses for `repeat` back-to-back passes over
    /// the template.
    pub fn mem_accesses_repeated(&self, cache: &CacheView, repeat: u64) -> Result<f64, ModelError> {
        mem_accesses(self.element_bytes, &self.references, cache, repeat)
    }
}

fn validate(element_bytes: u64, refs: &TemplateRefs) -> Result<(), ModelError> {
    if element_bytes == 0 {
        return Err(ModelError::ZeroParameter("element_bytes"));
    }
    if refs.is_empty() {
        return Err(ModelError::EmptyTemplate);
    }
    Ok(())
}

/// Expected main-memory accesses for `repeat` back-to-back passes over the
/// element references `refs`.
///
/// Exact under the LRU-stack model: after the first pass the cache state
/// at each pass boundary repeats, so every pass from the second on misses
/// the same amount. The LRU set is carried from the first pass into a
/// second one: `total = first + (repeat − 1) · second`.
pub(crate) fn mem_accesses(
    element_bytes: u64,
    refs: &TemplateRefs,
    cache: &CacheView,
    repeat: u64,
) -> Result<f64, ModelError> {
    validate(element_bytes, refs)?;
    if repeat == 0 {
        return Ok(0.0);
    }
    Ok(count_passes(
        element_bytes,
        refs,
        cache.line_bytes(),
        cache.effective_blocks(),
        repeat,
    ))
}

/// The counter behind [`mem_accesses`], on a validated template with
/// `repeat ≥ 1`; `capacity_blocks` is step 2's "maximum available cache
/// capacity" in blocks (fractional capacities arise from cache-sharing
/// ratios).
fn count_passes(
    element_bytes: u64,
    refs: &TemplateRefs,
    line_bytes: u64,
    capacity_blocks: f64,
    repeat: u64,
) -> f64 {
    let mut lru = LruSet::new(capacity_blocks);
    let pass = |lru: &mut LruSet| match refs {
        TemplateRefs::Explicit(refs) => {
            lru.misses(blocks(refs.iter().copied(), element_bytes, line_bytes))
        }
        TemplateRefs::Lanes(lanes) => lru.misses(blocks(lanes.iter(), element_bytes, line_bytes)),
    };
    let first = pass(&mut lru);
    if repeat == 1 {
        return first as f64;
    }
    let steady = pass(&mut lru);
    first as f64 + steady as f64 * (repeat - 1) as f64
}

/// The cache blocks element references touch, in order: element `r`
/// covers blocks `⌊r·E / CL⌋ ..= ⌊(r·E + E − 1) / CL⌋`, so one element
/// spanning several lines touches each of them.
fn blocks(
    refs: impl Iterator<Item = u64>,
    element_bytes: u64,
    line_bytes: u64,
) -> impl Iterator<Item = u64> {
    refs.flat_map(move |r| {
        let start = r * element_bytes / line_bytes;
        let end = (r * element_bytes + element_bytes - 1) / line_bytes;
        start..=end
    })
}

/// No node.
const NIL: usize = usize::MAX;

/// One resident block in the recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    /// More recent neighbour.
    prev: usize,
    /// Less recent neighbour.
    next: usize,
}

/// The `⌈C⌉` most recently referenced distinct blocks: a doubly linked
/// recency list over a slab of nodes, indexed by block.
///
/// A reference hits exactly when its block is in the set, i.e. when fewer
/// than `C` distinct other blocks were referenced since its last use.
#[derive(Debug)]
struct LruSet {
    capacity: usize,
    index: HashMap<u64, usize>,
    nodes: Vec<Node>,
    /// Most recently referenced block's node.
    head: usize,
    /// Least recently referenced block's node.
    tail: usize,
}

impl LruSet {
    fn new(capacity_blocks: f64) -> Self {
        // `d < C` for an integer `d` is `d < ⌈C⌉`; no distance compares
        // `≥ NaN`, so a NaN capacity never evicts. `as` saturates.
        let capacity = if capacity_blocks.is_nan() {
            usize::MAX
        } else {
            capacity_blocks.ceil().max(0.0) as usize
        };
        Self {
            capacity,
            index: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Misses of `blocks`, continuing from the current state.
    fn misses(&mut self, blocks: impl Iterator<Item = u64>) -> u64 {
        let mut misses = 0;
        for b in blocks {
            misses += u64::from(!self.touch(b));
        }
        misses
    }

    /// Reference `block`: whether it hit, with the set updated.
    fn touch(&mut self, block: u64) -> bool {
        // A run of references to one block needs no lookup.
        if self.head != NIL && self.nodes[self.head].block == block {
            return true;
        }
        let i = match self.index.entry(block) {
            Entry::Occupied(hit) => {
                let i = *hit.get();
                self.unlink(i);
                self.push_front(i);
                return true;
            }
            Entry::Vacant(_) if self.capacity == 0 => return false,
            Entry::Vacant(miss) if self.nodes.len() < self.capacity => {
                miss.insert(self.nodes.len());
                self.nodes.push(Node {
                    block,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
            Entry::Vacant(miss) => {
                // Full: the least recent block's node moves to `block`.
                let i = self.tail;
                miss.insert(i);
                self.index.remove(&self.nodes[i].block);
                self.unlink(i);
                self.nodes[i].block = block;
                i
            }
        };
        self.push_front(i);
        false
    }

    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvf_cachesim::CacheConfig;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn view(assoc: usize, sets: usize, line: usize) -> CacheView {
        CacheView::exclusive(CacheConfig::new(assoc, sets, line).unwrap())
    }

    /// Decomposition of the oracle's estimate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct TemplateBreakdown {
        /// Distinct cache blocks touched (= compulsory misses, step 1).
        cold_misses: u64,
        /// Re-references whose stack distance reached capacity (step 2).
        capacity_misses: u64,
        /// Total main-memory accesses.
        total: u64,
    }

    /// The expanded block sequence of a template.
    fn block_references(element_bytes: u64, refs: &TemplateRefs, line_bytes: u64) -> Vec<u64> {
        blocks(refs.iter(), element_bytes, line_bytes).collect()
    }

    /// Oracle: the two-step algorithm over an expanded block template,
    /// with each stack distance counted by a Fenwick tree over reference
    /// positions (`O(L log L)` time, `O(L)` memory).
    fn count_template_misses(blocks: &[u64], capacity_blocks: f64) -> TemplateBreakdown {
        let mut cold = 0u64;
        let mut capacity = 0u64;

        // A 1 marks the *latest* position of each distinct block.
        let mut bit = Fenwick::new(blocks.len());
        let mut last_pos: HashMap<u64, usize> = HashMap::new();

        for (t, &b) in blocks.iter().enumerate() {
            match last_pos.get(&b).copied() {
                None => {
                    cold += 1;
                }
                Some(prev) => {
                    // Distinct blocks referenced strictly between prev and
                    // t: count of marked positions in (prev, t).
                    let distance = bit.prefix_sum(t) - bit.prefix_sum(prev + 1);
                    if distance as f64 >= capacity_blocks {
                        capacity += 1;
                    }
                    bit.add(prev + 1, -1);
                }
            }
            bit.add(t + 1, 1);
            last_pos.insert(b, t);
        }

        TemplateBreakdown {
            cold_misses: cold,
            capacity_misses: capacity,
            total: cold + capacity,
        }
    }

    /// Oracle for `repeat` passes: one pass, then two concatenated
    /// passes, `total = first + (repeat − 1) · (two_pass − first)`.
    fn oracle_repeated(blocks: &[u64], capacity_blocks: f64, repeat: u64) -> f64 {
        if repeat == 0 {
            return 0.0;
        }
        let first = count_template_misses(blocks, capacity_blocks).total;
        if repeat == 1 {
            return first as f64;
        }
        let doubled = [blocks, blocks].concat();
        let steady = count_template_misses(&doubled, capacity_blocks).total - first;
        first as f64 + steady as f64 * (repeat - 1) as f64
    }

    fn breakdown(spec: &TemplateSpec, cache: &CacheView) -> TemplateBreakdown {
        let blocks = block_references(spec.element_bytes, &spec.references, cache.line_bytes());
        count_template_misses(&blocks, cache.effective_blocks())
    }

    /// Minimal Fenwick (binary indexed) tree over `i64` counts, 1-indexed.
    #[derive(Debug, Clone)]
    struct Fenwick {
        tree: Vec<i64>,
    }

    impl Fenwick {
        fn new(n: usize) -> Self {
            Self {
                tree: vec![0; n + 1],
            }
        }

        /// Add `delta` at position `i` (1-indexed).
        fn add(&mut self, mut i: usize, delta: i64) {
            while i < self.tree.len() {
                self.tree[i] += delta;
                i += i & i.wrapping_neg();
            }
        }

        /// Sum of positions `1..=i`.
        fn prefix_sum(&self, mut i: usize) -> i64 {
            let mut acc = 0;
            while i > 0 {
                acc += self.tree[i];
                i -= i & i.wrapping_neg();
            }
            acc
        }
    }

    proptest! {
        /// The LRU-set counter equals the Fenwick oracle on the expanded
        /// sequence, bit for bit, for one pass and for `repeat` passes,
        /// whether the template is given as lanes or listed explicitly.
        #[test]
        fn lane_counter_matches_fenwick_oracle(
            starts in prop::collection::vec(0u64..200, 1..7),
            step in 1u64..=8,
            steps in 0u64..40,
            element_bytes in 1u64..=128,
            line_log2 in 3u32..=7,
            repeat in 0u64..=3,
            capacity in prop::sample::select(vec![
                0.0, 0.25, 0.5, 0.999, 1.0, 1.5, 2.5, 3.0, 7.25, 16.0, 33.3, 1e9,
            ]),
        ) {
            let line = 1u64 << line_log2;
            let lanes = TemplateRefs::Lanes(LaneTemplate { starts, step, steps });
            let explicit = TemplateRefs::Explicit(lanes.iter().collect());
            let expanded = block_references(element_bytes, &lanes, line);
            prop_assert_eq!(&block_references(element_bytes, &explicit, line), &expanded);

            let want_one = count_template_misses(&expanded, capacity).total as f64;
            let want = oracle_repeated(&expanded, capacity, repeat);
            for refs in [&lanes, &explicit] {
                let one = count_passes(element_bytes, refs, line, capacity, 1);
                prop_assert_eq!(one.to_bits(), want_one.to_bits(), "{:?}", refs);
                let got = if repeat == 0 {
                    0.0
                } else {
                    count_passes(element_bytes, refs, line, capacity, repeat)
                };
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} x{}", refs, repeat);
            }
        }

        /// The same through a shared cache view: capacities below one
        /// block, fractional ones, and ones above the distinct block count.
        #[test]
        fn lane_spec_matches_oracle_through_cache_views(
            starts in prop::collection::vec(0u64..500, 1..7),
            step in 1u64..=8,
            steps in 0u64..60,
            element_bytes in 1u64..=128,
            ways in 1usize..=8,
            sets_log2 in 0u32..=6,
            ratio in prop::sample::select(vec![0.1, 0.3, 0.5, 0.7, 1.0]),
            repeat in 0u64..=3,
        ) {
            let v = CacheView::shared(CacheConfig::new(ways, 1 << sets_log2, 32).unwrap(), ratio);
            let spec = TemplateSpec::lanes(element_bytes, LaneTemplate { starts, step, steps });
            let expanded = block_references(element_bytes, &spec.references, 32);
            let want = oracle_repeated(&expanded, v.effective_blocks(), repeat);
            let got = spec.mem_accesses_repeated(&v, repeat).unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn non_finite_capacities_match_the_oracle() {
        let refs = TemplateRefs::Explicit((0..300).map(|i| (i * 7) % 41).collect());
        let blocks = block_references(8, &refs, 8);
        for capacity in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0] {
            for repeat in 1..=3 {
                let got = count_passes(8, &refs, 8, capacity, repeat);
                let want = oracle_repeated(&blocks, capacity, repeat);
                assert_eq!(got.to_bits(), want.to_bits(), "C = {capacity} x{repeat}");
            }
        }
    }

    #[test]
    fn cold_misses_count_distinct_blocks() {
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // CL = 8: each element its own block; capacity 64 blocks: repeats hit.
        let v = view(4, 16, 8);
        let b = breakdown(&spec, &v);
        assert_eq!(b.cold_misses, 4);
        assert_eq!(b.capacity_misses, 0);
        assert_eq!(b.total, 4);
        assert_eq!(spec.mem_accesses(&v).unwrap(), 4.0);
    }

    #[test]
    fn repeat_beyond_capacity_misses() {
        // Capacity = 2 blocks (1 set, 2 ways). Template touches 3 distinct
        // blocks then revisits the first: stack distance 2 >= 2 -> miss.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 0]);
        let v = view(2, 1, 8);
        let b = breakdown(&spec, &v);
        assert_eq!(b.cold_misses, 3);
        assert_eq!(b.capacity_misses, 1);
        assert_eq!(spec.mem_accesses(&v).unwrap(), 4.0);
    }

    #[test]
    fn repeat_within_capacity_hits() {
        let spec = TemplateSpec::new(8, vec![0, 1, 0]);
        // distance of the revisit = 1 < 2.
        let v = view(2, 1, 8);
        assert_eq!(breakdown(&spec, &v).capacity_misses, 0);
        assert_eq!(spec.mem_accesses(&v).unwrap(), 2.0);
    }

    #[test]
    fn immediate_repeat_never_misses() {
        let spec = TemplateSpec::new(8, vec![5, 5, 5, 5]);
        assert_eq!(spec.mem_accesses(&view(1, 1, 8)).unwrap(), 1.0);
    }

    #[test]
    fn elements_smaller_than_line_share_blocks() {
        // E = 8, CL = 32: elements 0..3 share block 0.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3]);
        assert_eq!(spec.mem_accesses(&view(4, 16, 32)).unwrap(), 1.0);
    }

    #[test]
    fn elements_larger_than_line_span_blocks() {
        // E = 64, CL = 32: element 0 covers blocks 0-1, element 1 blocks 2-3.
        let spec = TemplateSpec::new(64, vec![0, 1]);
        assert_eq!(spec.mem_accesses(&view(4, 16, 32)).unwrap(), 4.0);
    }

    #[test]
    fn stack_distance_uses_distinct_blocks() {
        // Template 0 1 1 1 2 0 with capacity 2: the revisit of 0 has seen
        // distinct blocks {1, 2} -> distance 2 >= 2 -> miss. Repeats of 1
        // don't inflate the distance.
        let spec = TemplateSpec::new(8, vec![0, 1, 1, 1, 2, 0]);
        let b = breakdown(&spec, &view(2, 1, 8));
        assert_eq!(b.cold_misses, 3);
        assert_eq!(b.capacity_misses, 1);
        assert_eq!(spec.mem_accesses(&view(2, 1, 8)).unwrap(), 4.0);

        // With capacity 4 the same revisit hits.
        assert_eq!(breakdown(&spec, &view(4, 1, 8)).capacity_misses, 0);
        assert_eq!(spec.mem_accesses(&view(4, 1, 8)).unwrap(), 3.0);
    }

    #[test]
    fn matches_fully_associative_lru_simulation() {
        // The stack-distance criterion is exact for fully-associative LRU:
        // cross-check against the simulator on a pseudo-random template.
        use dvf_cachesim::{simulate, MemRef, Trace};
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 64
        };
        let refs: Vec<u64> = (0..2000).map(|_| next()).collect();
        let spec = TemplateSpec::new(32, refs.clone());

        // Fully associative: 1 set, 16 ways, 32-B lines.
        let cfg = CacheConfig::new(16, 1, 32).unwrap();
        let model = spec.mem_accesses(&CacheView::exclusive(cfg)).unwrap();

        let mut trace = Trace::new();
        let ds = trace.registry.register("X");
        for &e in &refs {
            trace.push(MemRef::read(ds, e * 32));
        }
        let sim = simulate(&trace, cfg);
        assert_eq!(model, sim.ds(ds).misses as f64);
    }

    #[test]
    fn repeated_passes_when_template_fits_cache() {
        // Template fits: repeats after the first are free.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3]);
        let v = view(4, 16, 8); // 64 blocks
        let one = spec.mem_accesses(&v).unwrap();
        let five = spec.mem_accesses_repeated(&v, 5).unwrap();
        assert_eq!(one, 4.0);
        assert_eq!(five, 4.0);
    }

    #[test]
    fn repeated_passes_when_template_thrashes() {
        // Capacity 2 blocks, template cycles over 4: every pass reloads
        // everything.
        let spec = TemplateSpec::new(8, vec![0, 1, 2, 3]);
        let v = view(2, 1, 8);
        let one = spec.mem_accesses(&v).unwrap();
        let four = spec.mem_accesses_repeated(&v, 4).unwrap();
        assert_eq!(one, 4.0);
        assert_eq!(four, 16.0);
    }

    #[test]
    fn repeated_matches_explicit_concatenation() {
        // Cross-check the extrapolation against literally repeating refs.
        let refs: Vec<u64> = (0..50).map(|i| (i * 7) % 13).collect();
        let spec = TemplateSpec::new(16, refs.clone());
        let v = view(2, 2, 16); // 4 blocks
        for repeat in [1u64, 2, 3, 5] {
            let fast = spec.mem_accesses_repeated(&v, repeat).unwrap();
            let mut long = Vec::new();
            for _ in 0..repeat {
                long.extend_from_slice(&refs);
            }
            let slow = TemplateSpec::new(16, long).mem_accesses(&v).unwrap();
            assert_eq!(fast, slow, "repeat = {repeat}");
        }
    }

    #[test]
    fn repeat_zero_is_zero() {
        let spec = TemplateSpec::new(8, vec![0, 1]);
        assert_eq!(spec.mem_accesses_repeated(&view(2, 1, 8), 0).unwrap(), 0.0);
    }

    #[test]
    fn empty_template_rejected() {
        let spec = TemplateSpec::new(8, vec![]);
        assert_eq!(spec.validate(), Err(ModelError::EmptyTemplate));
        let spec = TemplateSpec::lanes(
            8,
            LaneTemplate {
                starts: vec![],
                step: 1,
                steps: 3,
            },
        );
        assert_eq!(spec.validate(), Err(ModelError::EmptyTemplate));
        let spec = TemplateSpec::new(0, vec![1]);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn fenwick_basics() {
        let mut f = Fenwick::new(8);
        f.add(3, 1);
        f.add(5, 2);
        assert_eq!(f.prefix_sum(2), 0);
        assert_eq!(f.prefix_sum(3), 1);
        assert_eq!(f.prefix_sum(8), 3);
        f.add(3, -1);
        assert_eq!(f.prefix_sum(8), 2);
    }
}
