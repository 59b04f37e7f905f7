//! Memoized CGPMAC pattern-model evaluation.
//!
//! Parameter sweeps (`dvf sweep`, the figure harnesses, the `elasticities`
//! helper) evaluate the same log-gamma-heavy closed forms (Eqs. 3–15) at
//! many grid points, and most grid points share most of their pattern
//! evaluations — only the swept parameter changes. This module provides a
//! process-wide cache keyed by the *complete* input of one `N_ha`
//! evaluation: the estimator that produced the number, the pattern's
//! numeric parameters ([`PatternKey::of`], the one place a resolved
//! pattern becomes an identity) and the cache view (geometry and sharing
//! ratio, keyed by exact bit pattern). Templates are interned to small
//! ids so a key is always a few machine words: a `starts : step : ends`
//! lane template by its lane values, in `O(lanes)` however many
//! references it stands for, and an explicit `refs = (…)` list by its
//! content, which hashes the list once per key.
//!
//! The cache is semantically invisible: a hit returns the exact `f64` the
//! miss path computed and stored, so cached and uncached sweeps are
//! bit-identical (asserted by the property tests in `tests/memo_sweep.rs`).
//! Hits and misses are counted in `dvf-obs` under `sweep.cache.hit` /
//! `sweep.cache.miss`.
//!
//! ## Striping
//!
//! The cache is striped: keys are routed to one of [`stripe_count`]
//! independent `Mutex<HashMap>` shards by key hash, so concurrent sweeps
//! (the `dvf-serve` worker pool, `par_map` fan-outs) contend only when
//! they touch the same stripe instead of serializing on one process-wide
//! lock. Hit/miss tallies live *inside* each stripe and are bumped under
//! the stripe lock, which makes [`stats`] a consistent cut: it holds
//! every stripe lock at once, so `hits + misses` equals the number of
//! enabled lookups that completed — no torn reads between two independent
//! atomics. The template interner is striped the same way (routed by
//! content hash, ids allocated from one shared counter), so interning
//! never funnels through a single lock either.

use crate::estimator::NhaEstimator;
use crate::gridplan::StableHasher;
use crate::patterns::{CacheView, ModelError};
use dvf_aspen::{LaneTemplate, PatternSpec, ReuseScenario, TemplateRefs};
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard};

/// Hashable identity of a [`CacheView`]: geometry plus the exact bit
/// pattern of the sharing ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewKey {
    associativity: u64,
    sets: u64,
    line_bytes: u64,
    ratio_bits: u64,
}

impl ViewKey {
    /// Key of a view.
    pub fn of(view: &CacheView) -> Self {
        Self {
            associativity: view.config.associativity as u64,
            sets: view.config.num_sets as u64,
            line_bytes: view.config.line_bytes as u64,
            ratio_bits: view.ratio.to_bits(),
        }
    }
}

/// Interned id of a template.
pub type TemplateId = u32;

/// Hashable identity of one pattern-model evaluation's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKey {
    /// `StreamingSpec::mem_accesses`.
    Streaming {
        /// Element size in bytes.
        element_bytes: u64,
        /// Number of elements.
        num_elements: u64,
        /// Stride in elements.
        stride_elements: u64,
    },
    /// `RandomSpec::mem_accesses`.
    Random {
        /// Number of elements.
        num_elements: u64,
        /// Element size in bytes.
        element_bytes: u64,
        /// Distinct elements visited per iteration.
        k: u64,
        /// Iterations.
        iterations: u64,
        /// Exact bit pattern of the spec's own cache ratio.
        ratio_bits: u64,
    },
    /// `TemplateSpec::mem_accesses_repeated` with an interned template.
    Template {
        /// Element size in bytes.
        element_bytes: u64,
        /// Interned template (see [`intern_template`]).
        template: TemplateId,
        /// Replay count.
        repeat: u64,
    },
    /// `ReuseSpec::from_bytes(..).mem_accesses`.
    Reuse {
        /// Target structure size in bytes.
        size_bytes: u64,
        /// Interfering footprint in bytes.
        interfering_bytes: u64,
        /// Number of reuses.
        reuses: u64,
        /// Whether the interference is concurrent (vs. exclusive).
        concurrent: bool,
    },
}

impl PatternKey {
    /// Key of `pattern` evaluated for a structure of `size_bytes` bytes:
    /// every input the closed forms and the learned predictor read.
    /// Only a reuse pattern depends on the structure's own size.
    pub fn of(pattern: &PatternSpec, size_bytes: u64) -> Self {
        match pattern {
            PatternSpec::Streaming {
                element_bytes,
                count,
                stride_elements,
            } => PatternKey::Streaming {
                element_bytes: *element_bytes,
                num_elements: *count,
                stride_elements: *stride_elements,
            },
            PatternSpec::Random {
                elements,
                element_bytes,
                k,
                iters,
                ratio,
            } => PatternKey::Random {
                num_elements: *elements,
                element_bytes: *element_bytes,
                k: *k,
                iterations: *iters,
                ratio_bits: ratio.to_bits(),
            },
            PatternSpec::Template {
                element_bytes,
                refs,
                repeat,
            } => PatternKey::Template {
                element_bytes: *element_bytes,
                template: intern_template(refs),
                repeat: *repeat,
            },
            PatternSpec::Reuse {
                interfering_bytes,
                reuses,
                scenario,
            } => PatternKey::Reuse {
                size_bytes,
                interfering_bytes: *interfering_bytes,
                reuses: *reuses,
                concurrent: matches!(scenario, ReuseScenario::Concurrent),
            },
        }
    }

    /// The `dvf-obs` counter that tallies evaluations of this pattern kind.
    pub(crate) fn counter(&self) -> &'static str {
        match self {
            PatternKey::Streaming { .. } => "pattern.streaming",
            PatternKey::Random { .. } => "pattern.random",
            PatternKey::Template { .. } => "pattern.template",
            PatternKey::Reuse { .. } => "pattern.reuse",
        }
    }
}

/// Fold the identity of one evaluation — view geometry, exact sharing
/// ratio, then the fields [`PatternKey::of`] keys on — into `h` as
/// process-independent words. A template is hashed by its expanded
/// reference sequence, not by its process-local interned id, so two
/// processes agree on the result (the distributed sweep routes points by
/// it) and a lane template hashes as its listed references would.
pub(crate) fn write_stable(
    h: &mut StableHasher,
    pattern: &PatternSpec,
    size_bytes: u64,
    view: &CacheView,
) {
    let v = ViewKey::of(view);
    for word in [v.associativity, v.sets, v.line_bytes, v.ratio_bits] {
        h.write(word);
    }
    match pattern {
        PatternSpec::Streaming {
            element_bytes,
            count,
            stride_elements,
        } => {
            h.write(1);
            h.write(*element_bytes);
            h.write(*count);
            h.write(*stride_elements);
        }
        PatternSpec::Random {
            elements,
            element_bytes,
            k,
            iters,
            ratio,
        } => {
            h.write(2);
            h.write(*elements);
            h.write(*element_bytes);
            h.write(*k);
            h.write(*iters);
            h.write(ratio.to_bits());
        }
        PatternSpec::Template {
            element_bytes,
            refs,
            repeat,
        } => {
            h.write(3);
            h.write(*element_bytes);
            h.write(refs.len());
            for r in refs.iter() {
                h.write(r);
            }
            h.write(*repeat);
        }
        PatternSpec::Reuse {
            interfering_bytes,
            reuses,
            scenario,
        } => {
            h.write(4);
            h.write(size_bytes);
            h.write(*interfering_bytes);
            h.write(*reuses);
            h.write(matches!(scenario, ReuseScenario::Concurrent) as u64);
        }
    }
}

/// Identity of the estimator behind a cached number, so closed-form and
/// learned results (and those of different models) never share an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKey {
    /// The closed-form CGPMAC models.
    ClosedForm,
    /// A learned model, identified by its training run.
    Learned {
        /// Training seed.
        seed: u64,
        /// Whether it was trained on the smoke grid.
        smoke: bool,
        /// Training sample count.
        samples: u64,
    },
}

impl EstimatorKey {
    /// Key of an estimator.
    pub fn of(estimator: &NhaEstimator) -> Self {
        match estimator {
            NhaEstimator::ClosedForm => EstimatorKey::ClosedForm,
            NhaEstimator::Learned(model) => EstimatorKey::Learned {
                seed: model.seed,
                smoke: model.smoke,
                samples: model.samples,
            },
        }
    }
}

/// Complete key of one evaluation: estimator × pattern parameters ×
/// cache view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// Estimator.
    pub estimator: EstimatorKey,
    /// Pattern parameters.
    pub pattern: PatternKey,
    /// Cache view.
    pub view: ViewKey,
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Number of lock stripes (cache and template interner alike).
const STRIPES: usize = 16;

/// One shard of the evaluation cache. Hit/miss tallies are bumped under
/// the same lock that guards the map, so a full-cache snapshot taken with
/// every stripe locked is exactly consistent (tallies are lifetime
/// counters, tracked independently of `dvf-obs` — which only records when
/// profiling is enabled — so long-running consumers such as `dvf-serve`
/// can report per-request cache-effect deltas unconditionally).
#[derive(Debug, Default)]
struct Stripe {
    map: HashMap<EvalKey, f64>,
    hits: u64,
    misses: u64,
}

/// The striped cache plus the hasher that routes keys to stripes.
struct Striped {
    stripes: Box<[Mutex<Stripe>]>,
    hasher: RandomState,
}

impl Striped {
    fn stripe_of(&self, key: &EvalKey) -> &Mutex<Stripe> {
        let h = self.hasher.hash_one(key) as usize;
        &self.stripes[h % self.stripes.len()]
    }

    /// Lock every stripe, in index order (the only multi-stripe lock
    /// pattern in this module, so the order is trivially consistent).
    fn lock_all(&self) -> Vec<MutexGuard<'_, Stripe>> {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("memo cache poisoned"))
            .collect()
    }
}

static CACHE: LazyLock<Striped> = LazyLock::new(|| Striped {
    stripes: (0..STRIPES)
        .map(|_| Mutex::new(Stripe::default()))
        .collect(),
    hasher: RandomState::new(),
});

/// One interner stripe: explicit templates keyed by their references,
/// lane templates by their lane values.
#[derive(Debug, Default)]
struct TemplateStripe {
    explicit: HashMap<Box<[u64]>, TemplateId>,
    lanes: HashMap<LaneTemplate, TemplateId>,
}

/// Striped template interner: content-hash routing (identical templates
/// land on the same stripe, hence see the same id) with ids allocated
/// from one shared counter so they stay unique across stripes.
struct TemplateInterner {
    stripes: Box<[Mutex<TemplateStripe>]>,
    hasher: RandomState,
    next_id: AtomicU32,
}

static TEMPLATES: LazyLock<TemplateInterner> = LazyLock::new(|| TemplateInterner {
    stripes: (0..STRIPES)
        .map(|_| Mutex::new(TemplateStripe::default()))
        .collect(),
    hasher: RandomState::new(),
    next_id: AtomicU32::new(0),
});

/// Number of lock stripes the cache is built with.
pub fn stripe_count() -> usize {
    STRIPES
}

/// Whether memoization is active (default: on).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn memoization on or off (off = every evaluation recomputes).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drop every cached evaluation and interned template.
pub fn clear() {
    // Lock order: every cache stripe (ascending), then every template
    // stripe (ascending) — the only place multiple locks are held at
    // once besides `stats`, which takes cache stripes only.
    let mut cache = CACHE.lock_all();
    let mut templates: Vec<_> = TEMPLATES
        .stripes
        .iter()
        .map(|s| s.lock().expect("template interner poisoned"))
        .collect();
    for stripe in &mut cache {
        stripe.map.clear();
    }
    for stripe in &mut templates {
        stripe.explicit.clear();
        stripe.lanes.clear();
    }
    TEMPLATES.next_id.store(0, Ordering::Relaxed);
}

/// Number of cached evaluations.
pub fn len() -> usize {
    CACHE.lock_all().iter().map(|stripe| stripe.map.len()).sum()
}

/// Point-in-time view of the process-wide cache: resident entries plus
/// lifetime hit/miss tallies (monotonic — [`clear`] drops entries but not
/// the tallies). Consumers wanting the cache effect of one operation take
/// a snapshot before and after and subtract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lifetime lookup hits.
    pub hits: u64,
    /// Lifetime lookup misses (each populated one entry).
    pub misses: u64,
    /// Evaluations currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits and misses accumulated since `earlier` (entry count is the
    /// current one; it is a level, not a flow).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
}

/// Current [`CacheStats`] of the shared cache.
///
/// The snapshot is a consistent cut: every stripe lock is held while
/// reading, and lookups tally under their stripe lock, so at quiescence
/// `hits + misses` equals the exact number of enabled lookups (the old
/// two-independent-atomics implementation could tear between the loads).
pub fn stats() -> CacheStats {
    let stripes = CACHE.lock_all();
    let mut out = CacheStats {
        hits: 0,
        misses: 0,
        entries: 0,
    };
    for stripe in &stripes {
        out.hits += stripe.hits;
        out.misses += stripe.misses;
        out.entries += stripe.map.len() as u64;
    }
    out
}

/// Intern a template, returning a small stable id.
///
/// Identical templates (the same references listed, or the same lane
/// values) always map to the same id within one interner generation
/// ([`clear`] starts a new generation and empties the evaluation cache
/// with it). A lane template costs `O(lanes)`, an explicit one `O(L)`.
pub fn intern_template(refs: &TemplateRefs) -> TemplateId {
    let h = TEMPLATES.hasher.hash_one(refs) as usize;
    let stripe = &TEMPLATES.stripes[h % TEMPLATES.stripes.len()];
    let mut templates = stripe.lock().expect("template interner poisoned");
    let found = match refs {
        TemplateRefs::Explicit(list) => templates.explicit.get(list.as_slice()),
        TemplateRefs::Lanes(lanes) => templates.lanes.get(lanes),
    };
    if let Some(&id) = found {
        return id;
    }
    // Ids come from one shared counter so they are unique across stripes;
    // uniqueness per *content* is the stripe map's job (same content
    // always hashes to the same stripe).
    let id = TEMPLATES.next_id.fetch_add(1, Ordering::Relaxed);
    assert_ne!(id, TemplateId::MAX, "more than u32::MAX distinct templates");
    match refs {
        TemplateRefs::Explicit(list) => templates.explicit.insert(list.as_slice().into(), id),
        TemplateRefs::Lanes(lanes) => templates.lanes.insert(lanes.clone(), id),
    };
    id
}

/// Evaluate a pattern model through the cache: return the stored value on
/// a hit, otherwise run `compute`, store an `Ok` result, and return it.
/// Model errors are never cached (they are cheap — validation fails before
/// any combinatorics run).
pub fn evaluate(
    key: EvalKey,
    compute: impl FnOnce() -> Result<f64, ModelError>,
) -> Result<f64, ModelError> {
    if !enabled() {
        return compute();
    }
    let stripe = CACHE.stripe_of(&key);
    {
        let mut guard = stripe.lock().expect("memo cache poisoned");
        if let Some(&v) = guard.map.get(&key) {
            guard.hits += 1;
            drop(guard);
            dvf_obs::add("sweep.cache.hit", 1);
            return Ok(v);
        }
        guard.misses += 1;
    }
    dvf_obs::add("sweep.cache.miss", 1);
    let v = compute()?;
    stripe
        .lock()
        .expect("memo cache poisoned")
        .map
        .insert(key, v);
    Ok(v)
}

/// Convenience: the key of a closed-form pattern evaluated under a view.
pub fn key(pattern: PatternKey, view: &CacheView) -> EvalKey {
    EvalKey {
        estimator: EstimatorKey::ClosedForm,
        pattern,
        view: ViewKey::of(view),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::StreamingSpec;
    use dvf_cachesim::CacheConfig;

    /// Serializes tests that toggle the process-global enabled flag or
    /// clear the cache (other tests in this crate evaluate through the
    /// cache concurrently, but only these tests mutate its global state).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn test_view() -> CacheView {
        CacheView::exclusive(CacheConfig::new(4, 64, 32).unwrap())
    }

    fn streaming_key(n: u64, view: &CacheView) -> EvalKey {
        key(
            PatternKey::Streaming {
                element_bytes: 8,
                num_elements: n,
                stride_elements: 1,
            },
            view,
        )
    }

    #[test]
    fn hit_returns_stored_value_bit_exactly() {
        let _guard = serial();
        set_enabled(true);
        let view = test_view();
        let spec = StreamingSpec {
            element_bytes: 8,
            num_elements: 77_777,
            stride_elements: 1,
        };
        let k = streaming_key(77_777, &view);
        let first = evaluate(k, || spec.mem_accesses(&view)).unwrap();
        // Second call must not recompute: a poisoned closure proves the hit.
        let second = evaluate(k, || panic!("cache should have hit")).unwrap();
        assert_eq!(first.to_bits(), second.to_bits());
        // After clear the key is gone and the closure runs again.
        clear();
        let recomputed = evaluate(k, || Ok(-1.0)).unwrap();
        assert_eq!(recomputed, -1.0);
    }

    #[test]
    fn disabled_cache_recomputes() {
        let _guard = serial();
        set_enabled(false);
        let view = test_view();
        let k = streaming_key(5, &view);
        let mut calls = 0;
        for _ in 0..3 {
            let _ = evaluate(k, || {
                calls += 1;
                Ok(1.0)
            });
        }
        set_enabled(true);
        assert_eq!(calls, 3);
        // The key was never stored: the first enabled evaluation misses.
        let probe = evaluate(k, || Ok(2.0)).unwrap();
        assert_eq!(probe, 2.0, "disabled evaluations must not populate");
    }

    #[test]
    fn errors_are_not_cached() {
        let _guard = serial();
        set_enabled(true);
        let view = test_view();
        let k = streaming_key(0, &view);
        let mut calls = 0;
        for _ in 0..2 {
            let r = evaluate(k, || {
                calls += 1;
                Err(ModelError::ZeroParameter("N"))
            });
            assert!(r.is_err());
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let _guard = serial();
        set_enabled(true);
        let view = test_view();
        let spec = StreamingSpec {
            element_bytes: 8,
            num_elements: 31_337,
            stride_elements: 1,
        };
        let k = streaming_key(31_337, &view);
        clear();
        let before = stats();
        let _ = evaluate(k, || spec.mem_accesses(&view));
        let _ = evaluate(k, || spec.mem_accesses(&view));
        let delta = stats().since(&before);
        // Other tests may evaluate concurrently, so assert lower bounds.
        assert!(delta.misses >= 1, "{delta:?}");
        assert!(delta.hits >= 1, "{delta:?}");
        assert!(stats().entries >= 1);
    }

    #[test]
    fn template_interning_is_stable_and_content_addressed() {
        let explicit = |refs: &[u64]| intern_template(&TemplateRefs::Explicit(refs.to_vec()));
        let a = explicit(&[1, 2, 3]);
        let b = explicit(&[1, 2, 3]);
        let c = explicit(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);

        let lanes = |starts: &[u64], step, steps| {
            intern_template(&TemplateRefs::Lanes(LaneTemplate {
                starts: starts.to_vec(),
                step,
                steps,
            }))
        };
        let d = lanes(&[1, 2, 3], 3, 0);
        assert_eq!(d, lanes(&[1, 2, 3], 3, 0));
        // Lanes never share an id with a listed template, even one with
        // the same values or the same expansion.
        assert_ne!(d, a);
        assert_ne!(lanes(&[1, 2, 3], 3, 1), d);
        assert_ne!(lanes(&[1, 2, 3], 4, 0), d);
    }

    #[test]
    fn distinct_ratios_are_distinct_keys() {
        let cfg = CacheConfig::new(4, 64, 32).unwrap();
        let exclusive = ViewKey::of(&CacheView::exclusive(cfg));
        let shared = ViewKey::of(&CacheView::shared(cfg, 0.25));
        assert_ne!(exclusive, shared);
    }
}
