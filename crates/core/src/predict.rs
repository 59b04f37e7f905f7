//! Learned `N_ha` evaluation: pattern specs → synthetic streams →
//! `dvf-learn` features → model prediction.
//!
//! The closed-form CGPMAC models (`crate::patterns`) answer "how many
//! memory accesses will this pattern cause" analytically. This module
//! answers the same question through the learned predictor instead: each
//! resolved [`PatternSpec`] is expanded into a *deterministic* synthetic
//! reference stream (the literal accesses the paper's pseudocode
//! describes), featurized in-stream by [`FeatureSink`] — no trace is
//! materialized — and handed to the [`NhaModel`]. `--predict` selects
//! this path through [`crate::estimator::NhaEstimator::Learned`].
//!
//! Two approximations keep an evaluation bounded:
//!
//! * Streams are truncated at [`MAX_SYNTH_REFS`] references and the
//!   prediction is scaled back up by the truncation factor. Every
//!   pattern's miss count is asymptotically linear in the truncated
//!   dimension (stream length, iterations, template repeats, reuses), so
//!   the first-order correction is exact in the regimes the cap can
//!   reach (a structure that large no longer fits any modeled cache).
//! * The cache-sharing ratio `r` of a [`CacheView`] is applied by
//!   shrinking the geometry to the nearest power-of-two set count of
//!   `NA·r` — the learned features see the same "this structure owns a
//!   fraction of the cache" geometry the closed forms model analytically.

use crate::patterns::CacheView;
use dvf_aspen::{PatternSpec, ReuseScenario};
use dvf_cachesim::{CacheConfig, DsId, MemRef};
use dvf_learn::{FeatureSink, NhaModel};

/// Hard cap on synthesized references per pattern evaluation (then the
/// prediction is rescaled by the truncation factor).
pub const MAX_SYNTH_REFS: u64 = 1 << 22;

/// Address base of the interfering structure in reuse streams, far above
/// any target footprint so the two never alias a cache block.
const INTERFERING_BASE: u64 = 1 << 44;

/// SplitMix64 — deterministic generator for the random pattern's visit
/// sequence (same construction the oracle workloads use).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Apply a sharing ratio `r < 1` by shrinking the set count to the
/// nearest power of two of `NA·r` (at least one set). The feature
/// assembly depends on capacity and block count, so this is how the
/// learned path sees "this structure competes for a fraction of the
/// cache".
fn effective_config(view: &CacheView) -> CacheConfig {
    if view.ratio >= 1.0 {
        return view.config;
    }
    let target = (view.config.num_sets as f64 * view.ratio).max(1.0);
    let exp = target.log2().round().max(0.0) as u32;
    let sets = (1usize << exp.min(63)).min(view.config.num_sets);
    CacheConfig {
        num_sets: sets,
        ..view.config
    }
}

/// Emit up to `cap` target references into the sink, tracking how many
/// the untruncated pattern would have issued.
struct SynthStream {
    sink: FeatureSink,
    emitted: u64,
    cap: u64,
}

impl SynthStream {
    fn new(cap: u64) -> Self {
        Self {
            sink: FeatureSink::new(),
            emitted: 0,
            cap,
        }
    }

    /// Room left in the capped stream (interfering refs count too: the
    /// cap bounds the whole featurization pass, not just the target).
    fn full(&self) -> bool {
        self.emitted >= self.cap
    }

    fn emit(&mut self, ds: DsId, addr: u64) {
        self.sink.record(MemRef::read(ds, addr));
        self.emitted += 1;
    }
}

const TARGET: DsId = DsId(0);
const OTHER: DsId = DsId(1);

/// Predict `N_ha` for one resolved pattern under a cache view.
///
/// Deterministic in (pattern, `data_bytes`, view geometry, model): the
/// synthetic stream is seeded from the pattern parameters alone.
pub fn predict_pattern(
    model: &NhaModel,
    pattern: &PatternSpec,
    data_bytes: u64,
    view: &CacheView,
) -> f64 {
    let config = effective_config(view);
    let line = config.line_bytes as u64;
    let mut s = SynthStream::new(MAX_SYNTH_REFS);

    // `natural` counts the target references the un-truncated pattern
    // would issue; the prediction on the truncated stream scales by
    // natural / emitted-target.
    let natural: u64 = match pattern {
        PatternSpec::Streaming {
            element_bytes,
            count,
            stride_elements,
        } => {
            let step = (element_bytes * stride_elements.max(&1)).max(1);
            for i in 0..*count {
                if s.full() {
                    break;
                }
                s.emit(TARGET, i * step);
            }
            *count
        }
        PatternSpec::Random {
            elements,
            element_bytes,
            k,
            iters,
            ..
        } => {
            let e = (*element_bytes).max(1);
            // Construction pass: every element is touched once.
            for i in 0..*elements {
                if s.full() {
                    break;
                }
                s.emit(TARGET, i * e);
            }
            // Visit phase: k uniform picks per iteration, seeded from
            // the pattern parameters (not wall clock), so the same spec
            // always featurizes identically.
            let mut rng = SplitMix64(elements ^ (k << 24) ^ (iters << 48) | 1);
            'outer: for _ in 0..*iters {
                for _ in 0..*k {
                    if s.full() {
                        break 'outer;
                    }
                    let idx = if *elements == 0 {
                        0
                    } else {
                        rng.next() % *elements
                    };
                    s.emit(TARGET, idx * e);
                }
            }
            elements.saturating_add(k.saturating_mul(*iters))
        }
        PatternSpec::Template {
            element_bytes,
            refs,
            repeat,
        } => {
            let e = (*element_bytes).max(1);
            'outer: for _ in 0..*repeat {
                for r in refs.iter() {
                    if s.full() {
                        break 'outer;
                    }
                    s.emit(TARGET, r * e);
                }
            }
            refs.len().saturating_mul(*repeat)
        }
        PatternSpec::Reuse {
            interfering_bytes,
            reuses,
            scenario,
        } => {
            let target_blocks = data_bytes.div_ceil(line).max(1);
            let other_blocks = interfering_bytes.div_ceil(line);
            // Initial load of the target.
            for b in 0..target_blocks {
                if s.full() {
                    break;
                }
                s.emit(TARGET, b * line);
            }
            let mut other_cursor = 0u64;
            'outer: for _ in 0..*reuses {
                match scenario {
                    // Exclusive: the interference runs to completion
                    // between target passes.
                    ReuseScenario::Exclusive => {
                        for b in 0..other_blocks {
                            if s.full() {
                                break 'outer;
                            }
                            s.emit(OTHER, INTERFERING_BASE + b * line);
                        }
                        for b in 0..target_blocks {
                            if s.full() {
                                break 'outer;
                            }
                            s.emit(TARGET, b * line);
                        }
                    }
                    // Concurrent: interfering blocks interleave with the
                    // target pass, cycling through the whole interfering
                    // footprint.
                    ReuseScenario::Concurrent => {
                        for b in 0..target_blocks {
                            if s.full() {
                                break 'outer;
                            }
                            if other_blocks > 0 {
                                s.emit(
                                    OTHER,
                                    INTERFERING_BASE + (other_cursor % other_blocks) * line,
                                );
                                other_cursor += 1;
                                if s.full() {
                                    break 'outer;
                                }
                            }
                            s.emit(TARGET, b * line);
                        }
                    }
                }
            }
            target_blocks.saturating_mul(reuses.saturating_add(1))
        }
    };

    let fv = s.sink.finish().ds(TARGET);
    if fv.accesses == 0 || natural == 0 {
        return 0.0;
    }
    dvf_obs::add("learn.predict.refs", fv.accesses);
    let scale = natural as f64 / fv.accesses as f64;
    model.predict(&fv, config) * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvf_learn::{ErrorBound, FEATURE_DIM};

    fn intercept_model() -> NhaModel {
        NhaModel {
            seed: 1,
            smoke: true,
            samples: 1,
            folds: 2,
            lambda: 1e-3,
            weights: [0.0; FEATURE_DIM],
            stumps: Vec::new(),
            bound: ErrorBound {
                max_rel_err: 0.0,
                p95_rel_err: 0.0,
                mean_rel_err: 0.0,
            },
        }
    }

    fn view() -> CacheView {
        CacheView::exclusive(CacheConfig::new(8, 512, 64).unwrap())
    }

    #[test]
    fn prediction_is_deterministic() {
        let model = intercept_model();
        let p = PatternSpec::Random {
            elements: 4096,
            element_bytes: 8,
            k: 16,
            iters: 100,
            ratio: 1.0,
        };
        let a = predict_pattern(&model, &p, 4096 * 8, &view());
        let b = predict_pattern(&model, &p, 4096 * 8, &view());
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a.is_finite() && a >= 0.0);
    }

    #[test]
    fn streaming_beyond_cache_predicts_near_cold_misses() {
        // With zero weights and no stumps the model answers exactly the
        // reuse-distance estimate: a contiguous stream far larger than
        // the cache is all cold misses at line granularity.
        let model = intercept_model();
        let n = 1u64 << 16;
        let p = PatternSpec::Streaming {
            element_bytes: 8,
            count: n,
            stride_elements: 1,
        };
        let predicted = predict_pattern(&model, &p, n * 8, &view());
        let lines = (n * 8) / 64;
        let rel = (predicted - lines as f64).abs() / lines as f64;
        assert!(rel < 0.05, "predicted {predicted}, expected ≈{lines}");
    }

    #[test]
    fn truncation_scales_linearly() {
        // A stream 4× the cap must predict ≈4× the capped stream's
        // misses (the scale factor at work).
        let model = intercept_model();
        let small = PatternSpec::Streaming {
            element_bytes: 8,
            count: MAX_SYNTH_REFS,
            stride_elements: 8,
        };
        let big = PatternSpec::Streaming {
            element_bytes: 8,
            count: 4 * MAX_SYNTH_REFS,
            stride_elements: 8,
        };
        let ps = predict_pattern(&model, &small, MAX_SYNTH_REFS * 8, &view());
        let pb = predict_pattern(&model, &big, 4 * MAX_SYNTH_REFS * 8, &view());
        let ratio = pb / ps;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn sharing_ratio_shrinks_the_geometry() {
        let full = CacheView::exclusive(CacheConfig::new(8, 512, 64).unwrap());
        let half = CacheView::shared(full.config, 0.5);
        assert_eq!(effective_config(&full).num_sets, 512);
        assert_eq!(effective_config(&half).num_sets, 256);
        let sliver = CacheView::shared(full.config, 1e-6);
        assert_eq!(effective_config(&sliver).num_sets, 1);
    }
}
