//! `NhaEstimator`: memo key spaces and the learned path through
//! `DvfWorkflow`.
//!
//! The workflow test reads the process-wide memo tallies, so it is the
//! only test in this binary that evaluates anything.

use dvf_aspen::PatternSpec;
use dvf_cachesim::CacheConfig;
use dvf_core::memo::{self, EstimatorKey, EvalKey, PatternKey, ViewKey};
use dvf_core::workflow::DvfWorkflow;
use dvf_core::{CacheView, DvfReport, NhaEstimator};
use dvf_learn::{ErrorBound, NhaModel, FEATURE_DIM};
use std::sync::Arc;

/// A model with zero weights and no stumps: it answers the
/// reuse-distance estimate, which differs from the closed forms.
fn learned(seed: u64) -> NhaEstimator {
    NhaEstimator::Learned(Arc::new(NhaModel {
        seed,
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
    }))
}

fn streaming(count: u64) -> PatternSpec {
    PatternSpec::Streaming {
        element_bytes: 8,
        count,
        stride_elements: 1,
    }
}

fn key(estimator: &NhaEstimator, pattern: &PatternSpec) -> EvalKey {
    let view = CacheView::exclusive(CacheConfig::new(4, 64, 32).unwrap());
    EvalKey {
        estimator: EstimatorKey::of(estimator),
        pattern: PatternKey::of(pattern, 800),
        view: ViewKey::of(&view),
    }
}

#[test]
fn learned_keys_separate_models_and_patterns() {
    let p = streaming(100);
    let m1 = learned(1);
    assert_eq!(key(&m1, &p), key(&learned(1), &p));
    // Models that differ only in their training seed.
    assert_ne!(key(&m1, &p), key(&learned(9), &p));
    // Patterns that differ only in their count.
    assert_ne!(key(&m1, &p), key(&m1, &streaming(101)));
    // Learned and closed-form numbers never share an entry.
    assert_ne!(key(&m1, &p), key(&NhaEstimator::ClosedForm, &p));
}

const MODEL: &str = r#"
    machine m {
      cache { associativity = 4  sets = 64  line = 32 }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model all_patterns {
      param n = 512
      data S { size = n * 8  element = 8 }
      data G { size = n * 16  element = 16 }
      data E { size = 2 * n * 16  element = 16 }
      data T { size = 64 * 8  element = 8 }
      data P { size = 32 * 8  element = 8 }
      kernel stream { access S as streaming(stride = 2) }
      kernel lookup {
        access G as random(k = 4, iters = n)
        access E as random(k = 2, iters = n)
        order { (G E) }
      }
      kernel stencil {
        access T as template(refs = (0, 8, 1, 9, 2, 10), repeat = 3)
        access P as reuse(interfering = n * 8, reuses = 3, scenario = concurrent)
      }
    }
"#;

/// Every number a report carries, as exact bits.
fn bits(report: &DvfReport) -> Vec<u64> {
    let mut out = vec![report.time_s.to_bits()];
    for (profile, dvf) in &report.structures {
        out.push(profile.n_ha.to_bits());
        out.push(dvf.to_bits());
    }
    out
}

#[test]
fn estimator_swap_keeps_closed_form_reports_bit_identical() {
    let closed = DvfWorkflow::parse(MODEL).unwrap();
    let learned = closed.clone().with_estimator(learned(1));

    let first = closed.evaluate(&[]).unwrap();
    let before = memo::stats();
    let predicted = learned.evaluate(&[]).unwrap();
    let cold = memo::stats().since(&before);
    let again = closed.evaluate(&[]).unwrap();

    assert_eq!(bits(&first), bits(&again));
    assert_ne!(bits(&first), bits(&predicted));
    // The learned run computed its own numbers rather than reading the
    // closed forms' entries.
    assert!(cold.misses > 0, "{cold:?}");

    let before = memo::stats();
    let repeat = learned.evaluate(&[]).unwrap();
    let warm = memo::stats().since(&before);
    assert_eq!(bits(&predicted), bits(&repeat));
    assert_eq!(warm.misses, 0, "{warm:?}");
    assert!(warm.hits > 0, "{warm:?}");
}
