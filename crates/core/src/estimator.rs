//! The CGPMAC estimator (paper §III-C): a resolved access pattern and a
//! cache view in, `N_ha` out — from the closed forms
//! ([`crate::patterns::closed_form`]) or from a trained `dvf-learn` model
//! ([`crate::predict`], `--predict`), memoized either way.

use crate::memo::{self, EstimatorKey, EvalKey, PatternKey, ViewKey};
use crate::patterns::{closed_form, CacheView, ModelError};
use crate::predict::predict_pattern;
use dvf_aspen::PatternSpec;
use dvf_learn::NhaModel;
use std::sync::Arc;

/// Where `N_ha` comes from. Chosen once per [`crate::workflow::DvfWorkflow`]
/// (`with_estimator`) and threaded through every accounting path.
#[derive(Debug, Clone, Default)]
pub enum NhaEstimator {
    /// The closed-form CGPMAC models (paper Eqs. 3–15).
    #[default]
    ClosedForm,
    /// A trained predictor, shared by `Arc` so sweeps clone workflows
    /// across workers without copying the model.
    Learned(Arc<NhaModel>),
}

impl NhaEstimator {
    /// `N_ha` of `pattern` on a structure of `size_bytes` bytes under
    /// `view`, through the process-wide memo cache.
    pub fn n_ha(
        &self,
        pattern: &PatternSpec,
        size_bytes: u64,
        view: &CacheView,
    ) -> Result<f64, ModelError> {
        let key = EvalKey {
            estimator: EstimatorKey::of(self),
            pattern: PatternKey::of(pattern, size_bytes),
            view: ViewKey::of(view),
        };
        dvf_obs::add(key.pattern.counter(), 1);
        match self {
            NhaEstimator::ClosedForm => {
                memo::evaluate(key, || closed_form(pattern, size_bytes, view))
            }
            NhaEstimator::Learned(model) => {
                dvf_obs::add("pattern.predicted", 1);
                memo::evaluate(key, || {
                    Ok(predict_pattern(model, pattern, size_bytes, view))
                })
            }
        }
    }
}
