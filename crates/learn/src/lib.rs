//! # dvf-learn
//!
//! A PARIS-style *learned* `N_ha` predictor (Guo et al., PAPERS.md): instead
//! of a closed-form CGPMAC model or a full cache simulation, predict the
//! main-memory access count of a data structure from cheap stream features
//! with a small, deterministic, pure-std model.
//!
//! The crate turns the repo's three pillars into an ML pipeline:
//!
//! * **Feature source** — [`FeatureSink`] implements
//!   [`TraceSink`](dvf_kernels::TraceSink), so features are computed
//!   *in-stream*: recorded into a `(Fanout, FeatureSink)` pair, one pass
//!   feeds the simulators and the featurizer with no trace materialized.
//!   The features are log-bucketed reuse-distance histograms (Olken-style
//!   Fenwick tree over a bounded window, at 32 B and 64 B block granularity),
//!   a stride histogram with entropy, unique-footprint counts, and per-data-
//!   structure access/read/write counts. The fixed-width result is a
//!   [`FeatureVector`] with the versioned schema [`FEATURE_SCHEMA`].
//! * **Label source** — the differential-oracle workload generators replayed
//!   through the cache simulator (see `dvf-difftest::learndata`), yielding
//!   simulator-ground-truth miss counts per (workload, geometry).
//! * **Validation harness** — k-fold cross-validation over the oracle grid;
//!   the held-out error distribution is embedded in the model artifact as
//!   its [`ErrorBound`] and shipped with every prediction.
//!
//! The model itself ([`NhaModel`]) is ridge regression over engineered
//! (feature, geometry) inputs plus tiny gradient-boosted stumps on the
//! residuals — all seeded and deterministic: training twice with the same
//! seed reproduces the serialized model byte for byte.

pub mod features;
pub mod model;
pub mod train;

pub use features::{
    FeatureSet, FeatureSink, FeatureVector, FEATURE_SCHEMA, RD_BUCKETS, STRIDE_BUCKETS,
};
pub use model::{assemble, ErrorBound, ModelError, NhaModel, Stump, FEATURE_DIM, MODEL_SCHEMA};
pub use train::{train, CvReport, Dataset, Sample, TrainConfig};
