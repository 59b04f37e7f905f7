//! # dvf-core
//!
//! Analytical modeling of application resilience with the **Data
//! Vulnerability Factor** — a from-scratch reproduction of
//! *Yu, Li, Mittal, Vetter: "Quantitatively Modeling Application Resilience
//! with the Data Vulnerability Factor", SC 2014*.
//!
//! DVF quantifies how vulnerable an individual *data structure* is to main
//! memory errors, combining hardware effects (the failure rate) with
//! application effects (execution time, footprint, and — crucially — the
//! number of main-memory accesses the structure causes after cache
//! filtering):
//!
//! ```text
//! DVF_d = FIT · T · S_d · N_ha
//! DVF_a = Σ DVF_d
//! ```
//!
//! The crate provides:
//!
//! * [`patterns`] — the four CGPMAC access-pattern models (streaming,
//!   random, template-based, data reuse) that estimate `N_ha` analytically
//!   from the last-level-cache geometry, in microseconds instead of the
//!   hours a trace-driven simulation takes;
//! * [`dvf`] — the metric itself, per structure and per application;
//! * [`fit`] — failure rates with and without ECC (paper Table VII);
//! * [`timemodel`] — an Aspen-style roofline time model supplying `T`;
//! * [`sweep`] — trade-off sweeps (ECC protection vs. performance,
//!   parallel parameter grids);
//! * [`workflow`] — the Fig. 3 pipeline: evaluate a resilience-extended
//!   Aspen program (parsed by `dvf-aspen`) into a [`dvf::DvfReport`];
//! * [`estimator`] — [`NhaEstimator`], the one memoized pattern → `N_ha`
//!   step: the closed forms, or a learned model ([`predict`]);
//! * [`memo`] — the process-wide pattern-evaluation cache that makes
//!   repeated sweep-grid evaluations cheap;
//! * [`comb`] — the log-space combinatorics underpinning the probability
//!   models.
//!
//! ## Quick example: DVF of a streamed vector
//!
//! ```
//! use dvf_core::patterns::{CacheView, StreamingSpec};
//! use dvf_core::dvf::{DataStructureProfile, DvfReport};
//! use dvf_core::fit::{EccScheme, FitRate};
//! use dvf_cachesim::config::table4;
//!
//! let cache = CacheView::exclusive(table4::PROFILE_8MB);
//! let spec = StreamingSpec { element_bytes: 8, num_elements: 100_000, stride_elements: 1 };
//! let n_ha = spec.mem_accesses(&cache).unwrap();
//!
//! let report = DvfReport::compute(
//!     "vm",
//!     FitRate::of(EccScheme::None),
//!     0.5, // seconds
//!     vec![DataStructureProfile::new("A", 100_000 * 8, n_ha)],
//! );
//! assert!(report.dvf_app() > 0.0);
//! ```

pub mod comb;
pub mod domain;
pub mod dvf;
pub mod estimator;
pub mod fit;
pub mod gridplan;
pub mod memo;
pub mod patterns;
pub mod predict;
pub mod protect;
pub mod sweep;
pub mod timemodel;
pub mod workflow;

pub use dvf::{dvf_d, n_error, DataStructureProfile, DvfReport, WeightedDvf};
pub use estimator::NhaEstimator;
pub use fit::{EccScheme, FitRate};
pub use patterns::{
    CacheView, InterferenceScenario, ModelError, RandomSpec, ReuseSpec, StreamingSpec, TemplateSpec,
};
pub use timemodel::{MachineModel, ResourceDemand};
pub use workflow::{evaluate_hierarchy, HierarchyDvf, WorkflowError};
