//! The four CGPMAC memory-access-pattern models (paper §III-B/C).
//!
//! CGPMAC — *coarse grained, pseudocode-based memory access accounting* —
//! estimates the number of main-memory accesses (`N_ha`) a data structure
//! causes, from a high-level description of its access pattern plus the
//! last-level cache geometry. The paper classifies all HPC kernel accesses
//! into four composable patterns:
//!
//! | pattern | paper symbol | module |
//! |---------|--------------|--------|
//! | streaming        | `s` | [`streaming`] |
//! | random           | `r` | [`random`]    |
//! | template-based   | `t` | [`template`]  |
//! | data reuse       | `d` | [`reuse`]     |
//!
//! Every model consumes a [`CacheView`] — the LLC geometry of paper
//! Table III, optionally scaled by the cache-sharing ratio `r` used to
//! model interference between concurrently accessed data structures
//! ("Each data structure gets only a fraction of the cache according to
//! its size", §III-C).

pub mod random;
pub mod reuse;
pub mod streaming;
pub mod template;

pub use random::RandomSpec;
pub use reuse::{InterferenceScenario, ReuseSpec};
pub use streaming::StreamingSpec;
pub use template::TemplateSpec;

use dvf_aspen::{PatternSpec, ReuseScenario};
use dvf_cachesim::CacheConfig;

/// A data structure's view of the last-level cache: the full geometry plus
/// the fraction `r` of it this structure may occupy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheView {
    /// LLC geometry (`CA`, `NA`, `CL`, and derived `Cc`).
    pub config: CacheConfig,
    /// Cache-sharing ratio `r ∈ (0, 1]`: the fraction of cache blocks this
    /// data structure competes for. `1.0` means exclusive use.
    pub ratio: f64,
}

impl CacheView {
    /// Exclusive view (`r = 1`).
    pub fn exclusive(config: CacheConfig) -> Self {
        Self { config, ratio: 1.0 }
    }

    /// Shared view with ratio `r`.
    ///
    /// # Panics
    /// If `ratio` is not in `(0, 1]`.
    pub fn shared(config: CacheConfig, ratio: f64) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "cache ratio must be in (0, 1], got {ratio}"
        );
        Self { config, ratio }
    }

    /// Effective capacity in bytes (`Cc * r`).
    pub fn effective_capacity(&self) -> f64 {
        self.config.capacity() as f64 * self.ratio
    }

    /// Effective number of cache blocks (`CA * NA * r`).
    pub fn effective_blocks(&self) -> f64 {
        self.config.num_blocks() as f64 * self.ratio
    }

    /// Line length `CL` in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.config.line_bytes as u64
    }
}

/// Errors raised by the pattern models on invalid specifications.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A parameter that must be nonzero was zero.
    ZeroParameter(&'static str),
    /// `k` (distinct elements visited per iteration) exceeded `N`.
    KExceedsN {
        /// Provided `k`.
        k: u64,
        /// Provided `N`.
        n: u64,
    },
    /// Cache ratio outside `(0, 1]`.
    BadRatio(f64),
    /// Stride smaller than one element (the paper assumes `S ≥ E`).
    StrideBelowElement {
        /// Stride in bytes.
        stride: u64,
        /// Element size in bytes.
        element: u64,
    },
    /// Empty template.
    EmptyTemplate,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::ZeroParameter(p) => write!(f, "parameter {p} must be nonzero"),
            ModelError::KExceedsN { k, n } => {
                write!(f, "k = {k} distinct elements per iteration exceeds N = {n}")
            }
            ModelError::BadRatio(r) => write!(f, "cache ratio must be in (0, 1], got {r}"),
            ModelError::StrideBelowElement { stride, element } => write!(
                f,
                "stride ({stride} B) must be at least the element size ({element} B)"
            ),
            ModelError::EmptyTemplate => write!(f, "template must contain at least one reference"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Closed-form `N_ha` of one resolved access pattern on a structure of
/// `size_bytes` bytes under `view`: the pattern's model above, fed the
/// resolved parameters. The learned counterpart is
/// [`crate::predict::predict_pattern`].
pub fn closed_form(
    pattern: &PatternSpec,
    size_bytes: u64,
    view: &CacheView,
) -> Result<f64, ModelError> {
    match pattern {
        PatternSpec::Streaming {
            element_bytes,
            count,
            stride_elements,
        } => StreamingSpec {
            element_bytes: *element_bytes,
            num_elements: *count,
            stride_elements: *stride_elements,
        }
        .mem_accesses(view),
        PatternSpec::Random {
            elements,
            element_bytes,
            k,
            iters,
            ratio,
        } => RandomSpec {
            num_elements: *elements,
            element_bytes: *element_bytes,
            k: *k,
            iterations: *iters,
            ratio: *ratio,
        }
        .mem_accesses(view),
        PatternSpec::Template {
            element_bytes,
            refs,
            repeat,
        } => template::mem_accesses(*element_bytes, refs, view, *repeat),
        PatternSpec::Reuse {
            interfering_bytes,
            reuses,
            scenario,
        } => ReuseSpec::from_bytes(
            size_bytes,
            *interfering_bytes,
            *reuses,
            match scenario {
                ReuseScenario::Exclusive => InterferenceScenario::Exclusive,
                ReuseScenario::Concurrent => InterferenceScenario::Concurrent,
            },
            view.line_bytes(),
        )
        .mem_accesses(view),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvf_cachesim::config::table4;

    #[test]
    fn cache_view_effective_scaling() {
        let v = CacheView::shared(table4::SMALL_VERIFICATION, 0.5);
        assert_eq!(v.effective_capacity(), 4.0 * 1024.0);
        assert_eq!(v.effective_blocks(), 128.0);
        assert_eq!(v.line_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "cache ratio")]
    fn cache_view_rejects_bad_ratio() {
        let _ = CacheView::shared(table4::SMALL_VERIFICATION, 0.0);
    }
}
