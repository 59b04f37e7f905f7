//! Random access pattern (paper §III-C, Eqs. 5–7).
//!
//! Models loop-based computations that visit `k` distinct, randomly chosen
//! elements of an `N`-element structure on each of `iter` iterations
//! (Barnes-Hut tree walks, Monte-Carlo cross-section lookups). The cache
//! holds `m = Cc·r/E` elements; the number of visited elements that are
//! resident follows the hypergeometric distribution of Eq. 5, and `X_E`
//! (Eq. 6) is the expected number that are *not*. That expectation is
//! `k` minus the hypergeometric mean, so it costs O(1) however large `N`,
//! `k` or the cache are. The paper's explicit Eq. 6 sum is kept as the
//! test oracle below.

use super::{CacheView, ModelError};
use crate::comb::hypergeometric_mean;

/// Specification of a random access pattern, matching the paper's Aspen
/// parameter tuple `(N, E, k, iter, r)` — e.g. `{(1000, 32, 200, 1000,
/// 1.0)}` for the Barnes-Hut tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSpec {
    /// Number of elements `N` in the target data structure.
    pub num_elements: u64,
    /// Element size `E` in bytes.
    pub element_bytes: u64,
    /// Average number of distinct elements visited per iteration (`k`).
    pub k: u64,
    /// Number of iterations (`iter`).
    pub iterations: u64,
    /// Cache-sharing ratio `r` — fraction of the cache available to this
    /// structure when several structures are accessed concurrently.
    pub ratio: f64,
}

/// Decomposition of the random-model estimate, for inspection and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomBreakdown {
    /// Compulsory misses of the construction phase: `⌈E·N/CL⌉`.
    pub initial_loads: f64,
    /// Expected visited-but-evicted elements per iteration (`X_E`, Eq. 6).
    pub expected_missing: f64,
    /// Cache blocks reloaded per iteration (`B_reload`, Eq. 7).
    pub reload_per_iter: f64,
    /// Grand total over `iter` iterations.
    pub total: f64,
}

impl RandomSpec {
    /// Validate parameters.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.num_elements == 0 {
            return Err(ModelError::ZeroParameter("num_elements"));
        }
        if self.element_bytes == 0 {
            return Err(ModelError::ZeroParameter("element_bytes"));
        }
        if self.k > self.num_elements {
            return Err(ModelError::KExceedsN {
                k: self.k,
                n: self.num_elements,
            });
        }
        if !(self.ratio > 0.0 && self.ratio <= 1.0) {
            return Err(ModelError::BadRatio(self.ratio));
        }
        Ok(())
    }

    /// Expected number of main-memory accesses (Eqs. 5–7), with the
    /// intermediate quantities exposed.
    ///
    /// The spec's own `ratio` overrides the view's ratio when the view is
    /// exclusive; if both are shared the products compose.
    pub fn breakdown(&self, cache: &CacheView) -> Result<RandomBreakdown, ModelError> {
        self.validate()?;
        let n = self.num_elements;
        let e = self.element_bytes;
        let cl = cache.line_bytes();
        let r = self.ratio * cache.ratio;
        let cc = cache.config.capacity() as f64;

        let initial_loads = (e * n).div_ceil(cl) as f64;

        // Case 1: the whole structure fits its cache share -> compulsory
        // misses only.
        let m = (cc * r / e as f64).floor() as u64; // elements resident at once
        if (e * n) as f64 <= cc * r {
            return Ok(RandomBreakdown {
                initial_loads,
                expected_missing: 0.0,
                reload_per_iter: 0.0,
                total: initial_loads,
            });
        }

        // Case 2: structure exceeds its share. Eq. 5/6: expected number of
        // the k visited elements that are not among the m resident ones.
        let expected_missing = expected_not_in_cache(n, self.k, m);

        // Convert missing elements to cache blocks (B_elm).
        let b_elm = if cl < e {
            e.div_ceil(cl) as f64 * expected_missing
        } else {
            expected_missing
        };
        // Upper bound: blocks of the structure that are out of cache
        // (B_out = E*N/CL - CA*NA*r).
        let total_blocks = (e * n) as f64 / cl as f64;
        let b_out = (total_blocks - cache.config.num_blocks() as f64 * r).max(0.0);
        let reload_per_iter = b_elm.min(b_out);

        let total = initial_loads + reload_per_iter * self.iterations as f64;
        Ok(RandomBreakdown {
            initial_loads,
            expected_missing,
            reload_per_iter,
            total,
        })
    }

    /// Expected number of main-memory accesses (`N_ha`).
    pub fn mem_accesses(&self, cache: &CacheView) -> Result<f64, ModelError> {
        Ok(self.breakdown(cache)?.total)
    }
}

/// `X_E` of Eq. 6: expected number of `k` visited elements that are absent
/// from a cache holding `m` uniformly random elements of `N`.
///
/// The paper writes this as `Σ x·P(X = x)` over the hypergeometric pmf of
/// Eq. 5. With `X = k − J` and `J ~ Hypergeom(N, k, m)` the visited
/// elements that are resident, the sum is exactly `k − E[J] = k·(1 − m/N)`.
/// Evaluating the sum instead costs `min(k, m, N − m)` log-gamma terms and
/// loses precision to cancellation at large `N`.
pub fn expected_not_in_cache(n: u64, k: u64, m: u64) -> f64 {
    if m >= n {
        return 0.0;
    }
    k as f64 - hypergeometric_mean(n, k, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::hypergeometric_pmf;
    use dvf_cachesim::config::table4;
    use dvf_cachesim::CacheConfig;
    use proptest::prelude::*;

    /// The paper's Eq. 6 as written: `Σ_{x ≥ 1} x·P(X = x)` with
    /// `P(X = x) = P(J = k − x)` from the hypergeometric pmf of Eq. 5.
    fn eq6_sum(n: u64, k: u64, m: u64) -> f64 {
        if m >= n {
            return 0.0;
        }
        let hi = (n - m).min(k);
        (1..=hi)
            .map(|x| x as f64 * hypergeometric_pmf(n, k, m, k - x))
            .sum()
    }

    #[test]
    fn closed_form_matches_sum() {
        // (N, k, m, exact X_E): interior points, then k = 0, k = N, the
        // truncated support k > N − m (at least k − (N − m) visited
        // elements are resident whatever the draw), and m ≥ N.
        for (n, k, m, exact) in [
            (100u64, 10u64, 40u64, 6.0),
            (1000, 200, 128, 174.4),
            (50, 50, 10, 40.0),
            (1000, 0, 500, 0.0),
            (1000, 1000, 300, 700.0),
            (1000, 600, 700, 180.0),
            (100, 10, 150, 0.0),
        ] {
            let sum = eq6_sum(n, k, m);
            let closed = expected_not_in_cache(n, k, m);
            assert!(
                (closed - exact).abs() < 1e-12 * exact.max(1.0),
                "n={n} k={k} m={m}: closed {closed} vs exact {exact}"
            );
            assert!(
                (sum - closed).abs() < 1e-9 * closed.max(1.0),
                "n={n} k={k} m={m}: sum {sum} vs closed {closed}"
            );
        }
    }

    /// Worst `|closed − sum| / max(closed, 1)` over 20 000 cases of
    /// `eq6_sum_oracle` (`PROPTEST_CASES=20000`) was 4.8e-9, at N ≈ 10⁶;
    /// the bound leaves 2× headroom. The closed form is the exact
    /// expectation, so the gap is the sum's log-gamma cancellation error.
    const SUM_TOL: f64 = 1e-8;

    /// `(N, k, m)` with `N ≤ 10⁶` log-uniform and `k ≤ min(N, 2·10⁴)`
    /// (`k = 0` and `k = min(N, 2·10⁴)` forced a quarter of the time
    /// each), and `m` drawn from four regimes: an empty cache, `0 < m < N`,
    /// the truncated support `N − m < k < N`, and `m ≥ N`.
    fn nkm() -> impl Strategy<Value = (u64, u64, u64)> {
        (0.0f64..6.0, 0u8..4, 0.0f64..1.0, 0u8..4, 0.0f64..1.0).prop_map(
            |(n_exp, k_kind, kf, m_kind, mf)| {
                let n = 10f64.powf(n_exp).round() as u64;
                let k_max = n.min(20_000);
                let k = match k_kind {
                    0 => 0,
                    1 => k_max,
                    _ => (kf * k_max as f64) as u64,
                };
                let m = match m_kind {
                    0 => 0,
                    1 => n + (mf * n as f64) as u64,
                    2 if k >= 2 => n - k + 1 + (mf * (k - 2) as f64) as u64,
                    _ if n >= 2 => 1 + (mf * (n - 2) as f64) as u64,
                    _ => 0,
                };
                (n, k, m)
            },
        )
    }

    proptest! {
        #[test]
        fn eq6_sum_oracle(nkm in nkm()) {
            let (n, k, m) = nkm;
            let closed = expected_not_in_cache(n, k, m);
            let sum = eq6_sum(n, k, m);
            prop_assert!(
                (closed - sum).abs() <= SUM_TOL * closed.max(1.0),
                "N={n} k={k} m={m}: closed {closed} vs sum {sum}"
            );
        }
    }

    #[test]
    fn large_structure_x_e_is_the_exact_mean() {
        // N = 10⁹ elements of 8 B, k = 10⁸ visited per iteration, 8 MiB
        // cache (16 ways × 8192 sets × 64 B): m = 2²⁰ resident elements.
        // The explicit sum gives 99 895 370.6 here, 2.3e-6 above the exact
        // 99 895 142.4, which shows in the printed DVF.
        let (n, k, m) = (1_000_000_000u64, 100_000_000u64, 1u64 << 20);
        let spec = RandomSpec {
            num_elements: n,
            element_bytes: 8,
            k,
            iterations: 1,
            ratio: 1.0,
        };
        let cache = CacheView::exclusive(table4::PROFILE_8MB);
        let b = spec.breakdown(&cache).unwrap();
        let exact = k as f64 - m as f64 * k as f64 / n as f64;
        assert_eq!(b.expected_missing.to_bits(), exact.to_bits());
    }

    #[test]
    fn fits_in_cache_only_compulsory() {
        // 1000 elements * 32 B = 32 KB <= 4 MB cache.
        let spec = RandomSpec {
            num_elements: 1000,
            element_bytes: 32,
            k: 200,
            iterations: 1000,
            ratio: 1.0,
        };
        let cache = CacheView::exclusive(table4::LARGE_VERIFICATION);
        let b = spec.breakdown(&cache).unwrap();
        assert_eq!(b.reload_per_iter, 0.0);
        assert_eq!(b.total, (1000.0f64 * 32.0 / 64.0).ceil());
    }

    #[test]
    fn paper_barnes_hut_small_cache() {
        // Paper NB example on the small verification cache (8 KB):
        // 1000 nodes of 32 B = 32 KB > 8 KB -> reloads happen.
        let spec = RandomSpec {
            num_elements: 1000,
            element_bytes: 32,
            k: 200,
            iterations: 1000,
            ratio: 1.0,
        };
        let cache = CacheView::exclusive(table4::SMALL_VERIFICATION);
        let b = spec.breakdown(&cache).unwrap();
        // m = 8192/32 = 256 resident elements; X_E = 200*(1-256/1000) = 148.8
        assert!((b.expected_missing - 148.8).abs() < 1e-6);
        // CL = E = 32: B_elm = X_E. B_out = 1000 - 256 = 744. min -> 148.8.
        assert!((b.reload_per_iter - 148.8).abs() < 1e-6);
        assert!((b.total - (1000.0 + 148.8 * 1000.0)).abs() < 1e-3);
    }

    #[test]
    fn reload_capped_by_out_of_cache_blocks() {
        // Tiny structure barely exceeding the cache: B_out caps the reload.
        // Cache: 1 set, 4 ways, 64 B lines = 256 B. Structure: 5 elements
        // of 64 B = 320 B; m = 4; B_out = 5 - 4 = 1.
        let cfg = CacheConfig::new(4, 1, 64).unwrap();
        let spec = RandomSpec {
            num_elements: 5,
            element_bytes: 64,
            k: 5,
            iterations: 10,
            ratio: 1.0,
        };
        let b = spec.breakdown(&CacheView::exclusive(cfg)).unwrap();
        // X_E = 5*(1-4/5) = 1. B_elm = 1 (CL == E). B_out = 1. reload = 1.
        assert!((b.reload_per_iter - 1.0).abs() < 1e-9);
        assert_eq!(b.total, 5.0 + 10.0);
    }

    #[test]
    fn ratio_shrinks_effective_cache() {
        let spec_full = RandomSpec {
            num_elements: 4096,
            element_bytes: 8,
            k: 512,
            iterations: 100,
            ratio: 1.0,
        };
        let spec_half = RandomSpec {
            ratio: 0.5,
            ..spec_full
        };
        let cache = CacheView::exclusive(table4::PROFILE_16KB);
        let full = spec_full.mem_accesses(&cache).unwrap();
        let half = spec_half.mem_accesses(&cache).unwrap();
        assert!(
            half > full,
            "halving the cache share must increase memory accesses ({half} !> {full})"
        );
    }

    #[test]
    fn large_elements_multiply_blocks() {
        // E = 128 > CL = 64: each missing element needs 2 blocks.
        let cfg = CacheConfig::new(4, 4, 64).unwrap(); // 1 KiB
        let spec = RandomSpec {
            num_elements: 64,
            element_bytes: 128,
            k: 32,
            iterations: 1,
            ratio: 1.0,
        };
        let b = spec.breakdown(&CacheView::exclusive(cfg)).unwrap();
        // m = 1024/128 = 8; X_E = 32*(1-8/64) = 28; B_elm = 2*28 = 56;
        // B_out = 128 - 16 = 112; reload = 56.
        assert!((b.reload_per_iter - 56.0).abs() < 1e-9);
    }

    #[test]
    fn validation_errors() {
        let base = RandomSpec {
            num_elements: 10,
            element_bytes: 8,
            k: 4,
            iterations: 1,
            ratio: 1.0,
        };
        assert!(RandomSpec { k: 11, ..base }.validate().is_err());
        assert!(RandomSpec { ratio: 0.0, ..base }.validate().is_err());
        assert!(RandomSpec { ratio: 1.5, ..base }.validate().is_err());
        assert!(RandomSpec {
            num_elements: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(RandomSpec {
            element_bytes: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(base.validate().is_ok());
    }

    #[test]
    fn more_iterations_more_accesses() {
        let cache = CacheView::exclusive(table4::SMALL_VERIFICATION);
        let mk = |iterations| RandomSpec {
            num_elements: 2000,
            element_bytes: 32,
            k: 100,
            iterations,
            ratio: 1.0,
        };
        let a = mk(10).mem_accesses(&cache).unwrap();
        let b = mk(100).mem_accesses(&cache).unwrap();
        assert!(b > a);
    }
}
