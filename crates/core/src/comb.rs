//! Exact-to-double-precision combinatorics in log space.
//!
//! The data-reuse model (paper Eqs. 8 and 12) needs binomial coefficients
//! with arguments up to the number of elements in a data structure (10⁵
//! and beyond for the profiling inputs of Table VI). Those overflow `f64`
//! catastrophically if evaluated directly, so every probability here is
//! assembled from log-gamma. The random-access model needs only the
//! hypergeometric mean; its pmf (Eq. 5) is the test oracle for Eq. 6.
//!
//! Eq. 12 additionally evaluates a "binomial coefficient" at a *non-integer*
//! first argument (the expected combined footprint `I`); the gamma-function
//! continuation handles that uniformly.

/// Natural log of the gamma function, Lanczos approximation (g = 7, 9
/// coefficients). Accurate to ~15 significant digits for `x > 0`.
///
/// # Domain
///
/// Defined for `x > 0` only. At zero and the negative integers Γ has
/// poles, and for other negative `x` the *sign* of Γ(x) alternates, so a
/// real-valued `ln Γ` does not exist; the reflection formula used below
/// for `x < 0.5` would silently return `-inf` (at the poles) or NaN
/// (where `sin(πx) < 0`) with no indication of misuse. Debug builds
/// assert `x > 0`; release builds remain garbage-in/garbage-out for
/// non-positive input, matching every internal caller's established
/// `x ≥ 1` usage.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(
        x > 0.0,
        "ln_gamma is only defined for x > 0 (called with x = {x})"
    );
    // Coefficients for g=7, n=9 (Godfrey / numerical recipes lineage).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Arguments covered by the precomputed `ln(n!)` table. Binomial pmf/tail
/// sums (Eqs. 8, 12) call `ln_factorial` millions of times during a
/// sweep, almost always with footprint-in-blocks arguments well below this
/// bound; the table turns each such call into a load.
const LN_FACTORIAL_TABLE_LEN: usize = 4097;

/// `ln(n!)` for `n < LN_FACTORIAL_TABLE_LEN`, precomputed on first use with
/// [`ln_factorial_direct`] — table entries are bit-identical to what the
/// direct computation returns, so the fast path changes no result.
static LN_FACTORIAL_TABLE: std::sync::LazyLock<Vec<f64>> = std::sync::LazyLock::new(|| {
    (0..LN_FACTORIAL_TABLE_LEN as u64)
        .map(ln_factorial_direct)
        .collect()
});

/// The uncached `ln(n!)`: exact u64 factorial for `n ≤ 20` (where `n!`
/// fits), log-gamma above.
fn ln_factorial_direct(n: u64) -> f64 {
    if n <= 20 {
        let mut f: u64 = 1;
        for i in 2..=n {
            f *= i;
        }
        (f as f64).ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// `ln(n!)` for integer `n`; precomputed table for small `n`, log-gamma
/// above.
pub fn ln_factorial(n: u64) -> f64 {
    match LN_FACTORIAL_TABLE.get(n as usize) {
        Some(&v) => v,
        None => ln_gamma(n as f64 + 1.0),
    }
}

/// `ln C(n, k)` for integers. Returns `f64::NEG_INFINITY` when the
/// coefficient is zero (`k > n`).
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `C(n, k)` for integers, computed through logs. Values above ~1e308
/// return `f64::INFINITY`.
pub fn binomial(n: u64, k: u64) -> f64 {
    ln_binomial(n, k).exp()
}

/// Generalized `ln C(n, k)` for real `n ≥ 0` and integer `k`:
/// `Γ(n+1) / (Γ(k+1) Γ(n−k+1))`. Returns `NEG_INFINITY` when `k > n`
/// (the natural zero of the coefficient as `n-k+1` approaches a pole).
pub fn ln_binomial_real(n: f64, k: f64) -> f64 {
    if k < 0.0 || k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)
}

/// Probability mass of the hypergeometric distribution:
/// drawing `m` items from a population of `n` that contains `k` marked
/// items, the probability that exactly `j` drawn items are marked.
///
/// Zero outside the support `max(0, m+k-n) ≤ j ≤ min(k, m)`.
pub fn hypergeometric_pmf(n: u64, k: u64, m: u64, j: u64) -> f64 {
    if m > n || k > n {
        return 0.0;
    }
    let lo = (m + k).saturating_sub(n);
    let hi = k.min(m);
    if j < lo || j > hi {
        return 0.0;
    }
    (ln_binomial(k, j) + ln_binomial(n - k, m - j) - ln_binomial(n, m)).exp()
}

/// Mean of the hypergeometric distribution: `m * k / n`.
pub fn hypergeometric_mean(n: u64, k: u64, m: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        m as f64 * k as f64 / n as f64
    }
}

/// Probability mass of the binomial distribution `B(n, p)` at `j`.
pub fn binomial_pmf(n: u64, p: f64, j: u64) -> f64 {
    if j > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if j == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if j == n { 1.0 } else { 0.0 };
    }
    (ln_binomial(n, j) + j as f64 * p.ln() + (n - j) as f64 * (1.0 - p).ln()).exp()
}

/// Upper tail of the binomial distribution: `P(X ≥ j)` for `X ~ B(n, p)`.
pub fn binomial_tail_ge(n: u64, p: f64, j: u64) -> f64 {
    if j == 0 {
        return 1.0;
    }
    if j > n {
        return 0.0;
    }
    // Direct summation; n here is a footprint in cache blocks (≤ millions),
    // but the tail beyond j is dominated by terms near n*p, so sum from j.
    let mut acc = 0.0;
    for x in j..=n {
        let t = binomial_pmf(n, p, x);
        acc += t;
        // Terms decay geometrically well past the mean; cut off when
        // negligible and past the mode.
        if t < 1e-18 && (x as f64) > n as f64 * p + 10.0 {
            break;
        }
    }
    acc.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..=15u64 {
            let mut f = 1.0f64;
            for i in 2..=n {
                f *= i as f64;
            }
            assert_close(ln_gamma(n as f64 + 1.0), f.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        assert_close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-12);
    }

    #[test]
    fn binomial_small_exact() {
        assert_close(binomial(10, 3), 120.0, 1e-12);
        assert_close(binomial(52, 5), 2_598_960.0, 1e-10);
        assert_eq!(binomial(5, 6), 0.0);
        assert_close(binomial(0, 0), 1.0, 1e-15);
    }

    #[test]
    fn binomial_large_no_overflow() {
        // C(100000, 50000) is astronomically large; its log must be finite.
        let ln = ln_binomial(100_000, 50_000);
        assert!(ln.is_finite());
        assert!(ln > 69_000.0 && ln < 69_400.0); // ~ 1e5 * ln 2
    }

    #[test]
    fn binomial_real_extends_integer() {
        for (n, k) in [(10u64, 4u64), (30, 17), (100, 3)] {
            assert_close(
                ln_binomial_real(n as f64, k as f64),
                ln_binomial(n, k),
                1e-12,
            );
        }
    }

    #[test]
    fn hypergeometric_sums_to_one() {
        let (n, k, m) = (50u64, 13, 20);
        let total: f64 = (0..=k.min(m)).map(|j| hypergeometric_pmf(n, k, m, j)).sum();
        assert_close(total, 1.0, 1e-12);
    }

    #[test]
    fn hypergeometric_mean_matches_sum() {
        let (n, k, m) = (1000u64, 80, 120);
        let mean: f64 = (0..=k.min(m))
            .map(|j| j as f64 * hypergeometric_pmf(n, k, m, j))
            .sum();
        assert_close(mean, hypergeometric_mean(n, k, m), 1e-10);
    }

    #[test]
    fn hypergeometric_support_edges() {
        // Drawing all items: every marked item is drawn.
        assert_close(hypergeometric_pmf(10, 4, 10, 4), 1.0, 1e-12);
        assert_eq!(hypergeometric_pmf(10, 4, 10, 3), 0.0);
        // Out of range parameters.
        assert_eq!(hypergeometric_pmf(10, 12, 5, 3), 0.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let (n, p) = (64u64, 1.0 / 64.0);
        let total: f64 = (0..=n).map(|j| binomial_pmf(n, p, j)).sum();
        assert_close(total, 1.0, 1e-12);
    }

    #[test]
    fn binomial_pmf_degenerate() {
        assert_eq!(binomial_pmf(10, 0.0, 0), 1.0);
        assert_eq!(binomial_pmf(10, 0.0, 1), 0.0);
        assert_eq!(binomial_pmf(10, 1.0, 10), 1.0);
    }

    #[test]
    fn binomial_tail_complements_head() {
        let (n, p, j) = (40u64, 0.3, 15u64);
        let head: f64 = (0..j).map(|x| binomial_pmf(n, p, x)).sum();
        assert_close(binomial_tail_ge(n, p, j), 1.0 - head, 1e-10);
        assert_eq!(binomial_tail_ge(n, p, 0), 1.0);
        assert_eq!(binomial_tail_ge(4, 0.5, 5), 0.0);
    }

    #[test]
    fn ln_factorial_transition_is_smooth() {
        // The table/gamma switchover at n = 20 must agree.
        assert_close(ln_factorial(20), ln_gamma(21.0), 1e-12);
        assert_close(ln_factorial(21), ln_gamma(22.0), 1e-12);
    }

    #[test]
    fn ln_factorial_table_is_bit_identical_to_direct() {
        // Inside the table, at its edge, and beyond it.
        for n in (0..64)
            .chain([1000, 4095, 4096, 4097, 5000, 100_000])
            .map(|n| n as u64)
        {
            assert_eq!(
                ln_factorial(n).to_bits(),
                ln_factorial_direct(n).to_bits(),
                "n = {n}"
            );
        }
    }
}
