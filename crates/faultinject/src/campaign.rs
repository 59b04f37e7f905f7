//! Injection campaigns over the paper's kernels.
//!
//! Every campaign fans its trials out over one worker per core with
//! [`dvf_obs::par::map`]; per-trial seeds make the tallies bit-identical
//! for any worker count.

use crate::flip::flip_bit;
use dvf_kernels::cg::{rhs_for_ones, spd_matrix_with_spread, CgParams};
use dvf_kernels::mc::McParams;
use dvf_kernels::vm::VmParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of one injected trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Output identical (to tolerance) to the golden run.
    Benign,
    /// Run completed but the output is wrong: silent data corruption.
    Sdc,
    /// Error observable without output comparison (NaN/Inf,
    /// non-convergence).
    Detected,
}

/// Aggregated results of a campaign against one data structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// Target data structure name.
    pub structure: String,
    /// Trials executed.
    pub trials: u32,
    /// Benign outcomes.
    pub benign: u32,
    /// Silent data corruptions.
    pub sdc: u32,
    /// Detected errors.
    pub detected: u32,
}

impl CampaignResult {
    fn tally(structure: &str, outcomes: impl IntoIterator<Item = Outcome>) -> Self {
        let mut r = CampaignResult {
            structure: structure.to_owned(),
            trials: 0,
            benign: 0,
            sdc: 0,
            detected: 0,
        };
        for o in outcomes {
            r.trials += 1;
            match o {
                Outcome::Benign => r.benign += 1,
                Outcome::Sdc => r.sdc += 1,
                Outcome::Detected => r.detected += 1,
            }
        }
        // Observability: batched per structure, not per trial.
        if dvf_obs::enabled() {
            dvf_obs::add("fi.trials", r.trials as u64);
            dvf_obs::add("fi.benign", r.benign as u64);
            dvf_obs::add("fi.sdc", r.sdc as u64);
            dvf_obs::add("fi.detected", r.detected as u64);
        }
        r
    }

    /// Fraction of trials that silently corrupted the output.
    pub fn sdc_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sdc as f64 / self.trials as f64
        }
    }

    /// Fraction of trials that affected the run at all (SDC + detected).
    pub fn impact_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            (self.sdc + self.detected) as f64 / self.trials as f64
        }
    }
}

/// A full campaign: per-structure results plus the number of kernel
/// executions it cost (the paper's "prohibitively expensive" axis).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Kernel name.
    pub kernel: &'static str,
    /// Per-structure outcome tallies.
    pub results: Vec<CampaignResult>,
    /// Total kernel executions (golden + every trial).
    pub executions: u64,
}

fn classify(output: f64, golden: f64, rel_tol: f64) -> Outcome {
    if !output.is_finite() {
        return Outcome::Detected;
    }
    let scale = golden.abs().max(1.0);
    if (output - golden).abs() <= rel_tol * scale {
        Outcome::Benign
    } else {
        Outcome::Sdc
    }
}

// ---------------------------------------------------------------------
// Trial scheduling
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: scrambles a 64-bit value into an avalanche mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent RNG seed for one trial, derived from the campaign seed,
/// the target-structure index and the trial index.
///
/// Every trial owning its own `StdRng` (instead of all trials advancing
/// one shared stream) is what makes parallel campaigns **bit-identical**
/// to sequential ones: trial `i`'s draws no longer depend on how many
/// draws trials `0..i` made or on which worker ran them.
fn trial_seed(campaign_seed: u64, structure: u64, trial: u32) -> u64 {
    mix64(
        campaign_seed
            .wrapping_add(mix64(structure.wrapping_add(0x9E37_79B9_7F4A_7C15)))
            .wrapping_add(mix64(trial as u64 ^ 0xD1B5_4A32_D192_ED03)),
    )
}

/// Run `trials` injections for one structure across [`workers`] threads,
/// preserving trial order. `f` receives the trial's private RNG; thanks to
/// [`trial_seed`] the outcomes do not depend on the worker count.
fn run_trials<F>(trials: u32, campaign_seed: u64, structure: u64, f: F) -> Vec<Outcome>
where
    F: Fn(&mut StdRng) -> Outcome + Sync,
{
    let indices: Vec<u32> = (0..trials).collect();
    dvf_obs::par::map(&indices, workers(), |&t| {
        let mut rng = StdRng::seed_from_u64(trial_seed(campaign_seed, structure, t));
        f(&mut rng)
    })
}

#[cfg(test)]
thread_local! {
    /// Test seam: when nonzero, pins the worker count of campaigns run on
    /// this thread.
    static PINNED_WORKERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Worker count campaigns fan out over: one per core.
fn workers() -> usize {
    #[cfg(test)]
    if let w @ 1.. = PINNED_WORKERS.get() {
        return w;
    }
    dvf_obs::par::available()
}

// ---------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------

/// VM with a single flip in `target` at loop progress `tau`.
fn vm_with_flip(params: VmParams, target: usize, elem: usize, bit: u32, tau: usize) -> f64 {
    let m = params.iterations();
    let mut a: Vec<f64> = (0..params.n).map(|i| (i % 17) as f64 * 0.5).collect();
    let mut b: Vec<f64> = (0..m).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut c = vec![0.0f64; m];
    let flip_now = |a: &mut [f64], b: &mut [f64], c: &mut [f64]| {
        let buf: &mut [f64] = match target {
            0 => a,
            1 => b,
            _ => c,
        };
        let idx = elem % buf.len();
        buf[idx] = flip_bit(buf[idx], bit);
    };
    for i in 0..m {
        if i == tau {
            flip_now(&mut a, &mut b, &mut c);
        }
        c[i] += a[i * params.stride_a] * b[i];
    }
    if tau >= m {
        flip_now(&mut a, &mut b, &mut c);
    }
    c.iter().sum()
}

/// Fault-injection campaign over VM's `A`, `B`, `C` (paper Table II).
pub fn vm_campaign(params: VmParams, trials: u32, seed: u64) -> Campaign {
    let _span = dvf_obs::span("campaign:VM");
    let golden = dvf_kernels::vm::run_plain(params).checksum;
    let m = params.iterations();
    let mut results = Vec::new();
    for (t, name) in ["A", "B", "C"].iter().enumerate() {
        let outcomes = run_trials(trials, seed, t as u64, |rng| {
            let elem = rng.gen_range(0..params.n);
            let bit = rng.gen_range(0..64);
            let tau = rng.gen_range(0..=m);
            classify(vm_with_flip(params, t, elem, bit, tau), golden, 1e-12)
        });
        results.push(CampaignResult::tally(name, outcomes));
    }
    Campaign {
        kernel: "VM",
        results,
        executions: 1 + 3 * trials as u64,
    }
}

// ---------------------------------------------------------------------
// CG
// ---------------------------------------------------------------------

fn dot(u: &[f64], v: &[f64]) -> f64 {
    u.iter().zip(v).map(|(a, b)| a * b).sum()
}

/// CG run with a flip in `target` (0=A, 1=x, 2=p, 3=r) at iteration `tau`.
/// Returns `(converged, max_error)`.
fn cg_with_flip(params: CgParams, target: usize, elem: usize, bit: u32, tau: usize) -> (bool, f64) {
    let n = params.n;
    let mut a = spd_matrix_with_spread(n, params.diag_spread);
    let b = rhs_for_ones(&a, n);
    let mut x = vec![0.0f64; n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut q = vec![0.0f64; n];
    let bnorm = dot(&b, &b).sqrt();
    let mut rho = dot(&r, &r);
    let mut iterations = 0;

    while iterations < params.max_iters && rho.sqrt() / bnorm > params.tol {
        if iterations == tau {
            let buf: &mut [f64] = match target {
                0 => &mut a,
                1 => &mut x,
                2 => &mut p,
                _ => &mut r,
            };
            let idx = elem % buf.len();
            buf[idx] = flip_bit(buf[idx], bit);
        }
        for i in 0..n {
            q[i] = dot(&a[i * n..(i + 1) * n], &p);
        }
        let alpha = rho / dot(&p, &q);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_next = dot(&r, &r);
        let beta = rho_next / rho;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rho = rho_next;
        iterations += 1;
        if !rho.is_finite() {
            return (false, f64::INFINITY);
        }
    }
    let converged = rho.sqrt() / bnorm <= params.tol;
    let err = x.iter().map(|&xi| (xi - 1.0).abs()).fold(0.0f64, f64::max);
    (converged, err)
}

/// Fault-injection campaign over CG's `A`, `x`, `p`, `r`.
///
/// The outcomes expose a known CG fragility (cf. Bronevetsky & Supinski,
/// ICS'08 — the DVF paper's reference 9): the *iterate* structures are
/// the dangerous ones. CG maintains its residual by recurrence, so a flip
/// in `r` (or `x`, which is a pure accumulator) permanently decouples the
/// recurrence from the true residual `b − Ax` and silently converges to a
/// wrong answer, while a low-order flip in the operator `A` merely
/// perturbs the system being solved — usually below tolerance.
pub fn cg_campaign(params: CgParams, trials: u32, seed: u64) -> Campaign {
    let _span = dvf_obs::span("campaign:CG");
    let n = params.n;
    // Golden run fixes the injection window: flips must land while the
    // solver is still iterating.
    let (golden, _) = dvf_kernels::cg::run_plain(params);
    let window = golden.iterations.max(1);
    let mut results = Vec::new();
    for (t, name) in ["A", "x", "p", "r"].iter().enumerate() {
        let len = if t == 0 { n * n } else { n };
        let outcomes = run_trials(trials, seed, t as u64, |rng| {
            let elem = rng.gen_range(0..len);
            let bit = rng.gen_range(0..64);
            let tau = rng.gen_range(0..window);
            let (converged, err) = cg_with_flip(params, t, elem, bit, tau);
            if !converged {
                Outcome::Detected
            } else if err < 1e-6 {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        });
        results.push(CampaignResult::tally(name, outcomes));
    }
    Campaign {
        kernel: "CG",
        results,
        executions: 1 + 4 * trials as u64,
    }
}

// ---------------------------------------------------------------------
// MC
// ---------------------------------------------------------------------

/// Monte-Carlo lookups with a flip in `G` (target 0) or `E` (target 1)
/// after `tau` lookups.
fn mc_with_flip(params: McParams, target: usize, elem: usize, bit: u32, tau: usize) -> f64 {
    // Rebuild the tables exactly as the kernel does.
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xfeed);
    let mut grid_energy: Vec<f64> = (0..params.grid_points)
        .map(|i| i as f64 / params.grid_points as f64)
        .collect();
    let xs_index: Vec<u32> = (0..params.grid_points)
        .map(|_| rng.gen_range(0..params.xs_entries as u32))
        .collect();
    let mut xs_total: Vec<f64> = (0..params.xs_entries)
        .map(|i| 1.0 + (i % 97) as f64 * 0.01)
        .collect();
    let xs_scatter: Vec<f64> = (0..params.xs_entries)
        .map(|i| 0.5 + (i % 31) as f64 * 0.02)
        .collect();

    let mut lookup_rng = StdRng::seed_from_u64(params.seed);
    let mut checksum = 0.0;
    for l in 0..params.lookups {
        if l == tau {
            match target {
                0 => {
                    let i = elem % grid_energy.len();
                    grid_energy[i] = flip_bit(grid_energy[i], bit);
                }
                _ => {
                    let i = elem % xs_total.len();
                    xs_total[i] = flip_bit(xs_total[i], bit);
                }
            }
        }
        let energy: f64 = lookup_rng.gen_range(0.0..1.0);
        let gi = ((energy * params.grid_points as f64) as usize).min(params.grid_points - 1);
        // A corrupted grid energy perturbs the checksum weighting (the
        // physical lookup would resolve to a wrong row).
        let row = xs_index[gi] as usize;
        let distortion = grid_energy[gi] - gi as f64 / params.grid_points as f64;
        checksum += xs_total[row] * 0.7 + xs_scatter[row] * 0.3 + distortion;
    }
    checksum
}

/// Fault-injection campaign over MC's `G` and `E`.
pub fn mc_campaign(params: McParams, trials: u32, seed: u64) -> Campaign {
    let _span = dvf_obs::span("campaign:MC");
    let golden = mc_with_flip(params, 0, 0, 0, usize::MAX); // flip never fires
    let mut results = Vec::new();
    for (t, name, len) in [
        (0usize, "G", params.grid_points),
        (1, "E", params.xs_entries),
    ] {
        let outcomes = run_trials(trials, seed, t as u64, |rng| {
            let elem = rng.gen_range(0..len);
            let bit = rng.gen_range(0..64);
            let tau = rng.gen_range(0..params.lookups);
            classify(mc_with_flip(params, t, elem, bit, tau), golden, 1e-12)
        });
        results.push(CampaignResult::tally(name, outcomes));
    }
    Campaign {
        kernel: "MC",
        results,
        executions: 1 + 2 * trials as u64,
    }
}

// ---------------------------------------------------------------------
// FT
// ---------------------------------------------------------------------

/// Forward FFT with a flip in `X` injected at pass boundary `tau`
/// (0 = before the bit-reversal, `log2 n + 1` = after the last pass).
/// Returns the output-magnitude checksum.
fn ft_with_flip(n: usize, elem: usize, bit: u32, re_part: bool, tau: usize) -> f64 {
    use dvf_kernels::fft::{input_signal, Complex};
    let mut x = input_signal(n);
    let bits = n.trailing_zeros();

    let flip_now = |x: &mut [Complex]| {
        let c = &mut x[elem % n];
        if re_part {
            c.re = flip_bit(c.re, bit);
        } else {
            c.im = flip_bit(c.im, bit);
        }
    };

    let mut stage = 0usize;
    if stage == tau {
        flip_now(&mut x);
    }
    // Bit-reversal permutation.
    for i in 0..n {
        let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        if i < j {
            x.swap(i, j);
        }
    }
    stage += 1;
    // Butterfly passes.
    let mut m = 1;
    while m < n {
        if stage == tau {
            flip_now(&mut x);
        }
        let theta = -std::f64::consts::PI / m as f64;
        let w_m = Complex::new(theta.cos(), theta.sin());
        let mut k = 0;
        while k < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..m {
                let t = mul(w, x[k + j + m]);
                let u = x[k + j];
                x[k + j] = Complex::new(u.re + t.re, u.im + t.im);
                x[k + j + m] = Complex::new(u.re - t.re, u.im - t.im);
                w = mul(w, w_m);
            }
            k += 2 * m;
        }
        m *= 2;
        stage += 1;
    }
    x.iter().map(|c| c.abs()).sum()
}

fn mul(a: dvf_kernels::fft::Complex, b: dvf_kernels::fft::Complex) -> dvf_kernels::fft::Complex {
    dvf_kernels::fft::Complex::new(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
}

/// Fault-injection campaign over FT's single structure `X`.
///
/// The FFT is linear and in-place: a flip injected at pass `τ` spreads to
/// `~n / 2^(passes−τ)` outputs, so almost every non-negligible flip is an
/// SDC — there is no convergence loop to absorb or flag it. The
/// interesting contrast with CG.
pub fn ft_campaign(n: usize, trials: u32, seed: u64) -> Campaign {
    let _span = dvf_obs::span("campaign:FT");
    assert!(n.is_power_of_two());
    let golden = ft_with_flip(n, 0, 0, true, usize::MAX);
    let passes = n.trailing_zeros() as usize + 1;
    let outcomes = run_trials(trials, seed, 0, |rng| {
        let elem = rng.gen_range(0..n);
        let bit = rng.gen_range(0..64);
        let re_part = rng.gen_bool(0.5);
        let tau = rng.gen_range(0..passes);
        classify(ft_with_flip(n, elem, bit, re_part, tau), golden, 1e-12)
    });
    Campaign {
        kernel: "FT",
        results: vec![CampaignResult::tally("X", outcomes)],
        executions: 1 + trials as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_vm() -> VmParams {
        VmParams {
            n: 400,
            stride_a: 4,
        }
    }

    #[test]
    fn outcomes_partition_trials() {
        let c = vm_campaign(small_vm(), 40, 7);
        for r in &c.results {
            assert_eq!(r.trials, 40);
            assert_eq!(r.benign + r.sdc + r.detected, r.trials);
        }
        assert_eq!(c.executions, 1 + 3 * 40);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = vm_campaign(small_vm(), 30, 11);
        let b = vm_campaign(small_vm(), 30, 11);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x, y);
        }
    }

    /// Run `campaign` with the worker count pinned to `workers`.
    fn pinned<T>(workers: usize, campaign: impl FnOnce() -> T) -> T {
        PINNED_WORKERS.set(workers);
        let out = campaign();
        PINNED_WORKERS.set(0);
        out
    }

    #[test]
    fn parallel_campaigns_match_sequential_tallies() {
        // Bit-identical, not statistically similar: per-trial seeds make
        // the outcome of trial i independent of scheduling.
        let seq = pinned(1, || vm_campaign(small_vm(), 30, 11));
        for workers in [2, 3, 8] {
            let par = pinned(workers, || vm_campaign(small_vm(), 30, 11));
            assert_eq!(seq.results, par.results, "VM with {workers} workers");
        }
        assert_eq!(seq.results, vm_campaign(small_vm(), 30, 11).results);
        let mc = McParams {
            grid_points: 1000,
            xs_entries: 500,
            lookups: 100,
            seed: 1,
        };
        assert_eq!(
            pinned(1, || mc_campaign(mc, 24, 5)).results,
            pinned(4, || mc_campaign(mc, 24, 5)).results
        );
        assert_eq!(
            pinned(1, || ft_campaign(128, 24, 7)).results,
            pinned(4, || ft_campaign(128, 24, 7)).results
        );
        let cg = CgParams::new(32, 200, 1e-10);
        assert_eq!(
            pinned(1, || cg_campaign(cg, 12, 3)).results,
            pinned(4, || cg_campaign(cg, 12, 3)).results
        );
    }

    #[test]
    fn trial_seeds_are_unique_across_structures_and_trials() {
        let mut seen = std::collections::HashSet::new();
        for structure in 0..4u64 {
            for trial in 0..256u32 {
                assert!(
                    seen.insert(trial_seed(42, structure, trial)),
                    "seed collision at ({structure}, {trial})"
                );
            }
        }
    }

    #[test]
    fn vm_flips_frequently_corrupt() {
        // VM has no redundancy: a flip in *live* data that feeds the
        // output corrupts it. Liveness thins the rate (strided A reads
        // 1/4 of its elements; elements already consumed are dead; the
        // lowest mantissa bits vanish below the tolerance), but a solid
        // fraction of trials must corrupt.
        let c = vm_campaign(small_vm(), 60, 3);
        let total_sdc: u32 = c.results.iter().map(|r| r.sdc).sum();
        assert!(
            (20..=170).contains(&total_sdc),
            "SDC count {total_sdc} of 180 trials"
        );
    }

    #[test]
    fn cg_iterate_flips_hurt_more_than_operator_flips() {
        // CG's recurrence residual does NOT self-correct: flips in the
        // iterate structures (x especially — a pure accumulator) corrupt
        // the answer, while low-order operator flips perturb the solved
        // system below tolerance. This asymmetry is exactly the kind of
        // per-structure difference DVF-guided protection targets.
        let params = CgParams::new(48, 200, 1e-10);
        let c = cg_campaign(params, 30, 5);
        let impact = |name: &str| {
            c.results
                .iter()
                .find(|r| r.structure == name)
                .map(CampaignResult::impact_rate)
                .unwrap()
        };
        let iterate = (impact("x") + impact("p") + impact("r")) / 3.0;
        assert!(
            iterate > impact("A"),
            "iterate impact {iterate} !> A impact {}",
            impact("A")
        );
        // Some flips in every class are still absorbed.
        let benign: u32 = c.results.iter().map(|r| r.benign).sum();
        assert!(benign > 0, "no flip was absorbed");
    }

    #[test]
    fn mc_flip_impact_is_sparse() {
        // One corrupted element among 5000 grid points, touched by 200
        // random lookups: most flips are never read -> mostly benign.
        let params = McParams {
            grid_points: 5000,
            xs_entries: 3000,
            lookups: 200,
            seed: 42,
        };
        let c = mc_campaign(params, 60, 9);
        for r in &c.results {
            assert!(
                r.benign > r.sdc,
                "{}: benign {} !> sdc {}",
                r.structure,
                r.benign,
                r.sdc
            );
        }
    }

    #[test]
    fn ft_golden_matches_real_fft() {
        use dvf_kernels::fft::{fft_plain, input_signal};
        let n = 256;
        let via_campaign = ft_with_flip(n, 0, 0, true, usize::MAX);
        let mut x = input_signal(n);
        fft_plain(&mut x, false);
        let direct: f64 = x.iter().map(|c| c.abs()).sum();
        assert!((via_campaign - direct).abs() < 1e-9 * direct);
    }

    #[test]
    fn ft_has_no_masking_loop() {
        // Unlike CG, nothing detects or repairs an FFT flip: outcomes are
        // benign or SDC, with essentially nothing "detected". Benign cases
        // are numerical, not algorithmic: flips in the all-zero imaginary
        // parts produce denormals (~half the trials), and low mantissa
        // bits fall below the comparison tolerance. The only "detected"
        // outcomes possible are overflow to Inf/NaN when a flip lands on
        // the top exponent bit of a unit-range value — rare, and numeric
        // rather than algorithmic, so allow a small handful.
        let c = ft_campaign(256, 60, 17);
        let r = &c.results[0];
        assert_eq!(r.structure, "X");
        assert!(
            r.detected <= 3,
            "no detection mechanism exists beyond fp overflow: {r:?}"
        );
        assert!(
            r.sdc as f64 > 0.15 * r.trials as f64,
            "sdc rate too low: {r:?}"
        );
    }

    #[test]
    fn rates_are_well_formed() {
        let c = mc_campaign(
            McParams {
                grid_points: 1000,
                xs_entries: 500,
                lookups: 100,
                seed: 1,
            },
            20,
            2,
        );
        for r in &c.results {
            assert!((0.0..=1.0).contains(&r.sdc_rate()));
            assert!((0.0..=1.0).contains(&r.impact_rate()));
            assert!(r.impact_rate() >= r.sdc_rate());
        }
    }
}
