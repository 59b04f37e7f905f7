//! Parameter sweeps for DVF trade-off studies (paper §V).
//!
//! Two studies are packaged here:
//!
//! * **ECC protection sweep** (use case B, Fig. 7): vary the performance
//!   degradation an ECC mechanism is allowed to cost and observe DVF.
//! * **Generic parallel sweeps**: fan a pure function over a parameter
//!   grid across threads — used by the figure harness to sweep problem
//!   sizes and cache configurations.
//!
//! It also owns the **sweep row** ([`RowOutcome`]): the one type every
//! grid path (local `dvf sweep`, `/v1/sweep`, `/v1/sweepchunk`,
//! `/v1/batch`, the distributed coordinator and its resume journal)
//! makes, writes and reads a grid point's result with.

use crate::dvf::{self, DvfReport};
use crate::fit::{EccScheme, FitRate};
use crate::workflow::WorkflowError;
use dvf_obs::{Json, JsonWriter};

/// One point of the ECC trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccPoint {
    /// Performance degradation `d` (0.05 = 5 %).
    pub degradation: f64,
    /// Effective failure rate at this operating point.
    pub fit: FitRate,
    /// Resulting DVF.
    pub dvf: f64,
}

/// Model of an ECC mechanism's protection-versus-overhead trade-off.
///
/// The paper sweeps "a range of possible performance degradations when
/// applying ECC" (Fig. 7) and finds DVF minimized near 5 % degradation:
/// protection lowers the failure rate, but every additional percent of
/// slowdown extends the window during which faults can strike. We model
/// the mechanism as buying protection linearly with invested overhead
/// until it reaches the scheme's full strength at
/// [`full_protection_degradation`], after which extra slowdown brings no
/// further FIT reduction — reproducing the U-shaped curve with its minimum
/// at that point.
///
/// [`full_protection_degradation`]: EccTradeoff::full_protection_degradation
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccTradeoff {
    /// The scheme whose full-strength FIT applies once fully effective.
    pub scheme: EccScheme,
    /// Degradation at which the scheme reaches full strength (paper's
    /// observed optimum: 0.05).
    pub full_protection_degradation: f64,
}

impl EccTradeoff {
    /// Trade-off with the paper's 5 % full-protection point.
    pub fn new(scheme: EccScheme) -> Self {
        Self {
            scheme,
            full_protection_degradation: 0.05,
        }
    }

    /// Effective FIT at degradation `d`: linear interpolation from the
    /// unprotected rate at `d = 0` down to the scheme's rate at full
    /// strength, constant beyond.
    ///
    /// A `full_protection_degradation` of zero (or below) models a scheme
    /// that is fully effective with no overhead at all, so the scheme's
    /// full-strength rate applies at every degradation — the naive `0/0`
    /// would otherwise poison the curve with NaN at `d = 0`.
    pub fn effective_fit(&self, degradation: f64) -> FitRate {
        let base = EccScheme::None.fit_per_mbit();
        let full = self.scheme.fit_per_mbit();
        let frac = if self.full_protection_degradation <= 0.0 {
            1.0
        } else {
            (degradation / self.full_protection_degradation).clamp(0.0, 1.0)
        };
        FitRate(base + (full - base) * frac)
    }

    /// Sweep the trade-off for one data structure.
    ///
    /// `base_time_s` is the unprotected execution time; at degradation `d`
    /// the run takes `base_time_s * (1 + d)`.
    pub fn sweep(
        &self,
        base_time_s: f64,
        size_bytes: u64,
        n_ha: f64,
        degradations: &[f64],
    ) -> Vec<EccPoint> {
        degradations
            .iter()
            .map(|&d| {
                let fit = self.effective_fit(d);
                let time = base_time_s * (1.0 + d);
                EccPoint {
                    degradation: d,
                    fit,
                    dvf: dvf::dvf_d(fit, time, size_bytes, n_ha),
                }
            })
            .collect()
    }
}

/// Evenly spaced degradations `0 ..= max` with `steps` intervals
/// (Fig. 7 uses 0–30 %).
///
/// `steps == 0` degenerates to the single point `[0.0]` rather than the
/// `0/0 = NaN` grid a literal reading of the formula would produce.
pub fn degradation_grid(max: f64, steps: usize) -> Vec<f64> {
    if steps == 0 {
        return vec![0.0];
    }
    (0..=steps).map(|i| max * i as f64 / steps as f64).collect()
}

/// Sensitivity of a model output to one input parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Parameter name.
    pub param: String,
    /// Parameter's base value.
    pub value: f64,
    /// Elasticity `(∂f/∂p) · (p / f)` at the base point: the % change in
    /// the output per % change in the parameter. `±1` means linear,
    /// `0` insensitive, large magnitudes flag thresholds (e.g. FT's
    /// cache-capacity cliff).
    pub elasticity: f64,
}

/// Central-difference elasticities of `f` with respect to each parameter,
/// evaluated at `base` with relative step `rel_step` (e.g. `0.01`).
///
/// DVF's own factors are all elasticity-1 by construction (Eq. 1 is a
/// product); the interesting applications are the *model inputs* —
/// cache capacity, problem size, stride — where elasticities locate the
/// regimes the paper's Fig. 5 sensitivity discussion describes.
pub fn elasticities<F>(f: F, names: &[&str], base: &[f64], rel_step: f64) -> Vec<Sensitivity>
where
    F: Fn(&[f64]) -> f64,
{
    assert_eq!(names.len(), base.len(), "one name per parameter");
    assert!(rel_step > 0.0, "step must be positive");
    let f0 = f(base);
    names
        .iter()
        .zip(base)
        .enumerate()
        .map(|(i, (name, &p))| {
            let h = p.abs().max(1e-12) * rel_step;
            let mut up = base.to_vec();
            up[i] = p + h;
            let mut down = base.to_vec();
            down[i] = p - h;
            let derivative = (f(&up) - f(&down)) / (2.0 * h);
            let elasticity = if f0 == 0.0 { 0.0 } else { derivative * p / f0 };
            Sensitivity {
                param: (*name).to_owned(),
                value: p,
                elasticity,
            }
        })
        .collect()
}

/// Map `f` over `items` in parallel, preserving order.
///
/// Intended for embarrassingly parallel model sweeps (each evaluation is
/// pure and takes microseconds to milliseconds): [`dvf_obs::par::map`]
/// with one worker per core.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    dvf_obs::par::map(items, dvf_obs::par::available(), f)
}

/// One grid point's overrides: the `fixed` ones, then each swept
/// dimension in `dims` at its coordinate in `coords`.
pub fn point<'a>(
    fixed: &'a [(String, f64)],
    dims: &[&'a str],
    coords: &[f64],
) -> Vec<(&'a str, f64)> {
    fixed
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .chain(dims.iter().copied().zip(coords.iter().copied()))
        .collect()
}

/// Write `key: v` into an open object. JSON has no infinities or NaN,
/// so a non-finite value is written as the string the local sweep table
/// prints for it: `"inf"`, `"-inf"` or `"NaN"`.
pub fn write_number(w: &mut JsonWriter, key: &str, v: f64) {
    if v.is_finite() {
        w.key(key).f64(v);
    } else {
        w.key(key).string(&v.to_string());
    }
}

/// One sweep row: what evaluating one grid point gave.
///
/// This is the only place a row is made ([`RowOutcome::of`]), written
/// ([`RowOutcome::write_fields`]) and read ([`RowOutcome::from_json`]).
/// Floats are written shortest-round-trip and read back bit-exactly, and
/// an error keeps the `WorkflowError` display text, so a row that
/// crossed the wire prints exactly like one evaluated in-process.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOutcome {
    /// Successful evaluation.
    Ok {
        /// Modeled execution time in seconds.
        time_s: f64,
        /// Application-level DVF.
        dvf_app: f64,
    },
    /// The evaluation failed; the string is the `WorkflowError` display
    /// text.
    Err(String),
}

impl RowOutcome {
    /// The row for one evaluation result.
    pub fn of(result: &Result<DvfReport, WorkflowError>) -> Self {
        match result {
            Ok(report) => RowOutcome::Ok {
                time_s: report.time_s,
                dvf_app: report.dvf_app(),
            },
            Err(e) => RowOutcome::Err(e.to_string()),
        }
    }

    /// Write the row's members into an already-open object:
    /// `time_s` and `dvf_app` (see [`write_number`]), or `error`.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        match self {
            RowOutcome::Ok { time_s, dvf_app } => {
                write_number(w, "time_s", *time_s);
                write_number(w, "dvf_app", *dvf_app);
            }
            RowOutcome::Err(msg) => {
                w.key("error").string(msg);
            }
        }
    }

    /// Read a row written by [`RowOutcome::write_fields`]. The error
    /// names only the bad member; callers prefix where the row was.
    pub fn from_json(row: &Json) -> Result<Self, String> {
        if let Some(err) = row.get("error").and_then(Json::as_str) {
            return Ok(RowOutcome::Err(err.to_owned()));
        }
        let num = |key: &str| {
            match row.get(key) {
                Some(Json::Num(v)) => Some(*v),
                Some(Json::Str(s)) if ["inf", "-inf", "NaN"].contains(&s.as_str()) => {
                    s.parse().ok()
                }
                _ => None,
            }
            .ok_or_else(|| format!("no numeric `{key}`"))
        };
        Ok(RowOutcome::Ok {
            time_s: num("time_s")?,
            dvf_app: num("dvf_app")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_fit_interpolates() {
        let t = EccTradeoff::new(EccScheme::Secded);
        assert_eq!(t.effective_fit(0.0).0, 5000.0);
        assert_eq!(t.effective_fit(0.05).0, 1300.0);
        assert_eq!(t.effective_fit(0.30).0, 1300.0);
        let half = t.effective_fit(0.025).0;
        assert!((half - (5000.0 + 1300.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_is_u_shaped_with_minimum_at_full_protection() {
        let t = EccTradeoff::new(EccScheme::Secded);
        let grid = degradation_grid(0.30, 30);
        let points = t.sweep(10.0, 1 << 20, 1e4, &grid);
        let min = points
            .iter()
            .min_by(|a, b| a.dvf.total_cmp(&b.dvf))
            .unwrap();
        assert!(
            (min.degradation - 0.05).abs() < 1e-9,
            "min at {}",
            min.degradation
        );
        // Decreasing before the minimum, increasing after.
        assert!(points[0].dvf > points[5].dvf);
        assert!(points[30].dvf > points[5].dvf);
    }

    #[test]
    fn chipkill_dominates_secded_everywhere_past_zero() {
        let grid = degradation_grid(0.30, 30);
        let s = EccTradeoff::new(EccScheme::Secded).sweep(10.0, 1 << 20, 1e4, &grid);
        let c = EccTradeoff::new(EccScheme::ChipkillCorrect).sweep(10.0, 1 << 20, 1e4, &grid);
        for (ps, pc) in s.iter().zip(&c).skip(1) {
            assert!(pc.dvf < ps.dvf);
        }
        // At d = 0 neither scheme is effective yet: identical DVF.
        assert!((s[0].dvf - c[0].dvf).abs() < 1e-12 * s[0].dvf);
    }

    #[test]
    fn effective_fit_with_zero_protection_point_is_finite() {
        // full_protection_degradation == 0 used to evaluate 0/0 at d = 0.
        let t = EccTradeoff {
            scheme: EccScheme::Secded,
            full_protection_degradation: 0.0,
        };
        // Instant full protection: the scheme's rate applies everywhere.
        assert_eq!(t.effective_fit(0.0).0, 1300.0);
        assert_eq!(t.effective_fit(0.05).0, 1300.0);
        assert!(t.effective_fit(0.0).0.is_finite());
    }

    #[test]
    fn degradation_grid_zero_steps_is_finite() {
        // steps == 0 used to yield a single-NaN grid via 0/0.
        let g = degradation_grid(0.3, 0);
        assert_eq!(g, vec![0.0]);
        // And the degenerate grid stays usable downstream.
        let points = EccTradeoff::new(EccScheme::Secded).sweep(10.0, 1 << 20, 1e4, &g);
        assert_eq!(points.len(), 1);
        assert!(points[0].dvf.is_finite());
    }

    #[test]
    fn degradation_grid_spacing() {
        let g = degradation_grid(0.3, 30);
        assert_eq!(g.len(), 31);
        assert_eq!(g[0], 0.0);
        assert!((g[30] - 0.3).abs() < 1e-12);
        assert!((g[1] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn elasticities_of_a_monomial() {
        // f = a^2 * b / c: elasticities 2, 1, -1.
        let f = |p: &[f64]| p[0] * p[0] * p[1] / p[2];
        let s = elasticities(f, &["a", "b", "c"], &[3.0, 5.0, 2.0], 1e-4);
        assert!((s[0].elasticity - 2.0).abs() < 1e-6);
        assert!((s[1].elasticity - 1.0).abs() < 1e-6);
        assert!((s[2].elasticity + 1.0).abs() < 1e-6);
    }

    #[test]
    fn dvf_factors_are_all_elasticity_one() {
        // Eq. 1 is a pure product: every factor has elasticity exactly 1.
        let f = |p: &[f64]| crate::dvf::dvf_d(FitRate(p[0]), p[1], (p[2] * 1024.0) as u64, p[3]);
        let s = elasticities(
            f,
            &["fit", "time", "size_kib", "n_ha"],
            &[5000.0, 10.0, 64.0, 1e4],
            1e-3,
        );
        for sens in &s {
            assert!(
                (sens.elasticity - 1.0).abs() < 0.05,
                "{}: {}",
                sens.param,
                sens.elasticity
            );
        }
    }

    #[test]
    fn insensitive_parameter_has_zero_elasticity() {
        let f = |p: &[f64]| p[0] * 2.0; // ignores p[1]
        let s = elasticities(f, &["x", "dead"], &[4.0, 7.0], 1e-4);
        assert!(s[1].elasticity.abs() < 1e-12);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    fn round_trip(row: &RowOutcome) -> (String, RowOutcome) {
        let mut w = JsonWriter::new();
        w.begin_object();
        row.write_fields(&mut w);
        w.end_object();
        let text = w.finish();
        let back = RowOutcome::from_json(&Json::parse(&text).unwrap()).unwrap();
        (text, back)
    }

    #[test]
    fn non_finite_values_are_spelled_as_the_table_prints_them() {
        for (v, spelled) in [
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::NAN, "NaN"),
        ] {
            assert_eq!(format!("{v:>14.6e}").trim(), spelled);
            let (text, back) = round_trip(&RowOutcome::Ok {
                time_s: v,
                dvf_app: 2.0,
            });
            assert_eq!(text, format!(r#"{{"time_s":"{spelled}","dvf_app":2.0}}"#));
            let RowOutcome::Ok { time_s, dvf_app } = back else {
                panic!("{text} read back as an error row");
            };
            assert_eq!((time_s.to_bits(), dvf_app), (v.to_bits(), 2.0));
        }
    }

    #[test]
    fn rows_without_numbers_are_rejected_by_member() {
        let read = |text: &str| RowOutcome::from_json(&Json::parse(text).unwrap());
        assert_eq!(
            read(r#"{"dvf_app":1}"#),
            Err("no numeric `time_s`".to_owned())
        );
        assert_eq!(
            read(r#"{"time_s":null,"dvf_app":1}"#),
            Err("no numeric `time_s`".to_owned())
        );
        assert_eq!(
            read(r#"{"time_s":1,"dvf_app":"infinity"}"#),
            Err("no numeric `dvf_app`".to_owned())
        );
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }
}
