//! The DVF calculation workflow (paper Fig. 3).
//!
//! ```text
//! hardware spec ──┐
//!                 ├─ extended Aspen program ─▶ parser ─▶ N_ha models ─▶ DVF
//! app model ──────┘
//! ```
//!
//! `dvf-aspen` parses and resolves the program into plain-number
//! [`AppSpec`]/[`MachineSpec`] values; this module maps each resolved
//! access onto the matching CGPMAC pattern model, accumulates per-data-
//! structure main-memory access counts, derives the execution time from
//! the Aspen machine model (or a user-measured override), and assembles
//! the final [`DvfReport`].

use crate::dvf::{DataStructureProfile, DvfReport};
use crate::estimator::NhaEstimator;
use crate::fit::{EccScheme, FitRate};
use crate::memo;
use crate::patterns::{CacheView, ModelError};
use crate::sweep::{self, RowOutcome};
use crate::timemodel::{MachineModel, ResourceDemand};
use dvf_aspen::model::ScaledAccess;
use dvf_aspen::{
    AppSpec, DataSpec, Diagnostic, EccKind, KernelSpec, MachineSpec, OrderStepSpec, Resolver,
};
use dvf_cachesim::{CacheConfig, HierarchyConfig};

/// Errors from the end-to-end workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The DSL front-end rejected the program.
    Language(Diagnostic),
    /// The resolved machine's cache geometry is invalid.
    BadCache(String),
    /// A pattern model rejected its parameters.
    Model {
        /// Data structure involved.
        data: String,
        /// Underlying model error.
        source: ModelError,
    },
    /// An override or sweep targets a parameter the document never
    /// declares (globally, in a machine, or in a model).
    UnknownParameter {
        /// The offending parameter name.
        param: String,
        /// Every parameter the document does declare, in source order.
        known: Vec<String>,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Language(d) => write!(f, "language error: {d}"),
            WorkflowError::BadCache(msg) => write!(f, "invalid cache geometry: {msg}"),
            WorkflowError::Model { data, source } => {
                write!(f, "model error for data structure `{data}`: {source}")
            }
            WorkflowError::UnknownParameter { param, known } => {
                if known.is_empty() {
                    write!(
                        f,
                        "unknown parameter `{param}` (the document declares none)"
                    )
                } else {
                    write!(
                        f,
                        "unknown parameter `{param}` (declared parameters: {})",
                        known.join(", ")
                    )
                }
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<Diagnostic> for WorkflowError {
    fn from(d: Diagnostic) -> Self {
        WorkflowError::Language(d)
    }
}

/// Convert a resolved Aspen cache spec to the simulator's geometry type.
pub fn cache_config_of(machine: &MachineSpec) -> Result<CacheConfig, WorkflowError> {
    CacheConfig::new(
        machine.cache.associativity as usize,
        machine.cache.sets as usize,
        machine.cache.line_bytes as usize,
    )
    .map_err(|e| WorkflowError::BadCache(e.to_string()))
}

/// Failure rate declared by the machine: explicit `fit` wins, otherwise the
/// Table VII rate of the declared ECC scheme.
pub fn fit_of(machine: &MachineSpec) -> FitRate {
    match machine.memory.fit_per_mbit {
        Some(fit) => FitRate(fit),
        None => FitRate::of(match machine.memory.ecc {
            EccKind::None => EccScheme::None,
            EccKind::Secded => EccScheme::Secded,
            EccKind::Chipkill => EccScheme::ChipkillCorrect,
        }),
    }
}

/// Aspen roofline rates declared by the machine.
pub fn machine_model_of(machine: &MachineSpec) -> MachineModel {
    MachineModel {
        flops_per_sec: machine.core.flops_per_sec,
        mem_bytes_per_sec: machine.core.mem_bytes_per_sec,
    }
}

/// Intermediate result: per-structure `N_ha` plus the modeled time, for
/// the whole app or one phase (root kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessAccounting {
    /// `N_ha` per data structure, in [`AppSpec::datas`] order.
    pub n_ha: Vec<f64>,
    /// Modeled (or overridden) execution time in seconds.
    pub time_s: f64,
}

/// The cache-sharing ratio the access order implies for the structure at
/// position `pos`: the paper divides the cache among concurrently
/// accessed structures proportionally to their sizes (§III-C, Monte Carlo
/// example). When a structure appears in several concurrent groups we
/// take the most contended one.
fn order_ratio(app: &AppSpec, order: Option<&[OrderStepSpec]>, pos: usize) -> f64 {
    let Some(order) = order else { return 1.0 };
    let mut ratio: f64 = 1.0;
    for step in order {
        if let OrderStepSpec::Group(group) = step {
            if group.contains(&pos) {
                let total: u64 = group.iter().map(|&g| app.datas[g].size_bytes).sum();
                let own = app.datas[pos].size_bytes;
                if total > 0 && own > 0 {
                    ratio = ratio.min(own as f64 / total as f64);
                }
            }
        }
    }
    ratio
}

/// Estimate `N_ha` for every data structure of `app` on `machine` with
/// the closed-form models (the paper's CGPMAC stage), plus the execution
/// time.
pub fn account_accesses(
    app: &AppSpec,
    machine: &MachineSpec,
) -> Result<AccessAccounting, WorkflowError> {
    let phases = account_phases(
        app,
        machine,
        cache_config_of(machine)?,
        &NhaEstimator::ClosedForm,
    )?;
    Ok(fold_phases(app, &phases))
}

/// Fold per-phase accounting into per-structure totals (declaration
/// order) and the total execution time.
fn fold_phases(app: &AppSpec, phases: &[AccessAccounting]) -> AccessAccounting {
    let n_ha = (0..app.datas.len())
        .map(|pos| phases.iter().map(|p| p.n_ha[pos]).sum())
        .collect();
    AccessAccounting {
        n_ha,
        time_s: phases.iter().map(|p| p.time_s).sum(),
    }
}

/// The kernels accounting walks: kernels reached via `call` are already
/// folded into their callers, so evaluating them again would
/// double-count.
fn root_kernels(app: &AppSpec) -> impl Iterator<Item = &KernelSpec> {
    app.kernels.iter().filter(|k| k.is_root)
}

/// Every access of `kernel` with the structure it targets and the cache
/// view the kernel's access order leaves it.
fn accesses<'a>(
    app: &'a AppSpec,
    kernel: &'a KernelSpec,
    config: CacheConfig,
) -> impl Iterator<Item = (&'a ScaledAccess, &'a DataSpec, CacheView)> {
    kernel.accesses.iter().map(move |scaled| {
        let pos = scaled.access.data;
        let ratio = order_ratio(app, kernel.order.as_deref(), pos);
        (scaled, &app.datas[pos], CacheView::shared(config, ratio))
    })
}

/// Per-phase accounting: one record per root kernel, in execution order
/// (the input to time-resolved DVF). Every access's `N_ha` comes from
/// `estimator` under cache geometry `config`: the machine's declared
/// cache, or one level of a hierarchy ([`evaluate_hierarchy`]).
pub fn account_phases(
    app: &AppSpec,
    machine: &MachineSpec,
    config: CacheConfig,
    estimator: &NhaEstimator,
) -> Result<Vec<AccessAccounting>, WorkflowError> {
    let mm = machine_model_of(machine);
    let mut phases = Vec::new();

    for kernel in root_kernels(app) {
        let patterns_span = dvf_obs::span("patterns");
        // Indexed by declaration position; untouched structures stay 0.
        let mut n_ha = vec![0.0f64; app.datas.len()];
        let mut kernel_accesses = 0.0f64;
        for (scaled, data, view) in accesses(app, kernel, config) {
            let _structure_span = dvf_obs::span(data.name.as_str());
            let modeled = estimator
                .n_ha(&scaled.access.pattern, data.size_bytes, &view)
                .map_err(|source| WorkflowError::Model {
                    data: data.name.clone(),
                    source,
                })?;
            let total = modeled * scaled.times as f64 * kernel.iters as f64;
            n_ha[scaled.access.data] += total;
            kernel_accesses += total;
        }

        drop(patterns_span);

        // Execution time: explicit override; else the Aspen roofline fed
        // by explicit `loads`/`stores` declarations when given, or by the
        // modeled traffic otherwise.
        let time_s = dvf_obs::span_scope("time-model", || match kernel.time_s {
            Some(t) => t,
            None => {
                let demand = match kernel.traffic_bytes {
                    Some(bytes) => ResourceDemand {
                        flops: kernel.flops * kernel.iters as f64,
                        mem_bytes: bytes * kernel.iters as f64,
                    },
                    None => ResourceDemand::from_accesses(
                        kernel.flops * kernel.iters as f64,
                        kernel_accesses,
                        config.line_bytes as u64,
                    ),
                };
                demand.time_on(&mm)
            }
        });

        phases.push(AccessAccounting { n_ha, time_s });
    }
    Ok(phases)
}

/// Stable 64-bit fingerprint of the memo-relevant work evaluating `app`
/// on `machine` would perform — without evaluating anything.
///
/// The fingerprint walks the accesses exactly like [`account_phases`]
/// and folds each access's memo identity (pattern parameters × cache-view
/// geometry and sharing ratio, `memo::write_stable`) through a fixed
/// FNV-1a hash ([`crate::gridplan::StableHasher`]), so two processes
/// agree on every fingerprint.
///
/// Two sweep points with equal fingerprints perform identical pattern
/// evaluations: routing them to the same `dvf-serve` shard makes the
/// second a pure memo hit. Inputs that only scale results *outside* the
/// memo cache (kernel `iters`/`times`, flops, the machine's FIT rate and
/// roofline) are deliberately excluded — varying only those must not
/// split a memo-affine group.
pub fn memo_fingerprint(app: &AppSpec, machine: &MachineSpec) -> Result<u64, WorkflowError> {
    let config = cache_config_of(machine)?;
    let mut h = crate::gridplan::StableHasher::new();
    for kernel in root_kernels(app) {
        for (scaled, data, view) in accesses(app, kernel, config) {
            memo::write_stable(&mut h, &scaled.access.pattern, data.size_bytes, &view);
        }
    }
    Ok(h.finish())
}

/// Full Fig. 3 pipeline from resolved specs with the closed-form models:
/// accounting + DVF.
pub fn evaluate(app: &AppSpec, machine: &MachineSpec) -> Result<DvfReport, WorkflowError> {
    report(app, machine, &NhaEstimator::ClosedForm)
}

/// Accounting through `estimator`, then the DVF report.
fn report(
    app: &AppSpec,
    machine: &MachineSpec,
    estimator: &NhaEstimator,
) -> Result<DvfReport, WorkflowError> {
    let phases = account_phases(app, machine, cache_config_of(machine)?, estimator)?;
    let accounting = fold_phases(app, &phases);
    let fit = fit_of(machine);
    Ok(dvf_obs::span_scope("report", || {
        let profiles = app
            .datas
            .iter()
            .zip(accounting.n_ha)
            .map(|(d, n_ha)| DataStructureProfile::new(d.name.clone(), d.size_bytes, n_ha))
            .collect();
        DvfReport::compute(app.name.clone(), fit, accounting.time_s, profiles)
    }))
}

/// Time-resolved DVF per structure (see [`crate::dvf::timed_dvf_d`]):
/// each root kernel is one phase, in declaration order.
pub fn evaluate_timed(
    app: &AppSpec,
    machine: &MachineSpec,
    estimator: &NhaEstimator,
) -> Result<Vec<(String, f64)>, WorkflowError> {
    let phases = account_phases(app, machine, cache_config_of(machine)?, estimator)?;
    let fit = fit_of(machine);
    Ok(app
        .datas
        .iter()
        .enumerate()
        .map(|(pos, d)| {
            let exposures: Vec<crate::dvf::PhaseExposure> = phases
                .iter()
                .map(|p| crate::dvf::PhaseExposure {
                    duration_s: p.time_s,
                    n_ha: p.n_ha[pos],
                })
                .collect();
            (
                d.name.clone(),
                crate::dvf::timed_dvf_d(fit, d.size_bytes, &exposures),
            )
        })
        .collect())
}

/// DVF with per-level exposure splits: the input to Table VII-style
/// "which storage should ECC protect?" studies.
///
/// Every access that leaves cache level `i` touches the storage below it,
/// so a structure's vulnerable-access count with a given protection
/// choice is the sum of its exposures into the *unprotected* storages.
/// With one cache level and no protection this is exactly the paper's
/// `DVF_d = N_error · N_ha`.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyDvf {
    /// Application name.
    pub app: String,
    /// Failure rate of the machine (explicit `fit` or ECC-scheme rate).
    pub fit: FitRate,
    /// Modeled execution time in seconds.
    pub time_s: f64,
    /// Names of the storages below each cache level, top first:
    /// `"L2", …, "Ln", "memory"` (a single-level hierarchy has just
    /// `"memory"`).
    pub storages: Vec<String>,
    /// `(structure name, size in bytes, per-storage exposures)` in
    /// declaration order; `exposures[i]` pairs with `storages[i]`.
    pub exposures: Vec<(String, u64, Vec<f64>)>,
}

impl HierarchyDvf {
    /// `DVF_d` for the structure at position `pos` of
    /// [`HierarchyDvf::exposures`] with ECC protecting the named storages
    /// (empty slice = nothing protected, the paper's default stance for
    /// its unprotected-memory scenario).
    pub fn dvf_of(&self, pos: usize, protected: &[&str]) -> f64 {
        let (_, size, exposures) = &self.exposures[pos];
        let ne = crate::dvf::n_error(self.fit, self.time_s, *size);
        let vulnerable: f64 = self
            .storages
            .iter()
            .zip(exposures)
            .filter(|(s, _)| !protected.contains(&s.as_str()))
            .map(|(_, e)| e)
            .sum();
        ne * vulnerable
    }

    /// Application-level DVF (sum over structures, paper eq. 6) under a
    /// protection choice.
    pub fn dvf_app(&self, protected: &[&str]) -> f64 {
        (0..self.exposures.len())
            .map(|pos| self.dvf_of(pos, protected))
            .sum()
    }

    /// The protect-which-level study: app-level DVF with nothing
    /// protected, then with each storage protected alone — the marginal
    /// value of pointing ECC at each layer.
    pub fn protect_rows(&self) -> Vec<(String, f64)> {
        let mut rows = vec![("none".to_owned(), self.dvf_app(&[]))];
        for storage in &self.storages {
            rows.push((storage.clone(), self.dvf_app(&[storage.as_str()])));
        }
        rows
    }
}

/// Full per-level pipeline: the whole app modeled once per level of
/// `hierarchy` (the paper's CGPMAC stage at each geometry), split into
/// per-storage exposures.
///
/// The traffic below level `i` (level 0 is the L1) — the accesses
/// arriving at the next cache level for `i < n-1`, at main memory for the
/// last — is the CGPMAC evaluation at that level's geometry; with a
/// single level this is exactly the paper's `N_ha` (the paper models the
/// LLC only, §III-C). The last level governs DRAM traffic, so its
/// roofline time is the hierarchy's.
///
/// The independence approximation — level `i`'s misses computed as if it
/// were the only cache — matches simulation for inclusive-style LRU
/// stacks where a bigger cache's hits are a superset of a smaller one's;
/// DESIGN.md §12 documents where it breaks (exclusive victim levels,
/// prefetching).
pub fn evaluate_hierarchy(
    app: &AppSpec,
    machine: &MachineSpec,
    hierarchy: &HierarchyConfig,
    estimator: &NhaEstimator,
) -> Result<HierarchyDvf, WorkflowError> {
    let below_level = hierarchy
        .levels()
        .iter()
        .map(|spec| {
            let phases = account_phases(app, machine, spec.cache, estimator)?;
            Ok(fold_phases(app, &phases))
        })
        .collect::<Result<Vec<_>, WorkflowError>>()?;
    let n = below_level.len();
    let storages = (0..n)
        .map(|i| {
            if i + 1 < n {
                format!("L{}", i + 2)
            } else {
                "memory".to_owned()
            }
        })
        .collect();
    let exposures = app
        .datas
        .iter()
        .enumerate()
        .map(|(pos, d)| {
            let per_storage = below_level.iter().map(|acc| acc.n_ha[pos]).collect();
            (d.name.clone(), d.size_bytes, per_storage)
        })
        .collect();
    Ok(HierarchyDvf {
        app: app.name.clone(),
        fit: fit_of(machine),
        time_s: below_level.last().map(|a| a.time_s).unwrap_or(0.0),
        storages,
        exposures,
    })
}

/// One-call convenience: parse source, resolve (with parameter overrides),
/// evaluate. The document must contain exactly one machine and one model,
/// unless names are given.
pub fn evaluate_source(
    source: &str,
    machine_name: Option<&str>,
    model_name: Option<&str>,
    overrides: &[(&str, f64)],
) -> Result<DvfReport, WorkflowError> {
    let mut wf = DvfWorkflow::parse(source)?;
    wf.machine_name = machine_name.map(str::to_owned);
    wf.model_name = model_name.map(str::to_owned);
    wf.evaluate(overrides)
}

/// A reusable, parse-once workflow for parameter sweeps.
///
/// [`evaluate_source`] re-parses the program at every call; a sweep over a
/// parameter grid only needs to re-*resolve* and re-*evaluate*, and the
/// pattern evaluations themselves are memoized process-wide
/// ([`crate::memo`]), so grid points that share pattern parameters cost a
/// hash lookup. [`DvfWorkflow::sweep_param`] additionally fans the grid
/// across worker threads with [`crate::sweep::par_map`].
#[derive(Debug, Clone)]
pub struct DvfWorkflow {
    doc: dvf_aspen::Document,
    machine_name: Option<String>,
    model_name: Option<String>,
    estimator: NhaEstimator,
}

impl DvfWorkflow {
    /// Parse a resilience-extended Aspen program once for repeated
    /// evaluation.
    pub fn parse(source: &str) -> Result<Self, WorkflowError> {
        let doc = dvf_obs::span_scope("parse", || dvf_aspen::parse(source))?;
        Ok(Self {
            doc,
            machine_name: None,
            model_name: None,
            estimator: NhaEstimator::ClosedForm,
        })
    }

    /// Select a machine by name (default: the document's only machine).
    pub fn with_machine(mut self, name: &str) -> Self {
        self.machine_name = Some(name.to_owned());
        self
    }

    /// Select a model by name (default: the document's only model).
    pub fn with_model(mut self, name: &str) -> Self {
        self.model_name = Some(name.to_owned());
        self
    }

    /// Estimate `N_ha` with `estimator` (default: the closed forms) on
    /// every evaluation path of this workflow.
    pub fn with_estimator(mut self, estimator: NhaEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Resolve with `overrides` and evaluate the full Fig. 3 pipeline.
    pub fn evaluate(&self, overrides: &[(&str, f64)]) -> Result<DvfReport, WorkflowError> {
        self.run(overrides, report)
    }

    /// Evaluate one sweep grid point: the `fixed` overrides plus each of
    /// `dims` at its coordinate in `coords`, as a [`RowOutcome`].
    pub fn evaluate_row(
        &self,
        fixed: &[(String, f64)],
        dims: &[&str],
        coords: &[f64],
    ) -> RowOutcome {
        RowOutcome::of(&self.evaluate(&sweep::point(fixed, dims, coords)))
    }

    /// Resolve with `overrides` and compute time-resolved DVF
    /// ([`evaluate_timed`]).
    pub fn evaluate_timed(
        &self,
        overrides: &[(&str, f64)],
    ) -> Result<Vec<(String, f64)>, WorkflowError> {
        self.run(overrides, evaluate_timed)
    }

    /// Resolve with `overrides` and run the per-level hierarchy pipeline
    /// ([`evaluate_hierarchy`]) instead of the classic LLC-only one.
    pub fn evaluate_hierarchy(
        &self,
        overrides: &[(&str, f64)],
        hierarchy: &HierarchyConfig,
    ) -> Result<HierarchyDvf, WorkflowError> {
        self.run(overrides, |app, machine, estimator| {
            evaluate_hierarchy(app, machine, hierarchy, estimator)
        })
    }

    /// Resolve with `overrides`, then run `pipeline` with this workflow's
    /// estimator, all under one `workflow` span.
    fn run<T>(
        &self,
        overrides: &[(&str, f64)],
        pipeline: impl FnOnce(&AppSpec, &MachineSpec, &NhaEstimator) -> Result<T, WorkflowError>,
    ) -> Result<T, WorkflowError> {
        let _workflow = dvf_obs::span("workflow");
        let (machine, app) = dvf_obs::span_scope("resolve", || self.resolve(overrides))?;
        pipeline(&app, &machine, &self.estimator)
    }

    /// Sweep one parameter over `values` in parallel, preserving order.
    ///
    /// Each grid point is an independent resolve + evaluate; the memoized
    /// pattern cache is shared across workers, so evaluations repeated
    /// between grid points (patterns the swept parameter does not reach)
    /// are computed once.
    pub fn sweep_param(
        &self,
        param: &str,
        values: &[f64],
    ) -> Vec<Result<DvfReport, WorkflowError>> {
        crate::sweep::par_map(values, |&v| self.evaluate(&[(param, v)]))
    }

    /// Stable memo fingerprint of one sweep point: resolve with
    /// `overrides` (cheap — no pattern evaluation) and fingerprint the
    /// resolved work ([`memo_fingerprint`]). The distributed sweep
    /// planner routes each grid point to a shard by this value.
    pub fn point_fingerprint(&self, overrides: &[(&str, f64)]) -> Result<u64, WorkflowError> {
        let (machine, app) = self.resolve(overrides)?;
        memo_fingerprint(&app, &machine)
    }

    /// Resolve just the selected machine under `overrides` (no pattern
    /// evaluation), e.g. to describe it next to a report.
    pub fn machine(&self, overrides: &[(&str, f64)]) -> Result<MachineSpec, WorkflowError> {
        Ok(self
            .resolver(overrides)
            .machine(self.machine_name.as_deref())?)
    }

    /// Resolve under `overrides` into the selected machine and model.
    /// Opens no span: callers that trace resolution wrap it in `resolve`.
    fn resolve(&self, overrides: &[(&str, f64)]) -> Result<(MachineSpec, AppSpec), WorkflowError> {
        let resolver = self.resolver(overrides);
        let machine = resolver.machine(self.machine_name.as_deref())?;
        Ok((machine, resolver.model(self.model_name.as_deref())?))
    }

    fn resolver(&self, overrides: &[(&str, f64)]) -> Resolver<'_> {
        overrides
            .iter()
            .fold(Resolver::new(&self.doc), |r, (k, v)| r.set_param(k, *v))
    }

    /// Every parameter name the document declares (global, machine- and
    /// model-scoped), in source order.
    pub fn param_names(&self) -> Vec<String> {
        self.doc
            .param_names()
            .into_iter()
            .map(str::to_owned)
            .collect()
    }

    /// Reject a sweep/override target the document never declares.
    ///
    /// Overrides of undeclared names are silently inert (the resolver
    /// injects them into an environment nothing reads), so a sweep over a
    /// typo'd name would return a flat line instead of an error. Both the
    /// `dvf sweep` CLI and the `dvf-serve` `/v1/sweep` endpoint call this
    /// before evaluating.
    pub fn check_param(&self, param: &str) -> Result<(), WorkflowError> {
        let known = self.doc.param_names();
        if known.contains(&param) {
            Ok(())
        } else {
            Err(WorkflowError::UnknownParameter {
                param: param.to_owned(),
                known: known.into_iter().map(str::to_owned).collect(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VM_SOURCE: &str = r#"
        machine small {
          cache { associativity = 4  sets = 64  line = 32 }
          memory { fit = 5000 }
          core { flops = 1e9  bandwidth = 4e9 }
        }
        model vm {
          param n = 200
          data A { size = n * 8  element = 8 }
          data B { size = n * 8  element = 8 }
          data C { size = n * 8  element = 8 }
          kernel main {
            flops = 2 * n
            access A as streaming(stride = 4)
            access B as streaming()
            access C as streaming()
          }
        }
    "#;

    #[test]
    fn vm_end_to_end() {
        let report = evaluate_source(VM_SOURCE, None, None, &[]).unwrap();
        assert_eq!(report.structures.len(), 3);
        // A (strided) touches more lines per element than B/C? With
        // stride 4 * 8B = 32B = CL, each reference costs (1+p) lines while
        // B/C load D/CL lines in total: A's N_ha = 50*(1+7/32) ≈ 60.9,
        // B/C = 1600/32 = 50.
        let a = report.dvf_of("A").unwrap();
        let b = report.dvf_of("B").unwrap();
        let c = report.dvf_of("C").unwrap();
        assert!(a > b, "A must be more vulnerable than B");
        assert!((b - c).abs() < 1e-18);
        assert!(report.dvf_app() > a);
    }

    #[test]
    fn accounting_values_match_hand_computation() {
        let doc = dvf_aspen::parse(VM_SOURCE).unwrap();
        let r = Resolver::new(&doc);
        let acc = account_accesses(&r.model(None).unwrap(), &r.machine(None).unwrap()).unwrap();
        // `n_ha` is in declaration order: A, B, C.
        assert!((acc.n_ha[0] - 50.0 * (1.0 + 7.0 / 32.0)).abs() < 1e-9);
        assert!((acc.n_ha[1] - 50.0).abs() < 1e-9);
        assert!(acc.n_ha.iter().sum::<f64>() > 150.0);
    }

    #[test]
    fn explicit_time_override_wins() {
        let src = r#"
            machine m { cache { associativity = 4 sets = 64 line = 32 } }
            model app {
              data A { size = 1024 element = 8 }
              kernel k { time = 2.5  access A as streaming() }
            }
        "#;
        let report = evaluate_source(src, None, None, &[]).unwrap();
        assert_eq!(report.time_s, 2.5);
    }

    #[test]
    fn kernel_iters_scale_accesses_and_flops() {
        let src = r#"
            machine m { cache { associativity = 4 sets = 64 line = 32 } }
            model app {
              data A { size = 1024 element = 8 }
              kernel k { iters = 10  flops = 100  access A as streaming() }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let r = Resolver::new(&doc);
        let acc = account_accesses(&r.model(None).unwrap(), &r.machine(None).unwrap()).unwrap();
        // 1024/32 = 32 lines per pass, 10 passes.
        assert!((acc.n_ha[0] - 320.0).abs() < 1e-9);
    }

    #[test]
    fn ecc_scheme_sets_fit() {
        let src = r#"
            machine m {
              cache { associativity = 4 sets = 64 line = 32 }
              memory { ecc = chipkill }
            }
            model app {
              data A { size = 1024 element = 8 }
              kernel k { access A as streaming() }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let machine = Resolver::new(&doc).machine(None).unwrap();
        assert_eq!(fit_of(&machine).0, 0.02);
    }

    #[test]
    fn explicit_fit_beats_ecc() {
        let src = r#"
            machine m {
              cache { associativity = 4 sets = 64 line = 32 }
              memory { fit = 42  ecc = chipkill }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let machine = Resolver::new(&doc).machine(None).unwrap();
        assert_eq!(fit_of(&machine).0, 42.0);
    }

    #[test]
    fn order_derives_cache_sharing_ratio() {
        // Monte-Carlo shape: Grid and Energy accessed concurrently; the
        // bigger structure gets the bigger share, and both see less cache
        // than they would alone.
        let src = r#"
            machine m { cache { associativity = 8 sets = 128 line = 32 } }
            model mc {
              data G { size = 48 * KiB  element = 16 }
              data E { size = 16 * KiB  element = 16 }
              kernel lookup {
                access G as random(k = 8, iters = 2000)
                access E as random(k = 8, iters = 2000)
                order { (G E) }
              }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let r = Resolver::new(&doc);
        let app = r.model(None).unwrap();
        let machine = r.machine(None).unwrap();
        // G is structure 0, E structure 1.
        assert_eq!(order_ratio(&app, app.kernels[0].order.as_deref(), 0), 0.75);
        assert_eq!(order_ratio(&app, app.kernels[0].order.as_deref(), 1), 0.25);

        // Removing the order (exclusive cache) must not increase accesses.
        let acc_shared = account_accesses(&app, &machine).unwrap();
        let mut app_excl = app.clone();
        app_excl.kernels[0].order = None;
        let acc_excl = account_accesses(&app_excl, &machine).unwrap();
        assert!(acc_shared.n_ha[1] >= acc_excl.n_ha[1]);
    }

    #[test]
    fn untouched_structure_has_zero_nha() {
        let src = r#"
            machine m { cache { associativity = 4 sets = 64 line = 32 } }
            model app {
              data A { size = 1024 element = 8 }
              data Unused { size = 4096 element = 8 }
              kernel k { access A as streaming() }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let r = Resolver::new(&doc);
        let acc = account_accesses(&r.model(None).unwrap(), &r.machine(None).unwrap()).unwrap();
        assert_eq!(acc.n_ha, [32.0, 0.0]);
    }

    #[test]
    fn parameter_overrides_flow_through() {
        let small = evaluate_source(VM_SOURCE, None, None, &[]).unwrap();
        let large = evaluate_source(VM_SOURCE, None, None, &[("n", 20_000.0)]).unwrap();
        assert!(large.dvf_app() > small.dvf_app());
    }

    #[test]
    fn timed_evaluation_orders_phases() {
        // Two kernels of equal work touching different structures: the
        // structure accessed in the later kernel is more exposed.
        let src = r#"
            machine m { cache { associativity = 4 sets = 64 line = 32 } }
            model app {
              data Early { size = 4096 element = 8 }
              data Late { size = 4096 element = 8 }
              kernel first { access Early as streaming() }
              kernel second { access Late as streaming() }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let r = Resolver::new(&doc);
        let app = r.model(None).unwrap();
        let machine = r.machine(None).unwrap();
        let timed = evaluate_timed(&app, &machine, &NhaEstimator::ClosedForm).unwrap();
        let get = |n: &str| timed.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("Late") > 2.0 * get("Early"));
        // Classic DVF sees them as identical.
        let classic = evaluate(&app, &machine).unwrap();
        assert_eq!(classic.dvf_of("Early"), classic.dvf_of("Late"));
    }

    #[test]
    fn control_flow_scales_accounting_and_skips_callees() {
        let src = r#"
            machine m { cache { associativity = 4 sets = 64 line = 32 } }
            model app {
              data A { size = 1024 element = 8 }
              kernel sweep { flops = 10  access A as streaming() }
              kernel main {
                iterate 5 { call sweep }
              }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let r = Resolver::new(&doc);
        let acc = account_accesses(&r.model(None).unwrap(), &r.machine(None).unwrap()).unwrap();
        // Only `main` (the root) is accounted: 5 sweeps of 32 lines each.
        // If `sweep` were double-counted this would read 192.
        assert!((acc.n_ha[0] - 160.0).abs() < 1e-9, "{acc:?}");
    }

    #[test]
    fn check_param_accepts_declared_and_rejects_unknown() {
        let wf = DvfWorkflow::parse(VM_SOURCE).unwrap();
        wf.check_param("n").unwrap();
        let err = wf.check_param("nn").unwrap_err();
        assert!(matches!(err, WorkflowError::UnknownParameter { .. }));
        let msg = err.to_string();
        assert!(msg.contains("`nn`"), "{msg}");
        assert!(msg.contains("n"), "{msg}");
        assert_eq!(wf.param_names(), vec!["n".to_owned()]);
    }

    #[test]
    fn check_param_sees_machine_scoped_params() {
        let src = r#"
            machine m {
              param ways = 8
              cache { associativity = ways  sets = 64  line = 32 }
            }
            model app {
              data A { size = 1024 element = 8 }
              kernel k { access A as streaming() }
            }
        "#;
        let wf = DvfWorkflow::parse(src).unwrap();
        wf.check_param("ways").unwrap();
        assert!(wf.check_param("sets").is_err());
    }

    #[test]
    fn fingerprint_ignores_fit_but_tracks_pattern_reach() {
        let src = r#"
            machine m {
              param fit = 5000
              cache { associativity = 4 sets = 64 line = 32 }
              memory { fit = fit }
            }
            model app {
              param n = 200
              data A { size = n * 8  element = 8 }
              kernel k { access A as streaming() }
            }
        "#;
        let wf = DvfWorkflow::parse(src).unwrap();
        let base = wf.point_fingerprint(&[]).unwrap();
        // FIT scales the report outside the memo cache: same fingerprint.
        assert_eq!(base, wf.point_fingerprint(&[("fit", 9999.0)]).unwrap());
        // `n` reaches the streaming pattern: different fingerprint.
        assert_ne!(base, wf.point_fingerprint(&[("n", 400.0)]).unwrap());
        // Reparsing (a second "process" as far as interners are
        // concerned) reproduces the value.
        let wf2 = DvfWorkflow::parse(src).unwrap();
        assert_eq!(base, wf2.point_fingerprint(&[]).unwrap());
    }

    #[test]
    fn language_errors_surface() {
        let err = evaluate_source("model {", None, None, &[]).unwrap_err();
        assert!(matches!(err, WorkflowError::Language(_)));
        assert!(err.to_string().contains("language error"));
    }

    fn two_level_hierarchy_for(machine: &MachineSpec) -> HierarchyConfig {
        // A quarter-size L1 with the machine's declared cache as the LLC.
        let llc = cache_config_of(machine).unwrap();
        let l1 =
            CacheConfig::new(llc.associativity, (llc.num_sets / 4).max(1), llc.line_bytes).unwrap();
        HierarchyConfig::two_level(l1, llc).unwrap()
    }

    #[test]
    fn single_level_hierarchy_matches_classic_evaluation() {
        let doc = dvf_aspen::parse(VM_SOURCE).unwrap();
        let r = Resolver::new(&doc);
        let app = r.model(None).unwrap();
        let machine = r.machine(None).unwrap();
        let llc = cache_config_of(&machine).unwrap();
        let hier = HierarchyConfig::new(vec![dvf_cachesim::LevelSpec::new(llc)]).unwrap();
        let split = evaluate_hierarchy(&app, &machine, &hier, &NhaEstimator::ClosedForm).unwrap();
        let classic = evaluate(&app, &machine).unwrap();
        // One level → one storage ("memory"); unprotected DVF is the
        // paper's DVF, and protecting memory zeroes it.
        assert_eq!(split.storages, vec!["memory".to_owned()]);
        for (pos, (name, _, _)) in split.exposures.iter().enumerate() {
            let a = split.dvf_of(pos, &[]);
            let b = classic.dvf_of(name).unwrap();
            assert!((a - b).abs() <= 1e-12 * b.abs(), "{name}: {a} vs {b}");
        }
        assert_eq!(split.dvf_app(&["memory"]), 0.0);
    }

    #[test]
    fn hierarchy_exposures_shrink_down_the_stack() {
        let src = r#"
            machine m { cache { associativity = 4 sets = 256 line = 32 } }
            model app {
              data A { size = 512 * KiB  element = 8 }
              data p { size = 4 * KiB  element = 8 }
              kernel iter {
                access A as streaming()
                access p as reuse(reuses = 100)
              }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let r = Resolver::new(&doc);
        let app = r.model(None).unwrap();
        let machine = r.machine(None).unwrap();
        let hier = two_level_hierarchy_for(&machine);
        let split = evaluate_hierarchy(&app, &machine, &hier, &NhaEstimator::ClosedForm).unwrap();
        assert_eq!(split.storages, vec!["L2".to_owned(), "memory".to_owned()]);
        // The reused structure benefits from the bigger level: traffic
        // into memory must not exceed traffic into the L2.
        let (_, _, p) = &split.exposures[1];
        let (into_l2, into_mem) = (p[0], p[1]);
        assert!(into_mem <= into_l2, "{into_mem} > {into_l2}");
        // Protect-which-level rows: none ≥ any single protection, and
        // protecting the busier storage helps at least as much.
        let rows = split.protect_rows();
        assert_eq!(rows[0].0, "none");
        assert_eq!(rows.len(), 3);
        for (label, dvf) in &rows[1..] {
            assert!(*dvf <= rows[0].1, "protecting {label} increased DVF");
        }
    }

    #[test]
    fn reuse_pattern_through_workflow() {
        let src = r#"
            machine m { cache { associativity = 4 sets = 64 line = 32 } }
            model cg {
              data A { size = 512 * KiB  element = 8 }
              data p { size = 4 * KiB  element = 8 }
              kernel iter {
                iters = 1
                access A as streaming()
                access p as reuse(reuses = 100)
              }
            }
        "#;
        let doc = dvf_aspen::parse(src).unwrap();
        let r = Resolver::new(&doc);
        let acc = account_accesses(&r.model(None).unwrap(), &r.machine(None).unwrap()).unwrap();
        // p: 128 blocks footprint; interference (A = 512 KiB) floods the
        // 8 KiB cache, so nearly all of p reloads on each of 100 reuses.
        let p = acc.n_ha[1];
        assert!(p > 100.0 * 100.0, "p N_ha = {p}");
    }
}
