//! Label pipeline and regression gate for the learned `N_ha` predictor.
//!
//! This module is where the repo's outputs become its own training data:
//! the oracle's seeded workload generators ([`crate::workloads`]) are
//! recorded once per replica into a pair of sinks, the simulator
//! [`Fanout`] (ground-truth labels) and the in-stream featurizer
//! ([`FeatureSink`](dvf_learn::FeatureSink), cheap features): one fused
//! pass, no trace materialized. The resulting (features × geometry →
//! misses) samples feed `dvf-learn`'s deterministic trainer.
//!
//! Labels are simulated over the *union* of every oracle geometry (nine
//! distinct single-level LRU caches from 8 KiB fully-associative to
//! 256 KiB 8-way), not just the three documented per pattern, so the
//! model sees capacity, associativity and line-size variation for every
//! access pattern.
//!
//! [`score_model`] is the permanent regression gate: it replays the
//! differential grid, predicts each point from stream features alone,
//! and compares against the simulator — `diffcheck --predict` fails the
//! build when [`PREDICT_BOUND`] is exceeded.

use crate::oracle::{self, geometry_label};
use crate::workloads::WorkloadDef;
use dvf_cachesim::{CacheConfig, DsId, Simulator};
use dvf_kernels::{record_into, Fanout};
use dvf_learn::{assemble, train, CvReport, Dataset, FeatureVector, NhaModel, Sample, TrainConfig};
use dvf_obs::JsonWriter;
use std::cell::Cell;
use std::fmt::Write as _;

/// Pinned ceiling for the shipped model's maximum relative error on the
/// full differential grid (`diffcheck --predict` exits 1 beyond this).
/// Measured 0.14–0.21 across seeds (including cross-seed scoring, i.e.
/// predicting placements the model never trained on); 0.30 leaves margin
/// without letting a real regression through.
pub const PREDICT_BOUND: f64 = 0.30;

/// Pinned ceiling for the *cross-validated* maximum relative error
/// reported at training time (`dvf learn train --max-rel-err` defaults
/// to this; the CI learn-smoke step enforces it). Held-out maxima run
/// 0.58–0.68 across seeds — individual replica placements of the reuse
/// pattern are noisier than the replica-averaged grid points the score
/// gate sees.
pub const CV_BOUND: f64 = 0.8;

/// The union of every oracle geometry, deduplicated, in a stable order —
/// the training-label geometry grid.
pub fn train_geometries() -> Vec<CacheConfig> {
    let mut geoms: Vec<CacheConfig> = Vec::new();
    for replicas in oracle::build_workloads(1, true) {
        for p in &replicas[0].points {
            if !geoms.contains(&p.config) {
                geoms.push(p.config);
            }
        }
    }
    geoms
}

/// Record one workload replica once, fanning the identical stream into
/// the simulators and the featurizer. Returns (per-job miss counts of
/// the target structure, the target's feature vector).
fn replay_featurized(w: &WorkloadDef, geoms: &[CacheConfig]) -> (Vec<u64>, FeatureVector) {
    let target = Cell::new(DsId(0));
    let sims = Fanout::new(geoms.iter().map(|&g| Simulator::new(g)).collect());
    let (_registry, (sims, sink)) = record_into((sims, dvf_learn::FeatureSink::new()), |rec| {
        target.set(w.record(rec))
    });
    let features = sink.finish();
    let misses = sims
        .finish()
        .into_iter()
        .map(|sim| sim.finish().ds(target.get()).misses)
        .collect();
    (misses, features.ds(target.get()))
}

/// Build the labeled dataset for one (seed, grid) — every workload
/// replica × every training geometry.
pub fn build_dataset(seed: u64, smoke: bool) -> Dataset {
    let _span = dvf_obs::span("learn.dataset");
    let geoms = train_geometries();
    let mut samples = Vec::new();
    for replicas in oracle::build_workloads(seed, smoke) {
        for w in &replicas {
            let (misses, fv) = replay_featurized(w, &geoms);
            for (&g, &m) in geoms.iter().zip(&misses) {
                let x = assemble(&fv, g);
                let base = x[1] * fv.accesses as f64;
                samples.push(Sample {
                    x,
                    y: ((m as f64 + 1.0) / (base + 1.0)).ln(),
                    accesses: fv.accesses as f64,
                    misses: m as f64,
                    tag: format!("{} {} {}", w.pattern, w.case, geometry_label(g)),
                });
            }
        }
    }
    dvf_obs::add("learn.dataset.samples", samples.len() as u64);
    Dataset { samples }
}

/// Train a model on the (seed, grid) dataset. The returned artifact is
/// byte-deterministic in (seed, smoke): same inputs, same JSON.
pub fn train_grid(seed: u64, smoke: bool, folds: usize) -> (NhaModel, CvReport) {
    let dataset = build_dataset(seed, smoke);
    let cfg = TrainConfig {
        seed,
        folds,
        ..TrainConfig::default()
    };
    let (mut model, report) = train(&dataset, &cfg);
    model.smoke = smoke;
    (model, report)
}

/// One scored grid point: learned prediction vs simulator ground truth.
#[derive(Debug, Clone)]
pub struct PredictPoint {
    /// Pattern name.
    pub pattern: &'static str,
    /// Problem-size parameters.
    pub case: String,
    /// Cache geometry.
    pub config: CacheConfig,
    /// Model prediction from stream features.
    pub predicted: f64,
    /// Simulator miss count (averaged over placement replicas).
    pub simulated: f64,
    /// `|predicted − simulated| / max(simulated, 1)`.
    pub rel_err: f64,
}

/// Result of scoring a model against the differential grid.
#[derive(Debug)]
pub struct PredictReport {
    /// Base seed of the grid.
    pub seed: u64,
    /// Whether the reduced smoke grid was scored.
    pub smoke: bool,
    /// Bound the gate compares against.
    pub bound: f64,
    /// Every scored point, in grid order.
    pub points: Vec<PredictPoint>,
}

impl PredictReport {
    /// Largest relative error across the grid.
    pub fn max_rel_err(&self) -> f64 {
        self.points.iter().map(|p| p.rel_err).fold(0.0, f64::max)
    }

    /// Mean relative error across the grid.
    pub fn mean_rel_err(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.rel_err).sum::<f64>() / self.points.len() as f64
    }

    /// Whether every point is within the gate bound.
    pub fn pass(&self) -> bool {
        self.max_rel_err() <= self.bound
    }

    /// Plain-text predicted-vs-simulated table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "learned predictor vs simulator: seed={} grid={} bound={:.2}",
            self.seed,
            if self.smoke { "smoke" } else { "full" },
            self.bound
        );
        let _ = writeln!(
            out,
            "{:<9} {:<24} {:<16} {:>12} {:>12} {:>8}  status",
            "pattern", "case", "geometry", "predicted", "simulated", "rel_err"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<9} {:<24} {:<16} {:>12.1} {:>12.1} {:>8.4}  {}",
                p.pattern,
                p.case,
                geometry_label(p.config),
                p.predicted,
                p.simulated,
                p.rel_err,
                if p.rel_err <= self.bound {
                    "ok"
                } else {
                    "FAIL"
                }
            );
        }
        let _ = writeln!(
            out,
            "{} points, max rel_err {:.4}, mean rel_err {:.4}, bound {:.2} — {}",
            self.points.len(),
            self.max_rel_err(),
            self.mean_rel_err(),
            self.bound,
            if self.pass() { "PASS" } else { "FAIL" }
        );
        out
    }

    /// Versioned machine-readable report (`dvf-learn-score/1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("dvf-learn-score/1");
        w.key("seed").u64(self.seed);
        w.key("smoke").bool(self.smoke);
        w.key("bound").f64(self.bound);
        w.key("points").begin_array();
        for p in &self.points {
            w.begin_object();
            w.key("pattern").string(p.pattern);
            w.key("case").string(&p.case);
            w.key("geometry").string(&geometry_label(p.config));
            w.key("predicted").f64(p.predicted);
            w.key("simulated").f64(p.simulated);
            w.key("rel_err").f64(p.rel_err);
            w.end_object();
        }
        w.end_array();
        w.key("summary").begin_object();
        w.key("points").u64(self.points.len() as u64);
        w.key("max_rel_err").f64(self.max_rel_err());
        w.key("mean_rel_err").f64(self.mean_rel_err());
        w.key("pass").bool(self.pass());
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Score a model against the differential grid: replay every workload,
/// featurize in-stream, predict each (case, geometry) point and compare
/// with the simulator (replica-averaged on both sides, mirroring the
/// oracle).
pub fn score_model(model: &NhaModel, seed: u64, smoke: bool) -> PredictReport {
    score_model_with_bound(model, seed, smoke, PREDICT_BOUND)
}

/// [`score_model`] with an explicit gate bound.
pub fn score_model_with_bound(
    model: &NhaModel,
    seed: u64,
    smoke: bool,
    bound: f64,
) -> PredictReport {
    let _span = dvf_obs::span("learn.score");
    let mut points = Vec::new();
    for replicas in oracle::build_workloads(seed, smoke) {
        let head = &replicas[0];
        let geoms: Vec<CacheConfig> = head.points.iter().map(|p| p.config).collect();
        let mut sim_sums = vec![0.0; head.points.len()];
        let mut pred_sums = vec![0.0; head.points.len()];
        for w in &replicas {
            let (misses, fv) = replay_featurized(w, &geoms);
            for (i, (&m, mp)) in misses.iter().zip(&head.points).enumerate() {
                sim_sums[i] += m as f64;
                pred_sums[i] += model.predict(&fv, mp.config);
            }
        }
        let n = replicas.len() as f64;
        for ((mp, sim), pred) in head.points.iter().zip(&sim_sums).zip(&pred_sums) {
            let simulated = sim / n;
            let predicted = pred / n;
            points.push(PredictPoint {
                pattern: head.pattern,
                case: head.case.clone(),
                config: mp.config,
                predicted,
                simulated,
                rel_err: (predicted - simulated).abs() / simulated.max(1.0),
            });
        }
    }
    dvf_obs::add("learn.score.points", points.len() as u64);
    PredictReport {
        seed,
        smoke,
        bound,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_covers_grid_and_geometries() {
        let ds = build_dataset(3, true);
        let geoms = train_geometries().len();
        assert!(geoms >= 6, "geometry union too small: {geoms}");
        // Smoke grid: 2 cases per pattern; stochastic patterns carry
        // replicas. Every recording yields one sample per geometry.
        assert_eq!(ds.samples.len() % geoms, 0);
        assert!(ds.samples.len() >= 8 * geoms);
    }

    #[test]
    fn smoke_training_is_deterministic_and_bounded() {
        let (m1, r1) = train_grid(5, true, 4);
        let (m2, _) = train_grid(5, true, 4);
        assert_eq!(m1.to_json(), m2.to_json());
        assert!(
            r1.bound.max_rel_err <= CV_BOUND,
            "held-out max rel err {} beyond pinned bound",
            r1.bound.max_rel_err
        );
    }
}
