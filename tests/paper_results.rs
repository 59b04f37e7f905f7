//! Scaled-down versions of the paper's headline results, small enough to
//! run in the regular (debug) test suite. The full-size reproductions
//! live in the `dvf-repro` binaries.

use dvf::cachesim::config::table4;
use dvf::cachesim::simulate;
use dvf::core::fit::EccScheme;
use dvf::core::sweep::{degradation_grid, EccTradeoff};
use dvf::kernels::{barnes_hut, mc, mg, vm, Recorder};
use dvf::repro::models;
use dvf::repro::usecases::fig6_sweep;
use std::hint::black_box;
use std::time::Instant;

/// Verify one kernel's model against the simulator at both verification
/// caches; return the worst relative error.
fn worst_error(
    trace: &dvf::cachesim::Trace,
    model: impl Fn(dvf::cachesim::CacheConfig) -> Vec<models::StructureModel>,
) -> f64 {
    let mut worst = 0.0f64;
    for config in [table4::SMALL_VERIFICATION, table4::LARGE_VERIFICATION] {
        let report = simulate(trace, config);
        for m in model(config) {
            let ds = trace.registry.id(m.name).expect("structure traced");
            let measured = report.ds(ds).misses as f64;
            let err = if measured == 0.0 {
                if m.n_ha == 0.0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (m.n_ha - measured).abs() / measured
            };
            worst = worst.max(err);
        }
    }
    worst
}

#[test]
fn fig4_vm_error_within_bound() {
    let params = vm::VmParams {
        n: 1000,
        stride_a: 4,
    };
    let rec = Recorder::new();
    vm::run_traced(params, &rec);
    let trace = rec.into_trace();
    let err = worst_error(&trace, |cfg| models::vm_model(params, cfg));
    assert!(err <= 0.15, "VM error {:.1}%", err * 100.0);
}

#[test]
fn fig4_nb_error_within_bound() {
    // Table V's actual input (1000 particles): the paper's 15% bound is a
    // statement about its input sizes; smaller bodies counts drift a few
    // points higher.
    let params = barnes_hut::NbParams::verification();
    let rec = Recorder::new();
    let out = barnes_hut::run_traced(params, &rec);
    let trace = rec.into_trace();
    let err = worst_error(&trace, |cfg| models::nb_model(&out, cfg));
    assert!(err <= 0.15, "NB error {:.1}%", err * 100.0);
}

#[test]
fn fig4_mg_error_within_bound() {
    let params = mg::MgParams {
        n: 16,
        cycles: 1,
        smooths: 2,
    };
    let rec = Recorder::new();
    mg::run_traced(params, &rec);
    let trace = rec.into_trace();
    let err = worst_error(&trace, |cfg| models::mg_model(params, cfg));
    assert!(err <= 0.15, "MG error {:.1}%", err * 100.0);
}

#[test]
fn fig4_mc_error_within_bound() {
    let params = mc::McParams {
        grid_points: 5000,
        xs_entries: 3000,
        lookups: 500,
        seed: 42,
    };
    let rec = Recorder::new();
    mc::run_traced(params, &rec);
    let trace = rec.into_trace();
    let err = worst_error(&trace, |cfg| models::mc_model(params, cfg));
    assert!(err <= 0.15, "MC error {:.1}%", err * 100.0);
}

#[test]
fn fig6_shape_crossover() {
    // Tiny version of use case A: PCG not better at the small size, better
    // at the large one.
    let rows = fig6_sweep(&[100, 400]);
    assert!(rows[0].pcg_dvf >= rows[0].cg_dvf * 0.999, "small n");
    assert!(rows[1].pcg_dvf < rows[1].cg_dvf, "large n");
}

#[test]
fn fig7_shape_u_curve() {
    let grid = degradation_grid(0.30, 30);
    for scheme in [EccScheme::Secded, EccScheme::ChipkillCorrect] {
        let pts = EccTradeoff::new(scheme).sweep(1.0, 1 << 20, 1e4, &grid);
        let min_idx = pts
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.dvf.total_cmp(&b.1.dvf))
            .map(|(i, _)| i)
            .expect("nonempty");
        // Minimum at 5% (index 5 on a 1%-grid), strictly interior.
        assert_eq!(min_idx, 5, "{scheme:?}");
        assert!(pts[0].dvf > pts[min_idx].dvf);
        assert!(pts[30].dvf > pts[min_idx].dvf);
    }
}

#[test]
fn table7_ordering() {
    assert!(
        EccScheme::ChipkillCorrect.fit_per_mbit() < EccScheme::Secded.fit_per_mbit()
            && EccScheme::Secded.fit_per_mbit() < EccScheme::None.fit_per_mbit()
    );
}

/// Median seconds per call of `f`, over `samples` timings of `batch`
/// calls each (a batch lifts a sub-microsecond call above the clock's
/// resolution).
fn median_s(samples: usize, batch: u32, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            started.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[samples / 2]
}

/// The paper's efficiency claim (§I): a closed-form model answers what
/// tracing the kernel and simulating the cache answers, for a small
/// fraction of the cost.
#[test]
fn model_is_at_least_100x_cheaper_than_trace_and_simulate() {
    const MIN_RATIO: f64 = 100.0;
    let cache = table4::SMALL_VERIFICATION;
    let model_s = |f: &dyn Fn() -> Vec<models::StructureModel>| {
        median_s(11, 1000, || {
            black_box(f());
        })
    };
    let simulate_s = |run: &dyn Fn(&Recorder)| {
        median_s(5, 1, || {
            let rec = Recorder::new();
            run(&rec);
            black_box(simulate(&rec.into_trace(), cache).total());
        })
    };

    let vm_params = vm::VmParams::verification();
    let nb_params = barnes_hut::NbParams::verification();
    let nb_out = barnes_hut::run_plain(nb_params);
    let mc_params = mc::McParams::verification();
    let costs = [
        (
            "VM",
            model_s(&|| models::vm_model(black_box(vm_params), cache)),
            simulate_s(&|rec| {
                vm::run_traced(vm_params, rec);
            }),
        ),
        (
            "NB",
            model_s(&|| models::nb_model(black_box(&nb_out), cache)),
            simulate_s(&|rec| {
                barnes_hut::run_traced(nb_params, rec);
            }),
        ),
        (
            "MC",
            model_s(&|| models::mc_model(black_box(mc_params), cache)),
            simulate_s(&|rec| {
                mc::run_traced(mc_params, rec);
            }),
        ),
    ];
    for (kernel, model, sim) in costs {
        let ratio = sim / model;
        println!(
            "{kernel}: model {:.3} us, trace+simulate {:.1} us, {ratio:.0}x",
            model * 1e6,
            sim * 1e6
        );
        assert!(
            ratio >= MIN_RATIO,
            "{kernel}: trace+simulate is only {ratio:.0}x the model (bound {MIN_RATIO}x)"
        );
    }
}
