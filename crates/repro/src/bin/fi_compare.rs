//! Extension study: DVF vs statistical fault injection.
//!
//! Runs the baseline methodology the paper argues against — hundreds of
//! single-bit-flip kernel re-executions per data structure — and compares
//! it with the one-shot DVF model on two axes:
//!
//! * **cost**: kernel executions and wall time, versus the measured time
//!   of the model evaluations;
//! * **signal**: does the DVF ranking of structures agree with the
//!   empirically measured impact ranking?
//!
//! The comparison also shows what each method *can't* see: fault injection
//! captures algorithmic masking (CG absorbing low-order operator flips)
//! that DVF's exposure metric does not model, while DVF prices in the
//! hardware failure rate and exposure time that injection ignores.

use dvf_cachesim::config::table4;
use dvf_core::dvf::dvf_d;
use dvf_core::fit::{EccScheme, FitRate};
use dvf_core::timemodel::{MachineModel, ResourceDemand};
use dvf_faultinject::{mc_campaign, vm_campaign, Campaign};
use dvf_kernels::{mc, vm};
use dvf_repro::models::{self, StructureModel};

fn dvf_of(structures: &[StructureModel], flops: f64) -> Vec<(String, f64)> {
    let cache = table4::PROFILE_8MB;
    let machine = MachineModel::default();
    let fit = FitRate::of(EccScheme::None);
    let total_nha: f64 = structures.iter().map(|s| s.n_ha).sum();
    let time =
        ResourceDemand::from_accesses(flops, total_nha, cache.line_bytes as u64).time_on(&machine);
    structures
        .iter()
        .map(|s| (s.name.to_owned(), dvf_d(fit, time, s.size_bytes, s.n_ha)))
        .collect()
}

fn report(kernel: &str, campaign: &Campaign, dvf: &[(String, f64)], elapsed_s: f64, model_s: f64) {
    println!("\n== {kernel} ==");
    println!(
        "{:<6} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "data", "benign", "SDC", "detected", "impact%", "DVF"
    );
    for r in &campaign.results {
        let d = dvf
            .iter()
            .find(|(n, _)| n == &r.structure)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        println!(
            "{:<6} {:>8} {:>8} {:>10} {:>9.1}% {:>12.3e}",
            r.structure,
            r.benign,
            r.sdc,
            r.detected,
            r.impact_rate() * 100.0,
            d
        );
    }
    println!(
        "cost: {} kernel executions, {:.2} s wall (vs {} model evaluations in {:.1} µs)",
        campaign.executions,
        elapsed_s,
        campaign.results.len(),
        model_s * 1e6
    );

    // Rank agreement on the most-vulnerable structure.
    let fi_top = campaign
        .results
        .iter()
        .max_by(|a, b| a.impact_rate().total_cmp(&b.impact_rate()))
        .map(|r| r.structure.clone())
        .unwrap_or_default();
    let dvf_top = dvf
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(n, _)| n.clone())
        .unwrap_or_default();
    println!(
        "most vulnerable: fault injection says `{fi_top}`, DVF says `{dvf_top}` -> {}",
        if fi_top == dvf_top {
            "AGREE"
        } else {
            "methods weight different effects (see header)"
        }
    );
}

fn main() {
    println!("DVF vs statistical fault injection (single-bit flips, seeded)");
    // Campaign and model times come from the spans the campaigns and
    // `main` record, so enable instrumentation unconditionally; DVF_PROFILE
    // additionally dumps the full profile at the end.
    let profile = dvf_obs::init_from_env();
    dvf_obs::set_enabled(true);
    let trials = 300;
    // Trials fan across every core; per-trial seeding keeps the tallies
    // bit-identical to a sequential campaign.

    // --- VM ---
    let vm_params = vm::VmParams {
        n: 4000,
        stride_a: 4,
    };
    let vm_fi = vm_campaign(vm_params, trials, 42);
    let vm_elapsed = dvf_obs::snapshot()
        .span_total_s("campaign:VM")
        .unwrap_or(0.0);
    let vm_out = vm::run_plain(vm_params);
    let vm_dvf = dvf_obs::span_scope("model:VM", || {
        dvf_of(
            &models::vm_model(vm_params, table4::PROFILE_8MB),
            vm_out.flops,
        )
    });
    let vm_model_s = dvf_obs::snapshot().span_total_s("model:VM").unwrap_or(0.0);
    report("VM", &vm_fi, &vm_dvf, vm_elapsed, vm_model_s);

    // --- MC ---
    let mc_params = mc::McParams {
        grid_points: 20_000,
        xs_entries: 12_000,
        lookups: 2_000,
        seed: 42,
    };
    let mc_fi = mc_campaign(mc_params, trials, 43);
    let mc_elapsed = dvf_obs::snapshot()
        .span_total_s("campaign:MC")
        .unwrap_or(0.0);
    let mc_out = mc::run_plain(mc_params);
    let mc_dvf = dvf_obs::span_scope("model:MC", || {
        dvf_of(
            &models::mc_model(mc_params, table4::PROFILE_8MB),
            mc_out.flops,
        )
    });
    let mc_model_s = dvf_obs::snapshot().span_total_s("model:MC").unwrap_or(0.0);
    report("MC", &mc_fi, &mc_dvf, mc_elapsed, mc_model_s);

    println!(
        "\nTakeaway: injection needs O(trials x structures) full runs for one\n\
         statistical estimate at one hardware point; the DVF model answers per\n\
         (structure, cache, ECC) point in closed form — the paper's core pitch."
    );

    if let Some(format) = profile {
        format.eprint(&dvf_obs::snapshot());
    }
}
