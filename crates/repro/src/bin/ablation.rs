//! Extension study: how sensitive is the CGPMAC/LRU modeling to the
//! simulator's replacement policy?
//!
//! The paper's models assume LRU. This ablation streams each verification
//! kernel through LRU, FIFO, tree-PLRU and random replacement simulators
//! simultaneously and reports the per-policy main-memory loads, quantifying
//! how far the LRU assumption drifts on other policies. Kernels run in
//! parallel (one worker per kernel), and each kernel's reference stream
//! fans across all four policies via the fused `record_fanout` pipeline —
//! no trace is materialized.

use dvf_cachesim::{config::table4, PolicyKind, SimJob, SimReport};
use dvf_core::sweep::par_map;
use dvf_kernels::{record_fanout, VERIFICATION};

fn main() {
    // DVF_PROFILE=1 (or =json) dumps the replay and fan-out counters to
    // stderr at the end; stdout is the same either way.
    let profile = dvf_obs::init_from_env();
    println!("Ablation — replacement-policy sensitivity of the verification traces");
    println!("(Small 8KB verification cache; per-kernel total main-memory loads)\n");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "kernel", "refs", "lru", "fifo", "plru", "random"
    );

    // Five kernels: the drift table in EXPERIMENTS.md has no CG row.
    let kernels: Vec<_> = VERIFICATION
        .iter()
        .filter(|(name, _)| *name != "cg")
        .collect();

    let jobs: Vec<SimJob> = PolicyKind::ALL
        .iter()
        .map(|&policy| SimJob {
            config: table4::SMALL_VERIFICATION,
            policy,
        })
        .collect();

    let results: Vec<(&str, Vec<SimReport>)> = par_map(&kernels, |&&(name, run)| {
        let (_registry, reports) = record_fanout(&jobs, run);
        (name, reports)
    });

    for (name, reports) in &results {
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12}",
            name.to_uppercase(),
            reports[0].refs,
            reports[0].total().misses,
            reports[1].total().misses,
            reports[2].total().misses,
            reports[3].total().misses
        );
    }

    println!("\nInterpretation: streaming-dominated kernels (VM) are policy-insensitive;");
    println!("reuse-heavy kernels (FT, MG) drift most under FIFO/random, bounding the");
    println!("error of applying the LRU-based analytical models to other hardware.");
    if let Some(format) = profile {
        format.eprint(&dvf_obs::snapshot());
    }
}
