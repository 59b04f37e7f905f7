//! Extension study: does an L1 in front of the LLC change DVF inputs?
//!
//! The paper models the LLC only, arguing it dominates main-memory
//! traffic (§III-C). This study replays all six verification traces
//! through a 32 KiB L1 + 4 MiB LLC hierarchy and compares the DRAM load
//! counts against the LLC-only simulation — quantifying the paper's
//! assumption kernel by kernel.
//!
//! A second table goes where the paper could not: a three-level stack
//! (32 KiB + 256 KiB + 4 MiB) reporting per-kernel traffic *into each
//! storage* (L2, L3, DRAM). Those per-level exposures are the `N_ha`
//! terms of the per-level DVF extension — a structure's data is
//! vulnerable in every array it sits in — so the closing
//! protect-which-level table shows what fraction of the total exposure
//! survives when ECC protects exactly one storage (the Table VII
//! trade-off, asked level by level). Supports `--csv <dir>`.

use dvf_cachesim::{
    config::table4, simulate, simulate_hierarchy, simulate_hierarchy_config, CacheConfig,
    HierarchyConfig, LevelSpec, Trace,
};
use dvf_kernels::{Recorder, VERIFICATION};

fn main() {
    let l1 = CacheConfig::new(8, 64, 64).expect("valid geometry"); // 32 KiB
    let llc = table4::LARGE_VERIFICATION; // 4 MiB

    println!("Hierarchy study — DRAM loads: LLC-only vs L1(32KiB)+LLC(4MiB)");
    println!("(verification traces, LRU at both levels)\n");
    println!(
        "{:<6} {:<8} {:>14} {:>14} {:>9}",
        "kernel", "data", "LLC only", "L1+LLC", "delta"
    );

    let cases: Vec<(String, Trace)> = VERIFICATION
        .iter()
        .map(|(name, run)| {
            let rec = Recorder::new();
            run(&rec);
            (name.to_uppercase(), rec.into_trace())
        })
        .collect();

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut worst: f64 = 0.0;
    for (kernel, trace) in &cases {
        let single = simulate(trace, llc);
        let hier = simulate_hierarchy(trace, l1, llc);
        for (ds, name) in trace.registry.iter() {
            let only = single.ds(ds).mem_accesses();
            let both = hier.mem_accesses(ds);
            if only == 0 && both == 0 {
                continue;
            }
            let delta = both as f64 / only.max(1) as f64 - 1.0;
            worst = worst.max(delta.abs());
            println!(
                "{kernel:<6} {name:<8} {only:>14} {both:>14} {:>8.2}%",
                delta * 100.0
            );
            csv_rows.push(vec![
                kernel.to_string(),
                name.to_owned(),
                only.to_string(),
                both.to_string(),
                format!("{delta}"),
            ]);
        }
    }

    println!(
        "\nworst |delta|: {:.2}% — the paper's LLC-only modeling loses almost\n\
         nothing on these kernels: reuse short enough for L1 is also short\n\
         enough for the LLC, so DRAM traffic is unchanged.",
        worst * 100.0
    );

    // ---- Three-level stack: per-storage exposures and protection ----
    let l2 = CacheConfig::new(8, 512, 64).expect("valid geometry"); // 256 KiB
    let stack = HierarchyConfig::new(vec![
        LevelSpec::new(l1),
        LevelSpec::new(l2),
        LevelSpec::new(llc),
    ])
    .expect("valid stack");

    println!("\nPer-level exposure — 3-level stack 32KiB + 256KiB + 4MiB (LRU, NINE)");
    println!(
        "(accesses into each storage; a structure is vulnerable in every array it occupies)\n"
    );
    println!(
        "{:<6} {:<8} {:>12} {:>12} {:>12}",
        "kernel", "data", "into L2", "into L3", "into DRAM"
    );

    let mut level_rows: Vec<Vec<String>> = Vec::new();
    let mut protect_rows: Vec<Vec<String>> = Vec::new();
    for (kernel, trace) in &cases {
        let hier = simulate_hierarchy_config(trace, &stack);
        // Traffic into storage below level i: the demand stream level
        // i+1 observes, or DRAM's demand loads + writebacks at the
        // bottom — the same boundary accounting
        // `dvf_core::evaluate_hierarchy` models analytically.
        let mut totals = [0u64; 3];
        for (ds, name) in trace.registry.iter() {
            let into_l2 = hier.levels[1].stats.ds(ds).accesses();
            let into_l3 = hier.levels[2].stats.ds(ds).accesses();
            let into_dram = hier.mem_accesses(ds);
            if into_l2 == 0 && into_dram == 0 {
                continue;
            }
            totals[0] += into_l2;
            totals[1] += into_l3;
            totals[2] += into_dram;
            println!("{kernel:<6} {name:<8} {into_l2:>12} {into_l3:>12} {into_dram:>12}");
            level_rows.push(vec![
                kernel.to_string(),
                name.to_owned(),
                into_l2.to_string(),
                into_l3.to_string(),
                into_dram.to_string(),
            ]);
        }
        let all: u64 = totals.iter().sum();
        for (label, protected) in [
            ("none", None),
            ("L2", Some(0)),
            ("L3", Some(1)),
            ("memory", Some(2)),
        ] {
            let vulnerable: u64 = totals
                .iter()
                .enumerate()
                .filter(|(i, _)| protected != Some(*i))
                .map(|(_, v)| v)
                .sum();
            let pct = if all == 0 {
                0.0
            } else {
                100.0 * vulnerable as f64 / all as f64
            };
            protect_rows.push(vec![
                kernel.to_string(),
                label.to_string(),
                vulnerable.to_string(),
                format!("{pct:.1}"),
            ]);
        }
    }

    println!("\nProtect-which-level — % of total exposure left vulnerable with ECC on one storage");
    println!(
        "{:<6} {:>10} {:>10} {:>10}",
        "kernel", "ECC L2", "ECC L3", "ECC mem"
    );
    for chunk in protect_rows.chunks(4) {
        let kernel = &chunk[0][0];
        let pct = |row: &Vec<String>| row[3].clone();
        println!(
            "{kernel:<6} {:>9}% {:>9}% {:>9}%",
            pct(&chunk[1]),
            pct(&chunk[2]),
            pct(&chunk[3])
        );
    }
    println!(
        "\nReading: streaming kernels concentrate exposure at DRAM (ECC mem wins);\n\
         reuse-heavy kernels leave most accesses in the upper arrays, where\n\
         per-level ECC on L2/L3 buys more than the paper's memory-only Table VII."
    );

    if let Some(dir) = dvf_repro::csv::csv_dir_from_args() {
        let path = dvf_repro::csv::write_csv(
            &dir,
            "hierarchy",
            &["kernel", "data", "llc_only", "l1_plus_llc", "delta"],
            &csv_rows,
        )
        .expect("write csv");
        println!("wrote {}", path.display());
        let path = dvf_repro::csv::write_csv(
            &dir,
            "hierarchy_levels",
            &["kernel", "data", "into_l2", "into_l3", "into_dram"],
            &level_rows,
        )
        .expect("write csv");
        println!("wrote {}", path.display());
        let path = dvf_repro::csv::write_csv(
            &dir,
            "hierarchy_protect",
            &["kernel", "protected", "vulnerable_accesses", "pct_of_none"],
            &protect_rows,
        )
        .expect("write csv");
        println!("wrote {}", path.display());
    }
}
