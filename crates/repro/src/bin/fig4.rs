//! Regenerates paper Fig. 4: model verification.
//!
//! Runs each traced kernel at the Table V verification inputs, replays its
//! reference stream through the LRU simulator at the Small (8 KB) and
//! Large (4 MB) verification caches, and compares against the CGPMAC
//! analytical estimates. The paper reports error within 15 % in all cases.

fn main() {
    // DVF_PROFILE=1 (or =json) dumps the replay and fan-out counters to
    // stderr at the end; stdout is the same either way.
    let profile = dvf_obs::init_from_env();
    println!("Fig. 4 — Verification of estimating number of main memory accesses");
    println!("(inputs: Table V; caches: Table IV Small 8KB / Large 4MB; LRU)\n");
    let results = dvf_repro::verify_all();
    print!("{}", dvf_repro::render::render_verification(&results));

    if let Some(dir) = dvf_repro::csv::csv_dir_from_args() {
        let rows: Vec<Vec<String>> = results
            .iter()
            .flat_map(|k| &k.rows)
            .map(|r| {
                vec![
                    r.kernel.to_owned(),
                    r.data.clone(),
                    r.cache.to_owned(),
                    format!("{}", r.modeled),
                    format!("{}", r.measured),
                    format!("{}", r.error()),
                ]
            })
            .collect();
        let path = dvf_repro::csv::write_csv(
            &dir,
            "fig4",
            &[
                "kernel",
                "data",
                "cache",
                "modeled",
                "simulated",
                "rel_error",
            ],
            &rows,
        )
        .expect("write csv");
        println!("\nwrote {}", path.display());
    }
    if let Some(format) = profile {
        format.eprint(&dvf_obs::snapshot());
    }
}
