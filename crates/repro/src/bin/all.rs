//! `all` — run the complete reproduction in one command.
//!
//! Executes every table, figure and extension study in order, printing
//! each section and (with `--csv <dir>`) writing the figure series as
//! CSV. Equivalent to running the individual binaries back to back, but
//! sharing compiled artifacts and a single process.

use dvf_repro::{csv, render, usecases, verify};

fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("== {title}");
    println!("{}", "=".repeat(72));
}

fn main() {
    // Section timing runs through dvf-obs spans; DVF_PROFILE=1 (or =json)
    // dumps the per-section breakdown to stderr at the end.
    let profile = dvf_obs::init_from_env();
    dvf_obs::set_enabled(true);
    let run_span = dvf_obs::span("all");
    let csv_dir = csv::csv_dir_from_args();

    banner("Table II — the six kernels");
    let tables_span = dvf_obs::span("tables");
    for (name, class, structures, patterns) in dvf_kernels::TABLE2 {
        println!("{name:<30} {class:<24} {structures:<18} {patterns}");
    }

    banner("Table VII — FIT with ECC");
    for scheme in dvf_core::fit::EccScheme::ALL {
        println!("{:<20} {:>12}", scheme.label(), scheme.fit_per_mbit());
    }
    drop(tables_span);

    banner("Fig. 4 — model verification");
    let fig4_span = dvf_obs::span("fig4");
    let results = verify::verify_all();
    print!("{}", render::render_verification(&results));
    if let Some(dir) = &csv_dir {
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
        let _ = csv::write_csv(
            dir,
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
        );
    }

    drop(fig4_span);

    banner("Fig. 5 — DVF profiling");
    let fig5_span = dvf_obs::span("fig5");
    let rows = dvf_repro::profile_all();
    print!("{}", render::render_profile(&rows));
    if let Some(dir) = &csv_dir {
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.kernel.to_owned(),
                    r.data.clone(),
                    r.cache.to_owned(),
                    format!("{}", r.size_bytes),
                    format!("{}", r.n_ha),
                    format!("{}", r.time_s),
                    format!("{}", r.dvf),
                ]
            })
            .collect();
        let _ = csv::write_csv(
            dir,
            "fig5",
            &[
                "kernel",
                "data",
                "cache",
                "size_bytes",
                "n_ha",
                "time_s",
                "dvf",
            ],
            &csv_rows,
        );
    }

    drop(fig5_span);

    banner("Fig. 6 — CG vs PCG");
    let fig6_span = dvf_obs::span("fig6");
    let fig6 = usecases::fig6_sweep(&usecases::FIG6_SIZES);
    print!("{}", render::render_fig6(&fig6));
    if let Some(dir) = &csv_dir {
        let csv_rows: Vec<Vec<String>> = fig6
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.n),
                    format!("{}", r.cg_iters),
                    format!("{}", r.pcg_iters),
                    format!("{}", r.cg_dvf),
                    format!("{}", r.pcg_dvf),
                ]
            })
            .collect();
        let _ = csv::write_csv(
            dir,
            "fig6",
            &["n", "cg_iters", "pcg_iters", "cg_dvf", "pcg_dvf"],
            &csv_rows,
        );
    }

    drop(fig6_span);

    banner("Fig. 7 — ECC trade-off");
    let fig7_span = dvf_obs::span("fig7");
    let fig7 = usecases::fig7_sweep();
    print!("{}", render::render_fig7(&fig7));
    if let Some(dir) = &csv_dir {
        let mut csv_rows = Vec::new();
        for c in &fig7 {
            for p in &c.points {
                csv_rows.push(vec![
                    c.scheme.label().to_owned(),
                    format!("{}", p.degradation),
                    format!("{}", p.fit.0),
                    format!("{}", p.dvf),
                ]);
            }
        }
        let _ = csv::write_csv(
            dir,
            "fig7",
            &["scheme", "degradation", "fit_per_mbit", "dvf"],
            &csv_rows,
        );
    }

    drop(fig7_span);
    drop(run_span);

    let snap = dvf_obs::snapshot();
    println!(
        "\ncomplete reproduction in {:.1} s{}",
        snap.span_total_s("all").unwrap_or(0.0),
        match &csv_dir {
            Some(d) => format!("; CSVs in {}", d.display()),
            None => String::new(),
        }
    );
    if let Some(format) = profile {
        format.eprint(&snap);
    }
}
