//! `dvf` — command-line front-end for the DVF toolchain.
//!
//! ```text
//! dvf check <file> [--json]             parse + resolve, report diagnostics
//! dvf fmt <file>                        pretty-print in canonical form
//! dvf eval <file> [options]             compute the DVF report
//! dvf timed <file> [options]            time-resolved DVF per structure
//! dvf protect <file> --budget B [options]
//!                                       DVF-guided protection plan
//! dvf sweep <file> --sweep p=LO:HI:STEPS [--sweep q=...]... [options]
//!                                       parallel memoized parameter sweep
//!                                       (repeat --sweep for a cross-product
//!                                       grid; --shards fans chunks out over
//!                                       dvf-serve instances; --progress emits
//!                                       JSON progress lines on stderr;
//!                                       --manifest persists the plan and a
//!                                       completed-chunk journal for resume)
//! dvf serve [--addr A] [--workers N] [--queue N] [--sessions N]
//!           [--max-connections N] [--max-batch-entries N]
//!           [--max-body BYTES] [--read-timeout-ms MS] [--slow-ms MS]
//!           [--model model.json]
//!                                       resident HTTP JSON evaluation service
//!                                       (unix only)
//! dvf loadgen --addr A [--rate RPS] [--connections N] [--duration-s S]
//!             [--poisson] [--seed N] [--path P] [--body JSON]
//!             [--endpoint healthz|dvf|predict]
//!                                       open-loop load generator (reports
//!                                       schedule-to-response latency;
//!                                       --endpoint selects a canned
//!                                       method/path/body)
//! dvf learn train --out model.json [--seed N] [--smoke] [--folds K]
//!                 [--max-rel-err F] [--json]
//!                                       train the learned N_ha predictor on
//!                                       the differential-oracle grid
//! dvf learn predict --model model.json --trace t.dvft2 --ds NAME
//!                   --geom A:S:L [--geom ...] [--json]
//!                                       featurize a recorded trace and
//!                                       predict per-level hit/miss counts
//!     --machine <name>                  pick a machine (if several)
//!     --model <name>                    pick a model (if several)
//!     --param <name>=<value>            override a parameter (repeatable)
//!     --residual <f>                    protected-DVF factor (default 0)
//!     --predict <model.json>            learned N_ha instead of closed forms
//!                                       (eval/protect/sweep, local only)
//!     --no-cache                        disable sweep memoization
//!     --profile[=json]                  print per-phase timing/counters
//! ```
//!
//! Profiling can also be enabled without touching the command line by
//! setting `DVF_PROFILE=1` (text) or `DVF_PROFILE=json` in the
//! environment; the report goes to stderr after the normal output.
//!
//! Exit code 0 on success, 1 on user error, 2 on bad usage.

use dvf::aspen::{parse, Resolver};
use dvf::core::workflow::evaluate_with;
use dvf::obs::ProfileFormat;
use std::process::ExitCode;

const USAGE: &str = "\
usage: dvf <command> [args]

commands:
  check <file> [--json]              parse and resolve; print diagnostics
                                     (--json: machine-readable, one document)
  fmt <file>                         pretty-print the model in canonical form
  eval <file> [--machine M] [--model M] [--param k=v]... [--profile[=json]]
       [--predict model.json]
                                     compute and print the DVF report
                                     (--predict swaps the closed-form N_ha
                                     models for a trained dvf-learn model)
  timed <file> [same options]        time-resolved DVF (phase-weighted)
  protect <file> --budget BYTES [--residual F] [same options]
                                     plan selective protection by DVF density
  sweep <file> --sweep p=LO:HI:STEPS [--sweep q=...]... [--no-cache]
        [--shards HOST:PORT,...] [--chunk-points N] [--assign affine|round-robin]
        [--in-flight N] [--progress] [--predict model.json]
        [--manifest plan.json] [same options]
                                     evaluate a parameter grid in parallel
                                     with memoized pattern models; repeat
                                     --sweep for a cross-product grid.
                                     --shards distributes chunks over running
                                     dvf-serve instances (memo-affine routing
                                     keeps cache-equivalent points on the same
                                     shard; output is byte-identical to the
                                     local sweep). --progress prints JSON
                                     progress lines on stderr. --manifest
                                     persists the chunk plan and journals
                                     completed chunks so an interrupted
                                     distributed sweep resumes without
                                     replanning or re-executing them.
  serve [--addr HOST:PORT] [--workers N] [--queue N] [--sessions N]
        [--max-connections N] [--max-batch-entries N]
        [--max-body BYTES] [--read-timeout-ms MS] [--slow-ms MS]
        [--model model.json]
                                     start the resident dvf-serve/1 HTTP
                                     service, unix only (SIGTERM/ctrl-c
                                     drains cleanly; --slow-ms logs slow
                                     requests as JSON lines on stderr;
                                     --model loads a dvf-learn model and
                                     enables POST /v1/predict)
  loadgen --addr HOST:PORT [--rate RPS] [--connections N] [--duration-s S]
          [--poisson] [--seed N] [--path P] [--body JSON]
          [--endpoint healthz|dvf|predict]
                                     offer open-loop load to a running server
                                     and print a dvf-loadgen/1 JSON report
                                     (latency measured from scheduled arrival,
                                     so queueing delay is not hidden;
                                     --endpoint picks a canned request shape,
                                     e.g. --endpoint predict posts a real
                                     feature vector to /v1/predict)
  learn train --out model.json [--seed N] [--smoke] [--folds K]
              [--max-rel-err F] [--json]
                                     train the deterministic learned N_ha
                                     predictor on the differential-oracle
                                     grid (same seed => byte-identical
                                     model.json); exits 1 if the
                                     cross-validated max relative error
                                     exceeds --max-rel-err
  learn predict --model model.json --trace t.dvft2 --ds NAME
                --geom ASSOC:SETS:LINE [--geom ...] [--json]
                                     featurize a recorded DVFT trace
                                     in-stream and predict N_ha for each
                                     geometry with the model's held-out
                                     error bound

`--profile` (or DVF_PROFILE=1 / DVF_PROFILE=json in the environment)
appends a per-phase timing and counter report to stderr.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "check" => with_source(&args[1..], check_command),
        "fmt" => with_source(&args[1..], |source, _| match parse(source) {
            Ok(doc) => {
                print!("{}", dvf::aspen::pretty(&doc));
                ExitCode::SUCCESS
            }
            Err(d) => {
                eprint!("{}", d.render(source));
                ExitCode::FAILURE
            }
        }),
        "eval" => with_source(&args[1..], |s, f| eval_command(s, f, Mode::Classic)),
        "timed" => with_source(&args[1..], |s, f| eval_command(s, f, Mode::Timed)),
        "protect" => with_source(&args[1..], |s, f| eval_command(s, f, Mode::Protect)),
        "sweep" => with_source(&args[1..], sweep_command),
        "serve" => serve_command(&args[1..]),
        "loadgen" => loadgen_command(&args[1..]),
        "learn" => learn_command(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Read the file named by the first positional argument and hand the
/// remaining flags to `f`.
fn with_source(args: &[String], f: impl FnOnce(&str, &[String]) -> ExitCode) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("missing <file> argument\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match std::fs::read_to_string(path) {
        Ok(source) => f(&source, &args[1..]),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `check`: parse + count items. `--json` swaps the human rendering for
/// the same structured diagnostics `/v1/parse` serves.
fn check_command(source: &str, flags: &[String]) -> ExitCode {
    let json = match flags {
        [] => false,
        [f] if f == "--json" => true,
        [other, ..] => return usage_err(&format!("unknown flag `{other}`")),
    };
    match parse(source) {
        Ok(doc) => {
            let machines = doc
                .items
                .iter()
                .filter(|i| matches!(i, dvf::aspen::ast::Item::Machine(_)))
                .count();
            let models = doc
                .items
                .iter()
                .filter(|i| matches!(i, dvf::aspen::ast::Item::Model(_)))
                .count();
            if json {
                let mut w = dvf::obs::JsonWriter::new();
                w.begin_object();
                w.key("ok").bool(true);
                w.key("machines").u64(machines as u64);
                w.key("models").u64(models as u64);
                w.key("params").begin_array();
                for name in doc.param_names() {
                    w.string(name);
                }
                w.end_array();
                w.key("diagnostics").begin_array().end_array();
                w.end_object();
                println!("{}", w.finish());
            } else {
                println!("ok: {machines} machine(s), {models} model(s)");
            }
            ExitCode::SUCCESS
        }
        Err(d) => {
            if json {
                let mut w = dvf::obs::JsonWriter::new();
                w.begin_object();
                w.key("ok").bool(false);
                w.key("diagnostics").begin_array();
                d.write_json(source, &mut w);
                w.end_array();
                w.end_object();
                println!("{}", w.finish());
            } else {
                eprint!("{}", d.render(source));
            }
            ExitCode::FAILURE
        }
    }
}

/// Which report `eval_command` produces.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Classic,
    Timed,
    Protect,
}

/// Load a `dvf-learn` model for `--predict`. Schema mismatches and IO
/// errors both surface the path so the fix is obvious.
fn load_predictor(path: &str) -> Result<dvf::learn::NhaModel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    dvf::learn::NhaModel::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn eval_command(source: &str, flags: &[String], mode: Mode) -> ExitCode {
    let mut machine_name: Option<String> = None;
    let mut model_name: Option<String> = None;
    let mut overrides: Vec<(String, f64)> = Vec::new();
    let mut budget: Option<u64> = None;
    let mut residual: f64 = 0.0;
    let mut predict_path: Option<String> = None;
    // DVF_PROFILE pre-enables profiling; an explicit flag overrides it.
    let mut profile: Option<ProfileFormat> = dvf::obs::init_from_env();

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        match flag.as_str() {
            "--profile" | "--profile=text" => {
                profile = Some(ProfileFormat::Text);
                dvf::obs::set_enabled(true);
            }
            "--profile=json" => {
                profile = Some(ProfileFormat::Json);
                dvf::obs::set_enabled(true);
            }
            "--machine" => match value(&mut it) {
                Some(v) => machine_name = Some(v),
                None => return usage_err("--machine needs a value"),
            },
            "--model" => match value(&mut it) {
                Some(v) => model_name = Some(v),
                None => return usage_err("--model needs a value"),
            },
            "--param" => match value(&mut it) {
                Some(v) => match v.split_once('=') {
                    Some((k, raw)) => match raw.parse::<f64>() {
                        Ok(num) => overrides.push((k.to_owned(), num)),
                        Err(_) => return usage_err(&format!("bad --param value `{raw}`")),
                    },
                    None => return usage_err("--param expects name=value"),
                },
                None => return usage_err("--param needs a value"),
            },
            "--budget" if mode == Mode::Protect => match value(&mut it) {
                Some(v) => match v.parse::<u64>() {
                    Ok(b) => budget = Some(b),
                    Err(_) => return usage_err(&format!("bad --budget value `{v}`")),
                },
                None => return usage_err("--budget needs a value"),
            },
            "--residual" if mode == Mode::Protect => match value(&mut it) {
                Some(v) => match v.parse::<f64>() {
                    Ok(r) if (0.0..=1.0).contains(&r) => residual = r,
                    _ => return usage_err(&format!("bad --residual value `{v}`")),
                },
                None => return usage_err("--residual needs a value"),
            },
            "--predict" if mode != Mode::Timed => match value(&mut it) {
                Some(v) => predict_path = Some(v),
                None => return usage_err("--predict needs a model.json path"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    if mode == Mode::Protect && budget.is_none() {
        return usage_err("protect requires --budget <bytes>");
    }
    let predictor = match predict_path.as_deref().map(load_predictor) {
        None => None,
        Some(Ok(m)) => Some(m),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Root span: everything below nests under `eval`/`timed`/`protect`.
    let root_span = dvf::obs::span(match mode {
        Mode::Classic => "eval",
        Mode::Timed => "timed",
        Mode::Protect => "protect",
    });

    let doc = match dvf::obs::span_scope("parse", || parse(source)) {
        Ok(doc) => doc,
        Err(d) => {
            eprint!("{}", d.render(source));
            return ExitCode::FAILURE;
        }
    };
    let resolve_span = dvf::obs::span("resolve");
    let mut resolver = Resolver::new(&doc);
    for (k, v) in &overrides {
        resolver = resolver.set_param(k, *v);
    }
    let machine = match resolver.machine(machine_name.as_deref()) {
        Ok(m) => m,
        Err(d) => {
            eprint!("{}", d.render(source));
            return ExitCode::FAILURE;
        }
    };
    let app = match resolver.model(model_name.as_deref()) {
        Ok(a) => a,
        Err(d) => {
            eprint!("{}", d.render(source));
            return ExitCode::FAILURE;
        }
    };
    drop(resolve_span);
    println!(
        "machine `{}`: {} cache, FIT {}",
        machine.name,
        human_bytes(machine.cache.capacity()),
        dvf::core::workflow::fit_of(&machine).0
    );

    let code = match mode {
        Mode::Classic => match evaluate_with(&app, &machine, predictor.as_ref()) {
            Ok(report) => {
                println!("model `{}` (T = {:.4e} s):\n", report.app, report.time_s);
                print!("{}", report.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Timed => match dvf::core::workflow::evaluate_timed(&app, &machine) {
            Ok(rows) => {
                println!("time-resolved DVF (phase-weighted; ~DVF/2 for uniform access):\n");
                println!("{:<12} {:>14}", "data", "timed DVF");
                for (name, v) in rows {
                    println!("{name:<12} {v:>14.6e}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Protect => match evaluate_with(&app, &machine, predictor.as_ref()) {
            Ok(report) => {
                let plan = dvf::core::protect::plan_protection(
                    &report,
                    budget.expect("validated above"),
                    residual,
                );
                println!(
                    "protection plan (budget {} B, residual factor {residual}):\n",
                    budget.expect("validated above")
                );
                for c in &plan.choices {
                    println!(
                        "{}{:<12} {:>12} B  DVF {:.4e} -> {:.4e}",
                        if c.protected { "+" } else { " " },
                        c.name,
                        c.size_bytes,
                        c.dvf_before,
                        c.dvf_after
                    );
                }
                println!(
                    "\nresidual application DVF {:.4e} ({:.1}% reduction, {} B spent)",
                    plan.dvf_after,
                    plan.reduction() * 100.0,
                    plan.bytes_used
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    };

    drop(root_span);
    if let Some(format) = profile {
        let snap = dvf::obs::snapshot();
        match format {
            ProfileFormat::Text => eprint!("{}", snap.render_text()),
            ProfileFormat::Json => eprintln!("{}", snap.render_json()),
        }
    }
    code
}

/// `sweep`: evaluate a parameter grid in parallel through [`DvfWorkflow`],
/// sharing the memoized pattern cache across grid points — locally, or
/// distributed over `dvf-serve` shards with `--shards` (byte-identical
/// output either way).
fn sweep_command(source: &str, flags: &[String]) -> ExitCode {
    use dvf::core::gridplan::{Assignment, ChunkPlan, GridSpec};
    use dvf::core::workflow::DvfWorkflow;
    use dvf::serve::coordinator::{self, CoordinatorConfig, RowOutcome, SweepJob};

    let mut machine_name: Option<String> = None;
    let mut model_name: Option<String> = None;
    let mut overrides: Vec<(String, f64)> = Vec::new();
    let mut dims: Vec<(String, Vec<f64>)> = Vec::new();
    let mut profile: Option<ProfileFormat> = dvf::obs::init_from_env();
    let mut shards_raw: Option<String> = None;
    let mut chunk_points: usize = 256;
    let mut assignment = Assignment::MemoAffine;
    let mut in_flight: usize = 2;
    let mut progress_enabled = false;
    let mut predict_path: Option<String> = None;
    let mut manifest_path: Option<String> = None;

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        match flag.as_str() {
            "--profile" | "--profile=text" => {
                profile = Some(ProfileFormat::Text);
                dvf::obs::set_enabled(true);
            }
            "--profile=json" => {
                profile = Some(ProfileFormat::Json);
                dvf::obs::set_enabled(true);
            }
            "--no-cache" => dvf::core::memo::set_enabled(false),
            "--progress" => progress_enabled = true,
            "--machine" => match value(&mut it) {
                Some(v) => machine_name = Some(v),
                None => return usage_err("--machine needs a value"),
            },
            "--model" => match value(&mut it) {
                Some(v) => model_name = Some(v),
                None => return usage_err("--model needs a value"),
            },
            "--param" => match value(&mut it) {
                Some(v) => match v.split_once('=') {
                    Some((k, raw)) => match raw.parse::<f64>() {
                        Ok(num) => overrides.push((k.to_owned(), num)),
                        Err(_) => return usage_err(&format!("bad --param value `{raw}`")),
                    },
                    None => return usage_err("--param expects name=value"),
                },
                None => return usage_err("--param needs a value"),
            },
            "--sweep" => match value(&mut it) {
                Some(v) => match parse_sweep_spec(&v) {
                    Ok(g) => dims.push(g),
                    Err(msg) => return usage_err(&msg),
                },
                None => return usage_err("--sweep needs a value"),
            },
            "--shards" => match value(&mut it) {
                Some(v) => shards_raw = Some(v),
                None => return usage_err("--shards needs a value"),
            },
            "--chunk-points" => match value(&mut it).map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => {
                    chunk_points = n.clamp(1, dvf::serve::api::MAX_SWEEP_POINTS);
                }
                Some(Err(_)) => return usage_err("bad --chunk-points value"),
                None => return usage_err("--chunk-points needs a value"),
            },
            "--assign" => match value(&mut it) {
                Some(v) => match Assignment::parse(&v) {
                    Some(a) => assignment = a,
                    None => {
                        return usage_err(&format!("bad --assign `{v}` (affine or round-robin)"))
                    }
                },
                None => return usage_err("--assign needs a value"),
            },
            "--in-flight" => match value(&mut it).map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => in_flight = n.max(1),
                Some(Err(_)) => return usage_err("bad --in-flight value"),
                None => return usage_err("--in-flight needs a value"),
            },
            "--predict" => match value(&mut it) {
                Some(v) => predict_path = Some(v),
                None => return usage_err("--predict needs a model.json path"),
            },
            "--manifest" => match value(&mut it) {
                Some(v) => manifest_path = Some(v),
                None => return usage_err("--manifest needs a path"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    if dims.is_empty() {
        return usage_err("sweep requires --sweep name=LO:HI:STEPS (or name=v1,v2,...)");
    }
    if predict_path.is_some() && shards_raw.is_some() {
        // Shards evaluate remotely with whatever model (if any) they were
        // started with; silently ignoring the flag would report learned
        // numbers for some chunks and closed-form for others.
        return usage_err("--predict is local-only; it cannot be combined with --shards");
    }
    if manifest_path.is_some() && shards_raw.is_none() {
        return usage_err("--manifest records a distributed chunk plan; it requires --shards");
    }
    let grid = match GridSpec::new(dims) {
        Ok(g) => g,
        Err(msg) => return usage_err(&msg),
    };
    let shard_addrs = match shards_raw.as_deref().map(parse_shard_list) {
        None => Vec::new(),
        Some(Ok(addrs)) => addrs,
        Some(Err(msg)) => return usage_err(&msg),
    };

    let root_span = dvf::obs::span("sweep");
    let mut wf = match DvfWorkflow::parse(source) {
        Ok(wf) => wf,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = &machine_name {
        wf = wf.with_machine(name);
    }
    if let Some(name) = &model_name {
        wf = wf.with_model(name);
    }
    if let Some(path) = predict_path.as_deref() {
        match load_predictor(path) {
            Ok(m) => wf = wf.with_predictor(std::sync::Arc::new(m)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // A typo'd name would otherwise sweep an inert override and print a
    // perfectly flat curve; fail loudly instead. (This also keeps bad
    // names from reaching shards, where they would be a fatal 422.)
    let names = grid.names();
    for name in names
        .iter()
        .copied()
        .chain(overrides.iter().map(|(k, _)| k.as_str()))
    {
        if let Err(e) = wf.check_param(name) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Each grid point resolves with the fixed overrides plus the swept
    // coordinates; the memo cache deduplicates pattern evaluations
    // shared between points.
    let point_of = |idx: usize| -> Vec<(&str, f64)> {
        let mut point: Vec<(&str, f64)> = overrides
            .iter()
            .map(|(k, val)| (k.as_str(), *val))
            .collect();
        for (name, v) in names.iter().zip(grid.point(idx)) {
            point.push((name, v));
        }
        point
    };
    let emitter = ProgressEmitter::new(progress_enabled);
    let rows: Vec<RowOutcome> = if shard_addrs.is_empty() {
        let eval_point = |idx: usize| match wf.evaluate(&point_of(idx)) {
            Ok(report) => RowOutcome::Ok {
                time_s: report.time_s,
                dvf_app: report.dvf_app(),
            },
            Err(e) => RowOutcome::Err(e.to_string()),
        };
        let indices: Vec<usize> = (0..grid.len()).collect();
        if progress_enabled {
            // Chunked execution so progress has chunk boundaries to
            // report at; evaluation is pure, so the rows are identical
            // to the single-batch path.
            let before = dvf::core::memo::stats();
            let total_chunks = grid.len().div_ceil(chunk_points);
            let mut rows = Vec::with_capacity(grid.len());
            for (ci, block) in indices.chunks(chunk_points).enumerate() {
                rows.extend(dvf::core::sweep::par_map(block, |&i| eval_point(i)));
                let delta = dvf::core::memo::stats().since(&before);
                emitter.maybe(ci + 1, total_chunks, rows.len(), grid.len(), &delta);
            }
            let delta = dvf::core::memo::stats().since(&before);
            emitter.finish(total_chunks, total_chunks, grid.len(), grid.len(), &delta);
            rows
        } else {
            dvf::core::sweep::par_map(&indices, |&i| eval_point(i))
        }
    } else {
        let fresh_plan = || {
            ChunkPlan::plan(&grid, shard_addrs.len(), chunk_points, assignment, |idx| {
                wf.point_fingerprint(&point_of(idx)).unwrap_or(0)
            })
        };
        // With --manifest, an existing manifest file *is* the plan: the
        // resumed run replans zero chunks, so the chunk→shard map (and
        // each shard's warm memo cache) is exactly the original one.
        let (plan, resume) = match manifest_path.as_deref() {
            None => (fresh_plan(), None),
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => {
                    let (plan, saved_grid) = match ChunkPlan::from_manifest_json(&text) {
                        Ok(v) => v,
                        Err(e) => {
                            eprintln!("error: {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    if saved_grid != grid {
                        eprintln!(
                            "error: {path}: manifest was planned for a different grid; \
                             delete it to replan"
                        );
                        return ExitCode::FAILURE;
                    }
                    if plan.shards != shard_addrs.len() {
                        eprintln!(
                            "error: {path}: manifest plans {} shard(s) but {} were given",
                            plan.shards,
                            shard_addrs.len()
                        );
                        return ExitCode::FAILURE;
                    }
                    let journal = dvf::serve::manifest::journal_path(path);
                    let journal_text = std::fs::read_to_string(&journal).unwrap_or_default();
                    let state = match dvf::serve::manifest::load_journal(&journal_text, &plan) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("error: {journal}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    eprintln!(
                        "manifest: resumed plan from {path}: {}/{} chunk(s) already complete",
                        state.chunks_done(),
                        plan.chunks.len()
                    );
                    (plan, Some(state))
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    let plan = fresh_plan();
                    if let Err(e) = std::fs::write(path, plan.manifest_json_full(&grid)) {
                        eprintln!("error: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("manifest: planned {} chunk(s) -> {path}", plan.chunks.len());
                    (plan, None)
                }
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
        };
        let journal_file = match manifest_path.as_deref() {
            None => None,
            Some(path) => {
                let jp = dvf::serve::manifest::journal_path(path);
                let opened = if resume.is_some() {
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&jp)
                } else {
                    // Fresh plan: discard any journal left by a deleted
                    // manifest — its chunk ids belong to the old plan.
                    std::fs::File::create(&jp)
                };
                match opened {
                    Ok(f) => Some(std::sync::Mutex::new(f)),
                    Err(e) => {
                        eprintln!("error: cannot open {jp}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
        let on_chunk = journal_file.as_ref().map(|j| {
            move |chunk: &dvf::core::gridplan::Chunk, rows: &[RowOutcome]| {
                use std::io::Write as _;
                let line = dvf::serve::manifest::chunk_line(chunk.id, rows);
                if let Ok(mut f) = j.lock() {
                    let _ = writeln!(f, "{line}");
                }
            }
        });
        let job = SweepJob {
            source: source.to_owned(),
            machine: machine_name.clone(),
            model: model_name.clone(),
            overrides: overrides.clone(),
        };
        let cfg = CoordinatorConfig {
            in_flight,
            ..Default::default()
        };
        let total_chunks = plan.chunks.len();
        let on_chunk_dyn = on_chunk
            .as_ref()
            .map(|f| f as &(dyn Fn(&dvf::core::gridplan::Chunk, &[RowOutcome]) + Sync));
        let progress_cb = |p: &coordinator::Progress| {
            let delta = dvf::core::memo::CacheStats {
                hits: p.cache_hits,
                misses: p.cache_misses,
                entries: 0,
            };
            emitter.maybe(
                p.chunks_done,
                p.chunks_total,
                p.points_done,
                p.points_total,
                &delta,
            );
        };
        let outcome = coordinator::run_with(
            &job,
            &grid,
            &plan,
            &shard_addrs,
            &cfg,
            progress_cb,
            resume,
            on_chunk_dyn,
        );
        match outcome {
            Ok(report) => {
                let delta = dvf::core::memo::CacheStats {
                    hits: report.cache_hits(),
                    misses: report.cache_misses(),
                    entries: 0,
                };
                emitter.finish(total_chunks, total_chunks, grid.len(), grid.len(), &delta);
                if progress_enabled {
                    for shard in &report.shards {
                        emit_shard_line(shard);
                    }
                }
                report.rows
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    drop(root_span);

    let param = names.join(",");
    println!(
        "sweep `{param}` over {} point(s):\n\n{:<14} {:>14} {:>14}",
        grid.len(),
        param,
        "time (s)",
        "DVF_app"
    );
    let mut failures = 0usize;
    for (idx, row) in rows.iter().enumerate() {
        let label = grid
            .point(idx)
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        match row {
            RowOutcome::Ok { time_s, dvf_app } => {
                println!("{label:<14} {time_s:>14.6e} {dvf_app:>14.6e}")
            }
            RowOutcome::Err(e) => {
                println!("{label:<14} error: {e}");
                failures += 1;
            }
        }
    }

    if let Some(format) = profile {
        let snap = dvf::obs::snapshot();
        match format {
            ProfileFormat::Text => eprint!("{}", snap.render_text()),
            ProfileFormat::Json => eprintln!("{}", snap.render_json()),
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} of {} grid point(s) failed", grid.len());
        ExitCode::FAILURE
    }
}

/// Parse a comma-separated `HOST:PORT,...` shard list.
fn parse_shard_list(raw: &str) -> Result<Vec<std::net::SocketAddr>, String> {
    use std::net::ToSocketAddrs as _;
    let mut addrs = Vec::new();
    for part in raw.split(',').filter(|s| !s.is_empty()) {
        match part.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(a) => addrs.push(a),
            None => return Err(format!("cannot resolve shard `{part}`")),
        }
    }
    if addrs.is_empty() {
        return Err("--shards needs at least one HOST:PORT".to_owned());
    }
    Ok(addrs)
}

/// Throttled JSON progress lines on stderr for `sweep --progress`.
struct ProgressEmitter {
    enabled: bool,
    start: std::time::Instant,
    last: std::sync::Mutex<Option<std::time::Instant>>,
}

impl ProgressEmitter {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            start: std::time::Instant::now(),
            last: std::sync::Mutex::new(None),
        }
    }

    /// Emit a progress line if the last one is at least 500 ms old.
    fn maybe(
        &self,
        chunks_done: usize,
        chunks_total: usize,
        points_done: usize,
        points_total: usize,
        cache: &dvf::core::memo::CacheStats,
    ) {
        if !self.enabled {
            return;
        }
        {
            let mut last = self.last.lock().expect("progress lock");
            let now = std::time::Instant::now();
            if let Some(prev) = *last {
                if now.duration_since(prev) < std::time::Duration::from_millis(500) {
                    return;
                }
            }
            *last = Some(now);
        }
        self.emit(chunks_done, chunks_total, points_done, points_total, cache);
    }

    /// Unconditionally emit the final progress line.
    fn finish(
        &self,
        chunks_done: usize,
        chunks_total: usize,
        points_done: usize,
        points_total: usize,
        cache: &dvf::core::memo::CacheStats,
    ) {
        if self.enabled {
            self.emit(chunks_done, chunks_total, points_done, points_total, cache);
        }
    }

    fn emit(
        &self,
        chunks_done: usize,
        chunks_total: usize,
        points_done: usize,
        points_total: usize,
        cache: &dvf::core::memo::CacheStats,
    ) {
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let lookups = cache.hits + cache.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        let mut w = dvf::obs::JsonWriter::new();
        w.begin_object();
        w.key("event").string("sweep_progress");
        w.key("chunks_done").u64(chunks_done as u64);
        w.key("chunks_total").u64(chunks_total as u64);
        w.key("points_done").u64(points_done as u64);
        w.key("points_total").u64(points_total as u64);
        w.key("points_per_s").f64(points_done as f64 / elapsed);
        w.key("memo_hits").u64(cache.hits);
        w.key("memo_misses").u64(cache.misses);
        w.key("memo_hit_rate").f64(hit_rate);
        w.end_object();
        eprintln!("{}", w.finish());
    }
}

/// One per-shard accounting line on stderr after a distributed sweep.
fn emit_shard_line(shard: &dvf::serve::coordinator::ShardReport) {
    let lookups = shard.cache_hits + shard.cache_misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        shard.cache_hits as f64 / lookups as f64
    };
    let mut w = dvf::obs::JsonWriter::new();
    w.begin_object();
    w.key("event").string("sweep_shard");
    w.key("addr").string(&shard.addr);
    w.key("chunks").u64(shard.chunks);
    w.key("points").u64(shard.points);
    w.key("cache_hits").u64(shard.cache_hits);
    w.key("cache_misses").u64(shard.cache_misses);
    w.key("hit_rate").f64(hit_rate);
    w.key("retries").u64(shard.retries);
    w.key("dead").bool(shard.dead);
    w.end_object();
    eprintln!("{}", w.finish());
}

/// `serve`: run the resident dvf-serve/1 HTTP service until SIGTERM or
/// ctrl-c, then drain gracefully.
fn serve_command(flags: &[String]) -> ExitCode {
    let mut config = dvf::serve::ServerConfig {
        addr: "127.0.0.1:8377".to_owned(),
        ..Default::default()
    };

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        macro_rules! numeric {
            ($field:expr, $name:literal, $ty:ty, $map:expr) => {
                match value(&mut it).map(|v| v.parse::<$ty>()) {
                    Some(Ok(n)) => $field = $map(n),
                    Some(Err(_)) => return usage_err(concat!("bad ", $name, " value")),
                    None => return usage_err(concat!($name, " needs a value")),
                }
            };
        }
        match flag.as_str() {
            "--addr" => match value(&mut it) {
                Some(v) => config.addr = v,
                None => return usage_err("--addr needs a value"),
            },
            "--workers" => numeric!(config.workers, "--workers", usize, |n: usize| n.max(1)),
            "--queue" => numeric!(config.queue_depth, "--queue", usize, |n: usize| n.max(1)),
            "--max-connections" => numeric!(
                config.max_connections,
                "--max-connections",
                usize,
                |n: usize| n.max(1)
            ),
            "--sessions" => numeric!(config.max_sessions, "--sessions", usize, |n| n),
            "--max-batch-entries" => numeric!(
                config.max_batch_entries,
                "--max-batch-entries",
                usize,
                |n: usize| n.clamp(1, dvf::serve::MAX_BATCH_ENTRIES_CEILING)
            ),
            "--max-body" => numeric!(config.max_body_bytes, "--max-body", usize, |n| n),
            "--read-timeout-ms" => numeric!(
                config.read_timeout,
                "--read-timeout-ms",
                u64,
                std::time::Duration::from_millis
            ),
            "--slow-ms" => numeric!(config.slow_request, "--slow-ms", u64, |ms| Some(
                std::time::Duration::from_millis(ms)
            )),
            "--model" => match value(&mut it) {
                Some(v) => config.model_path = Some(v),
                None => return usage_err("--model needs a path"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }

    // The service reports obs counters on /v1/metrics; keep them on.
    dvf::obs::set_enabled(true);
    dvf::serve::signal::install();
    let server = match dvf::serve::Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dvf-serve listening on http://{}/v1/ (schema {})",
        server.addr(),
        dvf::serve::SCHEMA
    );
    println!("press ctrl-c (or send SIGTERM) to drain and exit");

    while !dvf::serve::signal::triggered() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("signal received; draining...");
    server.shutdown();
    eprintln!("drained; bye");
    ExitCode::SUCCESS
}

/// `loadgen`: offer open-loop load to a running server and print the
/// resulting `dvf-loadgen/1` JSON report on stdout.
fn loadgen_command(flags: &[String]) -> ExitCode {
    use dvf::serve::loadgen;
    let mut spec = loadgen::LoadSpec::default();
    let mut addr: Option<String> = None;

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        macro_rules! numeric {
            ($field:expr, $name:literal, $ty:ty, $map:expr) => {
                match value(&mut it).map(|v| v.parse::<$ty>()) {
                    Some(Ok(n)) => $field = $map(n),
                    Some(Err(_)) => return usage_err(concat!("bad ", $name, " value")),
                    None => return usage_err(concat!($name, " needs a value")),
                }
            };
        }
        match flag.as_str() {
            "--addr" => match value(&mut it) {
                Some(v) => addr = Some(v),
                None => return usage_err("--addr needs a value"),
            },
            "--rate" => numeric!(spec.rate_per_s, "--rate", f64, |r: f64| r.max(0.001)),
            "--connections" => {
                numeric!(spec.connections, "--connections", usize, |n: usize| n
                    .max(1))
            }
            "--duration-s" => numeric!(spec.duration, "--duration-s", f64, |s: f64| {
                std::time::Duration::from_secs_f64(s.clamp(0.01, 3600.0))
            }),
            "--poisson" => spec.poisson = true,
            "--seed" => numeric!(spec.seed, "--seed", u64, |n| n),
            "--path" => match value(&mut it) {
                Some(v) => spec.path = v,
                None => return usage_err("--path needs a value"),
            },
            "--body" => match value(&mut it) {
                Some(v) => {
                    spec.method = "POST".to_owned();
                    spec.body = Some(v);
                }
                None => return usage_err("--body needs a value"),
            },
            "--endpoint" => match value(&mut it) {
                Some(v) => {
                    if !apply_loadgen_endpoint(&mut spec, &v) {
                        return usage_err(&format!(
                            "unknown --endpoint `{v}` (healthz, dvf, predict)"
                        ));
                    }
                }
                None => return usage_err("--endpoint needs a value"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }

    let Some(addr) = addr else {
        return usage_err("loadgen requires --addr HOST:PORT");
    };
    use std::net::ToSocketAddrs as _;
    spec.addr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("cannot resolve `{addr}`");
            return ExitCode::FAILURE;
        }
    };

    let report = loadgen::run(&spec);
    println!("{}", report.to_json(&spec));
    // Socket errors mean the measurement itself is suspect; surface that
    // in the exit code so scripted runs (CI smoke) fail loudly.
    if report.errors_io > 0 {
        eprintln!("{} requests lost to socket errors", report.errors_io);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Canned request shapes for `loadgen --endpoint`: each API surface gets
/// the same open-loop latency treatment without hand-writing wire bodies
/// (`--path`/`--body` later on the command line still override).
/// Accepts either the bare name or the `/v1/...` path; returns `false`
/// for an endpoint with no canned shape.
fn apply_loadgen_endpoint(spec: &mut dvf::serve::loadgen::LoadSpec, name: &str) -> bool {
    match name.trim_start_matches("/v1/") {
        "healthz" => {
            spec.method = "GET".to_owned();
            spec.path = "/v1/healthz".to_owned();
            spec.body = None;
        }
        "dvf" => {
            spec.method = "POST".to_owned();
            spec.path = "/v1/dvf".to_owned();
            spec.body = Some(canned_dvf_body());
        }
        "predict" => {
            spec.method = "POST".to_owned();
            spec.path = "/v1/predict".to_owned();
            spec.body = Some(canned_predict_body());
        }
        _ => return false,
    }
    true
}

/// An inline two-structure model: the same shape the closed-loop serve
/// benches post, so open-loop `/v1/dvf` rows are comparable.
fn canned_dvf_body() -> String {
    const SOURCE: &str = "\
machine m {
  cache { associativity = 4  sets = 64  line = 32 }
  memory { ecc = secded }
}
model app {
  param n = 1000
  data A { size = n * 8  element = 8 }
  data B { size = n * 8  element = 8 }
  kernel k {
    flops = 2 * n
    access A as streaming(stride = 4)
    access B as streaming()
  }
}
";
    let mut w = dvf::obs::JsonWriter::new();
    w.begin_object();
    w.key("source").string(SOURCE);
    w.end_object();
    w.finish()
}

/// A real `dvf-learn/1` feature vector (featurized once at startup from
/// a short synthetic stream) against one cache level — the hot
/// `/v1/predict` lookup path, not the featurizer.
fn canned_predict_body() -> String {
    use dvf::cachesim::{DsId, MemRef};
    let mut sink = dvf::learn::FeatureSink::new();
    for i in 0..4096u64 {
        sink.record(MemRef::read(DsId(0), (i % 512) * 8));
    }
    let features = sink.finish().ds(DsId(0)).to_json();
    format!("{{\"features\":{features},\"geometry\":{{\"assoc\":8,\"sets\":512,\"line\":64}}}}")
}

/// `learn`: train / apply the learned `N_ha` predictor.
fn learn_command(flags: &[String]) -> ExitCode {
    match flags.first().map(String::as_str) {
        Some("train") => learn_train_command(&flags[1..]),
        Some("predict") => learn_predict_command(&flags[1..]),
        Some(other) => usage_err(&format!("unknown learn subcommand `{other}`")),
        None => usage_err("learn requires a subcommand: train or predict"),
    }
}

/// `learn train`: build the labeled dataset from the oracle grid, train
/// the deterministic model, write the artifact, and gate on the
/// cross-validated maximum relative error.
fn learn_train_command(flags: &[String]) -> ExitCode {
    let mut seed: u64 = 1;
    let mut smoke = false;
    let mut folds: usize = 5;
    let mut out: Option<String> = None;
    let mut max_rel_err = dvf::difftest::CV_BOUND;
    let mut json = false;

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--json" => json = true,
            "--seed" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage_err("--seed needs an unsigned integer"),
            },
            "--folds" => match value(&mut it).and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 2 => folds = v,
                _ => return usage_err("--folds needs an integer >= 2"),
            },
            "--max-rel-err" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(v) => max_rel_err = v,
                None => return usage_err("--max-rel-err needs a number"),
            },
            "--out" => match value(&mut it) {
                Some(v) => out = Some(v),
                None => return usage_err("--out needs a path"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let Some(out) = out else {
        return usage_err("learn train requires --out model.json");
    };

    let (model, report) = dvf::difftest::train_grid(seed, smoke, folds);
    if let Err(e) = std::fs::write(&out, model.to_json()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if json {
        println!("{}", report.to_json());
    } else {
        println!(
            "trained dvf-learn model: seed={} grid={} samples={} stumps={}",
            seed,
            if smoke { "smoke" } else { "full" },
            report.samples,
            model.stumps.len()
        );
        println!(
            "{folds}-fold CV held-out rel_err: max {:.4}, p95 {:.4}, mean {:.4}",
            report.bound.max_rel_err, report.bound.p95_rel_err, report.bound.mean_rel_err
        );
        println!("model written to {out}");
    }
    if report.bound.max_rel_err > max_rel_err {
        eprintln!(
            "cross-validated max rel_err {:.4} exceeds --max-rel-err {max_rel_err:.2}",
            report.bound.max_rel_err
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `learn predict`: stream a recorded DVFT trace through the featurizer
/// (constant memory, no materialized trace) and predict `N_ha` for each
/// requested geometry.
fn learn_predict_command(flags: &[String]) -> ExitCode {
    let mut model_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut ds_name: Option<String> = None;
    let mut geoms: Vec<dvf::cachesim::CacheConfig> = Vec::new();
    let mut json = false;

    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        match flag.as_str() {
            "--json" => json = true,
            "--model" => match value(&mut it) {
                Some(v) => model_path = Some(v),
                None => return usage_err("--model needs a path"),
            },
            "--trace" => match value(&mut it) {
                Some(v) => trace_path = Some(v),
                None => return usage_err("--trace needs a path"),
            },
            "--ds" => match value(&mut it) {
                Some(v) => ds_name = Some(v),
                None => return usage_err("--ds needs a data-structure name"),
            },
            "--geom" => match value(&mut it) {
                Some(v) => match parse_geom(&v) {
                    Ok(g) => geoms.push(g),
                    Err(msg) => return usage_err(&msg),
                },
                None => return usage_err("--geom needs ASSOC:SETS:LINE"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(model_path), Some(trace_path), Some(ds_name)) = (model_path, trace_path, ds_name)
    else {
        return usage_err("learn predict requires --model, --trace and --ds");
    };
    if geoms.is_empty() {
        return usage_err("learn predict requires at least one --geom ASSOC:SETS:LINE");
    }

    let model = match std::fs::read_to_string(&model_path)
        .map_err(|e| e.to_string())
        .and_then(|t| dvf::learn::NhaModel::from_json(&t).map_err(|e| e.to_string()))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match std::fs::File::open(&trace_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reader = match dvf::cachesim::TraceReader::new(std::io::BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sink = dvf::learn::FeatureSink::new();
    let mut chunk = Vec::new();
    loop {
        match reader.read_chunk(&mut chunk, 4096) {
            Ok(0) => break,
            Ok(_) => {
                for &r in &chunk {
                    sink.record(r);
                }
            }
            Err(e) => {
                eprintln!("{trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(ds) = reader.registry().id(&ds_name) else {
        let known: Vec<&str> = reader.registry().iter().map(|(_, n)| n).collect();
        eprintln!(
            "no data structure `{ds_name}` in {trace_path} (trace has: {})",
            known.join(", ")
        );
        return ExitCode::FAILURE;
    };
    let fv = sink.finish().ds(ds);
    let predictions = model.predict_levels(&fv, &geoms);

    if json {
        let mut w = dvf::obs::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("dvf-learn-predict/1");
        w.key("trace").string(&trace_path);
        w.key("ds").string(&ds_name);
        w.key("accesses").u64(fv.accesses);
        w.key("levels").begin_array();
        for (g, n_ha) in geoms.iter().zip(&predictions) {
            w.begin_object();
            w.key("associativity").u64(g.associativity as u64);
            w.key("num_sets").u64(g.num_sets as u64);
            w.key("line_bytes").u64(g.line_bytes as u64);
            w.key("n_ha").f64(*n_ha);
            w.end_object();
        }
        w.end_array();
        w.key("error_bound").begin_object();
        w.key("max_rel_err").f64(model.bound.max_rel_err);
        w.key("p95_rel_err").f64(model.bound.p95_rel_err);
        w.key("mean_rel_err").f64(model.bound.mean_rel_err);
        w.end_object();
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!("`{ds_name}` in {trace_path}: {} accesses", fv.accesses);
        for (g, n_ha) in geoms.iter().zip(&predictions) {
            println!(
                "  {}w{}s{}B: predicted N_ha {n_ha:.1}",
                g.associativity, g.num_sets, g.line_bytes
            );
        }
        println!(
            "held-out error bound: max {:.4}, p95 {:.4}, mean {:.4}",
            model.bound.max_rel_err, model.bound.p95_rel_err, model.bound.mean_rel_err
        );
    }
    ExitCode::SUCCESS
}

/// Parse an `ASSOC:SETS:LINE` cache geometry, e.g. `8:512:64`.
fn parse_geom(raw: &str) -> Result<dvf::cachesim::CacheConfig, String> {
    let parts: Vec<&str> = raw.split(':').collect();
    let [a, s, l] = parts.as_slice() else {
        return Err(format!("--geom expects ASSOC:SETS:LINE, got `{raw}`"));
    };
    let parse = |p: &str| -> Result<usize, String> {
        p.parse().map_err(|_| format!("bad --geom number `{p}`"))
    };
    dvf::cachesim::CacheConfig::new(parse(a)?, parse(s)?, parse(l)?)
        .map_err(|e| format!("bad --geom `{raw}`: {e}"))
}

/// Parse `name=LO:HI:STEPS` (inclusive linear grid) or `name=v1,v2,...`.
fn parse_sweep_spec(spec: &str) -> Result<(String, Vec<f64>), String> {
    let Some((name, raw)) = spec.split_once('=') else {
        return Err(format!("--sweep expects name=LO:HI:STEPS, got `{spec}`"));
    };
    let parts: Vec<&str> = raw.split(':').collect();
    let values = if parts.len() == 3 {
        let lo: f64 = parts[0]
            .parse()
            .map_err(|_| format!("bad sweep bound `{}`", parts[0]))?;
        let hi: f64 = parts[1]
            .parse()
            .map_err(|_| format!("bad sweep bound `{}`", parts[1]))?;
        let steps: usize = parts[2]
            .parse()
            .map_err(|_| format!("bad sweep step count `{}`", parts[2]))?;
        if steps < 2 {
            return Err("--sweep needs at least 2 steps".to_owned());
        }
        (0..steps)
            .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
            .collect()
    } else if parts.len() == 1 {
        let values: Result<Vec<f64>, _> = raw.split(',').map(str::parse::<f64>).collect();
        values.map_err(|_| format!("bad sweep value list `{raw}`"))?
    } else {
        return Err(format!(
            "--sweep expects LO:HI:STEPS or v1,v2,..., got `{raw}`"
        ));
    };
    if values.is_empty() {
        return Err("--sweep needs at least one value".to_owned());
    }
    Ok((name.to_owned(), values))
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("{msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{} MiB", b >> 20)
    } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
        format!("{} KiB", b >> 10)
    } else {
        format!("{b} B")
    }
}
