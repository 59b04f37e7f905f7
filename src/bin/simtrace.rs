//! `simtrace` — run a reference trace file through the cache simulator.
//!
//! ```text
//! simtrace <trace-file> [--assoc N] [--sets N] [--line N] [--policy lru|fifo|plru|random]
//!          [--config A:S:L]...                  # replay several geometries at once
//!          [--jobs N]                           # worker threads for multi-config replay
//!          [--l1-assoc N --l1-sets N --l1-line N]     # enable a two-level hierarchy
//!          [--json]                                   # machine-readable report
//!          [--quiet]                                  # no progress heartbeat
//! simtrace <trace-file> --convert <out>        # rewrite as compressed DVFT2
//! simtrace --record <kernel> [geometry flags]  # fused kernel→simulator run
//! ```
//!
//! The trace format is one reference per line: `name kind addr`
//! (kind `R`/`W`, addr decimal or `0x…` hex); `#` starts a comment. Binary
//! `DVFT` traces (v1 fixed-record or v2 compressed) are detected by magic
//! and — in single-config mode — replayed straight from disk in
//! bounded-memory chunks.
//!
//! `--convert` reads any supported input (text, DVFT v1, DVFT2) and
//! rewrites it in the compressed block-indexed DVFT2 format. `--record`
//! skips trace files entirely: it runs one of the instrumented paper
//! kernels (`vm`, `cg`, `nb`, `mg`, `ft`, `mc` at the Table V verification
//! input) and streams its references straight into the configured
//! simulator(s) — the fused path, no intermediate trace materialization.
//!
//! Long replays print a progress heartbeat to stderr every million
//! references (suppress with `--quiet`); `--json` swaps the tables for a
//! `dvf-cachesim/1` JSON document on stdout. With repeated `--config`
//! flags the trace is loaded once and fanned across `--jobs` threads, and
//! the JSON report grows a `"runs"` array (one entry per geometry).

use dvf_cachesim::binio::{TraceReader, DEFAULT_CHUNK};
use dvf_cachesim::{
    simulate_hierarchy_config, simulate_with_policy, CacheConfig, CacheStats, DsRegistry,
    HierarchyConfig, HierarchyReport, InclusionPolicy, LevelSpec, PolicyKind, SimJob, SimReport,
    Simulator, Trace, MAX_PREFETCH_DEGREE,
};
use dvf_kernels::{record_fanout, record_hierarchy_fanout, verification_kernel, Recorder};
use dvf_obs::{Heartbeat, JsonWriter};
use std::io::{BufReader, Read};
use std::process::ExitCode;

const USAGE: &str = "\
usage: simtrace <trace-file> [options]
       simtrace <trace-file> --convert <out>
       simtrace --record <kernel> [options]
  --assoc N --sets N --line N     LLC geometry (default 8/8192/64 = 4 MiB)
  --policy lru|fifo|plru|random   replacement policy (default lru)
  --config A:S:L                  replay this geometry too (repeatable; the
                                  trace is loaded once and fanned out)
  --jobs N                        worker threads for --config fan-out
                                  (0 = one per core, the default; values
                                  above the core count are clamped)
  --levels A:S:L[:policy[:incl]]  add a hierarchy level, top (CPU side)
                                  first (repeatable; policy defaults to
                                  lru, incl to nine|inclusive|exclusive)
  --prefetch LEVEL:DEGREE         enable the next-line/stride prefetcher
                                  at hierarchy level LEVEL (repeatable)
  --l1-assoc N --l1-sets N --l1-line N
                                  two-level sugar: this L1 plus the
                                  --assoc/--sets/--line LLC, LRU + NINE
  --convert OUT                   rewrite the input trace (text, DVFT v1,
                                  or DVFT2) as compressed DVFT2 at OUT
  --record KERNEL                 record vm|cg|nb|mg|ft|mc (verification
                                  input) and stream it straight into the
                                  simulator — no trace file
  --json                          emit a dvf-cachesim/1 JSON report
  --quiet                         suppress the progress heartbeat
";

/// References between heartbeat reports.
const HEARTBEAT_EVERY: u64 = 1_000_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path_arg = args.first().filter(|a| !a.starts_with("--")).cloned();
    let flag_args = if path_arg.is_some() {
        &args[1..]
    } else {
        &args[..]
    };

    let mut assoc = 8usize;
    let mut sets = 8192usize;
    let mut line = 64usize;
    let mut policy = PolicyKind::Lru;
    let mut configs: Vec<CacheConfig> = Vec::new();
    let mut jobs = 0usize; // 0 = one per core
    let mut l1: (Option<usize>, Option<usize>, Option<usize>) = (None, None, None);
    let mut levels: Vec<LevelSpec> = Vec::new();
    let mut prefetch: Vec<(usize, usize)> = Vec::new();
    let mut convert: Option<String> = None;
    let mut record: Option<String> = None;
    let mut json = false;
    let mut quiet = false;

    let mut it = flag_args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "--quiet" => {
                quiet = true;
                continue;
            }
            "--assoc" | "--sets" | "--line" | "--policy" | "--config" | "--jobs" | "--l1-assoc"
            | "--l1-sets" | "--l1-line" | "--levels" | "--prefetch" | "--convert" | "--record" => {}
            other => {
                eprintln!("unknown flag `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        };
        let parse_usize = |v: &str| v.parse::<usize>().ok();
        match flag.as_str() {
            "--assoc" => match parse_usize(value) {
                Some(v) => assoc = v,
                None => return bad_value(flag, value),
            },
            "--sets" => match parse_usize(value) {
                Some(v) => sets = v,
                None => return bad_value(flag, value),
            },
            "--line" => match parse_usize(value) {
                Some(v) => line = v,
                None => return bad_value(flag, value),
            },
            "--jobs" => match parse_usize(value) {
                Some(v) => jobs = v,
                None => return bad_value(flag, value),
            },
            "--policy" => match value.parse::<PolicyKind>() {
                Ok(p) => policy = p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            },
            "--config" => match parse_config_spec(value) {
                Ok(c) => configs.push(c),
                Err(e) => {
                    eprintln!("bad --config `{value}`: {e}\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--levels" => match parse_level_spec(value) {
                Ok(spec) => levels.push(spec),
                Err(e) => {
                    eprintln!("bad --levels `{value}`: {e}\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--prefetch" => match parse_prefetch_spec(value) {
                Ok(p) => prefetch.push(p),
                Err(e) => {
                    eprintln!("bad --prefetch `{value}`: {e}\n");
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--convert" => convert = Some(value.clone()),
            "--record" => record = Some(value.clone()),
            "--l1-assoc" => l1.0 = parse_usize(value),
            "--l1-sets" => l1.1 = parse_usize(value),
            "--l1-line" => l1.2 = parse_usize(value),
            _ => unreachable!("flag validated above"),
        }
    }

    let llc = match CacheConfig::new(assoc, sets, line) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad LLC geometry: {e}");
            return ExitCode::from(2);
        }
    };

    // Resolve hierarchy mode: explicit `--levels` stack, or the two-level
    // `--l1-*` sugar (that L1 over the `--assoc/--sets/--line` LLC).
    let hierarchy: Option<HierarchyConfig> = {
        let sugar = match l1 {
            (Some(a), Some(s), Some(l)) => match CacheConfig::new(a, s, l) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("bad L1 geometry: {e}");
                    return ExitCode::from(2);
                }
            },
            (None, None, None) => None,
            _ => {
                eprintln!("hierarchy sugar needs all of --l1-assoc, --l1-sets, --l1-line\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        if sugar.is_some() && !levels.is_empty() {
            eprintln!("--levels cannot be combined with the --l1-* sugar\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        let mut specs: Vec<LevelSpec> = if !levels.is_empty() {
            std::mem::take(&mut levels)
        } else if let Some(l1cfg) = sugar {
            vec![LevelSpec::new(l1cfg), LevelSpec::new(llc)]
        } else {
            Vec::new()
        };
        if specs.is_empty() {
            if !prefetch.is_empty() {
                eprintln!("--prefetch needs a hierarchy (--levels or --l1-*)\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
            None
        } else {
            for &(level, degree) in &prefetch {
                if level >= specs.len() {
                    eprintln!(
                        "--prefetch level {level} out of range (hierarchy has {} levels)\n",
                        specs.len()
                    );
                    eprint!("{USAGE}");
                    return ExitCode::from(2);
                }
                specs[level].prefetch_degree = degree;
            }
            match HierarchyConfig::new(specs) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("bad hierarchy: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    if hierarchy.is_some() && !configs.is_empty() {
        eprintln!("--config cannot be combined with hierarchy mode\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }

    // `--convert`: rewrite the input as DVFT2 and stop — no replay.
    if let Some(out) = convert {
        if record.is_some() || hierarchy.is_some() || !configs.is_empty() {
            eprintln!("--convert takes only an input file and an output path\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        let Some(path) = path_arg else {
            eprintln!("--convert needs an input <trace-file>\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        };
        return convert_trace(&path, &out);
    }

    // `--record`: references come from a kernel, not a file; the fused
    // sink drives every configured simulator (or hierarchy) during
    // recording — no trace materialization either way.
    if let Some(kernel) = record {
        if path_arg.is_some() {
            eprintln!("--record replaces the <trace-file>\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        let Some(run) = verification_kernel(&kernel) else {
            eprintln!("unknown kernel `{kernel}` (expected vm|cg|nb|mg|ft|mc)\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        };
        if let Some(config) = hierarchy {
            return record_hierarchy_fused(&kernel, run, config, json);
        }
        return record_fused(&kernel, run, llc, policy, &configs, json);
    }

    let Some(path) = path_arg.as_deref() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };

    match hierarchy {
        Some(config) => {
            if policy != PolicyKind::Lru {
                eprintln!(
                    "note: --policy is ignored in hierarchy mode (use --levels A:S:L:POLICY)"
                );
            }
            let trace = match load_trace(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = simulate_hierarchy_config(&trace, &config);
            if json {
                let mut w = JsonWriter::new();
                hierarchy_json(&mut w, None, &config, &report, &trace.registry);
                println!("{}", w.finish());
            } else {
                print_hierarchy_report(&config, &report, &trace.registry);
            }
        }
        None if !configs.is_empty() => {
            // Multi-config fan-out: the default geometry runs first, then
            // every --config, all sharing one borrowed trace.
            let trace = match load_trace(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut sim_jobs = vec![SimJob {
                config: llc,
                policy,
            }];
            sim_jobs.extend(configs.iter().map(|&config| SimJob { config, policy }));
            // `--jobs 0` means one worker per core; explicit values are
            // clamped to available parallelism so `--jobs 10000` cannot
            // ask for 10000 scoped threads.
            let cores = dvf_obs::par::available();
            let workers = if jobs == 0 { cores } else { jobs.min(cores) };
            let reports = dvf_obs::par::map(&sim_jobs, workers, |j| {
                simulate_with_policy(&trace, j.config, j.policy)
            });
            if json {
                let mut w = JsonWriter::new();
                w.begin_object();
                w.key("schema").string("dvf-cachesim/1");
                w.key("refs").u64(trace.len() as u64);
                w.key("policy").string(policy.name());
                w.key("jobs").u64(workers as u64);
                w.key("runs").begin_array();
                for report in &reports {
                    w.begin_object();
                    config_json(&mut w, &report.config);
                    stats_json(&mut w, report.stats(), &trace.registry);
                    w.key("mem_accesses").u64(report.total().mem_accesses());
                    w.end_object();
                }
                w.end_array();
                w.end_object();
                println!("{}", w.finish());
            } else {
                println!(
                    "{} refs through {} geometries ({} policy, {} worker threads)",
                    trace.len(),
                    reports.len(),
                    policy.name(),
                    workers
                );
                for report in &reports {
                    println!("\n{}:", report.config);
                    println!("{}", report.stats().render(&trace.registry));
                    println!("main-memory accesses: {}", report.total().mem_accesses());
                }
            }
        }
        None => {
            let (report, registry) = match replay_single(path, llc, policy, quiet) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if json {
                let mut w = JsonWriter::new();
                w.begin_object();
                w.key("schema").string("dvf-cachesim/1");
                w.key("refs").u64(report.refs);
                w.key("policy").string(report.policy);
                config_json(&mut w, &llc);
                stats_json(&mut w, report.stats(), &registry);
                w.key("mem_accesses").u64(report.total().mem_accesses());
                w.end_object();
                println!("{}", w.finish());
            } else {
                println!(
                    "{} refs through {} ({} policy)",
                    report.refs, llc, report.policy
                );
                println!("\n{}", report.stats().render(&registry));
                println!("main-memory accesses: {}", report.total().mem_accesses());
            }
        }
    }
    ExitCode::SUCCESS
}

/// `--convert`: load any supported trace and rewrite it as DVFT2.
fn convert_trace(path: &str, out: &str) -> ExitCode {
    let trace = match load_trace(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match std::fs::File::create(out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut w = std::io::BufWriter::new(file);
    if let Err(e) = dvf_cachesim::binio::write_binary_v2(&trace, &mut w) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    drop(w);
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "converted {} refs -> {out} (DVFT2, {bytes} bytes)",
        trace.len()
    );
    ExitCode::SUCCESS
}

/// `--record`: run the kernel once, streaming its references through the
/// fused sink into one simulator per geometry — no trace materialization.
fn record_fused(
    kernel: &str,
    run: fn(&Recorder),
    llc: CacheConfig,
    policy: PolicyKind,
    configs: &[CacheConfig],
    json: bool,
) -> ExitCode {
    let mut sim_jobs = vec![SimJob {
        config: llc,
        policy,
    }];
    sim_jobs.extend(configs.iter().map(|&config| SimJob { config, policy }));
    let (registry, reports) = record_fanout(&sim_jobs, run);
    let refs = reports.first().map(|r| r.refs).unwrap_or(0);
    if json {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("dvf-cachesim/1");
        w.key("kernel").string(kernel);
        w.key("refs").u64(refs);
        w.key("policy").string(policy.name());
        w.key("runs").begin_array();
        for report in &reports {
            w.begin_object();
            config_json(&mut w, &report.config);
            stats_json(&mut w, report.stats(), &registry);
            w.key("mem_accesses").u64(report.total().mem_accesses());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "{refs} refs recorded from `{kernel}` through {} geometries ({} policy, fused)",
            reports.len(),
            policy.name()
        );
        for report in &reports {
            println!("\n{}:", report.config);
            println!("{}", report.stats().render(&registry));
            println!("main-memory accesses: {}", report.total().mem_accesses());
        }
    }
    ExitCode::SUCCESS
}

/// `--record` + hierarchy: run the kernel once, streaming its references
/// straight into the configured cache hierarchy — fused, no trace file.
fn record_hierarchy_fused(
    kernel: &str,
    run: fn(&Recorder),
    config: HierarchyConfig,
    json: bool,
) -> ExitCode {
    let (registry, mut reports) = record_hierarchy_fanout(std::slice::from_ref(&config), run);
    let report = reports.pop().expect("one hierarchy was configured");
    if json {
        let mut w = JsonWriter::new();
        hierarchy_json(&mut w, Some(kernel), &config, &report, &registry);
        println!("{}", w.finish());
    } else {
        println!("recorded from `{kernel}` (fused)");
        print_hierarchy_report(&config, &report, &registry);
    }
    ExitCode::SUCCESS
}

/// Parse `A:S:L[:policy[:incl]]` into one hierarchy level (top first).
fn parse_level_spec(spec: &str) -> Result<LevelSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !(3..=5).contains(&parts.len()) {
        return Err("expected A:S:L[:policy[:incl]]".to_owned());
    }
    let nums: Vec<usize> = parts[..3]
        .iter()
        .map(|p| p.parse::<usize>().map_err(|_| format!("bad number `{p}`")))
        .collect::<Result<_, _>>()?;
    let cache = CacheConfig::new(nums[0], nums[1], nums[2]).map_err(|e| e.to_string())?;
    let mut spec = LevelSpec::new(cache);
    if let Some(p) = parts.get(3) {
        spec.policy = p.parse::<PolicyKind>().map_err(|e| e.to_string())?;
    }
    if let Some(i) = parts.get(4) {
        spec.inclusion = i.parse::<InclusionPolicy>().map_err(|e| e.to_string())?;
    }
    Ok(spec)
}

/// Parse `LEVEL:DEGREE` for `--prefetch`.
fn parse_prefetch_spec(spec: &str) -> Result<(usize, usize), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 2 {
        return Err("expected LEVEL:DEGREE".to_owned());
    }
    let level = parts[0]
        .parse::<usize>()
        .map_err(|_| format!("bad level `{}`", parts[0]))?;
    let degree = parts[1]
        .parse::<usize>()
        .map_err(|_| format!("bad degree `{}`", parts[1]))?;
    if degree == 0 || degree > MAX_PREFETCH_DEGREE {
        return Err(format!("degree must be 1..={MAX_PREFETCH_DEGREE}"));
    }
    Ok((level, degree))
}

/// Hierarchy report as a `dvf-cachesim/1` JSON document: a `"levels"`
/// array (top first) plus the DRAM traffic split demand/prefetch.
fn hierarchy_json(
    w: &mut JsonWriter,
    kernel: Option<&str>,
    config: &HierarchyConfig,
    report: &HierarchyReport,
    registry: &DsRegistry,
) {
    w.begin_object();
    w.key("schema").string("dvf-cachesim/1");
    if let Some(k) = kernel {
        w.key("kernel").string(k);
    }
    w.key("refs").u64(report.refs);
    w.key("hierarchy").string(&config.label());
    w.key("levels").begin_array();
    for (i, level) in report.levels.iter().enumerate() {
        w.begin_object();
        w.key("level").u64(i as u64);
        w.key("policy").string(level.policy.name());
        w.key("inclusion").string(level.inclusion.name());
        w.key("prefetch_degree").u64(level.prefetch_degree as u64);
        config_json(w, &level.config);
        stats_json(w, &level.stats, registry);
        if level.prefetch_degree > 0 {
            let p = &level.prefetch;
            w.key("prefetch").begin_object();
            w.key("issued").u64(p.issued);
            w.key("redundant").u64(p.redundant);
            w.key("filled").u64(p.filled);
            w.key("dram_reads").u64(p.dram_reads);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.key("dram").begin_object();
    w.key("reads").u64(report.dram.total().misses);
    w.key("writes").u64(report.dram.total().writebacks);
    w.key("prefetch_reads")
        .u64(report.dram_prefetch.total().misses);
    w.key("data").begin_array();
    for (id, s) in report.dram.iter() {
        w.begin_object();
        let name = if id.index() < registry.len() {
            registry.name(id)
        } else {
            "?"
        };
        w.key("name").string(name);
        w.key("reads").u64(s.misses);
        w.key("writes").u64(s.writebacks);
        w.key("prefetch_reads")
            .u64(report.dram_prefetch.ds(id).misses);
        w.key("mem_accesses").u64(report.mem_accesses(id));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("mem_accesses").u64(report.total_mem_accesses());
    w.end_object();
}

/// Human-readable hierarchy report: one stats table per level, then the
/// DRAM totals the DVF model actually consumes.
fn print_hierarchy_report(config: &HierarchyConfig, report: &HierarchyReport, reg: &DsRegistry) {
    println!(
        "{} refs through {}-level hierarchy {}",
        report.refs,
        report.levels.len(),
        config.label()
    );
    for (i, level) in report.levels.iter().enumerate() {
        println!(
            "\nL{i} {} ({}, {}):",
            level.config,
            level.policy.name(),
            level.inclusion.name()
        );
        println!("{}", level.stats.render(reg));
        if level.prefetch_degree > 0 {
            let p = &level.prefetch;
            println!(
                "prefetch (degree {}): {} issued, {} redundant, {} filled, {} DRAM reads",
                level.prefetch_degree, p.issued, p.redundant, p.filled, p.dram_reads
            );
        }
    }
    println!(
        "\nDRAM: {} demand reads + {} writebacks + {} prefetch reads",
        report.dram.total().misses,
        report.dram.total().writebacks,
        report.dram_prefetch.total().misses
    );
    println!("main-memory accesses: {}", report.total_mem_accesses());
}

/// Parse `A:S:L` (associativity : sets : line bytes) into a validated
/// geometry.
fn parse_config_spec(spec: &str) -> Result<CacheConfig, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err("expected A:S:L (associativity:sets:line-bytes)".to_owned());
    }
    let nums: Vec<usize> = parts
        .iter()
        .map(|p| p.parse::<usize>().map_err(|_| format!("bad number `{p}`")))
        .collect::<Result<_, _>>()?;
    CacheConfig::new(nums[0], nums[1], nums[2]).map_err(|e| e.to_string())
}

/// Whether the file starts with the binary-trace magic.
fn is_binary(path: &str) -> std::io::Result<bool> {
    let mut f = std::fs::File::open(path)?;
    let mut magic = [0u8; 4];
    match f.read_exact(&mut magic) {
        Ok(()) => Ok(&magic == b"DVFT"),
        // Shorter than a magic: certainly not a DVFT trace.
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Load the full trace into memory (multi-config and hierarchy modes need
/// to replay it several times).
fn load_trace(path: &str) -> Result<Trace, String> {
    if is_binary(path).map_err(|e| format!("cannot read {path}: {e}"))? {
        let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        dvf_cachesim::binio::read_binary(BufReader::new(f))
            .map_err(|e| format!("bad binary trace: {e}"))
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Trace::from_text(&text).map_err(|e| format!("bad trace: {e}"))
    }
}

/// Single-config replay. Binary traces stream from disk chunk-by-chunk
/// (memory stays bounded no matter the trace length); text traces are
/// parsed up front.
fn replay_single(
    path: &str,
    config: CacheConfig,
    policy: PolicyKind,
    quiet: bool,
) -> Result<(SimReport, DsRegistry), String> {
    let mut sim = Simulator::with_policy(config, policy);
    let heartbeat = || Heartbeat::new("simtrace", HEARTBEAT_EVERY).quiet(quiet);
    let (registry, mut hb);
    if is_binary(path).map_err(|e| format!("cannot read {path}: {e}"))? {
        let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut reader =
            TraceReader::new(BufReader::new(f)).map_err(|e| format!("bad binary trace: {e}"))?;
        registry = reader.registry().clone();
        hb = heartbeat();
        let mut chunk = Vec::new();
        loop {
            let n = reader
                .read_chunk(&mut chunk, DEFAULT_CHUNK)
                .map_err(|e| format!("bad binary trace: {e}"))?;
            if n == 0 {
                break;
            }
            sim.run(&chunk);
            hb.tick(n as u64);
        }
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let trace = Trace::from_text(&text).map_err(|e| format!("bad trace: {e}"))?;
        hb = heartbeat();
        for chunk in trace.refs.chunks(DEFAULT_CHUNK) {
            sim.run(chunk);
            hb.tick(chunk.len() as u64);
        }
        registry = trace.registry;
    }
    if hb.seen() >= HEARTBEAT_EVERY {
        hb.done();
    }
    Ok((sim.finish(), registry))
}

/// Write a cache geometry as `"config": {...}` fields.
fn config_json(w: &mut JsonWriter, cfg: &CacheConfig) {
    w.key("config").begin_object();
    w.key("associativity").u64(cfg.associativity as u64);
    w.key("sets").u64(cfg.num_sets as u64);
    w.key("line_bytes").u64(cfg.line_bytes as u64);
    w.key("capacity_bytes").u64(cfg.capacity() as u64);
    w.end_object();
}

/// Write per-structure stats as `"data": [...]` plus a `"total"` object.
fn stats_json(w: &mut JsonWriter, stats: &CacheStats, registry: &DsRegistry) {
    w.key("data").begin_array();
    for (id, s) in stats.iter() {
        w.begin_object();
        let name = if id.index() < registry.len() {
            registry.name(id)
        } else {
            "?"
        };
        w.key("name").string(name);
        ds_fields(w, s.reads, s.writes, s.hits, s.misses, s.writebacks);
        w.end_object();
    }
    w.end_array();
    let t = stats.total();
    w.key("total").begin_object();
    ds_fields(w, t.reads, t.writes, t.hits, t.misses, t.writebacks);
    w.end_object();
}

fn ds_fields(w: &mut JsonWriter, reads: u64, writes: u64, hits: u64, misses: u64, writebacks: u64) {
    w.key("reads").u64(reads);
    w.key("writes").u64(writes);
    w.key("hits").u64(hits);
    w.key("misses").u64(misses);
    w.key("writebacks").u64(writebacks);
    w.key("mem_accesses").u64(misses + writebacks);
}

fn bad_value(flag: &str, value: &str) -> ExitCode {
    eprintln!("bad value `{value}` for {flag}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
