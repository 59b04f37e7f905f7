//! `simulate-cg`: the CG kernel recorded and streamed into the cache
//! simulators, at a size well past the verification input.
//!
//! Each repetition runs three paths:
//!
//! - **fused flat**: `record_fanout` into one LRU cache at the 32 MiB
//!   geometry;
//! - **fused hierarchy**: `record_hierarchy_fanout` into a 3-level
//!   hierarchy ending in the same 32 MiB level;
//! - **file**: the DVFT2 file written during set-up, decoded with
//!   `read_binary` (as `simtrace` loads a trace) and replayed by
//!   `simulate_many` over a small geometry grid that includes the 32 MiB
//!   geometry.
//!
//! Every path is timed in own seconds (see [`PassClock::own_secs`]).
//!
//! The file replay at 32 MiB must equal the fused flat report, and a
//! one-level hierarchy must charge every structure the same main-memory
//! accesses as the flat cache. The traced variant times the recorder
//! alone, each replay engine alone, the decoder alone, and the fan-out's
//! busy share.

use crate::common::{iq_mean, median, rng, secs, Env, Ledger, PassClock, SetupParts};
use dvf_cachesim::config::table4;
use dvf_cachesim::{
    simulate_many, CacheConfig, CacheHierarchy, HierarchyConfig, LevelSpec, MemRef, SimJob,
    Simulator, Trace,
};
use dvf_kernels::cg::{self, CgParams};
use dvf_kernels::recorder::{record_fanout, record_hierarchy_fanout, Recorder, TraceSink};
use rand::Rng as _;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// CG matrix dimension and iterations: 5.9 M references, 2.4 times the
/// verification input, so one repetition of the three paths stays near a
/// second and a share of a run holds about ten.
const CG_N: usize = 700;
const CG_ITERS: usize = 6;

/// The 32 MiB last-level geometry (16-way, 64 B lines).
const LLC_32MB: CacheConfig = CacheConfig {
    associativity: 16,
    num_sets: 32768,
    line_bytes: 64,
};

fn params(seed: u64) -> CgParams {
    // The seed moves the matrix's diagonal spread; the iteration count
    // (and so the reference count) stays fixed because the tolerance is
    // never reached in CG_ITERS iterations.
    let mut rng = rng(seed, "simulate-cg");
    CgParams {
        diag_spread: 5.0 + 10.0 * rng.gen::<f64>(),
        ..CgParams::new(CG_N, CG_ITERS, 1e-300)
    }
}

fn hierarchy3() -> HierarchyConfig {
    HierarchyConfig::new(vec![
        LevelSpec::new(CacheConfig::new(8, 64, 64).expect("32 KiB L1")),
        LevelSpec::new(CacheConfig::new(8, 512, 64).expect("256 KiB L2")),
        LevelSpec::new(LLC_32MB),
    ])
    .expect("valid 3-level hierarchy")
}

fn hierarchy1() -> HierarchyConfig {
    HierarchyConfig::new(vec![LevelSpec::new(LLC_32MB)]).expect("valid 1-level hierarchy")
}

/// The file-replay geometry grid; the first entry is the fused geometry.
fn file_jobs() -> Vec<SimJob> {
    [
        LLC_32MB,
        table4::LARGE_VERIFICATION,
        CacheConfig::new(16, 8192, 64).expect("8 MiB"),
        table4::SMALL_VERIFICATION,
    ]
    .into_iter()
    .map(SimJob::lru)
    .collect()
}

/// What set-up leaves behind: the recorded DVFT2 file.
#[derive(Debug)]
pub struct Setup {
    path: PathBuf,
    refs: u64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Record the kernel and write it once as a DVFT2 file.
pub fn setup(env: &Env, seed: u64, parts: &mut SetupParts) -> Result<Setup, String> {
    let t = Instant::now();
    let rec = Recorder::new();
    cg::run_traced(params(seed), &rec);
    let trace = rec.into_trace();
    let path = env.work.join("cg.dvft");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    dvf_cachesim::write_binary_v2(&trace, &mut out).map_err(|e| format!("write trace: {e}"))?;
    std::io::Write::flush(&mut out).map_err(|e| format!("write trace: {e}"))?;
    parts.push(("CG record", secs(t)));
    Ok(Setup {
        path,
        refs: trace.refs.len() as u64,
    })
}

/// Decode the whole file into memory the way `simtrace` loads a trace
/// for multi-geometry replay: `read_binary`, block-parallel for DVFT2.
fn read_trace(path: &PathBuf) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    dvf_cachesim::read_binary(std::io::BufReader::new(file)).map_err(|e| format!("read trace: {e}"))
}

/// A sink that drops every reference: the recorder's cost alone.
struct Discard;

impl TraceSink for Discard {
    fn emit(&mut self, r: MemRef) {
        std::hint::black_box(r);
    }
}

/// The scenario's state across its interleaved repetitions.
pub struct Scenario<'a> {
    setup: &'a Setup,
    params: CgParams,
    jobs: Vec<SimJob>,
    traced: bool,
    fused: Vec<f64>,
    hier: Vec<f64>,
    file: Vec<f64>,
    traced_fused: Vec<f64>,
    /// Per traced repetition: recorder, flat, 1-level, 3-level and
    /// decoder rates (refs/s), and the fan-out's busy share.
    layer: [Vec<f64>; 6],
}

impl<'a> Scenario<'a> {
    /// Prepare the seeded kernel parameters.
    pub fn new(setup: &'a Setup, seed: u64, traced: bool) -> Self {
        Self {
            setup,
            params: params(seed),
            jobs: file_jobs(),
            traced,
            fused: Vec::new(),
            hier: Vec::new(),
            file: Vec::new(),
            traced_fused: Vec::new(),
            layer: Default::default(),
        }
    }

    /// One pass of each path (plus, when traced, the layer timings).
    pub fn rep(&mut self, ledger: &mut Ledger) -> Result<(), String> {
        let (params, jobs) = (self.params, &self.jobs);
        let first = self.fused.is_empty();
        let clock = PassClock::start();
        let (registry, flat) = record_fanout(&[SimJob::lru(LLC_32MB)], |rec| {
            std::hint::black_box(cg::run_traced(params, rec));
        });
        self.fused.push(clock.own_secs());
        let flat = flat
            .into_iter()
            .next()
            .ok_or("record_fanout returned no report")?;

        let clock = PassClock::start();
        let (_, h3) = record_hierarchy_fanout(&[hierarchy3()], |rec| {
            std::hint::black_box(cg::run_traced(params, rec));
        });
        self.hier.push(clock.own_secs());
        let h3 = h3
            .into_iter()
            .next()
            .ok_or("record_hierarchy_fanout returned no report")?;

        let clock = PassClock::start();
        let trace = read_trace(&self.setup.path)?;
        let reports = simulate_many(&trace, jobs);
        self.file.push(clock.own_secs());

        let refs = trace.refs.len() as u64;
        ledger.attempted += 3;
        let recorded = self.setup.refs;
        ledger.check(recorded == refs && flat.refs == refs && h3.refs == refs, || {
            format!(
                "simulate-cg: reference counts differ (recorded {recorded}, fused {}, hierarchy {}, file {refs})",
                flat.refs, h3.refs
            )
        });
        ledger.check(registry.len() == trace.registry.len(), || {
            "simulate-cg: the file names a different set of structures".to_owned()
        });
        ledger.check(reports.first() == Some(&flat), || {
            "simulate-cg: DVFT2 replay counts differ from the fused counts".to_owned()
        });

        if first {
            // A one-level hierarchy on the same geometry and trace must
            // charge every structure exactly what the flat cache does.
            let mut h1 = CacheHierarchy::from_config(hierarchy1());
            h1.replay(&trace.refs);
            let h1 = h1.into_report();
            for (id, name) in trace.registry.iter() {
                let (a, b) = (flat.ds(id).mem_accesses(), h1.mem_accesses(id));
                ledger.check(a == b, || {
                    format!("simulate-cg: {name} main-memory accesses: flat {a}, one-level hierarchy {b}")
                });
            }
            ledger.count("sim.refs", refs);
            for (id, name) in trace.registry.iter() {
                let s = flat.ds(id);
                ledger.count(&format!("sim.flat.{name}.misses"), s.misses);
                ledger.count(&format!("sim.flat.{name}.writebacks"), s.writebacks);
                ledger.count(
                    &format!("sim.hier3.{name}.mem_accesses"),
                    h3.mem_accesses(id),
                );
            }
        }

        if self.traced {
            // Timed in own seconds like the passes above, so the layers
            // and the passes they split are on the same footing.
            let clock = PassClock::start();
            record_fanout(&[SimJob::lru(LLC_32MB)], |rec| {
                std::hint::black_box(cg::run_traced(params, rec));
            });
            self.traced_fused.push(clock.own_secs());

            let clock = PassClock::start();
            let rec = Recorder::streaming(Rc::new(RefCell::new(Discard)));
            std::hint::black_box(cg::run_traced(params, &rec));
            self.layer[0].push(rec.emitted() as f64 / clock.own_secs());
            drop(rec);

            let clock = PassClock::start();
            let mut sim = Simulator::new(LLC_32MB);
            sim.run(&trace.refs);
            std::hint::black_box(sim.finish());
            self.layer[1].push(refs as f64 / clock.own_secs());

            for (slot, config) in [(2, hierarchy1()), (3, hierarchy3())] {
                let clock = PassClock::start();
                let mut h = CacheHierarchy::from_config(config);
                h.replay(&trace.refs);
                std::hint::black_box(h.into_report());
                self.layer[slot].push(refs as f64 / clock.own_secs());
            }

            let clock = PassClock::start();
            std::hint::black_box(read_trace(&self.setup.path)?.refs.len());
            self.layer[4].push(refs as f64 / clock.own_secs());

            // Busy share of the fan-out: the jobs one at a time, over
            // two workers' worth of the fan-out's wall time.
            let t = Instant::now();
            std::hint::black_box(simulate_many(&trace, jobs));
            let wall = secs(t);
            let t = Instant::now();
            for job in jobs {
                std::hint::black_box(dvf_cachesim::simulate(&trace, job.config));
            }
            self.layer[5].push(secs(t) / (2.0 * wall));
        }
        Ok(())
    }

    /// Report the scenario's metrics.
    pub fn finish(self, ledger: &mut Ledger) {
        let refs = self.setup.refs as f64;
        // A run holds only a dozen or so passes of each path, and the host
        // runs in fast and slow spells of about a second, up to 1.6x apart:
        // the median of so few passes jumps between the two speeds (a
        // spread of 0.30 over ten runs), while the interquartile mean moves
        // with the share of passes in each and still drops stalls.
        let fused = iq_mean(&self.fused);
        for (name, reps) in [
            ("sim.fused (pass, s)", &self.fused),
            ("sim.hier (pass, s)", &self.hier),
            ("sim.file (pass, s)", &self.file),
        ] {
            crate::common::print_reps(name, reps);
        }
        ledger.put("sim.fused_mref_per_s", refs / fused / 1e6, "Mref/s");
        ledger.put(
            "sim.hier_mref_per_s",
            refs / iq_mean(&self.hier) / 1e6,
            "Mref/s",
        );
        ledger.put(
            "sim.file_mref_per_s",
            refs * self.jobs.len() as f64 / iq_mean(&self.file) / 1e6,
            "Mref/s",
        );
        println!(
            "simulate-cg: CG n={CG_N} x {CG_ITERS} iterations, {} refs; {} repetitions: fused {:.3} s, hierarchy {:.3} s, file x{} {:.3} s (interquartile means of own time)",
            self.setup.refs,
            self.fused.len(),
            fused,
            iq_mean(&self.hier),
            self.jobs.len(),
            iq_mean(&self.file)
        );
        if !self.traced {
            return;
        }
        let m = |i: usize| median(&self.layer[i]) / 1e6;
        ledger.put("kernels.record_mref_per_s", m(0), "Mref/s");
        ledger.put("cachesim.flat_mref_per_s", m(1), "Mref/s");
        ledger.put("cachesim.hier1_mref_per_s", m(2), "Mref/s");
        ledger.put("cachesim.hier3_mref_per_s", m(3), "Mref/s");
        ledger.put("binio.decode_mref_per_s", m(4), "Mref/s");
        let bytes = std::fs::metadata(&self.setup.path).map_or(0, |m| m.len());
        ledger.put("binio.bytes_per_ref", bytes as f64 / refs, "B");
        ledger.put("cachesim.fanout.busy_frac", median(&self.layer[5]), "frac");
        ledger.put(
            "sim.trace_overhead_frac",
            iq_mean(&self.traced_fused) / fused - 1.0,
            "frac",
        );
        // Fused flat e2e per reference minus the recorder's and the flat
        // replay's self time per reference.
        let layers = 1.0 / m(0) + 1.0 / m(1);
        ledger.put(
            "sim.unattributed_frac",
            1.0 - layers / (fused / refs * 1e6),
            "frac",
        );
    }
}
