//! `serve-mixed`: one `dvf serve` process under an open-loop, fixed-rate,
//! seeded request mix over two keep-alive connections.
//!
//! The six repro kernels are registered as sessions during set-up, and a
//! model trained with `dvf learn train` backs `/v1/predict`. Every
//! response is checked bit for bit against the same question answered
//! in-process. Latency is timed from each request's scheduled send, so a
//! stall also charges the requests queued behind it.
//!
//! Every kernel is asked at its default size as well as at seeded smaller
//! sizes, one in each of equal strata of [`MIN_SCALE`, 1] of the default,
//! and the schedule holds every class's share exactly in each block of
//! [`BLOCK_LEN`] requests, so seeds differ in which requests they send
//! but not in how heavy the mix is. Load comes in [`WINDOW_S`] windows
//! interleaved with the other scenarios. `serve.p50_us` and
//! `serve.cpu_us_per_req` are taken over the [`QUIET_SHARE`] of windows
//! in which the host stole the least CPU time from this guest. A run
//! prints a warning when the generator fell behind in most windows, as
//! it does when the server cannot keep up with [`RATE`].
//! During a window two idle-class spinners keep the host's vCPUs out of
//! idle (see [`crate::common::Spinners`]).
//!
//! In a traced run every other window is followed by timing, for one
//! request in [`TRACE_EVERY`], the layers under the same request
//! in-process: `api::route`, JSON decode, Aspen parse, the workflow
//! evaluation and the learned predictor. The timing runs after the
//! window, so it never delays the load.

use crate::common::{
    json_str, least_stolen, mean, median, quantile, rng, secs, shuffle, Env, Ledger, Server,
    SetupParts,
};
use dvf_cachesim::CacheConfig;
use dvf_core::workflow::{evaluate, DvfWorkflow};
use dvf_learn::{FeatureSink, FeatureVector, NhaModel};
use dvf_obs::Json;
use dvf_serve::http::Request;
use dvf_serve::{ServeCtx, ServerConfig};
use rand::rngs::StdRng;
use rand::Rng as _;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Offered load, requests per second, split evenly over [`CONNECTIONS`].
pub const RATE: f64 = 1000.0;
/// Keep-alive connections the generator drives.
const CONNECTIONS: usize = 2;
/// Length of one open-loop window; windows interleave with the other
/// scenarios' repetitions.
const WINDOW_S: f64 = 0.5;
/// A window fell behind when the generator's median lateness over its
/// last quarter of requests exceeds that over its first quarter by this
/// much (µs, half of one connection's send interval): a queue that grows
/// through the window, not a single stall.
const BACKLOG_US: f64 = 1e6 / RATE * CONNECTIONS as f64 / 2.0;
/// In a traced window, one request in this many is timed layer by layer.
const TRACE_EVERY: usize = 20;
/// The six repro kernels served as sessions.
const MODELS: [&str; 6] = ["cg", "ft", "mc", "mg", "nb", "vm"];
/// Machine every session selects at registration.
const DEFAULT_MACHINE: &str = "profile_8mb";
/// Distinct parameter sets per kernel: the kernel's defaults, then sets
/// whose parameters scale by seeded factors in [`MIN_SCALE`, 1] of their
/// defaults.
const PARAM_SETS: usize = 16;
/// Smallest scale factor of a drawn parameter.
const MIN_SCALE: f64 = 0.25;
/// Parameter sets per kernel also sent with the source inline.
const INLINE_SETS: usize = 2;
/// Share of the windows, the least stolen by the host, over which
/// `serve.p50_us` and `serve.cpu_us_per_req` are taken.
const QUIET_SHARE: f64 = 1.0 / 3.0;
/// Grid points of every `/v1/sweep` request.
const SWEEP_POINTS: usize = 16;
/// Requests of each class in every block of [`BLOCK_LEN`] scheduled
/// requests, in [`Class::ALL`] order: 80% session, 8% inline, 10%
/// predict, 2% sweep.
const BLOCK: [usize; 4] = [40, 4, 5, 1];
const BLOCK_LEN: usize = 50;

/// Request classes, in the order of their share of the mix (the
/// discriminant indexes [`Class::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `/v1/dvf` against a resident session.
    Session,
    /// `/v1/dvf` with the program inline.
    Inline,
    /// `/v1/predict`.
    Predict,
    /// 16-point `/v1/sweep` against a resident session.
    Sweep,
}

impl Class {
    const ALL: [Class; 4] = [Class::Session, Class::Inline, Class::Predict, Class::Sweep];

    fn label(self) -> &'static str {
        match self {
            Class::Session => "session_dvf",
            Class::Inline => "inline_dvf",
            Class::Predict => "predict",
            Class::Sweep => "sweep",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Class::Session | Class::Inline => "/v1/dvf",
            Class::Predict => "/v1/predict",
            Class::Sweep => "/v1/sweep",
        }
    }
}

/// What the in-process evaluation of a request needs.
#[derive(Debug, Clone)]
enum Work {
    /// Resolve `model` on `machine` with `params` and evaluate.
    Dvf {
        model: usize,
        machine: String,
        params: Vec<(String, f64)>,
    },
    /// Predict per-level `N_ha` for a feature vector.
    Predict {
        features: Box<FeatureVector>,
        levels: Vec<CacheConfig>,
    },
    /// Evaluate `param` over `values`, with `params` fixed.
    Sweep {
        model: usize,
        params: Vec<(String, f64)>,
        param: String,
        values: Vec<f64>,
    },
}

/// One distinct request of the mix, with its in-process answer.
#[derive(Debug, Clone)]
struct Entry {
    class: Class,
    body: String,
    work: Work,
    /// Expected answer: the bits of every number the response must carry.
    expect: Vec<u64>,
}

/// A registered kernel: name, full source (machines + model) and its
/// declared parameters with defaults.
#[derive(Debug, Clone)]
struct Kernel {
    name: &'static str,
    source: String,
    params: Vec<(String, f64)>,
}

/// What set-up leaves running: the server with its sessions and model.
#[derive(Debug)]
pub struct Setup {
    server: Server,
    model: NhaModel,
    kernels: Vec<Kernel>,
}

/// Train the predictor, start the server and register the sessions.
pub fn setup(env: &Env, seed: u64, parts: &mut SetupParts) -> Result<Setup, String> {
    let t = Instant::now();
    let model_path: PathBuf = env.work.join("model.json");
    let status = std::process::Command::new(&env.dvf)
        .args(["learn", "train", "--smoke", "--max-rel-err", "1", "--seed"])
        .arg(seed.to_string())
        .arg("--out")
        .arg(&model_path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("dvf learn train: {e}"))?;
    if !status.success() {
        return Err(format!("dvf learn train failed: {status}"));
    }
    let text = std::fs::read_to_string(&model_path).map_err(|e| format!("model: {e}"))?;
    let model = NhaModel::from_json(&text).map_err(|e| format!("model: {e}"))?;
    parts.push(("learn train", secs(t)));
    let t = Instant::now();
    let path = model_path.to_str().ok_or("model path is not UTF-8")?;
    let server = Server::start(&env.dvf, &["--model", path])?;
    parts.push(("server boot", secs(t)));
    let t = Instant::now();
    let kernels = kernels(env)?;
    let mut client = server.client();
    for k in &kernels {
        let body = format!(
            "{{\"name\":\"{}\",\"machine\":\"{DEFAULT_MACHINE}\",\"source\":{}}}",
            k.name,
            json_str(&k.source)
        );
        let reply = client
            .post("/v1/sessions", &body)
            .map_err(|e| format!("register {}: {e}", k.name))?;
        if reply.status != 200 {
            return Err(format!("register {}: HTTP {}", k.name, reply.status));
        }
    }
    parts.push(("session registration", secs(t)));
    Ok(Setup {
        server,
        model,
        kernels,
    })
}

/// Read the repro models and their declared parameters.
fn kernels(env: &Env) -> Result<Vec<Kernel>, String> {
    let dir = env.repo.join("crates/repro/models");
    let read = |f: &str| {
        std::fs::read_to_string(dir.join(f)).map_err(|e| format!("{}: {e}", dir.join(f).display()))
    };
    let machines = read("machines.aspen")?;
    MODELS
        .iter()
        .map(|&name| {
            let model = read(&format!("{name}.aspen"))?;
            let params = model
                .lines()
                .filter_map(|l| {
                    let rest = l.trim().strip_prefix("param ")?;
                    let (k, v) = rest.split_once('=')?;
                    let v = v.split("//").next()?.trim().parse::<f64>().ok()?;
                    Some((k.trim().to_owned(), v))
                })
                .collect();
            Ok(Kernel {
                name,
                source: format!("{machines}\n{model}"),
                params,
            })
        })
        .collect()
}

fn machines_of(source: &str) -> Vec<String> {
    source
        .lines()
        .filter_map(|l| l.trim().strip_prefix("machine ")?.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

fn params_json(params: &[(String, f64)]) -> String {
    let mut w = dvf_obs::JsonWriter::new();
    w.begin_object();
    for (k, v) in params {
        w.key(k).f64(*v);
    }
    w.end_object();
    w.finish()
}

/// Feature vectors of every structure of small CG runs, computed
/// in-stream the way a `/v1/predict` client would.
fn feature_vectors() -> Vec<FeatureVector> {
    [32usize, 64, 96]
        .iter()
        .flat_map(|&n| {
            let sink = Rc::new(RefCell::new(FeatureSink::new()));
            let rec = dvf_kernels::Recorder::streaming(sink.clone());
            dvf_kernels::cg::run_traced(dvf_kernels::cg::CgParams::new(n, 3, 1e-12), &rec);
            drop(rec);
            let set = Rc::try_unwrap(sink)
                .expect("recorder released its sink")
                .into_inner()
                .finish();
            set.vectors
        })
        .filter(|fv| fv.accesses > 0)
        .collect()
}

fn geometry_json(levels: &[CacheConfig]) -> String {
    let items: Vec<String> = levels
        .iter()
        .map(|g| {
            format!(
                "{{\"assoc\":{},\"sets\":{},\"line\":{}}}",
                g.associativity, g.num_sets, g.line_bytes
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Answer a [`Work`] in-process: the numbers the response must carry.
fn answer(work: &Work, wfs: &[DvfWorkflow], model: &NhaModel) -> Option<Vec<u64>> {
    match work {
        Work::Dvf {
            model: m,
            machine,
            params,
        } => {
            let point: Vec<(&str, f64)> = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            let report = wfs[*m]
                .clone()
                .with_machine(machine)
                .evaluate(&point)
                .ok()?;
            Some(vec![report.dvf_app().to_bits()])
        }
        Work::Predict { features, levels } => Some(
            model
                .predict_levels(features, levels)
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        ),
        Work::Sweep {
            model: m,
            params,
            param,
            values,
        } => sweep_rows(&wfs[*m], params, param, values).map(|rows| {
            rows.iter()
                .flat_map(|(t, d)| [t.to_bits(), d.to_bits()])
                .collect()
        }),
    }
}

/// `(time_s, dvf_app)` of every point of a sweep, if all evaluate.
fn sweep_rows(
    wf: &DvfWorkflow,
    params: &[(String, f64)],
    param: &str,
    values: &[f64],
) -> Option<Vec<(f64, f64)>> {
    values
        .iter()
        .map(|&v| {
            let mut point: Vec<(&str, f64)> =
                params.iter().map(|(k, val)| (k.as_str(), *val)).collect();
            point.push((param, v));
            let report = wf.evaluate(&point).ok()?;
            Some((report.time_s, report.dvf_app()))
        })
        .collect()
}

/// The numbers a response carries, in [`answer`] order.
fn numbers_of(class: Class, body: &str) -> Option<Vec<u64>> {
    let json = Json::parse(body).ok()?;
    match class {
        Class::Session | Class::Inline => Some(vec![json.get("dvf_app")?.as_f64()?.to_bits()]),
        Class::Predict => json
            .get("levels")?
            .as_arr()?
            .iter()
            .map(|l| Some(l.get("n_ha")?.as_f64()?.to_bits()))
            .collect(),
        Class::Sweep => {
            let mut out = Vec::new();
            for row in json.get("rows")?.as_arr()? {
                out.push(row.get("time_s")?.as_f64()?.to_bits());
                out.push(row.get("dvf_app")?.as_f64()?.to_bits());
            }
            Some(out)
        }
    }
}

/// `default` scaled by the factor at `u` in [0, 1) of [`MIN_SCALE`, 1],
/// rounded to a positive whole number.
fn scaled(default: f64, u: f64) -> f64 {
    (default * (MIN_SCALE + (1.0 - MIN_SCALE) * u))
        .round()
        .max(1.0)
}

/// `n` seeded points of [0, 1), one in each of `n` equal strata, in
/// seeded order. Drawn sizes then spread the same way for every seed, so
/// the seed moves which inputs are asked but not how heavy the mix is.
fn strata(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut order);
    order
        .into_iter()
        .map(|i| (i as f64 + rng.gen::<f64>()) / n as f64)
        .collect()
}

/// The bounded, seeded set of distinct requests, each with its answer.
fn bank(setup: &Setup, seed: u64) -> Result<Vec<Entry>, String> {
    let mut rng = rng(seed, "serve-mixed");
    let wfs: Vec<DvfWorkflow> = setup
        .kernels
        .iter()
        .map(|k| DvfWorkflow::parse(&k.source).map(|wf| wf.with_machine(DEFAULT_MACHINE)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("repro model: {e}"))?;
    let mut entries = Vec::new();
    for (m, k) in setup.kernels.iter().enumerate() {
        let mut machines = machines_of(&k.source);
        shuffle(&mut rng, &mut machines);
        // A Latin hypercube over the drawn sets: each parameter's factors
        // fall one in each stratum of [MIN_SCALE, 1].
        let drawn: Vec<Vec<f64>> = k
            .params
            .iter()
            .map(|_| strata(&mut rng, PARAM_SETS - 1))
            .collect();
        for set in 0..PARAM_SETS {
            // The defaults first; then every parameter scaled by its own
            // seeded factor, redrawing within the strata if the model
            // rejects the set.
            let params = (0..8)
                .filter(|_| set > 0)
                .map(|attempt| {
                    k.params
                        .iter()
                        .zip(&drawn)
                        .map(|((name, v), u)| {
                            let u = if attempt == 0 {
                                u[set - 1]
                            } else {
                                let width = 1.0 / (PARAM_SETS - 1) as f64;
                                u[set - 1] - u[set - 1] % width + width * rng.gen::<f64>()
                            };
                            (name.clone(), scaled(*v, u))
                        })
                        .collect::<Vec<_>>()
                })
                .find(|params| {
                    let point: Vec<(&str, f64)> =
                        params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                    wfs[m].evaluate(&point).is_ok()
                })
                .unwrap_or_else(|| k.params.clone());
            // One request on the session's machine, one selecting a
            // machine in seeded rotation.
            let picked = machines[set % machines.len()].clone();
            for machine in [None, Some(&picked)] {
                let mut body = format!("{{\"session\":\"{}\"", k.name);
                if let Some(mc) = machine {
                    body.push_str(&format!(",\"machine\":\"{mc}\""));
                }
                body.push_str(&format!(",\"params\":{}}}", params_json(&params)));
                let work = Work::Dvf {
                    model: m,
                    machine: machine.map_or(DEFAULT_MACHINE, |s| s.as_str()).to_owned(),
                    params: params.clone(),
                };
                entries.push((Class::Session, body, work));
            }
            if set < INLINE_SETS {
                let machine = machines[(set + 1) % machines.len()].clone();
                let body = format!(
                    "{{\"source\":{},\"machine\":\"{machine}\",\"params\":{}}}",
                    json_str(&k.source),
                    params_json(&params)
                );
                let work = Work::Dvf {
                    model: m,
                    machine,
                    params,
                };
                entries.push((Class::Inline, body, work));
            }
        }
        // The first parameter whose sweep over seeded values in
        // [MIN_SCALE, 1] x its default, one in each stratum, the kernel's
        // defaults fixing the others, evaluates everywhere.
        let (param, values, params) = k
            .params
            .iter()
            .map(|(param, default)| {
                let mut values: Vec<f64> = strata(&mut rng, SWEEP_POINTS)
                    .into_iter()
                    .map(|u| scaled(*default, u))
                    .collect();
                values.sort_by(f64::total_cmp);
                let fixed: Vec<(String, f64)> = k
                    .params
                    .iter()
                    .filter(|(k, _)| k != param)
                    .cloned()
                    .collect();
                (param.clone(), values, fixed)
            })
            .find(|(param, values, fixed)| sweep_rows(&wfs[m], fixed, param, values).is_some())
            .ok_or_else(|| format!("no sweepable parameter in {}", k.name))?;
        let body = format!(
            "{{\"session\":\"{}\",\"params\":{},\"param\":\"{param}\",\"values\":[{}]}}",
            k.name,
            params_json(&params),
            values
                .iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let work = Work::Sweep {
            model: m,
            params,
            param,
            values,
        };
        entries.push((Class::Sweep, body, work));
    }
    let geometries = [
        dvf_cachesim::config::table4::SMALL_VERIFICATION,
        CacheConfig::new(8, 512, 64).expect("valid geometry"),
        dvf_cachesim::config::table4::LARGE_VERIFICATION,
        CacheConfig::new(16, 32768, 64).expect("valid geometry"),
    ];
    for fv in feature_vectors() {
        for _ in 0..2 {
            let depth = rng.gen_range(1..4usize);
            let start = rng.gen_range(0..geometries.len() - depth + 1);
            let levels = geometries[start..start + depth].to_vec();
            let body = format!(
                "{{\"features\":{},\"levels\":{}}}",
                fv.to_json(),
                geometry_json(&levels)
            );
            // The server decodes the vector from JSON: answer from the
            // same decoding.
            let features = Json::parse(&fv.to_json())
                .ok()
                .and_then(|j| FeatureVector::from_json(&j).ok())
                .map(Box::new)
                .ok_or("feature vector does not round-trip")?;
            entries.push((Class::Predict, body, Work::Predict { features, levels }));
        }
    }
    entries
        .into_iter()
        .map(|(class, body, work)| {
            let expect = answer(&work, &wfs, &setup.model)
                .ok_or_else(|| format!("in-process evaluation failed for {body}"))?;
            Ok(Entry {
                class,
                body,
                work,
                expect,
            })
        })
        .collect()
}

/// One completed (or failed) request.
#[derive(Debug)]
struct Sample {
    /// Position in the window's schedule.
    slot: usize,
    entry: usize,
    /// From scheduled send to the last response byte.
    latency: Duration,
    /// From scheduled send to the actual send.
    late: Duration,
    status: u16,
    body: String,
    layers: Option<Layers>,
}

/// One request's in-process layer times, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    route: f64,
    decode: f64,
    parse: f64,
    eval: f64,
    predict: f64,
}

/// The in-process replica the traced window times requests against.
struct Tracer {
    ctx: ServeCtx,
    sources: Vec<String>,
    docs: Vec<dvf_aspen::Document>,
    model: NhaModel,
}

impl Tracer {
    fn new(setup: &Setup) -> Result<Self, String> {
        let ctx = ServeCtx::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .with_model(setup.model.clone());
        let mut docs = Vec::new();
        for k in &setup.kernels {
            let wf = DvfWorkflow::parse(&k.source).map_err(|e| e.to_string())?;
            ctx.registry
                .insert(k.name, wf.with_machine(DEFAULT_MACHINE), k.source.len());
            docs.push(dvf_aspen::parse(&k.source).map_err(|e| e.to_string())?);
        }
        Ok(Self {
            ctx,
            sources: setup.kernels.iter().map(|k| k.source.clone()).collect(),
            docs,
            model: setup.model.clone(),
        })
    }

    /// Time `api::route` and the layers under it for one request.
    fn time(&self, entry: &Entry) -> Layers {
        let req = Request {
            method: "POST".to_owned(),
            path: entry.class.path().to_owned(),
            query: None,
            headers: Vec::new(),
            body: entry.body.clone().into_bytes(),
        };
        // The sweep scenario clears this process's memo between windows:
        // answer once untimed, so the timed call sees the warm memo the
        // server has.
        std::hint::black_box(dvf_serve::api::route(&req, &self.ctx));
        let t = Instant::now();
        std::hint::black_box(dvf_serve::api::route(&req, &self.ctx));
        let mut l = Layers {
            route: us(t),
            ..Layers::default()
        };
        let t = Instant::now();
        std::hint::black_box(Json::parse(&entry.body).is_ok());
        l.decode = us(t);
        match &entry.work {
            Work::Dvf {
                model,
                machine,
                params,
            } => {
                if entry.class == Class::Inline {
                    let t = Instant::now();
                    std::hint::black_box(dvf_aspen::parse(&self.sources[*model]).is_ok());
                    l.parse = us(t);
                }
                l.eval = self.eval(*model, machine, params);
            }
            Work::Sweep {
                model,
                params,
                param,
                values,
            } => {
                for v in values {
                    let mut point = params.clone();
                    point.push((param.clone(), *v));
                    l.eval += self.eval(*model, DEFAULT_MACHINE, &point);
                }
            }
            Work::Predict { features, levels } => {
                let t = Instant::now();
                std::hint::black_box(self.model.predict_levels(features, levels));
                l.predict = us(t);
            }
        }
        l
    }

    /// Resolve and evaluate one point (resolve + patterns + report), in µs.
    fn eval(&self, model: usize, machine: &str, params: &[(String, f64)]) -> f64 {
        let t = Instant::now();
        let mut resolver = dvf_aspen::Resolver::new(&self.docs[model]);
        for (k, v) in params {
            resolver = resolver.set_param(k, *v);
        }
        let spec = resolver
            .machine(Some(machine))
            .and_then(|m| Ok((m, resolver.model(None)?)));
        if let Ok((machine, app)) = spec {
            std::hint::black_box(evaluate(&app, &machine).is_ok());
        }
        us(t)
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Drive one open-loop window: request `i` of `schedule` is due at
/// `i / RATE` seconds, on connection `i % CONNECTIONS`.
fn drive(server: &Server, bank: &[Entry], schedule: &[usize]) -> Vec<Sample> {
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = server.client();
                    let mut out = Vec::with_capacity(schedule.len() / CONNECTIONS + 1);
                    for (i, &e) in schedule.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let reply = client.post(bank[e].class.path(), &bank[e].body);
                        let done = Instant::now();
                        let (status, body) =
                            reply.map_or((0, String::new()), |r| (r.status, r.body));
                        out.push(Sample {
                            slot: i,
                            entry: e,
                            latency: done - due,
                            late: sent.saturating_duration_since(due),
                            status,
                            body,
                            layers: None,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Seeded schedule of `n` requests. Every block of [`BLOCK_LEN`] holds
/// each class's share exactly, in seeded order; each class deals its
/// distinct requests from a shuffled deck, reshuffled when it runs out,
/// so every request of a class is asked equally often.
fn schedule(bank: &[Entry], rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut classes = Vec::with_capacity(n + BLOCK_LEN);
    while classes.len() < n {
        let mut block: Vec<usize> = (0..Class::ALL.len())
            .flat_map(|c| std::iter::repeat_n(c, BLOCK[c]))
            .collect();
        shuffle(rng, &mut block);
        classes.extend(block);
    }
    classes.truncate(n);
    let mut decks: Vec<Vec<usize>> = vec![Vec::new(); Class::ALL.len()];
    classes
        .into_iter()
        .map(|c| {
            if decks[c].is_empty() {
                decks[c] = (0..bank.len())
                    .filter(|&i| bank[i].class == Class::ALL[c])
                    .collect();
                shuffle(rng, &mut decks[c]);
            }
            decks[c].pop().expect("every class has requests")
        })
        .collect()
}

/// Memo-cache `(hits, misses, entries)` of the server.
fn server_memo(server: &Server) -> Result<(u64, u64, u64), String> {
    let reply = server
        .client()
        .get("/v1/metrics")
        .map_err(|e| format!("/v1/metrics: {e}"))?;
    let json = Json::parse(&reply.body).map_err(|e| format!("/v1/metrics: {e}"))?;
    let cache = json.get("cache").ok_or("/v1/metrics has no cache")?;
    let field = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
    Ok((field("hits"), field("misses"), field("entries")))
}

/// What one window measured.
struct Window {
    samples: Vec<Sample>,
    cpu_ns: u64,
    steal: f64,
}

fn window(
    setup: &Setup,
    bank: &[Entry],
    rng: &mut StdRng,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let schedule = schedule(bank, rng, (WINDOW_S * RATE) as usize);
    let pid = setup.server.pid();
    let spinners = crate::common::Spinners::start()?;
    let cpu0 = crate::common::cpu_ns(pid);
    let steal0 = crate::common::steal_ticks();
    let mut samples = drive(&setup.server, bank, &schedule);
    let steal = crate::common::steal_share(steal0);
    let cpu_ns = crate::common::cpu_ns(pid).saturating_sub(cpu0);
    drop(spinners);
    if let Some(tracer) = tracer {
        for s in samples.iter_mut().filter(|s| s.slot % TRACE_EVERY == 0) {
            s.layers = Some(tracer.time(&bank[s.entry]));
        }
    }
    Ok(Window {
        samples,
        cpu_ns,
        steal,
    })
}

/// Check every response of a window; returns how many passed.
fn verify(bank: &[Entry], w: &Window, ledger: &mut Ledger) -> u64 {
    let mut ok = 0;
    for s in &w.samples {
        let e = &bank[s.entry];
        let good = s.status == 200 && numbers_of(e.class, &s.body).as_deref() == Some(&e.expect);
        ledger.attempted += 1;
        if good {
            ok += 1;
        } else {
            ledger.failed += 1;
            ledger.check(false, || {
                format!(
                    "serve-mixed {} answered HTTP {} with a body that differs from the in-process answer: {:.200}",
                    e.class.label(),
                    s.status,
                    s.body
                )
            });
        }
    }
    ok
}

/// How much the generator's median lateness grew from the first quarter
/// of a window's schedule to its last, in µs.
fn late_growth_us(samples: &[Sample]) -> f64 {
    let mut late: Vec<(usize, f64)> = samples
        .iter()
        .map(|s| (s.slot, s.late.as_secs_f64() * 1e6))
        .collect();
    late.sort_by_key(|(slot, _)| *slot);
    let quarter = late.len() / 4;
    let med = |part: &[(usize, f64)]| median(&part.iter().map(|(_, l)| *l).collect::<Vec<_>>());
    med(&late[late.len() - quarter..]) - med(&late[..quarter])
}

/// Latency percentile: value and how many samples lie beyond it.
fn tail(lat: &[f64], q: f64) -> String {
    let v = quantile(lat, q);
    let beyond = lat.iter().filter(|&&x| x > v).count();
    format!("{v:.1} us ({beyond} beyond)")
}

/// What the server spent on the requests of one or more windows.
#[derive(Debug, Default)]
struct Spent {
    /// Windows pooled.
    windows: usize,
    /// Latencies from scheduled send, in µs.
    lat: Vec<f64>,
    cpu_ns: u64,
    completed: u64,
}

impl Spent {
    fn pool(parts: Vec<&Spent>) -> Spent {
        let mut all = Spent::default();
        for p in parts {
            all.windows += p.windows;
            all.lat.extend(&p.lat);
            all.cpu_ns += p.cpu_ns;
            all.completed += p.completed;
        }
        all
    }

    /// Server CPU per completed request, in µs. CPU ticks are too coarse
    /// for one window, hence the pooling.
    fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.completed.max(1) as f64
    }
}

/// A layer-timed request: e2e latency, body sizes and layer times.
struct Timed {
    class: Class,
    e2e: f64,
    req_bytes: usize,
    resp_bytes: usize,
    layers: Layers,
}

/// The scenario's state across its interleaved windows.
pub struct Scenario<'a> {
    setup: &'a Setup,
    bank: Vec<Entry>,
    rng: StdRng,
    tracer: Option<Tracer>,
    windows: usize,
    /// Untraced windows in which the generator fell behind.
    behind: usize,
    late: Vec<f64>,
    /// Untraced latencies by request class, in [`Class::ALL`] order.
    by_class: [Vec<f64>; 4],
    /// Per untraced window: the host's steal share, and the window's
    /// latencies, server CPU and completed requests.
    untraced: Vec<(f64, Spent)>,
    /// Per traced window: the host's steal share and the window's
    /// latencies, server CPU and completed requests.
    traced: Vec<(f64, Spent)>,
    timed: Vec<Timed>,
}

impl<'a> Scenario<'a> {
    /// Build the request bank and warm the server with every distinct
    /// request once (closed loop, not timed).
    pub fn new(
        setup: &'a Setup,
        seed: u64,
        traced: bool,
        ledger: &mut Ledger,
    ) -> Result<Self, String> {
        let bank = bank(setup, seed)?;
        let mut client = setup.server.client();
        for e in &bank {
            let reply = client
                .post(e.class.path(), &e.body)
                .map_err(|err| format!("warm-up: {err}"))?;
            ledger.check(
                reply.status == 200
                    && numbers_of(e.class, &reply.body).as_deref() == Some(&e.expect),
                || {
                    format!(
                        "serve-mixed warm-up: {} differs: {:.200}",
                        e.class.label(),
                        reply.body
                    )
                },
            );
        }
        Ok(Self {
            setup,
            bank,
            rng: rng(seed, "serve-mixed-schedule"),
            tracer: if traced {
                Some(Tracer::new(setup)?)
            } else {
                None
            },
            windows: 0,
            behind: 0,
            late: Vec::new(),
            by_class: Default::default(),
            untraced: Vec::new(),
            traced: Vec::new(),
            timed: Vec::new(),
        })
    }

    /// One open-loop window of [`WINDOW_S`] seconds. In a traced run,
    /// every other window times layers too.
    pub fn rep(&mut self, ledger: &mut Ledger) -> Result<(), String> {
        let tracer = self.tracer.as_ref().filter(|_| self.windows % 2 == 1);
        let first = self.windows == 0;
        let memo0 = if first {
            Some(server_memo(&self.setup.server)?)
        } else {
            None
        };
        let w = window(self.setup, &self.bank, &mut self.rng, tracer)?;
        if let Some(m0) = memo0 {
            let m1 = server_memo(&self.setup.server)?;
            ledger.count("serve.requests", w.samples.len() as u64);
            ledger.count("serve.memo.hits", m1.0 - m0.0);
            ledger.count("serve.memo.misses", m1.1 - m0.1);
            ledger.count("serve.memo.entries", m1.2);
        }
        self.windows += 1;
        let completed = verify(&self.bank, &w, ledger);
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let lat: Vec<f64> = w.samples.iter().map(|s| us(s.latency)).collect();
        let spent = Spent {
            windows: 1,
            lat,
            cpu_ns: w.cpu_ns,
            completed,
        };
        if tracer.is_some() {
            self.traced.push((w.steal, spent));
            for s in &w.samples {
                if let Some(layers) = s.layers {
                    self.timed.push(Timed {
                        class: self.bank[s.entry].class,
                        e2e: us(s.latency),
                        req_bytes: self.bank[s.entry].body.len(),
                        resp_bytes: s.body.len(),
                        layers,
                    });
                }
            }
        } else {
            for (s, l) in w.samples.iter().zip(&spent.lat) {
                self.by_class[self.bank[s.entry].class as usize].push(*l);
            }
            self.untraced.push((w.steal, spent));
            self.late.extend(w.samples.iter().map(|s| us(s.late)));
            let growth = late_growth_us(&w.samples);
            if growth > BACKLOG_US {
                self.behind += 1;
                println!(
                    "serve-mixed: window {} fell behind: generator lateness grew by {growth:.1} us",
                    self.windows
                );
            }
        }
        Ok(())
    }

    /// Report the scenario's metrics.
    pub fn finish(self, ledger: &mut Ledger) {
        let all = Spent::pool(self.untraced.iter().map(|w| &w.1).collect());
        let (lat, late) = (&all.lat, &self.late);
        let win_p50: Vec<f64> = self
            .untraced
            .iter()
            .map(|w| quantile(&w.1.lat, 0.5))
            .collect();
        let steal: Vec<f64> = self.untraced.iter().map(|w| w.0).collect();
        crate::common::print_reps("serve.p50_us (window median, us)", &win_p50);
        // Latency and server CPU over the windows in which the host stole
        // the least. Most of a request's latency is wakeups and handoffs
        // between threads, and a window in which the host ran other guests
        // on this one's vCPUs is slower, by 4-7 us per percent of steal.
        // Steal comes in spells of a few seconds, so over all windows runs
        // differ mostly by how much of them fell in such spells: in three
        // sets of five runs at 0-17% steal the median window median
        // spread 0.17-0.48 (IQR / median), and over the least-stolen third
        // 0.08-0.14.
        let quiet = Spent::pool(least_stolen(&self.untraced, QUIET_SHARE));
        let p50 = quantile(&quiet.lat, 0.5);
        println!(
            "serve-mixed: host steal {:.1}% in the mean window; p50 {:.1} us over all windows, {p50:.1} us over the {} least stolen (at most {:.1}% steal)",
            100.0 * mean(&steal),
            quantile(lat, 0.5),
            quiet.windows,
            100.0 * quantile(&steal, QUIET_SHARE)
        );
        ledger.put("serve.p50_us", p50, "us");
        ledger.put("serve.cpu_us_per_req", quiet.cpu_us_per_req(), "us");
        println!(
            "serve-mixed: {} requests at {RATE} req/s over {CONNECTIONS} connections in {} untraced windows of {WINDOW_S} s; pooled p50 {:.1} us, p90 {}, p99 {}, max {:.1} us",
            lat.len(),
            self.untraced.len(),
            quantile(lat, 0.5),
            tail(lat, 0.90),
            tail(lat, 0.99),
            quantile(lat, 1.0)
        );
        println!(
            "serve-mixed: generator late by p50 {:.1} us, p99 {:.1} us, max {:.1} us; fell behind in {} of {} windows",
            quantile(late, 0.5),
            quantile(late, 0.99),
            quantile(late, 1.0),
            self.behind,
            self.untraced.len()
        );
        // A backlog in most windows means the server did not keep up with
        // the offered rate, and the latencies measure its queue. It is
        // flagged, not failed: at 34% host steal the seed itself fell
        // behind in 9 of 17 windows.
        if 2 * self.behind > self.untraced.len() {
            println!(
                "serve-mixed: warning: the generator fell behind in {} of {} windows at {RATE} req/s; the latencies include a growing queue",
                self.behind,
                self.untraced.len()
            );
        }
        let per_class: Vec<String> = Class::ALL
            .iter()
            .zip(&self.by_class)
            .map(|(c, l)| {
                format!(
                    "{} {:.1}/{:.1} us ({})",
                    c.label(),
                    quantile(l, 0.5),
                    quantile(l, 0.9),
                    l.len()
                )
            })
            .collect();
        println!("serve-mixed: p50/p90 by class: {}", per_class.join(", "));
        if self.tracer.is_none() {
            return;
        }
        ledger.put(
            "serve.trace_overhead_frac",
            quantile(
                &Spent::pool(least_stolen(&self.traced, QUIET_SHARE)).lat,
                0.5,
            ) / p50
                - 1.0,
            "frac",
        );
        let avg = |f: &dyn Fn(&Timed) -> Option<f64>| {
            mean(&self.timed.iter().filter_map(f).collect::<Vec<_>>())
        };
        let e2e = avg(&|t| Some(t.e2e));
        let route = avg(&|t| Some(t.layers.route));
        ledger.put("serve.transport_us", e2e - route, "us");
        ledger.put("serve.req_bytes", avg(&|t| Some(t.req_bytes as f64)), "B");
        ledger.put("serve.resp_bytes", avg(&|t| Some(t.resp_bytes as f64)), "B");
        for class in Class::ALL {
            ledger.put(
                &format!("serve.route_us.{}", class.label()),
                avg(&|t| (t.class == class).then_some(t.layers.route)),
                "us",
            );
        }
        ledger.put("jsonval.decode_us", avg(&|t| Some(t.layers.decode)), "us");
        ledger.put(
            "aspen.parse_us",
            avg(&|t| (t.class == Class::Inline).then_some(t.layers.parse)),
            "us",
        );
        ledger.put(
            "serve.eval_us",
            avg(&|t| matches!(t.class, Class::Session | Class::Inline).then_some(t.layers.eval)),
            "us",
        );
        ledger.put(
            "learn.predict_us",
            avg(&|t| (t.class == Class::Predict).then_some(t.layers.predict)),
            "us",
        );
        // Layer self times: transport is e2e minus route by definition;
        // under route, decode, parse, evaluation and prediction are timed.
        // What route spends outside them is unattributed.
        let l =
            |t: &Timed| Some(t.layers.decode + t.layers.parse + t.layers.eval + t.layers.predict);
        ledger.put("serve.unattributed_frac", (route - avg(&l)) / e2e, "frac");
    }
}

/// Peak resident set of the server, in MiB.
pub fn server_rss_mb(setup: &Setup) -> f64 {
    setup.server.peak_rss_mb()
}
