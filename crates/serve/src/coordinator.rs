//! The distributed sweep coordinator: fan a planned parameter grid
//! ([`dvf_core::gridplan::ChunkPlan`]) out over `dvf-serve` shards via
//! `POST /v1/sweepchunk` and merge the rows back in grid order.
//!
//! ## Execution model
//!
//! Each shard gets `in_flight` worker threads, each owning one
//! keep-alive [`crate::client::ShardClient`] connection — so at most
//! `in_flight` chunks are outstanding per shard and a slow shard
//! backlogs only its own queue. Workers drain their shard's home queue
//! first, then the shared orphan queue (chunks whose home shard died).
//! A worker with neither blocks on one condition variable until it has
//! work or nothing is left for it to do: the run completed, the run
//! went fatal, or its shard died. Each of those events notifies, so the
//! run returns as soon as its last chunk lands.
//!
//! ## Fault tolerance
//!
//! * `503 + Retry-After` is backpressure, not failure: the worker sleeps
//!   the advertised hint (capped) and re-sends to the *same* shard.
//! * An I/O error (or non-503 5xx) is retried with exponential backoff;
//!   after `max_attempts` the shard is declared dead, its queued chunks
//!   move to the orphan queue, and surviving shards absorb them. Chunk
//!   evaluation is pure, so re-sending a chunk that may already have
//!   executed is safe — the rerun answers from the shard's memo cache.
//! * A 4xx reply is deterministic (bad grid, unknown parameter): every
//!   shard would answer the same, so the run aborts with the message
//!   instead of burning retries.
//!
//! ## Determinism
//!
//! Rows are stored by grid-point index as chunks complete, so the merged
//! [`DistReport::rows`] is in grid order no matter how chunks interleave
//! across shards, retries, or failovers. Rows cross the wire through the
//! one [`RowOutcome`] codec, which round-trips values bit-exactly, and
//! evaluation errors carry the same `WorkflowError` display strings a
//! local sweep produces — which together make `dvf sweep --shards`
//! byte-identical to local `dvf sweep`.

use crate::client::ShardClient;
use crate::jsonval::Json;
use dvf_core::gridplan::{Chunk, ChunkPlan, GridSpec};
use dvf_obs::JsonWriter;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One merged grid row; the type and its JSON codec live in
/// [`dvf_core::sweep`], re-exported here beside the reports that carry
/// it.
pub use dvf_core::sweep::RowOutcome;

/// What to sweep: the workflow source and the fixed (non-swept)
/// parameter overrides. The source is sent inline with every chunk, so
/// shards stay stateless and any chunk can run on any shard.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Aspen program source.
    pub source: String,
    /// Optional machine selection (documents with several machines).
    pub machine: Option<String>,
    /// Optional model selection.
    pub model: Option<String>,
    /// Fixed parameter overrides applied at every grid point.
    pub overrides: Vec<(String, f64)>,
}

/// Coordinator tunables.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Outstanding chunks (worker threads, keep-alive connections) per
    /// shard.
    pub in_flight: usize,
    /// I/O-failure attempts per chunk on one shard before the shard is
    /// declared dead and its chunks fail over.
    pub max_attempts: u32,
    /// Base exponential-backoff delay between attempts.
    pub backoff: Duration,
    /// Longest a worker honors a `Retry-After` hint (or waits between
    /// 503s) before trying again.
    pub retry_after_cap: Duration,
    /// 503 shed responses tolerated per chunk before the shard is
    /// treated as failed (a shard that sheds forever is not making
    /// progress).
    pub max_shed_retries: u32,
    /// Socket read timeout (bounds one chunk's evaluation time).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            in_flight: 2,
            max_attempts: 3,
            backoff: Duration::from_millis(50),
            retry_after_cap: Duration::from_secs(2),
            max_shed_retries: 120,
            read_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// Per-shard accounting after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard address.
    pub addr: String,
    /// Chunks this shard completed (home chunks + absorbed orphans).
    pub chunks: u64,
    /// Grid points this shard evaluated.
    pub points: u64,
    /// Memo-cache hits attributed to the run: the shard's `/v1/metrics`
    /// cache delta when both samples succeeded, else the sum of its
    /// chunk-reported deltas.
    pub cache_hits: u64,
    /// Memo-cache misses, same attribution.
    pub cache_misses: u64,
    /// Retries this shard cost (503 sheds + I/O re-attempts).
    pub retries: u64,
    /// Whether the shard was declared dead during the run.
    pub dead: bool,
}

/// A completed distributed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DistReport {
    /// One outcome per grid point, in grid order.
    pub rows: Vec<RowOutcome>,
    /// Per-shard accounting, in shard-list order.
    pub shards: Vec<ShardReport>,
    /// Chunks that completed on a shard other than their planned home.
    pub failed_over_chunks: u64,
}

impl DistReport {
    /// Total memo-cache hits across shards.
    pub fn cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_hits).sum()
    }

    /// Total memo-cache misses across shards.
    pub fn cache_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_misses).sum()
    }
}

/// Why a distributed sweep could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordError {
    /// The shard list and the plan disagree on shard count.
    PlanMismatch {
        /// Shards the plan was made for.
        planned: usize,
        /// Shards given to `run`.
        given: usize,
    },
    /// A shard answered a deterministic 4xx error; retrying elsewhere
    /// would fail identically.
    Protocol(String),
    /// Every shard died before the grid finished.
    Incomplete {
        /// Chunks that did complete.
        completed: usize,
        /// Chunks planned.
        total: usize,
    },
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::PlanMismatch { planned, given } => write!(
                f,
                "chunk plan was made for {planned} shard(s) but {given} were given"
            ),
            CoordError::Protocol(msg) => write!(f, "shard protocol error: {msg}"),
            CoordError::Incomplete { completed, total } => write!(
                f,
                "all shards failed with {completed}/{total} chunks complete"
            ),
        }
    }
}

impl std::error::Error for CoordError {}

/// Progress snapshot handed to the `run` callback after every completed
/// chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Chunks completed so far.
    pub chunks_done: usize,
    /// Chunks planned.
    pub chunks_total: usize,
    /// Grid points completed so far.
    pub points_done: usize,
    /// Grid points planned.
    pub points_total: usize,
    /// Memo-cache hits reported by completed chunks so far.
    pub cache_hits: u64,
    /// Memo-cache misses reported by completed chunks so far.
    pub cache_misses: u64,
}

/// Work already finished by an earlier invocation (the `--manifest`
/// resume path): prefilled rows by grid index plus a per-chunk done map.
/// Completed chunks are never re-queued, re-sent, or re-planned — their
/// rows merge straight into the report.
#[derive(Debug, Clone)]
pub struct ResumeState {
    /// One slot per grid point; `Some` where a completed chunk covered it.
    pub rows: Vec<Option<RowOutcome>>,
    /// One flag per plan chunk, `true` if its rows are already present.
    pub done: Vec<bool>,
}

impl ResumeState {
    /// Empty state for a plan: nothing done yet.
    pub fn empty(plan: &ChunkPlan) -> Self {
        Self {
            rows: vec![None; plan.total_points],
            done: vec![false; plan.chunks.len()],
        }
    }

    /// Completed chunk count.
    pub fn chunks_done(&self) -> usize {
        self.done.iter().filter(|&&d| d).count()
    }
}

/// Journal hook invoked with each chunk's rows as it completes (the
/// `--manifest` progress file appends one line per call).
pub type ChunkHook<'a> = &'a (dyn Fn(&Chunk, &[RowOutcome]) + Sync);

/// Chunk ids waiting for a worker: one home queue per shard plus the
/// orphans of dead shards.
struct Queues {
    home: Vec<VecDeque<usize>>,
    orphans: VecDeque<usize>,
}

/// Shared run state every worker sees.
struct Shared {
    queues: Mutex<Queues>,
    /// Notified whenever an idle worker's wait could end: orphans were
    /// pushed (a shard died), the last chunk completed, or the run went
    /// fatal.
    changed: Condvar,
    dead: Vec<AtomicBool>,
    total_chunks: usize,
    chunks_done: AtomicUsize,
    points_done: AtomicUsize,
    chunk_hits: AtomicU64,
    chunk_misses: AtomicU64,
    failovers: AtomicU64,
    rows: Mutex<Vec<Option<RowOutcome>>>,
    fatal_flag: AtomicBool,
    fatal: Mutex<Option<String>>,
}

impl Shared {
    fn set_fatal(&self, msg: String) {
        let mut slot = self.fatal.lock().expect("fatal lock");
        slot.get_or_insert(msg);
        drop(slot);
        self.fatal_flag.store(true, Ordering::Release);
        self.wake_all();
    }

    fn fatal_set(&self) -> bool {
        self.fatal_flag.load(Ordering::Acquire)
    }

    /// Wake every idle worker to re-check its wait. The queue lock is
    /// taken first, so a worker between checking its conditions and
    /// blocking cannot miss the state change that preceded this call.
    fn wake_all(&self) {
        let _queues = self.queues.lock().expect("queue lock");
        self.changed.notify_all();
    }

    /// The next chunk for a worker of shard `s`: its home queue first,
    /// then the orphans. Blocks while both are empty and chunks are still
    /// in flight elsewhere; `None` once the run is complete or fatal, or
    /// shard `s` is dead (orphaned work belongs to the survivors).
    fn next_chunk(&self, s: usize) -> Option<usize> {
        let mut queues = self.queues.lock().expect("queue lock");
        loop {
            if self.fatal_set()
                || self.chunks_done.load(Ordering::Acquire) == self.total_chunks
                || self.dead[s].load(Ordering::Acquire)
            {
                return None;
            }
            let Queues { home, orphans } = &mut *queues;
            if let Some(cid) = home[s].pop_front().or_else(|| orphans.pop_front()) {
                return Some(cid);
            }
            queues = self.changed.wait(queues).expect("queue lock");
        }
    }
}

/// What one worker thread tallied (merged per shard after the join).
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    chunks: u64,
    points: u64,
    hits: u64,
    misses: u64,
    retries: u64,
}

/// Run a planned distributed sweep to completion (or until every shard
/// is dead / a protocol error aborts it). `progress` fires after every
/// completed chunk, from worker threads.
pub fn run(
    job: &SweepJob,
    grid: &GridSpec,
    plan: &ChunkPlan,
    shards: &[SocketAddr],
    cfg: &CoordinatorConfig,
    progress: impl Fn(&Progress) + Sync,
) -> Result<DistReport, CoordError> {
    run_with(job, grid, plan, shards, cfg, progress, None, None)
}

/// [`run`] with resume support: chunks marked done in `resume` are never
/// re-sent (their prefilled rows merge into the report), and `on_chunk`
/// fires from worker threads with each freshly completed chunk's rows so
/// the caller can journal them for a later resume. When every chunk is
/// already done the shards are not contacted at all — a fully journaled
/// sweep replays with the shard fleet offline.
#[allow(clippy::too_many_arguments)]
pub fn run_with(
    job: &SweepJob,
    grid: &GridSpec,
    plan: &ChunkPlan,
    shards: &[SocketAddr],
    cfg: &CoordinatorConfig,
    progress: impl Fn(&Progress) + Sync,
    resume: Option<ResumeState>,
    on_chunk: Option<ChunkHook<'_>>,
) -> Result<DistReport, CoordError> {
    if shards.len() != plan.shards {
        return Err(CoordError::PlanMismatch {
            planned: plan.shards,
            given: shards.len(),
        });
    }
    let resume = resume.unwrap_or_else(|| ResumeState::empty(plan));
    if resume.done.len() != plan.chunks.len() || resume.rows.len() != plan.total_points {
        return Err(CoordError::Protocol(format!(
            "resume state shape ({} chunks, {} rows) does not match the plan ({}, {})",
            resume.done.len(),
            resume.rows.len(),
            plan.chunks.len(),
            plan.total_points
        )));
    }
    let total_chunks = plan.chunks.len();
    let done_chunks = resume.chunks_done();
    let done_points: usize = plan
        .chunks
        .iter()
        .filter(|c| resume.done[c.id])
        .map(|c| c.indices.len())
        .sum();
    if done_chunks == total_chunks {
        // Nothing left to execute: merge the journaled rows without
        // touching (or needing) any shard.
        let rows = resume
            .rows
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                CoordError::Protocol(
                    "resume state marks all chunks done but has missing rows".into(),
                )
            })?;
        return Ok(DistReport {
            rows,
            shards: shards
                .iter()
                .map(|&addr| ShardReport {
                    addr: addr.to_string(),
                    chunks: 0,
                    points: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                    retries: 0,
                    dead: false,
                })
                .collect(),
            failed_over_chunks: 0,
        });
    }
    let shared = Shared {
        queues: Mutex::new(Queues {
            home: (0..shards.len())
                .map(|s| {
                    plan.chunks_of_shard(s)
                        .filter(|c| !resume.done[c.id])
                        .map(|c| c.id)
                        .collect()
                })
                .collect(),
            orphans: VecDeque::new(),
        }),
        changed: Condvar::new(),
        dead: (0..shards.len()).map(|_| AtomicBool::new(false)).collect(),
        total_chunks,
        chunks_done: AtomicUsize::new(done_chunks),
        points_done: AtomicUsize::new(done_points),
        chunk_hits: AtomicU64::new(0),
        chunk_misses: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        rows: Mutex::new(resume.rows),
        fatal_flag: AtomicBool::new(false),
        fatal: Mutex::new(None),
    };

    // Exact per-shard cache attribution: sample each shard's lifetime
    // memo tallies around the run (best-effort — a dead shard simply
    // keeps its chunk-summed fallback).
    let before: Vec<Option<(u64, u64)>> =
        shards.iter().map(|&addr| sample_cache(addr, cfg)).collect();

    let in_flight = cfg.in_flight.max(1);
    let outcomes: Vec<(usize, WorkerStats)> = std::thread::scope(|scope| {
        let shared = &shared;
        let progress = &progress;
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .flat_map(|(s, &addr)| {
                (0..in_flight).map(move |_| {
                    scope.spawn(move || {
                        (
                            s,
                            worker(s, addr, job, grid, plan, cfg, shared, progress, on_chunk),
                        )
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("coordinator worker thread"))
            .collect()
    });

    if let Some(msg) = shared.fatal.lock().expect("fatal lock").take() {
        return Err(CoordError::Protocol(msg));
    }
    let completed = shared.chunks_done.load(Ordering::Relaxed);
    if completed != total_chunks {
        return Err(CoordError::Incomplete {
            completed,
            total: total_chunks,
        });
    }

    let mut per_shard = vec![WorkerStats::default(); shards.len()];
    for (s, stats) in outcomes {
        per_shard[s].chunks += stats.chunks;
        per_shard[s].points += stats.points;
        per_shard[s].hits += stats.hits;
        per_shard[s].misses += stats.misses;
        per_shard[s].retries += stats.retries;
    }
    let shard_reports = shards
        .iter()
        .enumerate()
        .map(|(s, &addr)| {
            let dead = shared.dead[s].load(Ordering::Relaxed);
            let exact = match (before[s], if dead { None } else { sample_cache(addr, cfg) }) {
                (Some((h0, m0)), Some((h1, m1))) => {
                    Some((h1.saturating_sub(h0), m1.saturating_sub(m0)))
                }
                _ => None,
            };
            let (cache_hits, cache_misses) =
                exact.unwrap_or((per_shard[s].hits, per_shard[s].misses));
            ShardReport {
                addr: addr.to_string(),
                chunks: per_shard[s].chunks,
                points: per_shard[s].points,
                cache_hits,
                cache_misses,
                retries: per_shard[s].retries,
                dead,
            }
        })
        .collect();

    let rows = shared
        .rows
        .into_inner()
        .expect("rows lock")
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .expect("all chunks complete implies all rows present");
    Ok(DistReport {
        rows,
        shards: shard_reports,
        failed_over_chunks: shared.failovers.load(Ordering::Relaxed),
    })
}

/// Sample one shard's lifetime memo tallies from `/v1/metrics`.
fn sample_cache(addr: SocketAddr, cfg: &CoordinatorConfig) -> Option<(u64, u64)> {
    let mut client = ShardClient::new(addr, cfg.read_timeout, cfg.write_timeout);
    let reply = client.get("/v1/metrics").ok()?;
    if reply.status != 200 {
        return None;
    }
    let json = Json::parse(&reply.body).ok()?;
    let cache = json.get("cache")?;
    Some((cache.get("hits")?.as_u64()?, cache.get("misses")?.as_u64()?))
}

/// One worker thread: drain the home queue (then orphans) against one
/// shard over one keep-alive connection.
#[allow(clippy::too_many_arguments)]
fn worker(
    s: usize,
    addr: SocketAddr,
    job: &SweepJob,
    grid: &GridSpec,
    plan: &ChunkPlan,
    cfg: &CoordinatorConfig,
    shared: &Shared,
    progress: &(impl Fn(&Progress) + Sync),
    on_chunk: Option<ChunkHook<'_>>,
) -> WorkerStats {
    let mut client = ShardClient::new(addr, cfg.read_timeout, cfg.write_timeout);
    let mut stats = WorkerStats::default();
    while let Some(cid) = shared.next_chunk(s) {
        if !execute_chunk(
            cid,
            &mut client,
            s,
            addr,
            job,
            grid,
            plan,
            cfg,
            shared,
            &mut stats,
            on_chunk,
        ) {
            break;
        }
        progress(&Progress {
            chunks_done: shared.chunks_done.load(Ordering::Relaxed),
            chunks_total: shared.total_chunks,
            points_done: shared.points_done.load(Ordering::Relaxed),
            points_total: plan.total_points,
            cache_hits: shared.chunk_hits.load(Ordering::Relaxed),
            cache_misses: shared.chunk_misses.load(Ordering::Relaxed),
        });
    }
    stats
}

/// Send one chunk until it completes, the shard dies, or the run goes
/// fatal. Returns `false` when this worker should stop (its shard died
/// or a fatal error was raised).
#[allow(clippy::too_many_arguments)]
fn execute_chunk(
    cid: usize,
    client: &mut ShardClient,
    s: usize,
    addr: SocketAddr,
    job: &SweepJob,
    grid: &GridSpec,
    plan: &ChunkPlan,
    cfg: &CoordinatorConfig,
    shared: &Shared,
    stats: &mut WorkerStats,
    on_chunk: Option<ChunkHook<'_>>,
) -> bool {
    let chunk = &plan.chunks[cid];
    let body = chunk_body(job, grid, chunk);
    let mut io_attempts = 0u32;
    let mut shed_retries = 0u32;
    loop {
        if shared.fatal_set() {
            return false;
        }
        match client.post("/v1/sweepchunk", &body) {
            Ok(reply) if reply.status == 200 => {
                match parse_chunk_reply(&reply.body, chunk.indices.len()) {
                    Ok((rows, hits, misses)) => {
                        if let Some(journal) = on_chunk {
                            journal(chunk, &rows);
                        }
                        {
                            let mut slots = shared.rows.lock().expect("rows lock");
                            for (i, row) in chunk.indices.iter().zip(rows) {
                                slots[*i] = Some(row);
                            }
                        }
                        if chunk.shard != s {
                            shared.failovers.fetch_add(1, Ordering::Relaxed);
                        }
                        stats.chunks += 1;
                        stats.points += chunk.indices.len() as u64;
                        stats.hits += hits;
                        stats.misses += misses;
                        shared.chunk_hits.fetch_add(hits, Ordering::Relaxed);
                        shared.chunk_misses.fetch_add(misses, Ordering::Relaxed);
                        shared
                            .points_done
                            .fetch_add(chunk.indices.len(), Ordering::Relaxed);
                        if shared.chunks_done.fetch_add(1, Ordering::AcqRel) + 1
                            == shared.total_chunks
                        {
                            shared.wake_all();
                        }
                        return true;
                    }
                    Err(msg) => {
                        shared.set_fatal(format!("shard {addr}: {msg}"));
                        return false;
                    }
                }
            }
            Ok(reply) if reply.status == 503 => {
                shed_retries += 1;
                stats.retries += 1;
                if shed_retries > cfg.max_shed_retries {
                    fail_shard(cid, s, shared);
                    return false;
                }
                let hint = Duration::from_secs(reply.retry_after.unwrap_or(1));
                std::thread::sleep(hint.min(cfg.retry_after_cap));
            }
            Ok(reply) if reply.status < 500 => {
                // Deterministic rejection: every shard would say the same.
                shared.set_fatal(format!(
                    "shard {addr} rejected chunk {cid} with {}: {}",
                    reply.status,
                    reply.body.chars().take(400).collect::<String>()
                ));
                return false;
            }
            Ok(_) | Err(_) => {
                io_attempts += 1;
                stats.retries += 1;
                if io_attempts >= cfg.max_attempts {
                    fail_shard(cid, s, shared);
                    return false;
                }
                std::thread::sleep(cfg.backoff * 2u32.saturating_pow(io_attempts - 1));
            }
        }
    }
}

/// Declare shard `s` dead: the chunk in hand and everything still queued
/// for it move to the orphan queue for survivors to absorb, and every
/// idle worker wakes (survivors to take the orphans, this shard's other
/// workers to exit).
fn fail_shard(cid: usize, s: usize, shared: &Shared) {
    let mut queues = shared.queues.lock().expect("queue lock");
    shared.dead[s].store(true, Ordering::Release);
    let Queues { home, orphans } = &mut *queues;
    orphans.push_back(cid);
    orphans.extend(home[s].drain(..));
    shared.changed.notify_all();
}

/// Serialize one chunk's `/v1/sweepchunk` request body.
fn chunk_body(job: &SweepJob, grid: &GridSpec, chunk: &Chunk) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("source").string(&job.source);
    if let Some(machine) = &job.machine {
        w.key("machine").string(machine);
    }
    if let Some(model) = &job.model {
        w.key("model").string(model);
    }
    if !job.overrides.is_empty() {
        w.key("params").begin_object();
        for (k, v) in &job.overrides {
            w.key(k).f64(*v);
        }
        w.end_object();
    }
    w.key("dims").begin_array();
    for name in grid.names() {
        w.string(name);
    }
    w.end_array();
    w.key("chunk").u64(chunk.id as u64);
    w.key("points").begin_array();
    for &idx in &chunk.indices {
        w.begin_array();
        for v in grid.point(idx) {
            w.f64(v);
        }
        w.end_array();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Decode a 200 chunk reply into row outcomes + its cache delta.
fn parse_chunk_reply(
    body: &str,
    expect_points: usize,
) -> Result<(Vec<RowOutcome>, u64, u64), String> {
    let json = Json::parse(body).map_err(|e| format!("unparseable chunk reply: {e}"))?;
    let rows = json
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "chunk reply has no `rows` array".to_owned())?;
    if rows.len() != expect_points {
        return Err(format!(
            "chunk reply has {} rows for {expect_points} points",
            rows.len()
        ));
    }
    let out = rows
        .iter()
        .enumerate()
        .map(|(i, row)| RowOutcome::from_json(row).map_err(|e| format!("row {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let cache_of = |key: &str| {
        json.get("cache")
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Ok((
        out,
        cache_of("sweep.cache.hit"),
        cache_of("sweep.cache.miss"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_reply_parsing_accepts_rows_and_rejects_shape_drift() {
        let good = r#"{"schema":"dvf-serve/1","ok":true,"chunk":3,"points":2,
            "rows":[{"time_s":1.5e-7,"dvf_app":42.25},{"error":"model error for data structure `A`: boom"}],
            "failed":1,"cache":{"sweep.cache.hit":5,"sweep.cache.miss":2,"entries":7}}"#;
        let (rows, hits, misses) = parse_chunk_reply(good, 2).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            RowOutcome::Ok {
                time_s: 1.5e-7,
                dvf_app: 42.25
            }
        );
        assert!(matches!(&rows[1], RowOutcome::Err(e) if e.contains("boom")));
        assert_eq!((hits, misses), (5, 2));
        // Row-count mismatch is a protocol error, not a silent truncation.
        assert!(parse_chunk_reply(good, 3).is_err());
        assert!(parse_chunk_reply("{}", 0).is_err());
    }

    #[test]
    fn chunk_body_is_deterministic_and_carries_exact_floats() {
        let grid =
            GridSpec::new(vec![("n".to_owned(), vec![0.1, 0.2, 0.30000000000000004])]).unwrap();
        let job = SweepJob {
            source: "model m {}".to_owned(),
            machine: None,
            model: None,
            overrides: vec![("fit".to_owned(), 5000.0)],
        };
        let chunk = Chunk {
            id: 0,
            shard: 0,
            indices: vec![0, 2],
        };
        let a = chunk_body(&job, &grid, &chunk);
        let b = chunk_body(&job, &grid, &chunk);
        assert_eq!(a, b);
        // Shortest-round-trip serialization: the awkward double prints
        // its full 17 significant digits, nothing else gains noise.
        assert!(a.contains("0.30000000000000004"), "{a}");
        assert!(a.contains("\"dims\":[\"n\"]"), "{a}");
        assert!(a.contains("\"params\":{\"fit\":5000.0}"), "{a}");
    }
}
