//! Coordinator mechanics over real sockets: deterministic merges,
//! failover when a shard dies mid-sweep, and retry routing around a
//! shard that was never up.
//!
//! These servers share one process (and therefore one process-wide memo
//! cache), so per-shard cache isolation is *not* asserted here — the
//! subprocess smoke tests in the workspace root cover that. What this
//! file pins is the coordinator contract: merged rows are bit-identical
//! to a local evaluation of the same grid, in grid order, no matter
//! which shards survive.

mod common;

use dvf_core::gridplan::{Assignment, ChunkPlan, GridSpec};
use dvf_core::workflow::DvfWorkflow;
use dvf_serve::coordinator::{
    self, CoordError, CoordinatorConfig, DistReport, Progress, RowOutcome, SweepJob,
};
use dvf_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// FIT is a machine parameter here, so grid points that differ only in
/// `fit` share a memo fingerprint — the shape memo-affine routing is
/// built for.
const DIST_MODEL: &str = r#"
    machine m {
      param fit = 5000
      cache { associativity = 4  sets = 64  line = 32 }
      memory { fit = fit }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model app {
      param n = 200
      data A { size = n * 8  element = 8 }
      data B { size = n * 8  element = 8 }
      kernel k {
        flops = 2 * n
        access A as streaming(stride = 4)
        access B as streaming()
      }
    }
"#;

/// `fit` slow, `n` fast: round-robin chunks cut along runs of `n`, so a
/// point's fit-variants land apart, while memo-affine reunites them.
fn grid() -> GridSpec {
    GridSpec::new(vec![
        ("fit".to_owned(), vec![1000.0, 5000.0]),
        (
            "n".to_owned(),
            // One poisoned point: n = -100 fails to resolve, pinning
            // that evaluation errors cross the wire with the same
            // display text a local sweep prints.
            vec![-100.0, 100.0, 200.0, 300.0, 400.0, 500.0],
        ),
    ])
    .expect("grid")
}

fn job() -> SweepJob {
    SweepJob {
        source: DIST_MODEL.to_owned(),
        machine: None,
        model: None,
        overrides: Vec::new(),
    }
}

fn fast_cfg() -> CoordinatorConfig {
    CoordinatorConfig {
        in_flight: 2,
        max_attempts: 2,
        backoff: Duration::from_millis(5),
        ..CoordinatorConfig::default()
    }
}

/// Evaluate the grid in-process — the reference the distributed merge
/// must reproduce bit-for-bit.
fn local_rows(grid: &GridSpec) -> Vec<RowOutcome> {
    let wf = DvfWorkflow::parse(DIST_MODEL).expect("model parses");
    (0..grid.len())
        .map(|idx| wf.evaluate_row(&[], &grid.names(), &grid.point(idx)))
        .collect()
}

fn plan_for(grid: &GridSpec, shards: usize, chunk_points: usize) -> ChunkPlan {
    let wf = DvfWorkflow::parse(DIST_MODEL).expect("model parses");
    ChunkPlan::plan(grid, shards, chunk_points, Assignment::MemoAffine, |idx| {
        let point = dvf_core::sweep::point(&[], &grid.names(), &grid.point(idx));
        wf.point_fingerprint(&point).unwrap_or(0)
    })
}

/// A loopback address nothing listens on (bind, learn the port, drop).
fn refused_addr() -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = listener.local_addr().expect("probe addr");
    drop(listener);
    addr
}

#[test]
fn two_shard_merge_is_bit_identical_to_local_rows() {
    let a = Server::bind(ServerConfig::default()).expect("bind a");
    let b = Server::bind(ServerConfig::default()).expect("bind b");
    let grid = grid();
    let plan = plan_for(&grid, 2, 3);
    let shards = [a.addr(), b.addr()];

    let report =
        coordinator::run(&job(), &grid, &plan, &shards, &fast_cfg(), |_| {}).expect("sweep runs");
    assert_eq!(report.rows, local_rows(&grid));
    assert!(report.rows.iter().any(|r| matches!(r, RowOutcome::Err(e)
        if e.contains("nonnegative integer"))));
    assert_eq!(report.failed_over_chunks, 0);
    assert!(report.shards.iter().all(|s| !s.dead));
    assert_eq!(
        report.shards.iter().map(|s| s.chunks).sum::<u64>() as usize,
        plan.chunks.len()
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn killing_a_shard_mid_sweep_fails_over_and_still_matches_local() {
    let a = Server::bind(ServerConfig::default()).expect("bind a");
    let b = Server::bind(ServerConfig::default()).expect("bind b");
    let grid = grid();
    // One point per chunk: plenty of chunks left to orphan when B dies.
    let plan = plan_for(&grid, 2, 1);
    let shards = [a.addr(), b.addr()];

    // Shut B down from inside the progress callback, i.e. mid-sweep
    // from a coordinator worker thread, exactly once.
    let victim: Mutex<Option<Server>> = Mutex::new(Some(b));
    let report = coordinator::run(&job(), &grid, &plan, &shards, &fast_cfg(), |_| {
        if let Some(server) = victim.lock().expect("victim lock").take() {
            server.shutdown();
        }
    })
    .expect("sweep survives one shard death");

    assert_eq!(report.rows, local_rows(&grid));
    // A must have carried everything that completed after the kill; B
    // may have finished a few chunks first, but never all of them.
    assert!(report.shards[0].chunks > 0);
    assert!((report.shards[1].chunks as usize) < plan.chunks.len());
    a.shutdown();
}

#[test]
fn shard_down_from_the_start_is_absorbed_by_survivors() {
    let a = Server::bind(ServerConfig::default()).expect("bind a");
    let dead = refused_addr();
    let grid = grid();
    let plan = plan_for(&grid, 2, 3);
    let shards = [a.addr(), dead];

    let report =
        coordinator::run(&job(), &grid, &plan, &shards, &fast_cfg(), |_| {}).expect("sweep runs");
    assert_eq!(report.rows, local_rows(&grid));
    assert!(report.shards[1].dead);
    assert_eq!(report.shards[1].chunks, 0);
    assert_eq!(report.shards[0].chunks as usize, plan.chunks.len());
    // Every chunk planned for the dead shard completed elsewhere.
    let planned_for_dead = plan.chunks_of_shard(1).count() as u64;
    assert!(planned_for_dead > 0, "grid must give the dead shard work");
    assert_eq!(report.failed_over_chunks, planned_for_dead);
    a.shutdown();
}

#[test]
fn all_shards_dead_reports_incomplete() {
    let grid = grid();
    let plan = plan_for(&grid, 1, 3);
    let shards = [refused_addr()];
    let err = coordinator::run(&job(), &grid, &plan, &shards, &fast_cfg(), |_| {})
        .expect_err("no shard can answer");
    assert!(matches!(err, CoordError::Incomplete { completed: 0, .. }));
}

#[test]
fn plan_and_shard_list_must_agree() {
    let grid = grid();
    let plan = plan_for(&grid, 2, 3);
    let shards = [refused_addr()];
    let err = coordinator::run(&job(), &grid, &plan, &shards, &fast_cfg(), |_| {})
        .expect_err("mismatched shard count");
    assert_eq!(
        err,
        CoordError::PlanMismatch {
            planned: 2,
            given: 1
        }
    );
}

#[test]
fn sweepchunk_endpoint_validates_shape_and_caps_points() {
    use common::{json_str, request};
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let src = json_str(DIST_MODEL);

    // A well-formed chunk echoes its id and returns one row per point.
    let body = format!(r#"{{"source":{src},"dims":["n"],"chunk":7,"points":[[100],[200]]}}"#);
    let reply = request(addr, "POST", "/v1/sweepchunk", Some(&body));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let doc = reply.json();
    assert_eq!(doc.get("chunk").unwrap().as_u64(), Some(7));
    assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 2);
    assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
    assert!(doc.get("cache").unwrap().get("sweep.cache.miss").is_some());

    // A point whose arity disagrees with `dims` is rejected outright —
    // silently zipping would merge rows against the wrong coordinates.
    let body = format!(r#"{{"source":{src},"dims":["n"],"points":[[100,1]]}}"#);
    let reply = request(addr, "POST", "/v1/sweepchunk", Some(&body));
    assert_eq!(reply.status, 422);
    assert_eq!(
        reply
            .json()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("bad_points")
    );

    // Oversized chunks name the cap, mirroring /v1/batch.
    let points: Vec<String> = (0..=dvf_serve::api::MAX_SWEEP_POINTS)
        .map(|i| format!("[{i}]"))
        .collect();
    let body = format!(
        r#"{{"source":{src},"dims":["n"],"points":[{}]}}"#,
        points.join(",")
    );
    let reply = request(addr, "POST", "/v1/sweepchunk", Some(&body));
    assert_eq!(reply.status, 422);
    let doc = reply.json();
    let error = doc.get("error").unwrap();
    assert_eq!(error.get("code").unwrap().as_str(), Some("too_many_points"));
    assert_eq!(
        error.get("max_points").unwrap().as_u64(),
        Some(dvf_serve::api::MAX_SWEEP_POINTS as u64)
    );
    server.shutdown();
}

#[test]
fn unknown_parameter_is_a_fatal_protocol_error_not_a_retry() {
    let a = Server::bind(ServerConfig::default()).expect("bind a");
    let grid = GridSpec::new(vec![("bogus".to_owned(), vec![1.0, 2.0])]).expect("grid");
    let plan = ChunkPlan::plan(&grid, 1, 2, Assignment::MemoAffine, |_| 0);
    let shards = [a.addr()];
    let err = coordinator::run(&job(), &grid, &plan, &shards, &fast_cfg(), |_| {})
        .expect_err("unknown parameter must abort");
    match err {
        CoordError::Protocol(msg) => assert!(msg.contains("422"), "{msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    a.shutdown();
}

/// Run a sweep on its own thread and wait for it with a watchdog. The
/// coordinator has no timed wait of its own, so a worker that misses a
/// wake-up hangs the run; the watchdog turns that hang into a failure.
fn run_watched(
    grid: GridSpec,
    plan: ChunkPlan,
    shards: Vec<SocketAddr>,
    cfg: CoordinatorConfig,
    progress: impl Fn(&Progress) + Send + Sync + 'static,
) -> Result<DistReport, CoordError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(coordinator::run(
            &job(),
            &grid,
            &plan,
            &shards,
            &cfg,
            progress,
        ));
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("coordinator::run did not return: an idle worker missed its wake-up")
}

/// How long a scripted shard holds each `/v1/sweepchunk` reply: ample
/// time for the run's other workers to find both queues empty and block.
const HOLD: Duration = Duration::from_millis(150);

/// A stand-in shard that answers every `/v1/sweepchunk` with `status` and
/// `body` after [`HOLD`], anything else with 404, and closes each
/// connection after one reply.
fn scripted_shard(status: u16, body: &'static str) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted shard");
    let addr = listener.local_addr().expect("scripted shard addr");
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || answer(stream, status, body));
        }
    });
    addr
}

fn answer(stream: TcpStream, status: u16, body: &str) {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    let mut body_len = 0;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return;
        }
        let line = line.trim_end();
        if request_line.is_empty() {
            request_line = line.to_owned();
        } else if line.is_empty() {
            break;
        } else if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                body_len = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut request_body = vec![0; body_len];
    if reader.read_exact(&mut request_body).is_err() {
        return;
    }
    let (status, body) = if request_line.contains("/v1/sweepchunk") {
        std::thread::sleep(HOLD);
        (status, body)
    } else {
        (404, "{}")
    };
    let _ = write!(
        reader.into_inner(),
        "HTTP/1.1 {status} Scripted\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

#[test]
fn last_chunk_completing_wakes_idle_workers() {
    // One chunk, four workers: three block at once, and only the
    // completion of the run's last chunk can release them.
    let shard = scripted_shard(
        200,
        r#"{"ok":true,"chunk":0,"points":1,"rows":[{"time_s":0.5,"dvf_app":2.0}],"failed":0,"cache":{"sweep.cache.hit":0,"sweep.cache.miss":1,"entries":1}}"#,
    );
    let grid = GridSpec::new(vec![("n".to_owned(), vec![100.0])]).expect("grid");
    let plan = ChunkPlan::plan(&grid, 1, 1, Assignment::RoundRobin, |_| 0);
    let cfg = CoordinatorConfig {
        in_flight: 4,
        ..fast_cfg()
    };
    let report = run_watched(grid, plan, vec![shard], cfg, |_| {}).expect("sweep runs");
    assert_eq!(
        report.rows,
        [RowOutcome::Ok {
            time_s: 0.5,
            dvf_app: 2.0
        }]
    );
    assert_eq!(report.shards[0].chunks, 1);
}

#[test]
fn orphans_reach_idle_workers_after_a_shard_dies() {
    let a = Server::bind(ServerConfig::default()).expect("bind a");
    let b = Server::bind(ServerConfig::default()).expect("bind b");
    let grid = grid();
    // Every chunk is homed on B, so A's workers block from the start;
    // B dies after its first chunk, and only the orphans it leaves can
    // give A work.
    let mut plan = plan_for(&grid, 2, 1);
    for chunk in &mut plan.chunks {
        chunk.shard = 1;
    }
    let planned = plan.chunks.len();
    let shards = vec![a.addr(), b.addr()];
    let victim = Mutex::new(Some(b));
    let report = run_watched(grid.clone(), plan, shards, fast_cfg(), move |_| {
        if let Some(server) = victim.lock().expect("victim lock").take() {
            server.shutdown();
        }
    })
    .expect("sweep survives one shard death");
    assert_eq!(report.rows, local_rows(&grid));
    assert!(report.shards[1].dead);
    assert!(report.shards[0].chunks > 0);
    assert_eq!(report.failed_over_chunks, report.shards[0].chunks);
    assert_eq!(
        (report.shards[0].chunks + report.shards[1].chunks) as usize,
        planned
    );
    a.shutdown();
}

#[test]
fn fatal_rejection_stops_idle_workers() {
    let shard = scripted_shard(
        422,
        r#"{"error":{"code":"unknown_param","message":"no parameter `bogus`"}}"#,
    );
    let grid = GridSpec::new(vec![("bogus".to_owned(), vec![1.0])]).expect("grid");
    let plan = ChunkPlan::plan(&grid, 1, 1, Assignment::RoundRobin, |_| 0);
    let cfg = CoordinatorConfig {
        in_flight: 4,
        ..fast_cfg()
    };
    match run_watched(grid, plan, vec![shard], cfg, |_| {}) {
        Err(CoordError::Protocol(msg)) => assert!(msg.contains("422"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}
