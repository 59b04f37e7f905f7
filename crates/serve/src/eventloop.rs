//! Readiness-based transport: one `poll(2)` I/O thread owning every
//! connection, a fixed pool of compute workers executing fully-parsed
//! requests.
//!
//! ## Life of a request
//!
//! 1. The I/O thread accepts (non-blocking listener), registers the
//!    connection, and reads whatever bytes arrive.
//! 2. [`crate::http::parse_request`] runs over the connection buffer
//!    after every read. A complete request becomes a [`Job`] on the
//!    bounded compute queue (`queue_depth`); a full queue is answered
//!    *on the spot* with `503 + Retry-After` — the connection stays
//!    open, only the request is shed.
//! 3. A worker dequeues the job, begins the request trace *backdated by
//!    the queue wait* ([`dvf_obs::trace::begin_backdated`]) and records
//!    that wait as a depth-0 `queue` phase, so cross-thread handoff
//!    never loses latency attribution. It routes the request under
//!    panic isolation and sends the response back over a completion
//!    channel, waking the I/O thread through a self-pipe.
//! 4. The I/O thread serializes the response into the connection's
//!    output buffer and writes as readiness allows; when the write
//!    completes the connection re-enters the reading state and any
//!    pipelined bytes already buffered are parsed immediately.
//!
//! One request is in flight per connection at a time (responses are
//! never interleaved), which is exactly HTTP/1.1 pipelining semantics.
//! Idle connections cost one `pollfd` and a small state struct — no
//! thread, no stack — so connection count and compute parallelism are
//! independent axes.
//!
//! ## Drain
//!
//! [`crate::Server::shutdown`] sets the draining flag and wakes the
//! loop. The loop drops the listener (new connects are refused by the
//! kernel), closes idle connections, finishes requests already parsed
//! or computing, and exits once no connections remain; closing the job
//! queue then terminates the workers, which are joined last.

#![cfg(unix)]

use crate::http::{self, error_response, Parse, Request, Response};
use crate::sys::{self, PollFd, WakePipe, POLLIN, POLLOUT};
use crate::ServeCtx;
use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd as _;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Poll timeout: the upper bound on how stale timeout scans and drain
/// checks can get when no readiness or wake event arrives.
const TICK_MS: i32 = 100;

/// A fully-parsed request on its way to a compute worker.
struct Job {
    conn: usize,
    generation: u64,
    request: Request,
    trace_id: u64,
    enqueued: Instant,
}

/// The bounded compute queue between the I/O thread and the workers.
/// Idle workers wait on one condition variable and each job wakes one of
/// them, so an idle worker is never woken to find nothing to do.
struct JobQueue {
    state: Mutex<Queued>,
    ready: Condvar,
    depth: usize,
}

struct Queued {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new(Queued {
                jobs: VecDeque::with_capacity(depth),
                closed: false,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Every update under the lock is one push, pop or flag store, so a
    /// guard poisoned by a panicking thread still holds a valid queue.
    fn lock(&self) -> MutexGuard<'_, Queued> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue without blocking; `false` (and the job dropped) when the
    /// queue already holds `depth` jobs.
    fn try_push(&self, job: Job) -> bool {
        let mut q = self.lock();
        if q.jobs.len() >= self.depth {
            return false;
        }
        q.jobs.push_back(job);
        drop(q);
        self.ready.notify_one();
        true
    }

    /// The next job, waiting for one; `None` once the queue is closed and
    /// empty.
    fn pop(&self) -> Option<Job> {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Let the workers finish what is queued, then stop.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A computed response on its way back to the I/O thread.
struct Done {
    conn: usize,
    generation: u64,
    resp: Response,
    wants_close: bool,
}

/// Threads to join at shutdown. The wake pipe is `Arc`-shared with the
/// I/O thread and every worker so its descriptors cannot be closed (and
/// recycled by the kernel) while any thread might still write to them.
#[derive(Debug)]
pub(crate) struct Handle {
    io: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    pipe: Arc<WakePipe>,
}

impl Handle {
    /// Complete a drain already signalled via [`ServeCtx::set_draining`]:
    /// wake the poll loop, join it (it exits once every connection is
    /// finished), then join the workers (they exit when the loop closes
    /// the job queue).
    pub(crate) fn shutdown(self) {
        self.pipe.waker().wake();
        let _ = self.io.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Spawn the I/O thread and compute workers over an already-bound listener.
pub(crate) fn spawn(listener: TcpListener, ctx: Arc<ServeCtx>) -> std::io::Result<Handle> {
    listener.set_nonblocking(true)?;
    let pipe = Arc::new(WakePipe::new()?);

    let jobs = Arc::new(JobQueue::new(ctx.config.queue_depth.max(1)));
    let (done_tx, done_rx) = mpsc::channel::<Done>();

    let workers = (0..ctx.config.workers.max(1))
        .map(|i| {
            let jobs = Arc::clone(&jobs);
            let done_tx = done_tx.clone();
            let pipe = Arc::clone(&pipe);
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("dvf-serve-compute-{i}"))
                .spawn(move || worker_loop(&jobs, &done_tx, &pipe, &ctx))
                .expect("spawn compute worker")
        })
        .collect();
    drop(done_tx);

    let io = {
        let ctx = Arc::clone(&ctx);
        let pipe = Arc::clone(&pipe);
        std::thread::Builder::new()
            .name("dvf-serve-io".to_owned())
            .spawn(move || {
                IoLoop {
                    ctx,
                    pipe,
                    listener: Some(listener),
                    jobs,
                    done_rx,
                    slots: Vec::new(),
                    free: Vec::new(),
                    next_generation: 0,
                }
                .run()
            })
            .expect("spawn io thread")
    };

    Ok(Handle { io, workers, pipe })
}

/// Execute jobs until the I/O thread closes the queue.
fn worker_loop(jobs: &JobQueue, done_tx: &mpsc::Sender<Done>, pipe: &WakePipe, ctx: &ServeCtx) {
    while let Some(job) = jobs.pop() {
        ctx.queued_add(-1);

        // Trace context handoff: the request's clock started when the
        // I/O thread enqueued it. Begin the trace backdated by the queue
        // wait and record that wait as a depth-0 phase, so the timeline
        // partitions the full server-side latency even though I/O and
        // compute happen on different threads.
        let wait_ns = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let trace_guard = dvf_obs::trace::begin_backdated(job.trace_id, wait_ns);
        dvf_obs::trace::add_phase("queue", 0, wait_ns);

        let resp = crate::run_handler(&job.request, ctx, job.trace_id);
        crate::finish_request(
            ctx,
            &job.request,
            &resp,
            trace_guard,
            job.enqueued.elapsed(),
        );

        let wants_close = job.request.wants_close();
        if done_tx
            .send(Done {
                conn: job.conn,
                generation: job.generation,
                resp,
                wants_close,
            })
            .is_err()
        {
            break; // I/O thread is gone; nothing left to answer to.
        }
        pipe.waker().wake();
    }
}

/// What a connection is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for request bytes (`POLLIN`).
    Reading,
    /// A request is on the compute queue or in a worker; no events are
    /// requested (back-pressure: the socket is simply not read).
    Computing,
    /// A response is partially written (`POLLOUT`).
    Writing,
}

/// Per-connection state machine.
#[derive(Debug)]
struct ConnState {
    stream: TcpStream,
    /// Request bytes received and not yet consumed by the parser.
    buf: Vec<u8>,
    /// Serialized response bytes not yet fully written.
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// Responses completed on this connection (keep-alive budget).
    served: usize,
    /// Close once `out` is flushed.
    close_after_write: bool,
    /// Peer sent EOF; no more request bytes will arrive.
    peer_eof: bool,
    last_activity: Instant,
    /// Guards completions against slot reuse: a response for a previous
    /// occupant of this slot is discarded.
    generation: u64,
}

/// What to do with a connection after handling an event.
enum After {
    Keep,
    Close,
}

struct IoLoop {
    ctx: Arc<ServeCtx>,
    pipe: Arc<WakePipe>,
    listener: Option<TcpListener>,
    jobs: Arc<JobQueue>,
    done_rx: Receiver<Done>,
    slots: Vec<Option<ConnState>>,
    free: Vec<usize>,
    next_generation: u64,
}

impl Drop for IoLoop {
    fn drop(&mut self) {
        self.jobs.close();
    }
}

impl IoLoop {
    fn run(mut self) {
        loop {
            // Assemble the wait set: wake pipe, listener (until drain),
            // then every connection that wants an event. Computing
            // connections request nothing — the kernel buffers for them.
            let mut fds = vec![PollFd::new(self.pipe.read_fd(), POLLIN)];
            let listener_at = self.listener.as_ref().map(|l| {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                fds.len() - 1
            });
            let first_conn = fds.len();
            let mut conn_of: Vec<usize> = Vec::new();
            for (i, slot) in self.slots.iter().enumerate() {
                let Some(c) = slot else { continue };
                let events = match c.phase {
                    Phase::Reading => POLLIN,
                    Phase::Computing => continue,
                    Phase::Writing => POLLOUT,
                };
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                conn_of.push(i);
            }

            if sys::poll_wait(&mut fds, TICK_MS).is_err() {
                // A non-EINTR poll failure (fd limit churn, etc.):
                // back off instead of spinning.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            if fds[0].ready(POLLIN) {
                self.pipe.drain();
            }

            // Entering drain: refuse new connections at the kernel and
            // shed idle ones; in-flight requests run to completion.
            if self.ctx.draining() && self.listener.is_some() {
                self.listener = None;
                self.close_idle();
            }

            self.apply_completions();

            for (k, fd) in fds.iter().enumerate().skip(first_conn) {
                if fd.revents != 0 {
                    self.handle_conn_event(conn_of[k - first_conn]);
                }
            }

            if let Some(at) = listener_at {
                if fds[at].ready(POLLIN) {
                    self.accept_ready();
                }
            }

            self.scan_timeouts();

            if self.ctx.draining() && self.slots.iter().all(Option::is_none) {
                break;
            }
        }
        // Dropping the loop closes the queue (see `Drop`), which ends
        // the workers once it drains (any remaining jobs belong to
        // connections just closed; their completions go nowhere, which
        // is fine).
    }

    /// Accept until the listener would block, enforcing the connection cap.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let open = self.slots.iter().filter(|s| s.is_some()).count();
                    if open >= self.ctx.config.max_connections.max(1) {
                        reject_at_accept(&stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.next_generation += 1;
                    let state = ConnState {
                        stream,
                        buf: Vec::with_capacity(1024),
                        out: Vec::new(),
                        out_pos: 0,
                        phase: Phase::Reading,
                        served: 0,
                        close_after_write: false,
                        peer_eof: false,
                        last_activity: Instant::now(),
                        generation: self.next_generation,
                    };
                    let slot = match self.free.pop() {
                        Some(i) => {
                            self.slots[i] = Some(state);
                            i
                        }
                        None => {
                            self.slots.push(Some(state));
                            self.slots.len() - 1
                        }
                    };
                    self.ctx.conn_opened();
                    // The client may have raced bytes onto the wire
                    // already; poll would find them next tick, but
                    // serving them now saves a loop.
                    self.handle_conn_event(slot);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drain the completion channel, writing responses onto their
    /// (still-alive, same-generation) connections.
    fn apply_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            let Some(Some(c)) = self.slots.get_mut(done.conn) else {
                continue;
            };
            if c.generation != done.generation || c.phase != Phase::Computing {
                continue; // stale: the connection died and the slot moved on
            }
            let keep = !done.wants_close
                && c.served + 1 < self.ctx.config.keep_alive_max
                && !self.ctx.draining();
            stage_response(c, &done.resp, keep);
            match flush(c) {
                After::Keep => {
                    // The response went out in full and the connection is
                    // reading again: parse any pipelined bytes now.
                    if c.phase == Phase::Reading {
                        self.advance_reading(done.conn);
                    }
                }
                After::Close => self.close(done.conn),
            }
        }
    }

    /// React to readiness (or error/hangup) on one connection.
    fn handle_conn_event(&mut self, i: usize) {
        let Some(Some(c)) = self.slots.get_mut(i) else {
            return;
        };
        match c.phase {
            Phase::Reading => {
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match (&c.stream).read(&mut chunk) {
                        Ok(0) => {
                            c.peer_eof = true;
                            break;
                        }
                        Ok(n) => {
                            c.buf.extend_from_slice(&chunk[..n]);
                            c.last_activity = Instant::now();
                            if n < chunk.len() {
                                break; // short read: socket is drained
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.close(i);
                            return;
                        }
                    }
                }
                self.advance_reading(i);
            }
            Phase::Computing => {}
            Phase::Writing => {
                let after = flush(c);
                match after {
                    After::Keep => {
                        if c.phase == Phase::Reading {
                            self.advance_reading(i);
                        }
                    }
                    After::Close => self.close(i),
                }
            }
        }
    }

    /// Parse and dispatch as many buffered requests as the connection's
    /// state allows: stops when a request goes to the compute queue
    /// (serialized pipelining), when a response write backs up, when
    /// bytes run out, or when the connection closes.
    fn advance_reading(&mut self, i: usize) {
        loop {
            let Some(Some(c)) = self.slots.get_mut(i) else {
                return;
            };
            if c.phase != Phase::Reading {
                return;
            }
            match http::parse_request(&c.buf, self.ctx.config.max_body_bytes) {
                Parse::Complete(request, consumed) => {
                    c.buf.drain(..consumed);
                    let trace_id = self.ctx.next_trace_id();
                    let job = Job {
                        conn: i,
                        generation: c.generation,
                        request,
                        trace_id,
                        enqueued: Instant::now(),
                    };
                    if self.jobs.try_push(job) {
                        self.ctx.queued_add(1);
                        c.phase = Phase::Computing;
                        return;
                    }
                    // Shed this request, keep the connection: an open-loop
                    // client gets the 503 immediately and may retry on the
                    // same socket.
                    dvf_obs::add("serve.req.rejected", 1);
                    let resp =
                        error_response(503, "overloaded", "request queue is full; retry shortly")
                            .with_header("Retry-After", "1");
                    stage_response(c, &resp, true);
                    if let After::Close = flush(c) {
                        self.close(i);
                        return;
                    }
                    // Fully flushed ⇒ Reading again ⇒ loop parses the next
                    // pipelined request; partial flush ⇒ Writing ⇒ the
                    // phase guard above exits.
                }
                Parse::Incomplete { header_complete } => {
                    if c.peer_eof {
                        if header_complete {
                            // Mid-body EOF: tell the peer before closing
                            // (its write half may still be open).
                            dvf_obs::add("serve.req.err", 1);
                            stage_response(c, &http::truncated_body(), false);
                            if let After::Close = flush(c) {
                                self.close(i);
                            }
                        } else {
                            // Clean close between requests (or mid-header
                            // garbage): nothing useful left to answer.
                            self.close(i);
                        }
                    }
                    return;
                }
                Parse::Reject(resp) => {
                    dvf_obs::add("serve.req.err", 1);
                    stage_response(c, &resp, false);
                    if let After::Close = flush(c) {
                        self.close(i);
                    }
                    return;
                }
            }
        }
    }

    /// Close idle (no buffered bytes, nothing in flight) connections —
    /// the drain path's way of releasing keep-alive clients promptly.
    fn close_idle(&mut self) {
        for i in 0..self.slots.len() {
            let close = matches!(
                &self.slots[i],
                Some(c) if c.phase == Phase::Reading && c.buf.is_empty()
            );
            if close {
                self.close(i);
            }
        }
    }

    /// Enforce read/write timeouts (computing connections are exempt:
    /// their latency budget belongs to the worker).
    fn scan_timeouts(&mut self) {
        let now = Instant::now();
        for i in 0..self.slots.len() {
            let expired = match &self.slots[i] {
                Some(c) => match c.phase {
                    Phase::Reading => {
                        now.duration_since(c.last_activity) > self.ctx.config.read_timeout
                    }
                    Phase::Writing => {
                        now.duration_since(c.last_activity) > self.ctx.config.write_timeout
                    }
                    Phase::Computing => false,
                },
                None => false,
            };
            if expired {
                self.close(i);
            }
        }
    }

    /// Release one connection slot.
    fn close(&mut self, i: usize) {
        if let Some(c) = self.slots[i].take() {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
            self.ctx.conn_closed();
            self.free.push(i);
        }
    }
}

/// Queue a serialized response on the connection.
fn stage_response(c: &mut ConnState, resp: &Response, keep_alive: bool) {
    debug_assert!(c.out_pos >= c.out.len(), "response staged over a response");
    c.out = http::serialize_response(resp, keep_alive);
    c.out_pos = 0;
    c.close_after_write = !keep_alive;
    c.phase = Phase::Writing;
}

/// Write as much buffered output as the socket accepts. On completion
/// the connection re-enters [`Phase::Reading`] (or reports
/// [`After::Close`] if this response was its last).
fn flush(c: &mut ConnState) -> After {
    while c.out_pos < c.out.len() {
        match (&c.stream).write(&c.out[c.out_pos..]) {
            Ok(0) => return After::Close,
            Ok(n) => {
                c.out_pos += n;
                c.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return After::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return After::Close,
        }
    }
    // Fully written.
    c.out.clear();
    c.out_pos = 0;
    if c.close_after_write {
        return After::Close;
    }
    c.served += 1;
    c.phase = Phase::Reading;
    After::Keep
}

/// Best-effort `503` for a connection over the `max_connections` cap,
/// written from the accept path (the socket is fresh: a small write
/// cannot block meaningfully), then dropped.
fn reject_at_accept(stream: &TcpStream) {
    dvf_obs::add("serve.req.rejected", 1);
    let resp = error_response(503, "overloaded", "connection limit reached; retry shortly")
        .with_header("Retry-After", "1");
    let _ = http::write_response(stream, &resp, false);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
