//! Readiness-based transport: `workers` symmetric `poll(2)` event loops.
//! Each loop accepts, reads, parses, routes, renders and writes on its
//! own thread, so a request never crosses threads.
//!
//! ## Accept
//!
//! Every loop polls one shared non-blocking listener and owns the
//! connections it accepts. Accept is balanced: a loop polls the listener
//! only while it owns no more connections than the least-loaded loop
//! (shared atomic counts), so `n` connections on `n` loops land on `n`
//! loops. A loop whose accept leaves it ahead rings the other loops'
//! wake pipes, so a loop that has just become the least loaded puts the
//! listener back in its wait set at once instead of a tick later.
//! `max_connections` is checked against the server-wide open count; a
//! connection over it gets `503 + Retry-After` at accept.
//!
//! ## One round
//!
//! 1. Accept (when balanced accept allows) and read the new connection.
//! 2. Read every ready connection and parse its buffer. A connection
//!    has at most one request in flight, so pipelined requests are
//!    answered in order: the next one is parsed out of the buffer in
//!    the round after its predecessor's response is written.
//! 3. If more than `queue_depth` parsed requests are pending on this
//!    loop, the newest are answered `503 + Retry-After` on the spot; the
//!    connections stay open.
//! 4. The rest run in arrival order: route under panic isolation, render
//!    into the connection's output buffer, write as much as the socket
//!    takes, then finish the request's trace and record it. A partial
//!    write finishes on `POLLOUT` in later rounds.
//!
//! A request's trace is begun backdated to the read that last added
//! bytes to its connection buffer. Its depth-0 phases are `http-parse`,
//! `queue` (the rest of the time from that read to the handler: the
//! head-of-line wait behind other requests on this loop), the handler's
//! own spans, `render` and `write`.
//!
//! Idle connections cost one `pollfd` and a small state struct — no
//! thread, no stack — so connection count and compute parallelism are
//! independent axes. The price of running handlers inline is that a slow
//! request delays the other connections on its loop.
//!
//! ## Drain
//!
//! [`crate::Server::shutdown`] sets the draining flag and rings every
//! loop's wake pipe. A draining loop drops its handle on the listener
//! (the kernel refuses new connects once every loop has), closes idle
//! connections, finishes requests already read, and exits once it owns
//! no connections.

#![cfg(unix)]

use crate::http::{self, error_response, Parse, Request, Response};
use crate::sys::{self, PollFd, WakePipe, POLLIN, POLLOUT};
use crate::ServeCtx;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll timeout: the upper bound on how stale timeout scans and drain
/// checks can get when no readiness or wake event arrives.
const TICK_MS: i32 = 100;

/// What one loop shares with the others. The peers are `Arc`-shared
/// with the [`Handle`] too, so no pipe descriptor can be closed (and
/// recycled by the kernel) while a loop might still poll or ring it.
#[derive(Debug)]
struct Peer {
    /// Rung at shutdown, and when another loop's accept may have made
    /// this one the least loaded.
    pipe: WakePipe,
    /// A byte waits in `pipe`, or the loop is about to rebuild its wait
    /// set: ringing again would add nothing.
    rung: AtomicBool,
    /// Connections this loop owns, for balanced accept.
    owned: AtomicUsize,
}

impl Peer {
    /// Wake the loop; at most one byte ever waits in its pipe.
    fn ring(&self) {
        if !self.rung.swap(true, Ordering::SeqCst) {
            self.pipe.waker().wake();
        }
    }

    /// The loop's side of [`Peer::ring`], once its pipe is readable.
    fn answer(&self) {
        self.pipe.drain();
        self.rung.store(false, Ordering::SeqCst);
    }

    fn owned(&self) -> usize {
        self.owned.load(Ordering::SeqCst)
    }
}

/// The loop threads and what they share.
#[derive(Debug)]
pub(crate) struct Handle {
    threads: Vec<JoinHandle<()>>,
    peers: Arc<[Peer]>,
}

impl Handle {
    /// Complete a drain already signalled via [`ServeCtx::set_draining`]:
    /// wake every loop, then join them (each exits once its connections
    /// are finished).
    pub(crate) fn shutdown(self) {
        for peer in self.peers.iter() {
            peer.ring();
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Spawn `workers` event loops over an already-bound listener.
pub(crate) fn spawn(listener: TcpListener, ctx: Arc<ServeCtx>) -> std::io::Result<Handle> {
    listener.set_nonblocking(true)?;
    let listener = Arc::new(listener);
    let peers = (0..ctx.config.workers.max(1))
        .map(|_| {
            Ok(Peer {
                pipe: WakePipe::new()?,
                rung: AtomicBool::new(false),
                owned: AtomicUsize::new(0),
            })
        })
        .collect::<std::io::Result<Arc<[Peer]>>>()?;

    let threads = (0..peers.len())
        .map(|id| {
            let lp = EventLoop {
                id,
                ctx: Arc::clone(&ctx),
                peers: Arc::clone(&peers),
                listener: Some(Arc::clone(&listener)),
                slots: Vec::new(),
                free: Vec::new(),
                fds: Vec::new(),
                conn_of: Vec::new(),
                pending: Vec::new(),
            };
            std::thread::Builder::new()
                .name(format!("dvf-serve-loop-{id}"))
                .spawn(move || lp.run())
                .expect("spawn event loop")
        })
        .collect();
    Ok(Handle { threads, peers })
}

/// Per-connection state machine.
#[derive(Debug)]
struct ConnState {
    stream: TcpStream,
    /// Request bytes received and not yet consumed by the parser.
    buf: Vec<u8>,
    /// Serialized response bytes; non-empty while a write is in progress.
    out: Vec<u8>,
    out_pos: usize,
    /// `buf` may hold a request the parser has not seen: try it this
    /// round, and read no more bytes until it has been tried.
    unparsed: bool,
    /// Responses completed on this connection (keep-alive budget).
    served: usize,
    /// Close once `out` is flushed.
    close_after_write: bool,
    /// Peer sent EOF; no more request bytes will arrive.
    peer_eof: bool,
    /// The read that last added bytes to `buf`: a request's clock starts
    /// here.
    read_at: Instant,
    last_activity: Instant,
}

impl ConnState {
    fn writing(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// A parsed request waiting for its turn in this round.
struct Pending {
    conn: usize,
    request: Request,
    read_at: Instant,
    parse_ns: u64,
}

struct EventLoop {
    id: usize,
    ctx: Arc<ServeCtx>,
    peers: Arc<[Peer]>,
    /// `None` once draining.
    listener: Option<Arc<TcpListener>>,
    slots: Vec<Option<ConnState>>,
    free: Vec<usize>,
    /// The wait set and the slot of each connection entry in it, reused
    /// across rounds.
    fds: Vec<PollFd>,
    conn_of: Vec<usize>,
    /// This round's parsed requests, in arrival order once sorted.
    pending: Vec<Pending>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl EventLoop {
    fn run(mut self) {
        loop {
            // The wait set: this loop's wake pipe, the listener (while
            // balanced accept allows it), then every connection. A
            // connection with a request still to parse reads nothing and
            // makes the poll return at once.
            self.fds.clear();
            self.conn_of.clear();
            let pipe = self.peers[self.id].pipe.read_fd();
            self.fds.push(PollFd::new(pipe, POLLIN));
            let listener_at = match &self.listener {
                Some(l) if self.may_accept() => {
                    self.fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                    Some(self.fds.len() - 1)
                }
                _ => None,
            };
            let first_conn = self.fds.len();
            let mut timeout = TICK_MS;
            for (i, slot) in self.slots.iter().enumerate() {
                let Some(c) = slot else { continue };
                let events = if c.writing() {
                    POLLOUT
                } else if c.unparsed {
                    timeout = 0;
                    continue;
                } else {
                    POLLIN
                };
                self.fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                self.conn_of.push(i);
            }

            if sys::poll_wait(&mut self.fds, timeout).is_err() {
                // A non-EINTR poll failure (fd limit churn, etc.):
                // back off instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
            if self.fds[0].ready(POLLIN) {
                self.peers[self.id].answer();
            }

            // Entering drain: let go of the listener and shed idle
            // connections; requests already read run to completion.
            if self.listener.is_some() && self.ctx.draining() {
                self.listener = None;
                self.close_idle();
            }

            if let Some(at) = listener_at {
                if self.fds[at].ready(POLLIN) {
                    self.accept_ready();
                }
            }
            for k in 0..self.conn_of.len() {
                if self.fds[first_conn + k].revents != 0 {
                    self.on_ready(self.conn_of[k]);
                }
            }
            self.parse_all();
            self.run_pending();
            self.scan_timeouts();

            if self.listener.is_none() && self.peers[self.id].owned() == 0 {
                break;
            }
        }
    }

    /// Balanced accept: this loop owns no more connections than any other.
    fn may_accept(&self) -> bool {
        let mine = self.peers[self.id].owned();
        self.peers.iter().all(|p| mine <= p.owned())
    }

    /// Accept until the listener would block or this loop is no longer
    /// the least loaded, enforcing the server-wide connection cap. If an
    /// accept left this loop ahead, ring the others: one of them may
    /// have just become the least loaded while polling without the
    /// listener.
    fn accept_ready(&mut self) {
        let mut accepted = false;
        while self.may_accept() {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if !self.ctx.try_open_connection() {
                        reject_at_accept(&stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.ctx.conn_closed();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let state = ConnState {
                        stream,
                        buf: Vec::with_capacity(1024),
                        out: Vec::new(),
                        out_pos: 0,
                        unparsed: false,
                        served: 0,
                        close_after_write: false,
                        peer_eof: false,
                        read_at: now,
                        last_activity: now,
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
                    self.peers[self.id].owned.fetch_add(1, Ordering::SeqCst);
                    accepted = true;
                    // The client may have raced bytes onto the wire
                    // already; poll would find them next round, but
                    // reading them now saves one.
                    self.read(slot);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if accepted && !self.may_accept() {
            for (k, peer) in self.peers.iter().enumerate() {
                if k != self.id {
                    peer.ring();
                }
            }
        }
    }

    /// React to readiness (or error/hangup) on one connection.
    fn on_ready(&mut self, i: usize) {
        let Some(Some(c)) = self.slots.get_mut(i) else {
            return;
        };
        if c.writing() {
            if !flush(c) {
                self.close(i);
            }
        } else {
            self.read(i);
        }
    }

    /// Read whatever the socket holds into the connection buffer.
    fn read(&mut self, i: usize) {
        let Some(Some(c)) = self.slots.get_mut(i) else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&c.stream).read(&mut chunk) {
                Ok(0) => {
                    c.peer_eof = true;
                    c.unparsed = true;
                    return;
                }
                Ok(n) => {
                    c.buf.extend_from_slice(&chunk[..n]);
                    c.read_at = Instant::now();
                    c.last_activity = c.read_at;
                    c.unparsed = true;
                    if n < chunk.len() {
                        return; // short read: socket is drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(i);
                    return;
                }
            }
        }
    }

    /// Try the parser on every connection with new bytes: a complete
    /// request joins `pending`, a malformed one is answered and the
    /// connection closed, and a clean EOF between requests closes it.
    fn parse_all(&mut self) {
        for i in 0..self.slots.len() {
            let Some(c) = &mut self.slots[i] else {
                continue;
            };
            if !c.unparsed || c.writing() {
                continue;
            }
            c.unparsed = false;
            let started = Instant::now();
            match http::parse_request(&c.buf, self.ctx.config.max_body_bytes) {
                Parse::Complete(request, consumed) => {
                    c.buf.drain(..consumed);
                    self.pending.push(Pending {
                        conn: i,
                        request,
                        read_at: c.read_at,
                        parse_ns: nanos(started.elapsed()),
                    });
                }
                Parse::Incomplete { header_complete } => {
                    if !c.peer_eof {
                        continue;
                    }
                    if header_complete {
                        // Mid-body EOF: tell the peer before closing
                        // (its write half may still be open).
                        dvf_obs::add("serve.req.err", 1);
                        self.respond(i, &http::truncated_body(), false);
                    } else {
                        // Clean close between requests (or mid-header
                        // garbage): nothing useful left to answer.
                        self.close(i);
                    }
                }
                Parse::Reject(resp) => {
                    dvf_obs::add("serve.req.err", 1);
                    self.respond(i, &resp, false);
                }
            }
        }
    }

    /// Steps 3 and 4 of a round: shed what exceeds `queue_depth`, newest
    /// first, then serve the rest in arrival order.
    fn run_pending(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|p| p.read_at);
        self.ctx.queued_add(pending.len() as i64);
        let depth = self.ctx.config.queue_depth.max(1);
        if pending.len() > depth {
            for p in pending.drain(depth..) {
                self.ctx.queued_add(-1);
                // Shed this request, keep the connection: an open-loop
                // client gets the 503 immediately and may retry on the
                // same socket.
                dvf_obs::add("serve.req.rejected", 1);
                let resp =
                    error_response(503, "overloaded", "request queue is full; retry shortly")
                        .with_header("Retry-After", "1");
                self.respond(p.conn, &resp, true);
            }
        }
        for p in pending.drain(..) {
            self.ctx.queued_add(-1);
            self.serve(p);
        }
        self.pending = pending;
    }

    /// Run one request on this thread and write its response, tracing
    /// the whole server-side life of the request from the read on.
    fn serve(&mut self, p: Pending) {
        let trace_id = self.ctx.next_trace_id();
        let waited = nanos(p.read_at.elapsed());
        let trace_guard = dvf_obs::trace::begin_backdated(trace_id, waited);
        dvf_obs::trace::add_phase("http-parse", 0, p.parse_ns);
        dvf_obs::trace::add_phase("queue", 0, waited.saturating_sub(p.parse_ns));

        let resp = crate::run_handler(&p.request, &self.ctx, trace_id);
        self.ctx.flip_answering(self.id);
        let (render_ns, write_ns) = self.respond(p.conn, &resp, !p.request.wants_close());
        dvf_obs::trace::add_phase("render", 0, render_ns);
        dvf_obs::trace::add_phase("write", 0, write_ns);
        crate::finish_request(
            &self.ctx,
            &p.request,
            &resp,
            trace_guard,
            p.read_at.elapsed(),
        );
        self.ctx.flip_answering(self.id);
    }

    /// Render `resp` into connection `i`'s output buffer and write as
    /// much as the socket takes. Keep-alive also needs budget left and
    /// no drain. Returns the render and first-write nanoseconds.
    fn respond(&mut self, i: usize, resp: &Response, keep_alive: bool) -> (u64, u64) {
        let Some(Some(c)) = self.slots.get_mut(i) else {
            return (0, 0);
        };
        let started = Instant::now();
        let keep =
            keep_alive && c.served + 1 < self.ctx.config.keep_alive_max && !self.ctx.draining();
        debug_assert!(!c.writing(), "response staged over a response");
        c.out = http::serialize_response(resp, keep);
        c.out_pos = 0;
        c.close_after_write = !keep;
        let rendered = Instant::now();
        let open = flush(c);
        let written = Instant::now();
        if !open {
            self.close(i);
        }
        (
            nanos(rendered - started),
            nanos(written.duration_since(rendered)),
        )
    }

    /// Close idle (no buffered bytes, nothing being written) connections
    /// — the drain path's way of releasing keep-alive clients promptly.
    fn close_idle(&mut self) {
        for i in 0..self.slots.len() {
            let close = matches!(
                &self.slots[i],
                Some(c) if !c.writing() && c.buf.is_empty()
            );
            if close {
                self.close(i);
            }
        }
    }

    /// Enforce read/write timeouts.
    fn scan_timeouts(&mut self) {
        let now = Instant::now();
        for i in 0..self.slots.len() {
            let expired = self.slots[i].as_ref().is_some_and(|c| {
                let limit = if c.writing() {
                    self.ctx.config.write_timeout
                } else {
                    self.ctx.config.read_timeout
                };
                now.duration_since(c.last_activity) > limit
            });
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
            self.peers[self.id].owned.fetch_sub(1, Ordering::SeqCst);
            self.free.push(i);
        }
    }
}

/// Write as much buffered output as the socket accepts; `false` when
/// the connection must be closed (a write failed, or this response was
/// its last and is out). Once a response is out in full, the parser
/// looks at any pipelined bytes next round.
fn flush(c: &mut ConnState) -> bool {
    while c.writing() {
        match (&c.stream).write(&c.out[c.out_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                c.out_pos += n;
                c.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    c.out.clear();
    c.out_pos = 0;
    if c.close_after_write {
        return false;
    }
    c.served += 1;
    c.unparsed = !c.buf.is_empty() || c.peer_eof;
    true
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
