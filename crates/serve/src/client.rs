//! Minimal std-only HTTP/1.1 client with keep-alive — the coordinator's
//! side of the wire (`dvf sweep --shards` talking to `dvf-serve` shards),
//! and each `dvf loadgen` connection.
//!
//! One [`ShardClient`] owns one keep-alive connection to one shard.
//! Requests carry `Content-Length` (the server requires it on POST) and
//! `Connection: keep-alive`; responses are parsed just far enough to
//! recover the status code, the `Retry-After` header (the server's
//! backpressure contract: `503 + Retry-After` means try again, not give
//! up), and the `Content-Length`-delimited body.
//!
//! A request that fails on an existing connection is retried once on a
//! fresh connection before the error surfaces: a keep-alive connection
//! the server closed between requests (keep-alive budget, drain) is
//! indistinguishable from a dead shard until a write fails, and every
//! request the coordinator sends is idempotent (chunk evaluation is pure
//! computation; re-sending re-answers from the shard's memo cache).
//! `dvf loadgen` sends one request repeatedly and counts only the
//! replies, so the same retry serves it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response: status, body, and the one header the
/// coordinator acts on.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Response body (UTF-8; `dvf-serve` bodies always are).
    pub body: String,
    /// `Retry-After` header in seconds, when present (503 shedding).
    pub retry_after: Option<u64>,
}

/// One keep-alive connection to one shard.
#[derive(Debug)]
pub struct ShardClient {
    addr: SocketAddr,
    read_timeout: Duration,
    write_timeout: Duration,
    conn: Option<Conn>,
}

impl ShardClient {
    /// Client for `addr`; the connection opens lazily on first use.
    pub fn new(addr: SocketAddr, read_timeout: Duration, write_timeout: Duration) -> Self {
        Self {
            addr,
            read_timeout,
            write_timeout,
            conn: None,
        }
    }

    /// The shard this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `POST path` with a JSON body, keep-alive, one transparent
    /// reconnect on a stale connection.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<HttpReply> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: coordinator\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.roundtrip(request.as_bytes())
    }

    /// `GET path`, keep-alive, one transparent reconnect.
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpReply> {
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: coordinator\r\nConnection: keep-alive\r\n\r\n");
        self.roundtrip(request.as_bytes())
    }

    /// Send `request`, one complete HTTP/1.1 request, and read its reply:
    /// keep-alive, one transparent reconnect.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<HttpReply> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if self.conn.is_none() {
                let stream = TcpStream::connect(self.addr)?;
                let _ = stream.set_nodelay(true);
                stream.set_read_timeout(Some(self.read_timeout))?;
                stream.set_write_timeout(Some(self.write_timeout))?;
                self.conn = Some(Conn::new(stream));
            }
            let conn = self.conn.as_mut().expect("connection just ensured");
            match conn.roundtrip(request) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Drop the (possibly half-dead) connection. Retry once
                    // on a fresh one; a second failure is the shard's.
                    self.conn = None;
                    if attempts >= 2 {
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// Buffered reader over one stream, parsing status + headers + body.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(4096),
        }
    }

    fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<HttpReply> {
        self.stream.write_all(request)?;
        let header_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("bad status line"))?;
        let header_of = |name: &str| {
            head.lines().find_map(|l| {
                let (n, value) = l.split_once(':')?;
                n.eq_ignore_ascii_case(name)
                    .then(|| value.trim().to_owned())
            })
        };
        let body_len: usize = header_of("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let retry_after = header_of("retry-after").and_then(|v| v.parse().ok());
        let total = header_end + 4 + body_len;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[header_end + 4..total]).into_owned();
        self.buf.drain(..total);
        Ok(HttpReply {
            status,
            body,
            retry_after,
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::other("connection closed mid-response"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}
