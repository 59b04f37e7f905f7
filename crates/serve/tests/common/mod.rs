//! Minimal blocking HTTP client for exercising the server over real
//! sockets (std-only, like everything else here).

// Shared by several test binaries; not every binary uses every helper.
#![allow(dead_code)]

use dvf_serve::jsonval::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response: status code + body text.
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub headers: Vec<(String, String)>,
}

impl Reply {
    pub fn json(&self) -> Json {
        Json::parse(&self.body)
            .unwrap_or_else(|e| panic!("response body is not JSON ({e}): {}", self.body))
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Read exactly one response off `reader` (keep-alive aware: stops at
/// the declared Content-Length instead of waiting for EOF).
pub fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line:?}"));

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim().to_owned(), value.trim().to_owned());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().expect("content-length");
            }
            headers.push((name, value));
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    Reply {
        status,
        body: String::from_utf8(body).expect("utf-8 body"),
        headers,
    }
}

/// Open a connection with sane test timeouts and Nagle's algorithm off,
/// so a small request is never held back waiting for an ACK.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Send one request on a fresh connection (`Connection: close`).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = connect(addr);
    send(&mut stream, method, path, body, true);
    read_reply(&mut BufReader::new(stream))
}

/// Write a request onto an existing connection, in one write.
pub fn send(stream: &mut TcpStream, method: &str, path: &str, body: Option<&str>, close: bool) {
    let body = body.unwrap_or("");
    let connection = if close { "close" } else { "keep-alive" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
}

/// A small two-structure model used across the tests.
pub const MODEL: &str = r#"
    machine small {
      cache { associativity = 4  sets = 64  line = 32 }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model vm {
      param n = 200
      data A { size = n * 8  element = 8 }
      data B { size = n * 8  element = 8 }
      kernel main {
        flops = 2 * n
        access A as streaming(stride = 4)
        access B as streaming()
      }
    }
"#;

/// JSON-escape a source string for embedding in a request body.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
