//! Keep-alive HTTP/1.1 client for the socket run.
//!
//! One persistent connection, `Content-Length` framing, a read timeout on
//! every request so a hang counts as a failure instead of stalling the
//! run. The socket keeps the operating system's defaults: no
//! `TCP_NODELAY`, no quick-ACK — whatever the server's write pattern costs
//! a default client is what the benchmark reports.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A hung request is a failed request after this long.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One response: status, headers (names lower-cased), body.
#[derive(Debug)]
pub struct Reply {
    /// Numeric status code.
    pub status: u16,
    headers: Vec<(String, String)>,
    /// `Content-Length`-delimited body.
    pub body: Vec<u8>,
}

impl Reply {
    /// Value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Header `name` as a count; absent or malformed reads as 0.
    pub fn header_u64(&self, name: &str) -> u64 {
        self.header(name).and_then(|v| v.parse().ok()).unwrap_or(0)
    }
}

/// A persistent connection to the server.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|_| writer.set_write_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("set timeouts: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { writer, reader })
    }

    /// Send pre-encoded request bytes and read the whole response. After
    /// an error the connection's framing is unknown: drop it and reconnect.
    pub fn send(&mut self, request: &[u8]) -> Result<Reply, String> {
        self.writer
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("read status line: {e}"))?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let mut headers = Vec::with_capacity(16);
        let mut len: Option<usize> = None;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("read header: {e}"))?;
            let header = line.trim_end_matches(['\r', '\n']);
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                let (k, v) = (k.to_ascii_lowercase(), v.trim());
                if k == "content-length" {
                    len = v.parse().ok();
                }
                headers.push((k, v.to_string()));
            }
        }
        let len = len.ok_or("response without content-length")?;
        let mut body = vec![0u8; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body ({len} bytes): {e}"))?;
        Ok(Reply {
            status,
            headers,
            body,
        })
    }

    /// A bodiless request for the server's control endpoints.
    pub fn call(&mut self, method: &str, path: &str) -> Result<Reply, String> {
        let head =
            format!("{method} {path} HTTP/1.1\r\nHost: payless\r\nContent-Length: 0\r\n\r\n");
        let reply = self.send(head.as_bytes())?;
        if reply.status != 200 {
            return Err(format!("{method} {path}: status {}", reply.status));
        }
        Ok(reply)
    }
}
