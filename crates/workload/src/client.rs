//! Remote query driver: the client half of the `payless-server` REST
//! protocol.
//!
//! A deliberately dumb HTTP/1.1 client — one connection per request,
//! `Connection: close` — so every request exercises the server's full
//! accept/parse/respond path, the way independent external clients would.
//! [`drive_mix`] replays the same deterministic mix
//! ([`crate::mix::serve_mix`]) that the in-process driver replays, K
//! client threads pulling from one global queue, and returns per-query
//! outcomes in mix order so a report built from them is comparable
//! slot-for-slot with the in-process oracle's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use payless_json::{Json, ToJson};
use payless_types::{Row, Value};

use crate::mix::{drive, MixItem};

/// Longest the driver waits to connect, and for any single read or write
/// to make progress. A server that died or wedged mid-mix then fails the
/// request with an error instead of hanging the caller forever. Far above
/// any real query's latency: this is a hang guard, not a latency bound.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What one query spent — the wire contract of `/v1/query`: the server
/// writes these six facts as `X-Payless-*` headers, the client parses
/// them back, and the serve report carries them per query under the same
/// names as flat JSON keys. `QuerySpend::facts` is the one list of them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuerySpend {
    /// Pages billed to this query (its spend-ledger total).
    pub pages: u64,
    /// Pages billed without a usable delivery (injected faults).
    pub wasted_pages: u64,
    /// Records delivered to this query.
    pub records: u64,
    /// Money billed to this query, in dollars.
    pub price: f64,
    /// Times this query waited on another query's in-flight purchase.
    pub coalesce_waits: u64,
    /// Estimated pages those waits avoided buying.
    pub saved_pages: u64,
}

/// A spend fact's number: `u64` counts and `f64` dollars alike go on the
/// wire in their `Display` form and into JSON as themselves.
trait Fact: ToString + ToJson {
    fn read(&mut self, reply: &HttpReply, header: &str) -> Result<(), String>;
}

impl<T: ToString + ToJson + std::str::FromStr> Fact for T {
    fn read(&mut self, reply: &HttpReply, header: &str) -> Result<(), String> {
        *self = reply.header_num(header)?;
        Ok(())
    }
}

impl QuerySpend {
    /// Every spend fact in wire order: header name, JSON key, the number.
    #[rustfmt::skip]
    fn facts(&mut self) -> [(&'static str, &'static str, &mut dyn Fact); 6] {
        [
            ("X-Payless-Pages",          "pages",          &mut self.pages),
            ("X-Payless-Wasted-Pages",   "wasted_pages",   &mut self.wasted_pages),
            ("X-Payless-Records",        "records",        &mut self.records),
            ("X-Payless-Price",          "price",          &mut self.price),
            ("X-Payless-Coalesce-Waits", "coalesce_waits", &mut self.coalesce_waits),
            ("X-Payless-Saved-Pages",    "saved_pages",    &mut self.saved_pages),
        ]
    }

    /// The `X-Payless-*` response headers carrying this spend.
    pub fn to_headers(mut self) -> Vec<(String, String)> {
        let headers = self
            .facts()
            .map(|(header, _, n)| (header.to_string(), n.to_string()));
        headers.into()
    }

    /// Parse the spend back out of a reply's headers, each of which must be
    /// present and numeric.
    fn from_headers(reply: &HttpReply) -> Result<QuerySpend, String> {
        let mut spend = QuerySpend::default();
        for (header, _, n) in spend.facts() {
            n.read(reply, &header.to_ascii_lowercase())?;
        }
        Ok(spend)
    }

    /// The spend as flat `(key, value)` JSON members, for an enclosing
    /// object to splice in.
    pub fn json_members(mut self) -> Vec<(&'static str, Json)> {
        self.facts().map(|(_, key, n)| (key, n.to_json())).into()
    }
}

/// One query's remote outcome: decoded rows plus the spend the server
/// reported in its `X-Payless-*` headers.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// Server-side causal id (the argument `/v1/why` takes).
    pub query_id: u64,
    /// Decoded result rows.
    pub rows: Vec<Row>,
    /// What the server says the query spent.
    pub spend: QuerySpend,
    /// Client-side wall clock for the whole round trip, in nanoseconds.
    pub wall_nanos: u64,
}

impl RemoteOutcome {
    /// Decode a 200 reply from `/v1/query`, sent at `t0`: the binary rows,
    /// the query id and the spend headers.
    fn from_reply(reply: &HttpReply, t0: Instant) -> Result<Self, String> {
        Ok(RemoteOutcome {
            rows: payless_market::decode_rows(&reply.body)
                .map_err(|e| format!("decode rows: {e}"))?,
            query_id: reply.header_num("x-payless-query-id")?,
            spend: QuerySpend::from_headers(reply)?,
            wall_nanos: t0.elapsed().as_nanos() as u64,
        })
    }
}

/// A minimal HTTP/1.1 response: status, headers (names lowercased), body.
#[derive(Debug)]
pub struct HttpReply {
    /// Numeric status code.
    pub status: u16,
    /// Header pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length` delimited).
    pub body: Vec<u8>,
}

impl HttpReply {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Header `name` parsed as a number. Missing or malformed is an error
    /// naming the header: spend telemetry read as 0 would book a paid query
    /// as free and only surface later as Σ pages != meter.
    fn header_num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .header(name)
            .ok_or_else(|| format!("response lacks the `{name}` header"))?;
        raw.parse()
            .map_err(|_| format!("response header `{name}` is not a number: {raw:?}"))
    }

    /// Body as UTF-8 (lossy — for error messages and text endpoints).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn read_reply(stream: TcpStream) -> Result<HttpReply, String> {
    let mut r = BufReader::new(stream);
    let mut status_line = String::new();
    r.read_line(&mut status_line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        r.read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or("response without content-length")?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| format!("read body ({len} bytes): {e}"))?;
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

/// Connect to `addr` within `timeout` and arm both I/O timeouts with it.
fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let addrs = addr
        .to_socket_addrs()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut last = format!("connect {addr}: resolves to no address");
    for sock in addrs {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(timeout))
                    .and_then(|_| stream.set_write_timeout(Some(timeout)))
                    .map_err(|e| format!("connect {addr}: set timeouts: {e}"))?;
                return Ok(stream);
            }
            Err(e) => last = format!("connect {addr}: {e}"),
        }
    }
    Err(last)
}

/// One HTTP request over a fresh connection (`Connection: close`). No step
/// blocks longer than [`IO_TIMEOUT`]; every error names the request.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<HttpReply, String> {
    request_within(addr, method, path, body, IO_TIMEOUT)
}

/// [`request`] with the hang guard as a parameter, so its test need not
/// wait out the real one.
fn request_within(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> Result<HttpReply, String> {
    let mut stream = connect(addr, timeout)?;
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body))
        .and_then(|_| stream.flush())
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    read_reply(stream).map_err(|e| format!("{method} {path}: {e}"))
}

/// GET a text endpoint, failing on any non-200.
pub fn get_text(addr: &str, path: &str) -> Result<String, String> {
    let reply = request(addr, "GET", path, None)?;
    if reply.status != 200 {
        return Err(format!(
            "GET {path}: status {} ({})",
            reply.status,
            reply.text().trim()
        ));
    }
    Ok(reply.text())
}

/// Submit one query: `POST /v1/query` with the template index and
/// parameters, decode the binary rows, and collect the spend headers.
pub fn submit(addr: &str, template: usize, params: &[Value]) -> Result<RemoteOutcome, String> {
    let t0 = Instant::now();
    let body = Json::obj([
        ("template", Json::Int(template as i64)),
        (
            "params",
            Json::Arr(params.iter().map(|p| p.to_json()).collect()),
        ),
    ])
    .to_string_compact();
    let reply = request(addr, "POST", "/v1/query", Some(body.as_bytes()))?;
    if reply.status != 200 {
        return Err(format!(
            "query template {template}: status {} ({})",
            reply.status,
            reply.text().trim()
        ));
    }
    RemoteOutcome::from_reply(&reply, t0).map_err(|e| format!("query template {template}: {e}"))
}

/// Ask the server to drain and shut down gracefully.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let reply = request(addr, "POST", "/v1/shutdown", None)?;
    if reply.status != 200 {
        return Err(format!("shutdown: status {}", reply.status));
    }
    Ok(())
}

/// Replay `mix` against a remote server with `threads` concurrent client
/// workers ([`drive`]). Outcomes come back in mix order; the first failed
/// query aborts the drive.
pub fn drive_mix(
    addr: &str,
    mix: &[MixItem],
    threads: usize,
) -> Result<Vec<RemoteOutcome>, String> {
    drive(mix, threads, |idx, item| {
        submit(addr, item.template, &item.params).map_err(|e| format!("mix item {idx}: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    const SPEND: QuerySpend = QuerySpend {
        pages: 5,
        wasted_pages: 1,
        records: 4,
        price: 0.25,
        coalesce_waits: 2,
        saved_pages: 3,
    };

    /// What `payless-server` puts on a `/v1/query` answer that spent
    /// [`SPEND`].
    fn spend_headers() -> Vec<(String, String)> {
        let mut headers = vec![("X-Payless-Query-Id".to_string(), "3".to_string())];
        headers.extend(SPEND.to_headers());
        headers
    }

    /// `submit` template 1 to a local listener that answers with a 200
    /// carrying `headers` and an empty row set.
    fn submit_to_canned_reply(headers: &[(String, String)]) -> Result<RemoteOutcome, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let body = payless_market::encode_rows(&[]);
        let mut reply = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n", body.len());
        for (k, v) in headers {
            reply.push_str(&format!("{k}: {v}\r\n"));
        }
        reply.push_str("\r\n");
        let (done, client_done) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                conn.write_all(reply.as_bytes()).unwrap();
                conn.write_all(&body).unwrap();
                // Closing with the request still unread would reset the
                // socket under the client: hold it until the client is done.
                let _ = client_done.recv();
            });
            let outcome = submit(&addr, 1, &[]);
            drop(done);
            outcome
        })
    }

    #[test]
    fn missing_or_malformed_spend_header_is_an_error_naming_it() {
        let sent = submit_to_canned_reply(&spend_headers()).unwrap();
        assert_eq!((sent.query_id, sent.spend), (3, SPEND));

        for (name, _, _) in QuerySpend::default().facts() {
            let lower = name.to_ascii_lowercase();
            let mut without = spend_headers();
            without.retain(|(k, _)| k != name);
            let err = submit_to_canned_reply(&without).unwrap_err();
            assert!(err.contains(&lower) && err.contains("template 1"), "{err}");

            let mut garbled = spend_headers();
            for (k, v) in &mut garbled {
                if k == name {
                    *v = "many".into();
                }
            }
            let err = submit_to_canned_reply(&garbled).unwrap_err();
            assert!(err.contains(&lower) && err.contains("many"), "{err}");
        }
    }

    #[test]
    fn silent_server_times_out_with_an_error_naming_the_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept, then hold the connection open without ever answering.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let _conn = listener.accept().unwrap();
            let _ = held.recv();
        });
        let timeout = Duration::from_millis(200);
        let t0 = Instant::now();
        let err = request_within(&addr, "GET", "/v1/health", None, timeout).unwrap_err();
        let waited = t0.elapsed();
        assert!(err.contains("GET /v1/health"), "{err}");
        assert!(
            waited >= timeout && waited < timeout + Duration::from_secs(5),
            "gave up after {waited:?}, expected about {timeout:?}"
        );
        drop(release);
        server.join().unwrap();
    }
}
