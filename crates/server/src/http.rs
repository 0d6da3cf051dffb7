//! Minimal std-only HTTP/1.1 server-side codec.
//!
//! Parses requests off any `BufRead` (a `TcpStream` in production, a
//! scripted partial reader in tests) with hard limits — request-line and
//! header-line length, header count, body size — and writes responses with
//! explicit `Content-Length`. Supports exactly what the REST front end
//! needs: methods, paths with query strings (percent-decoded), headers,
//! `Content-Length` bodies, and keep-alive.

use std::io::{BufRead, Write};

/// Longest accepted request line or header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8192;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Why a request could not be parsed — each maps to a distinct status.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure or mid-request EOF.
    Io(std::io::Error),
    /// Syntactically invalid request (400).
    Malformed(String),
    /// A line or header block past the limits (431).
    TooLarge(String),
    /// A body past `MAX_BODY_BYTES` (413).
    BodyTooLarge(usize),
    /// A body framing this codec does not implement (501).
    Unsupported(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
            HttpError::Unsupported(m) => write!(f, "not implemented: {m}"),
        }
    }
}

impl HttpError {
    /// The status line this error answers with before closing.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Io(_) => (400, "Bad Request"),
            HttpError::Malformed(_) => (400, "Bad Request"),
            HttpError::TooLarge(_) => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge(_) => (413, "Payload Too Large"),
            HttpError::Unsupported(_) => (501, "Not Implemented"),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string stripped (`/v1/query`).
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs; names lowercased for lookup.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the client asked to keep the connection open
    /// (HTTP/1.1 default; an explicit `Connection: close` wins).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Read one CRLF-terminated line (tolerating bare LF), enforcing
/// `MAX_LINE_BYTES`. Returns `None` on clean EOF at a line boundary.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-line",
                )));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf)
                        .map(Some)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE_BYTES {
                    return Err(HttpError::TooLarge(format!(
                        "line exceeds {MAX_LINE_BYTES} bytes"
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Percent-decode `s`; invalid escapes pass through literally.
fn pct_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
            if let Some(v) = hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                out.push(v);
                i += 3;
                continue;
            }
        }
        if bytes[i] == b'+' {
            out.push(b' ');
        } else {
            out.push(bytes[i]);
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse `a=1&b=two` into decoded pairs.
fn parse_query(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (pct_decode(k), pct_decode(v)),
            None => (pct_decode(pair), String::new()),
        })
        .collect()
}

/// Read and parse one request. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive teardown).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "request line {line:?} is not `METHOD TARGET VERSION`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!(
            "method {method:?} is not an uppercase token"
        )));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(format!(
            "target {target:?} is not an absolute path"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, qs)) => (p.to_string(), parse_query(qs)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| {
            HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in header block",
            ))
        })?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line {line:?} has no colon")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
    };
    // A body this codec cannot frame must fail the request: left unread, its
    // bytes would be parsed as the next request line on a kept-alive socket.
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::Unsupported(
            "Transfer-Encoding bodies; send Content-Length".into(),
        ));
    }
    let mut lengths = req
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    if let Some(len) = lengths.next() {
        if lengths.any(|other| other != len) {
            return Err(HttpError::Malformed(
                "conflicting content-length headers".into(),
            ));
        }
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::BodyTooLarge(len));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).map_err(HttpError::Io)?;
        req.body = body;
    }
    Ok(Some(req))
}

/// Write a response with explicit `Content-Length` and the given extra
/// headers. `keep_alive` controls the `Connection` header.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra_headers: &[(String, String)],
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    /// A reader that yields its bytes one at a time — the pathological
    /// partial-read schedule a slow or adversarial client produces.
    struct TrickleReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for TrickleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    fn trickle(data: &str) -> BufReader<TrickleReader> {
        BufReader::new(TrickleReader {
            data: data.as_bytes().to_vec(),
            pos: 0,
        })
    }

    fn parse(data: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut trickle(data))
    }

    #[test]
    fn parses_get_with_query_under_partial_reads() {
        let req = parse("GET /v1/why?query=7&tag=a%20b HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/why");
        assert_eq!(req.query_param("query"), Some("7"));
        assert_eq!(req.query_param("tag"), Some("a b"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(
            "POST /v1/query HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"hello world");
        assert!(!req.keep_alive());
    }

    #[test]
    fn transfer_encoding_is_answered_501_not_parsed_as_the_next_request() {
        let err = parse(
            "POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             5\r\nhello\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Unsupported(_)), "{err:?}");
        assert_eq!(err.status().0, 501);
    }

    #[test]
    fn differing_content_lengths_are_rejected_identical_ones_accepted() {
        let err =
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 11\r\n\r\nhello world")
                .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        assert_eq!(err.status().0, 400);

        let req = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn clean_eof_between_requests_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x SPDY/9\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
        ] {
            match parse(bad) {
                Err(HttpError::Malformed(_)) => {}
                other => panic!("{bad:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn header_without_colon_is_rejected() {
        match parse("GET / HTTP/1.1\r\nBadHeader\r\n\r\n") {
            Err(HttpError::Malformed(m)) => assert!(m.contains("no colon")),
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 1));
        match parse(&long) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn oversized_header_line_is_rejected() {
        let long = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "v".repeat(MAX_LINE_BYTES + 1)
        );
        match parse(&long) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let mut req = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            req.push_str(&format!("X-H{i}: v\r\n"));
        }
        req.push_str("\r\n");
        match parse(&req) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let req = format!(
            "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse(&req) {
            Err(HttpError::BodyTooLarge(_)) => {}
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn eof_mid_line_and_mid_body_are_io_errors() {
        match parse("GET / HT") {
            Err(HttpError::Io(_)) => {}
            other => panic!("parsed as {other:?}"),
        }
        match parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort") {
            Err(HttpError::Io(_)) => {}
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn keep_alive_reads_back_to_back_requests() {
        let mut r = trickle("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        let a = read_request(&mut r).unwrap().unwrap();
        let b = read_request(&mut r).unwrap().unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn response_has_exact_content_length() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "OK",
            &[("X-Payless-Pages".into(), "3".into())],
            "application/octet-stream",
            b"abc",
            true,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("X-Payless-Pages: 3\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }
}
