//! The RESTful wire format.
//!
//! The paper's market is accessed over HTTP: a GET with the bound attributes
//! in the query string, tuples coming back in pages. This module makes that
//! concrete — [`encode_request`] renders a [`Request`] as the URL it would
//! be sent as, [`decode_request`] parses one back (the seller side), and
//! [`encode_rows`]/[`decode_rows`] give the response body a compact
//! length-prefixed binary framing. The simulator itself calls Rust methods
//! directly; the codec exists so the boundary is a real, testable protocol
//! (and is what a networked deployment of the simulator would speak).

use payless_types::{Constraint, PaylessError, Result, Row, Value};

use crate::request::Request;

/// Render a request as a URL path + query string, e.g.
/// `/v1/Weather?Country=eq:United%20States&Date=range:20140601..20140630`.
pub fn encode_request(req: &Request) -> String {
    let mut url = format!("/v1/{}", req.table);
    let mut first = true;
    for ac in &req.constraints {
        url.push(if first { '?' } else { '&' });
        first = false;
        url.push_str(&pct_encode(&ac.attr));
        url.push('=');
        match &ac.constraint {
            Constraint::Eq(Value::Str(s)) => {
                url.push_str("eq:");
                url.push_str(&pct_encode(s));
            }
            Constraint::Eq(v) => {
                url.push_str("eq:");
                url.push_str(&v.render());
            }
            Constraint::IntRange { lo, hi } => {
                url.push_str(&format!("range:{lo}..{hi}"));
            }
        }
    }
    url
}

/// Parse a request URL produced by [`encode_request`].
pub fn decode_request(url: &str) -> Result<Request> {
    let rest = url
        .strip_prefix("/v1/")
        .ok_or_else(|| parse_err("missing /v1/ prefix"))?;
    let (table, query) = match rest.split_once('?') {
        Some((t, q)) => (t, Some(q)),
        None => (rest, None),
    };
    if table.is_empty() {
        return Err(parse_err("empty table name"));
    }
    let mut req = Request::to(pct_decode(table)?);
    if let Some(query) = query {
        for pair in query.split('&') {
            let (attr, spec) = pair
                .split_once('=')
                .ok_or_else(|| parse_err("missing `=` in query pair"))?;
            let attr = pct_decode(attr)?;
            let constraint = if let Some(v) = spec.strip_prefix("eq:") {
                let decoded = pct_decode(v)?;
                match decoded.parse::<i64>() {
                    Ok(i) => Constraint::Eq(Value::int(i)),
                    Err(_) => Constraint::Eq(Value::str(decoded)),
                }
            } else if let Some(r) = spec.strip_prefix("range:") {
                let (lo, hi) = r
                    .split_once("..")
                    .ok_or_else(|| parse_err("range without `..`"))?;
                let lo: i64 = lo.parse().map_err(|_| parse_err("bad range lo"))?;
                let hi: i64 = hi.parse().map_err(|_| parse_err("bad range hi"))?;
                if lo > hi {
                    return Err(parse_err("empty range"));
                }
                Constraint::range(lo, hi)
            } else {
                return Err(parse_err("unknown constraint kind"));
            };
            req = req.with(attr, constraint);
        }
    }
    Ok(req)
}

/// Frame rows as a compact binary body:
/// `u32 row-count, then per row: u16 arity, then per value a tag byte
/// (0 = int, 1 = float, 2 = str) and the payload (i64/f64 LE, or u32
/// length-prefixed UTF-8)`.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + rows.len() * 32);
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        buf.extend_from_slice(&(row.arity() as u16).to_le_bytes());
        for v in row.values() {
            match v {
                Value::Int(x) => {
                    buf.push(0);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Float(x) => {
                    buf.push(1);
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                Value::Str(s) => {
                    buf.push(2);
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    buf
}

/// Decode a body produced by [`encode_rows`].
pub fn decode_rows(body: &[u8]) -> Result<Vec<Row>> {
    let mut cur = Cursor { body, pos: 0 };
    let n_rows = cur.u32()? as usize;
    // Reserve no more rows than the body can hold: each takes ≥ 2 bytes.
    let mut rows = Vec::with_capacity(n_rows.min((body.len() - cur.pos) / 2));
    for _ in 0..n_rows {
        let arity = cur.u16()? as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            match cur.u8()? {
                0 => values.push(Value::int(i64::from_le_bytes(
                    cur.take(8)?.try_into().unwrap(),
                ))),
                1 => values.push(Value::Float(f64::from_le_bytes(
                    cur.take(8)?.try_into().unwrap(),
                ))),
                2 => {
                    let len = cur.u32()? as usize;
                    let s = std::str::from_utf8(cur.take(len)?)
                        .map_err(|_| parse_err("invalid UTF-8 in string value"))?;
                    values.push(Value::str(s));
                }
                other => return Err(parse_err(&format!("unknown value tag {other}"))),
            }
        }
        rows.push(Row::new(values));
    }
    if cur.pos != cur.body.len() {
        return Err(parse_err("trailing bytes after last row"));
    }
    Ok(rows)
}

/// Bounds-checked reader over a response body.
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.body.len() - self.pos < n {
            return Err(parse_err("truncated response body"));
        }
        let out = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

fn parse_err(message: &str) -> PaylessError {
    PaylessError::Parse {
        position: 0,
        message: message.to_string(),
    }
}

/// Minimal percent-encoding for the characters our values can contain.
fn pct_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn pct_decode(s: &str) -> Result<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 2 >= bytes.len() {
                return Err(parse_err("truncated percent escape"));
            }
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3])
                .map_err(|_| parse_err("bad percent escape"))?;
            let v = u8::from_str_radix(hex, 16).map_err(|_| parse_err("bad percent escape"))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| parse_err("invalid UTF-8 after decoding"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_types::row;

    #[test]
    fn request_url_round_trip() {
        let req = Request::to("Weather")
            .with("Country", Constraint::eq("United States"))
            .with("Date", Constraint::range(20140601, 20140630));
        let url = encode_request(&req);
        assert_eq!(
            url,
            "/v1/Weather?Country=eq:United%20States&Date=range:20140601..20140630"
        );
        let back = decode_request(&url).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn unconstrained_download_url() {
        let req = Request::download("Station");
        assert_eq!(encode_request(&req), "/v1/Station");
        assert_eq!(decode_request("/v1/Station").unwrap(), req);
    }

    #[test]
    fn integer_equality_round_trips_as_int() {
        let req = Request::to("T").with("k", Constraint::Eq(Value::int(42)));
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(
            back.constraint_on("k"),
            Some(&Constraint::Eq(Value::int(42)))
        );
    }

    #[test]
    fn bad_urls_rejected() {
        assert!(decode_request("/v2/T").is_err());
        assert!(decode_request("/v1/").is_err());
        assert!(decode_request("/v1/T?x").is_err());
        assert!(decode_request("/v1/T?x=gt:5").is_err());
        assert!(decode_request("/v1/T?x=range:9..1").is_err());
        assert!(decode_request("/v1/T?x=range:a..b").is_err());
    }

    #[test]
    fn rows_round_trip() {
        let rows = vec![
            row!(1, "Seattle", -40),
            row!(2, "O'Hare & Co %20", 9_999_999_999i64),
            Row::new(vec![Value::Float(2.5), Value::str("")]),
        ];
        let body = encode_rows(&rows);
        let back = decode_rows(&body).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn empty_rows_round_trip() {
        let body = encode_rows(&[]);
        assert_eq!(decode_rows(&body).unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn truncated_bodies_rejected() {
        let rows = vec![row!(1, "x")];
        let body = encode_rows(&rows);
        for cut in [0, 3, 5, body.len() - 1] {
            assert!(decode_rows(&body[0..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is also rejected.
        let mut extended = body.clone();
        extended.push(7);
        assert!(decode_rows(&extended).is_err());
    }

    #[test]
    fn market_get_via_wire() {
        use crate::dataset::{Dataset, MarketTable};
        use crate::market::DataMarket;
        use payless_types::{Column, Domain, Schema};
        let schema = Schema::new(
            "T",
            vec![
                Column::free("k", Domain::int(0, 9)),
                Column::output("v", Domain::int(0, 99)),
            ],
        );
        let market = DataMarket::new(vec![Dataset::new("DS").with_page_size(10).with_table(
            MarketTable::new(
                schema,
                (0..10).map(|i| row!(i as i64, i as i64 * 11)).collect(),
            ),
        )]);
        // Client encodes, "server" decodes, executes, encodes the body back.
        let url = encode_request(&Request::to("T").with("k", Constraint::range(2, 4)));
        let req = decode_request(&url).unwrap();
        let resp = market.get(&req).unwrap();
        let body = encode_rows(&resp.rows);
        let rows = decode_rows(&body).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], row!(2, 22));
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<i64>().prop_map(Value::int),
                any::<f64>().prop_map(Value::Float),
                "[ -~]{0,24}".prop_map(Value::str), // printable ASCII incl. space
            ]
        }

        proptest! {
            #[test]
            fn rows_always_round_trip(
                raw in proptest::collection::vec(
                    proptest::collection::vec(arb_value(), 0..6), 0..12)
            ) {
                let rows: Vec<Row> = raw.into_iter().map(Row::new).collect();
                let back = decode_rows(&encode_rows(&rows)).unwrap();
                prop_assert_eq!(back, rows);
            }

            #[test]
            fn urls_always_round_trip(
                table in "[A-Za-z][A-Za-z0-9_]{0,12}",
                attr in "[A-Za-z][A-Za-z0-9_]{0,12}",
                sval in "[ -~]{1,16}",
                (lo, hi) in (-1000i64..1000).prop_flat_map(|a| (Just(a), a..1000)),
            ) {
                let req = Request::to(table)
                    .with(attr.clone(), Constraint::range(lo, hi));
                prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
                // String equality: skip values that parse as integers (they
                // round-trip as Int by design).
                if sval.parse::<i64>().is_err() {
                    let req2 = Request::to("T").with(attr, Constraint::eq(sval));
                    prop_assert_eq!(
                        decode_request(&encode_request(&req2)).unwrap(), req2);
                }
            }

            #[test]
            fn any_strict_prefix_is_rejected(
                raw in proptest::collection::vec(
                    proptest::collection::vec(arb_value(), 1..5), 1..8),
                cut_frac in 0.0f64..1.0,
            ) {
                let rows: Vec<Row> = raw.into_iter().map(Row::new).collect();
                let body = encode_rows(&rows);
                // Any strict prefix leaves the frame short of its declared
                // length and must be rejected.
                let cut = ((body.len() as f64 - 1.0) * cut_frac) as usize;
                prop_assert!(decode_rows(&body[..cut]).is_err());
            }

            #[test]
            fn flipping_a_count_byte_is_rejected(
                raw in proptest::collection::vec(
                    proptest::collection::vec(arb_value(), 1..5), 0..8),
                byte in 0usize..4,
                bit in 0u8..8,
            ) {
                let rows: Vec<Row> = raw.into_iter().map(Row::new).collect();
                let mut body = encode_rows(&rows);
                // Corrupting the u32 row count always desynchronizes the
                // frame: too many rows hits EOF, too few leaves trailing
                // bytes (rows are at least 3 bytes each).
                body[byte] ^= 1 << bit;
                prop_assert!(decode_rows(&body).is_err());
            }

            #[test]
            fn corrupt_body_is_always_rejected(
                raw in proptest::collection::vec(
                    proptest::collection::vec(arb_value(), 0..5), 0..8),
            ) {
                let rows: Vec<Row> = raw.into_iter().map(Row::new).collect();
                // The injector's mangle function must never produce a frame
                // the codec accepts — otherwise a Corrupt fault could leak
                // bad data to the engine as a clean delivery.
                let mangled = crate::fault::corrupt_body(&encode_rows(&rows));
                prop_assert!(decode_rows(&mangled).is_err());
            }
        }
    }
}
