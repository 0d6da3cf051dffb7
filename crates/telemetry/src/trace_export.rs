//! Chrome-trace export: turn drained [`TelemetrySnapshot`]s into the JSON
//! object format understood by `chrome://tracing` and Perfetto.
//!
//! Each query becomes one logical thread (`tid`) inside a single process,
//! so a session's queries stack vertically in the viewer. Spans map to
//! complete (`"ph": "X"`) events; ledger lines and q-error scores map to
//! instant (`"ph": "i"`) events carrying their payload in `args`.
//! Timestamps are the recorder's epoch-relative nanosecond stamps, converted
//! to the microseconds the format requires.

use crate::TelemetrySnapshot;
use payless_json::{Json, ToJson};

/// Accumulates queries into one `chrome://tracing` document.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<Json>,
    queries: u64,
}

/// Microseconds (possibly fractional) from a nanosecond stamp.
fn us(nanos: u64) -> Json {
    (nanos as f64 / 1e3).to_json()
}

impl ChromeTraceBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries added so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// `true` when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add one query's drained telemetry as the next logical thread.
    /// `name` labels the thread lane (typically the SQL text).
    pub fn add_query(&mut self, name: &str, snap: &TelemetrySnapshot) {
        self.queries += 1;
        let tid = self.queries;
        let lane = |ph: &str, name: &str, ts: Json| {
            vec![
                ("name", Json::str(name)),
                ("ph", Json::str(ph)),
                ("pid", 1u64.to_json()),
                ("tid", tid.to_json()),
                ("ts", ts),
            ]
        };
        // Thread-name metadata so the viewer shows the SQL, not a number.
        self.events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", 1u64.to_json()),
            ("tid", tid.to_json()),
            ("args", Json::obj([("name", Json::str(name))])),
        ]));
        for sp in &snap.spans {
            let mut fields = lane("X", sp.label, us(sp.start_nanos));
            fields.push(("cat", Json::str("span")));
            fields.push(("dur", us(sp.nanos)));
            if let Some(d) = &sp.detail {
                fields.push(("args", Json::obj([("detail", Json::str(d.as_str()))])));
            }
            self.events.push(Json::obj(fields));
        }
        for t in &snap.ledger {
            let label = format!("buy {} ({})", t.table, t.kind.label());
            let mut fields = lane("i", &label, us(t.at_nanos));
            fields.push(("cat", Json::str("ledger")));
            fields.push(("s", Json::str("t")));
            fields.push(("args", t.to_json()));
            self.events.push(Json::obj(fields));
        }
        for q in &snap.qerrors {
            let label = format!("q-error {} ({})", q.table, q.estimator);
            // q-errors carry no stamp of their own; anchor them at the lane
            // end so they read as post-hoc scores.
            let at = snap.ledger.last().map(|t| t.at_nanos).unwrap_or_default();
            let mut fields = lane("i", &label, us(at));
            fields.push(("cat", Json::str("q-error")));
            fields.push(("s", Json::str("t")));
            fields.push(("args", q.to_json()));
            self.events.push(Json::obj(fields));
        }
    }

    /// Produce the final trace document. `other_data` is free-form metadata
    /// (the session-wide spend rollup goes here).
    pub fn finish(self, other_data: Json) -> Json {
        Json::obj([
            ("traceEvents", Json::Arr(self.events)),
            ("otherData", other_data),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CallKind, QErrorRecord, SpanRecord, TransactionRecord};
    use std::sync::Arc;

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: vec![SpanRecord {
                start_seq: 0,
                label: "phase.execute",
                detail: Some("Weather".into()),
                start_nanos: 1_000,
                nanos: 5_000,
            }],
            ledger: vec![TransactionRecord {
                seq: 0,
                dataset: Arc::from("WHW"),
                table: Arc::from("Weather"),
                kind: CallKind::Remainder,
                records: 250,
                page_size: 100,
                pages: 3,
                price: 3.0,
                wasted: false,
                at_nanos: 2_500,
            }],
            qerrors: vec![QErrorRecord {
                table: Arc::from("Weather"),
                estimator: "multi",
                estimate: 200.0,
                actual: 250,
                q: 1.25,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn export_round_trips_through_the_json_crate() {
        let mut b = ChromeTraceBuilder::new();
        assert!(b.is_empty());
        b.add_query("SELECT * FROM Weather", &snapshot());
        assert!(!b.is_empty());
        let doc = b.finish(Json::obj([("total_price", 3.0.to_json())]));
        let text = doc.to_string_pretty();
        let parsed = payless_json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // metadata + span + ledger + q-error
        assert_eq!(events.len(), 4);
        let span = events
            .iter()
            .find(|e| e.get_opt("ph").and_then(|p| p.as_str().ok()) == Some("X"))
            .expect("complete event for the span");
        assert_eq!(span.get("ts").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(span.get("dur").unwrap().as_f64().unwrap(), 5.0);
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e.get_opt("ph").and_then(|p| p.as_str().ok()) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(
            parsed
                .get("otherData")
                .unwrap()
                .get("total_price")
                .unwrap()
                .as_f64()
                .unwrap(),
            3.0
        );
    }

    #[test]
    fn queries_land_on_distinct_lanes() {
        let mut b = ChromeTraceBuilder::new();
        b.add_query("q1", &snapshot());
        b.add_query("q2", &snapshot());
        assert_eq!(b.queries(), 2);
        let doc = b.finish(Json::obj([]));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap().to_vec();
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(tids.len(), 2);
    }
}
