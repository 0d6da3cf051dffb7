//! The serving driver's reconciled report and its JSON shape — what
//! `payless --serve-out` dumps and `/v1/report` clients rebuild.

use std::collections::BTreeMap;

use payless_json::{Json, ToJson};
use payless_telemetry::TelemetrySnapshot;
use payless_workload::QuerySpend;

use crate::watchdog::TableDrift;

/// What a query's private recorder says it spent: the ledger totals the
/// call layer booked plus the coalescing counters.
pub fn query_spend(snap: &TelemetrySnapshot) -> QuerySpend {
    QuerySpend {
        pages: snap.total_pages(),
        wasted_pages: snap.wasted_pages(),
        records: snap.total_records(),
        price: snap.total_price(),
        coalesce_waits: snap.counter("coalesce.waits"),
        saved_pages: snap.counter("coalesce.saved_pages"),
    }
}

/// One query of the mix, in global submission order. Submission order is
/// identical across thread counts, so tests compare rows pairwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryRow {
    /// The query's causal id (the serving layer's logical-clock tick) —
    /// the id its flight-recorder events carry and `\why` takes.
    pub query_id: u64,
    /// Client session that issued the query.
    pub client: u64,
    /// Workload template index.
    pub template: u64,
    /// Order-insensitive digest of the result rows
    /// ([`crate::digest_rows`]).
    pub digest: u64,
    /// Result row count.
    pub rows: u64,
    /// What the query spent; in JSON its facts are flat members of the row.
    pub spend: QuerySpend,
    /// End-to-end wall-clock latency of the query, in nanoseconds.
    pub wall_nanos: u64,
}

impl ToJson for QueryRow {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("query_id", self.query_id.to_json()),
            ("client", self.client.to_json()),
            ("template", self.template.to_json()),
            ("digest", self.digest.to_json()),
            ("rows", self.rows.to_json()),
        ];
        members.extend(self.spend.json_members());
        members.push(("wall_nanos", self.wall_nanos.to_json()));
        Json::obj(members)
    }
}

impl ToJson for TableDrift {
    fn to_json(&self) -> Json {
        Json::obj([
            ("table", self.table.to_json()),
            ("attributed_pages", self.attributed_pages.to_json()),
            ("meter_pages", self.meter_pages.to_json()),
        ])
    }
}

/// Spend attributed to one client session across the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpend {
    /// Client session index.
    pub client: u64,
    /// Queries the client issued.
    pub queries: u64,
    /// Pages billed to the client's queries.
    pub pages: u64,
    /// Money billed to the client's queries.
    pub price: f64,
    /// Median end-to-end query latency for this client, in nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile end-to-end query latency, in nanoseconds.
    pub p95_nanos: u64,
    /// 99th-percentile end-to-end query latency, in nanoseconds.
    pub p99_nanos: u64,
}

impl ClientSpend {
    /// Client `client`'s totals over its (one or more) queries, with exact
    /// nearest-rank latency percentiles.
    fn of(client: u64, rows: &[&QueryRow]) -> ClientSpend {
        let mut samples: Vec<u64> = rows.iter().map(|q| q.wall_nanos).collect();
        samples.sort_unstable();
        let rank = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
        ClientSpend {
            client,
            queries: rows.len() as u64,
            pages: rows.iter().map(|q| q.spend.pages).sum(),
            price: rows.iter().fold(0.0, |a, q| a + q.spend.price),
            p50_nanos: rank(0.50),
            p95_nanos: rank(0.95),
            p99_nanos: rank(0.99),
        }
    }
}

impl ToJson for ClientSpend {
    fn to_json(&self) -> Json {
        Json::obj([
            ("client", self.client.to_json()),
            ("queries", self.queries.to_json()),
            ("pages", self.pages.to_json()),
            ("price", self.price.to_json()),
            ("p50_nanos", self.p50_nanos.to_json()),
            ("p95_nanos", self.p95_nanos.to_json()),
            ("p99_nanos", self.p99_nanos.to_json()),
        ])
    }
}

/// One serve run, reconciled: the driver asserts Σ per-query ledger pages
/// equals the meter's transaction delta before this report exists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Mix seed (filled by the caller that built the mix).
    pub seed: u64,
    /// Client sessions in the mix (filled by the caller).
    pub clients: u64,
    /// Worker threads that replayed the mix.
    pub threads: u64,
    /// Queries replayed.
    pub queries: u64,
    /// Market page size (filled by the caller).
    pub page_size: u64,
    /// Was single-flight coalescing on?
    pub coalesce: bool,
    /// Fault-injection seed, if the market was fault-injected (caller).
    pub fault_seed: Option<u64>,
    /// Total result rows across queries.
    pub total_rows: u64,
    /// Σ per-query ledger pages (== meter transaction delta).
    pub total_pages: u64,
    /// Pages billed without a usable delivery.
    pub wasted_pages: u64,
    /// Records delivered across queries.
    pub total_records: u64,
    /// Money billed across queries.
    pub total_price: f64,
    /// Total coalescing waits.
    pub coalesce_waits: u64,
    /// Estimated pages avoided by coalescing waits.
    pub saved_pages: u64,
    /// Market calls in the meter delta.
    pub meter_calls: u64,
    /// Meter transaction (page) delta — the seller's view of the bill.
    pub meter_transactions: u64,
    /// Meter record delta. Under injected truncation the seller counts
    /// pre-truncation records the buyer never saw, so this only equals
    /// [`ServeReport::total_records`] on clean runs.
    pub meter_records: u64,
    /// Mid-run reconciliation samples taken by the watchdog.
    pub watchdog_samples: u64,
    /// Largest in-flight drift (meter minus attributed pages) the
    /// watchdog sampled; returns to 0 at quiescence.
    pub watchdog_max_drift_pages: u64,
    /// Per-table breakdown from the watchdog's last reconciliation (the
    /// exit reconciliation on a completed mix): attributed vs metered
    /// pages for every table the run touched.
    pub watchdog_tables: Vec<TableDrift>,
    /// Spend attribution by client.
    pub per_client: Vec<ClientSpend>,
    /// Every query, in global submission order.
    pub per_query: Vec<QueryRow>,
}

impl ServeReport {
    /// The part of a report that follows from its rows: totals, per-client
    /// attribution with latency percentiles, and the meter delta
    /// `(calls, transactions, records)` they are reconciled against. The
    /// caller fills in what it alone knows (seed, threads, watchdog, ...).
    pub fn from_rows(per_query: Vec<QueryRow>, meter_delta: (u64, u64, u64)) -> ServeReport {
        let mut by_client: BTreeMap<u64, Vec<&QueryRow>> = BTreeMap::new();
        for q in &per_query {
            by_client.entry(q.client).or_default().push(q);
        }
        let per_client = by_client
            .iter()
            .map(|(client, rows)| ClientSpend::of(*client, rows))
            .collect();
        let sum = |fact: fn(&QuerySpend) -> u64| per_query.iter().map(|q| fact(&q.spend)).sum();
        ServeReport {
            queries: per_query.len() as u64,
            total_rows: per_query.iter().map(|q| q.rows).sum(),
            total_pages: sum(|s| s.pages),
            wasted_pages: sum(|s| s.wasted_pages),
            total_records: sum(|s| s.records),
            total_price: per_query.iter().fold(0.0, |a, q| a + q.spend.price),
            coalesce_waits: sum(|s| s.coalesce_waits),
            saved_pages: sum(|s| s.saved_pages),
            meter_calls: meter_delta.0,
            meter_transactions: meter_delta.1,
            meter_records: meter_delta.2,
            per_client,
            per_query,
            ..ServeReport::default()
        }
    }

    /// Pages billed for usable deliveries (total minus wasted). This is
    /// the quantity that can only shrink when coalescing is on: wasted
    /// pages depend on where injected faults land, which differs across
    /// interleavings.
    pub fn delivered_pages(&self) -> u64 {
        self.total_pages - self.wasted_pages
    }
}

impl ToJson for ServeReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.to_json()),
            ("clients", self.clients.to_json()),
            ("threads", self.threads.to_json()),
            ("queries", self.queries.to_json()),
            ("page_size", self.page_size.to_json()),
            ("coalesce", Json::Bool(self.coalesce)),
            (
                "fault_seed",
                match self.fault_seed {
                    Some(s) => s.to_json(),
                    None => Json::Null,
                },
            ),
            ("total_rows", self.total_rows.to_json()),
            ("total_pages", self.total_pages.to_json()),
            ("wasted_pages", self.wasted_pages.to_json()),
            ("total_records", self.total_records.to_json()),
            ("total_price", self.total_price.to_json()),
            ("coalesce_waits", self.coalesce_waits.to_json()),
            ("saved_pages", self.saved_pages.to_json()),
            ("meter_calls", self.meter_calls.to_json()),
            ("meter_transactions", self.meter_transactions.to_json()),
            ("meter_records", self.meter_records.to_json()),
            ("watchdog_samples", self.watchdog_samples.to_json()),
            (
                "watchdog_max_drift_pages",
                self.watchdog_max_drift_pages.to_json(),
            ),
            (
                "watchdog_tables",
                Json::Arr(self.watchdog_tables.iter().map(|t| t.to_json()).collect()),
            ),
            (
                "per_client",
                Json::Arr(self.per_client.iter().map(|c| c.to_json()).collect()),
            ),
            (
                "per_query",
                Json::Arr(self.per_query.iter().map(|q| q.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys of a JSON object, in emission order.
    fn keys(j: &Json) -> Vec<&str> {
        j.as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn serve_out_json_key_set_is_pinned() {
        let report = ServeReport {
            seed: 48879,
            clients: 4,
            threads: 4,
            queries: 2,
            page_size: 1,
            coalesce: true,
            fault_seed: Some(7),
            total_rows: 10,
            total_pages: 12,
            wasted_pages: 2,
            total_records: 12,
            total_price: 0.6,
            coalesce_waits: 1,
            saved_pages: 3,
            meter_calls: 5,
            meter_transactions: 12,
            meter_records: 14,
            watchdog_samples: 2,
            watchdog_max_drift_pages: 4,
            watchdog_tables: vec![TableDrift {
                table: "T".into(),
                attributed_pages: 12,
                meter_pages: 12,
            }],
            per_client: vec![ClientSpend {
                client: 0,
                queries: 2,
                pages: 12,
                price: 0.6,
                p50_nanos: 1_000,
                p95_nanos: 9_000,
                p99_nanos: 9_500,
            }],
            per_query: vec![QueryRow {
                query_id: 2,
                client: 0,
                template: 1,
                digest: u64::MAX - 3, // exceeds i64: exercises the string fallback
                rows: 5,
                spend: QuerySpend {
                    pages: 6,
                    wasted_pages: 1,
                    records: 6,
                    price: 0.3,
                    coalesce_waits: 1,
                    saved_pages: 3,
                },
                wall_nanos: 5_500,
            }],
        };
        assert_eq!(report.delivered_pages(), 10);
        let j = report.to_json();
        assert_eq!(
            keys(&j),
            [
                "seed",
                "clients",
                "threads",
                "queries",
                "page_size",
                "coalesce",
                "fault_seed",
                "total_rows",
                "total_pages",
                "wasted_pages",
                "total_records",
                "total_price",
                "coalesce_waits",
                "saved_pages",
                "meter_calls",
                "meter_transactions",
                "meter_records",
                "watchdog_samples",
                "watchdog_max_drift_pages",
                "watchdog_tables",
                "per_client",
                "per_query",
            ]
        );
        let first = |key: &str| &j.get(key).unwrap().as_arr().unwrap()[0];
        assert_eq!(
            keys(first("watchdog_tables")),
            ["table", "attributed_pages", "meter_pages"]
        );
        assert_eq!(
            keys(first("per_client")),
            [
                "client",
                "queries",
                "pages",
                "price",
                "p50_nanos",
                "p95_nanos",
                "p99_nanos"
            ]
        );
        assert_eq!(
            keys(first("per_query")),
            [
                "query_id",
                "client",
                "template",
                "digest",
                "rows",
                "pages",
                "wasted_pages",
                "records",
                "price",
                "coalesce_waits",
                "saved_pages",
                "wall_nanos",
            ]
        );
        assert_eq!(j.get("fault_seed").unwrap().as_u64().unwrap(), 7);
        assert_eq!(
            first("per_query").get("digest").unwrap(),
            &Json::Str((u64::MAX - 3).to_string())
        );
        let clean = ServeReport::default().to_json();
        assert_eq!(clean.get("fault_seed").unwrap(), &Json::Null);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let row = |wall_nanos| QueryRow {
            wall_nanos,
            ..QueryRow::default()
        };
        let rows: Vec<QueryRow> = (1..=100).rev().map(row).collect();
        let spend = ClientSpend::of(0, &rows.iter().collect::<Vec<_>>());
        assert_eq!(spend.queries, 100);
        assert_eq!(spend.p50_nanos, 51); // round(99 * .5) = 50 → samples[50]
        assert_eq!(spend.p95_nanos, 95);
        assert_eq!(spend.p99_nanos, 99);

        let single = ClientSpend::of(1, &[&row(42)]);
        assert_eq!((single.p50_nanos, single.p99_nanos), (42, 42));
    }
}
