//! Telemetry for PayLess: the spend ledger, span/event recorder, and typed
//! metrics every layer of the pipeline reports into.
//!
//! The paper's experiments are all plots of *money* (transactions bought),
//! optimizer effort, and cache behaviour; this crate is the single place
//! those numbers are collected so a query's bill is auditable end to end.
//!
//! Design constraints:
//! - no external dependencies (`std::sync::Mutex`, no `tracing`), so the
//!   offline build keeps working;
//! - a caller that records nothing holds no [`Recorder`] (every attach
//!   point is an `Option`), so it pays nothing;
//! - all payload strings are either `&'static str` labels or built lazily
//!   via closures that only run when a recorder is attached.

mod metrics;
mod recorder;
mod trace_export;

pub use metrics::{Histogram, HistogramSummary};
pub use recorder::{Recorder, SpanGuard};
pub use trace_export::ChromeTraceBuilder;

use payless_json::{Json, ToJson};
use std::sync::Arc;

/// Why the market was called: the three call shapes PayLess issues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Point probe issued per binding combination of a bind join.
    BindProbe,
    /// Bulk download of a table (or the bound slices of one).
    Download,
    /// Remainder query left after subtracting SQR-covered regions.
    #[default]
    Remainder,
}

impl CallKind {
    pub fn label(self) -> &'static str {
        match self {
            CallKind::BindProbe => "bind-probe",
            CallKind::Download => "download",
            CallKind::Remainder => "remainder",
        }
    }
}

/// One market transaction, as appended to the spend ledger.
///
/// `pages` is the number of billable transactions for the call, i.e.
/// `ceil(records / page_size)` per Eq. 1 of the paper; `price` is what the
/// provider charged for those pages.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionRecord {
    /// Position in the ledger (0-based, per recorder lifetime).
    pub seq: u64,
    /// Dataset (provider) the table belongs to.
    pub dataset: Arc<str>,
    /// Table the call hit.
    pub table: Arc<str>,
    /// What kind of call the executor issued.
    pub kind: CallKind,
    /// Tuples returned by the call.
    pub records: u64,
    /// Provider's page size `t`.
    pub page_size: u64,
    /// Billable pages: `ceil(records / page_size)`.
    pub pages: u64,
    /// Money charged for this call.
    pub price: f64,
    /// Was this spend wasted? `true` when the call was billed but its
    /// payload never became usable data (truncated or corrupt delivery);
    /// the resilient call layer re-buys such pages on retry.
    pub wasted: bool,
    /// Nanoseconds since the recorder's current epoch (query start); filled
    /// in by the recorder like `seq`.
    pub at_nanos: u64,
}

impl ToJson for TransactionRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", self.seq.to_json()),
            ("dataset", self.dataset.to_json()),
            ("table", self.table.to_json()),
            ("kind", Json::str(self.kind.label())),
            ("records", self.records.to_json()),
            ("page_size", self.page_size.to_json()),
            ("pages", self.pages.to_json()),
            ("price", self.price.to_json()),
            ("wasted", self.wasted.to_json()),
            ("at_nanos", self.at_nanos.to_json()),
        ])
    }
}

/// SQR (semantic query rewriting) cache outcome counts.
///
/// A *full hit* answers a region entirely from stored views (nothing
/// purchased); a *partial hit* buys only remainder boxes; a *miss* buys the
/// whole region (no usable views, or SQR disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqrStats {
    pub full_hits: u64,
    pub partial_hits: u64,
    pub misses: u64,
}

impl SqrStats {
    pub fn total(&self) -> u64 {
        self.full_hits + self.partial_hits + self.misses
    }
}

impl ToJson for SqrStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("full_hits", self.full_hits.to_json()),
            ("partial_hits", self.partial_hits.to_json()),
            ("misses", self.misses.to_json()),
        ])
    }
}

/// A completed timed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Order in which the span was *opened* (0-based).
    pub start_seq: u64,
    pub label: &'static str,
    /// Lazily built detail string (only materialised while recording).
    pub detail: Option<String>,
    /// Nanoseconds since the recorder's epoch when the span opened.
    pub start_nanos: u64,
    pub nanos: u64,
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("start_seq", self.start_seq.to_json()),
            ("label", Json::str(self.label)),
            ("detail", self.detail.to_json()),
            ("start_nanos", self.start_nanos.to_json()),
            ("nanos", self.nanos.to_json()),
        ])
    }
}

/// One scored cardinality estimate: what the statistics layer predicted for
/// a purchased region versus the records the market actually returned.
///
/// Appended at the executor's feedback chokepoint *before* the actual is
/// folded back into the histogram, so `q` measures the estimate the
/// optimizer actually planned with.
#[derive(Debug, Clone, PartialEq)]
pub struct QErrorRecord {
    /// Table the estimate was for.
    pub table: Arc<str>,
    /// Predicted cardinality.
    pub estimate: f64,
    /// Records the market actually delivered.
    pub actual: u64,
    /// The q-error: `max(est/actual, actual/est)`, clamped (see
    /// `payless_stats::q_error`). Always `>= 1`.
    pub q: f64,
}

impl ToJson for QErrorRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("table", self.table.to_json()),
            ("estimate", self.estimate.to_json()),
            ("actual", self.actual.to_json()),
            ("q", self.q.to_json()),
        ])
    }
}

/// The optimizer's belief about one plan operator, captured when the plan
/// was chosen (`EXPLAIN` side of `EXPLAIN ANALYZE`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorEstimate {
    /// Estimated rows flowing out of the operator.
    pub rows: f64,
    /// Estimated billable pages (transactions) the operator purchases.
    pub pages: f64,
    /// Estimated money, under the market's unit page price.
    pub price: f64,
    /// Estimated market calls the operator issues.
    pub calls: f64,
    /// SQR-coverage assumption: fraction of the operator's region the
    /// semantic store does *not* cover (1.0 = nothing reusable, 0.0 = fully
    /// covered). `None` for operators that never touch the market.
    pub uncovered_fraction: Option<f64>,
    /// `true` when Theorem 2 hoisted this operator into the zero-price
    /// prefix (its inputs cost no money, so DP never enumerated it).
    pub zero_price: bool,
    /// Which part of the plan search produced this operator.
    pub provenance: &'static str,
}

impl ToJson for OperatorEstimate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("pages", self.pages.to_json()),
            ("price", self.price.to_json()),
            ("calls", self.calls.to_json()),
            ("uncovered_fraction", self.uncovered_fraction.to_json()),
            ("zero_price", self.zero_price.to_json()),
            ("provenance", Json::str(self.provenance)),
        ])
    }
}

/// What one plan operator actually did during execution (`ANALYZE` side).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorActual {
    /// Rows the operator produced.
    pub rows: u64,
    /// Records the market delivered to this operator.
    pub records: u64,
    /// Billable pages of *usable* deliveries attributed to this operator.
    pub pages: u64,
    /// Billable pages bought but never usable (truncated/corrupt payloads
    /// re-bought on retry).
    pub wasted_pages: u64,
    /// Market calls issued (successful final attempts).
    pub calls: u64,
    /// Extra attempts beyond the first, across all of the operator's calls.
    pub retries: u64,
    /// Wall time spent inside the operator (includes its children).
    pub nanos: u64,
}

impl OperatorActual {
    /// Everything billed on behalf of this operator: usable plus wasted.
    pub fn billed_pages(&self) -> u64 {
        self.pages + self.wasted_pages
    }
}

impl ToJson for OperatorActual {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("records", self.records.to_json()),
            ("pages", self.pages.to_json()),
            ("wasted_pages", self.wasted_pages.to_json()),
            ("calls", self.calls.to_json()),
            ("retries", self.retries.to_json()),
            ("nanos", self.nanos.to_json()),
        ])
    }
}

/// One node of an `EXPLAIN ANALYZE` tree: estimate and actual side by side.
///
/// Nodes are stored in pre-order; `id` is the pre-order index and `parent`
/// links the tree back together for renderers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorTrace {
    /// Pre-order index of the node in its plan.
    pub id: usize,
    /// Pre-order index of the parent (`None` for the root).
    pub parent: Option<usize>,
    /// Depth in the tree (root = 0), for indentation.
    pub depth: usize,
    /// Operator label, e.g. `"fetch Weather"`, `"bind-join Quote"`, `"⋈"`.
    pub label: String,
    /// Table the operator reads, when it reads one.
    pub table: Option<String>,
    /// The optimizer's belief.
    pub est: OperatorEstimate,
    /// What execution observed.
    pub actual: OperatorActual,
}

impl ToJson for OperatorTrace {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.to_json()),
            ("parent", self.parent.map(|p| p as u64).to_json()),
            ("depth", self.depth.to_json()),
            ("label", self.label.to_json()),
            ("table", self.table.to_json()),
            ("est", self.est.to_json()),
            ("actual", self.actual.to_json()),
        ])
    }
}

/// Everything a [`Recorder`] captured, drained at end of query.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub ledger: Vec<TransactionRecord>,
    pub sqr: SqrStats,
    pub spans: Vec<SpanRecord>,
    /// Cardinality estimates scored against market actuals, in feedback
    /// order.
    pub qerrors: Vec<QErrorRecord>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Duration histograms (nanoseconds), sorted by name.
    pub durations: Vec<(&'static str, HistogramSummary)>,
    /// Size histograms (bytes or tuples), sorted by name.
    pub sizes: Vec<(&'static str, HistogramSummary)>,
}

impl TelemetrySnapshot {
    /// Total money across the ledger.
    pub fn total_price(&self) -> f64 {
        // fold, not sum(): an empty f64 sum() is -0.0, which would render
        // as "$-0.00" for free queries.
        self.ledger.iter().fold(0.0, |acc, t| acc + t.price)
    }

    /// Total billable pages across the ledger.
    pub fn total_pages(&self) -> u64 {
        self.ledger.iter().map(|t| t.pages).sum()
    }

    /// Total tuples purchased across the ledger.
    pub fn total_records(&self) -> u64 {
        self.ledger.iter().map(|t| t.records).sum()
    }

    /// Value of the monotonic counter `name`; 0 when it never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Calls billed without a usable delivery (truncated/corrupt payloads).
    pub fn wasted_calls(&self) -> u64 {
        self.ledger.iter().filter(|t| t.wasted).count() as u64
    }

    /// Pages billed without a usable delivery.
    pub fn wasted_pages(&self) -> u64 {
        self.ledger
            .iter()
            .filter(|t| t.wasted)
            .map(|t| t.pages)
            .sum()
    }

    /// Money billed without a usable delivery.
    pub fn wasted_price(&self) -> f64 {
        self.ledger
            .iter()
            .filter(|t| t.wasted)
            .fold(0.0, |acc, t| acc + t.price)
    }

    /// Pages billed for calls whose payload *was* delivered. Together with
    /// [`TelemetrySnapshot::wasted_pages`] this partitions
    /// [`TelemetrySnapshot::total_pages`]: the billing meter's total must
    /// always reconcile to `delivered + wasted` (Eq. (1) over successful
    /// deliveries plus explicitly-accounted wasted spend).
    pub fn delivered_pages(&self) -> u64 {
        self.total_pages() - self.wasted_pages()
    }

    /// Per-dataset spend roll-up, in first-seen order.
    pub fn spend_by_dataset(&self) -> Vec<DatasetSpend> {
        let mut out: Vec<DatasetSpend> = Vec::new();
        for t in &self.ledger {
            match out.iter_mut().find(|d| d.dataset == t.dataset) {
                Some(d) => d.absorb(t),
                None => {
                    let mut d = DatasetSpend::new(t.dataset.clone());
                    d.absorb(t);
                    out.push(d);
                }
            }
        }
        out
    }

    /// Spend attribution at dataset × call-kind granularity, in first-seen
    /// order: which provider got paid, and for which call shape.
    pub fn spend_by_dataset_kind(&self) -> Vec<SpendCell> {
        let mut out: Vec<SpendCell> = Vec::new();
        for t in &self.ledger {
            match out
                .iter_mut()
                .find(|c| c.dataset == t.dataset && c.kind == t.kind)
            {
                Some(c) => c.absorb(t),
                None => {
                    let mut c = SpendCell {
                        dataset: t.dataset.clone(),
                        kind: t.kind,
                        calls: 0,
                        records: 0,
                        pages: 0,
                        price: 0.0,
                    };
                    c.absorb(t);
                    out.push(c);
                }
            }
        }
        out
    }
}

/// One cell of the dataset × call-kind spend-attribution rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct SpendCell {
    pub dataset: Arc<str>,
    pub kind: CallKind,
    pub calls: u64,
    pub records: u64,
    pub pages: u64,
    pub price: f64,
}

impl SpendCell {
    fn absorb(&mut self, t: &TransactionRecord) {
        self.calls += 1;
        self.records += t.records;
        self.pages += t.pages;
        self.price += t.price;
    }
}

impl ToJson for SpendCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.to_json()),
            ("kind", Json::str(self.kind.label())),
            ("calls", self.calls.to_json()),
            ("records", self.records.to_json()),
            ("pages", self.pages.to_json()),
            ("price", self.price.to_json()),
        ])
    }
}

impl ToJson for TelemetrySnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("ledger", self.ledger.to_json()),
            ("sqr", self.sqr.to_json()),
            ("spans", self.spans.to_json()),
            ("q_errors", self.qerrors.to_json()),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "durations",
                Json::Obj(
                    self.durations
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "sizes",
                Json::Obj(
                    self.sizes
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-dataset roll-up of ledger lines.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpend {
    pub dataset: Arc<str>,
    pub calls: u64,
    pub records: u64,
    pub pages: u64,
    pub price: f64,
}

impl DatasetSpend {
    fn new(dataset: Arc<str>) -> Self {
        DatasetSpend {
            dataset,
            calls: 0,
            records: 0,
            pages: 0,
            price: 0.0,
        }
    }

    fn absorb(&mut self, t: &TransactionRecord) {
        self.calls += 1;
        self.records += t.records;
        self.pages += t.pages;
        self.price += t.price;
    }
}

impl ToJson for DatasetSpend {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.to_json()),
            ("calls", self.calls.to_json()),
            ("records", self.records.to_json()),
            ("pages", self.pages.to_json()),
            ("price", self.price.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(dataset: &str, records: u64, page: u64, price: f64) -> TransactionRecord {
        TransactionRecord {
            seq: 0,
            dataset: Arc::from(dataset),
            table: Arc::from("T"),
            kind: CallKind::Remainder,
            records,
            page_size: page,
            pages: records.div_ceil(page),
            price,
            wasted: false,
            at_nanos: 0,
        }
    }

    #[test]
    fn wasted_spend_partitions_the_ledger() {
        let mut bad = tx("a", 20, 4, 5.0);
        bad.wasted = true;
        let snap = TelemetrySnapshot {
            ledger: vec![tx("a", 10, 4, 3.0), bad, tx("b", 4, 4, 1.0)],
            ..Default::default()
        };
        assert_eq!(snap.total_pages(), 3 + 5 + 1);
        assert_eq!(snap.wasted_calls(), 1);
        assert_eq!(snap.wasted_pages(), 5);
        assert_eq!(snap.delivered_pages(), 4);
        assert!((snap.wasted_price() - 5.0).abs() < 1e-12);
        assert_eq!(
            snap.delivered_pages() + snap.wasted_pages(),
            snap.total_pages()
        );
        // An all-clean ledger wastes nothing, positively-signed.
        let clean = TelemetrySnapshot::default();
        assert_eq!(clean.wasted_pages(), 0);
        assert!(clean.wasted_price() == 0.0 && clean.wasted_price().is_sign_positive());
    }

    #[test]
    fn snapshot_rolls_up_by_dataset() {
        let snap = TelemetrySnapshot {
            ledger: vec![tx("a", 10, 4, 3.0), tx("b", 0, 4, 0.0), tx("a", 5, 4, 2.0)],
            ..Default::default()
        };
        assert_eq!(snap.total_records(), 15);
        assert_eq!(snap.total_pages(), 5); // 3 + 0 + 2
        assert!((snap.total_price() - 5.0).abs() < 1e-12);

        // An empty ledger's total must be positive zero ("-0.00" is not a
        // price a free query should display).
        let empty = TelemetrySnapshot::default();
        assert!(empty.total_price() == 0.0 && empty.total_price().is_sign_positive());
        let spend = snap.spend_by_dataset();
        assert_eq!(spend.len(), 2);
        assert_eq!(spend[0].dataset.as_ref(), "a");
        assert_eq!(spend[0].calls, 2);
        assert_eq!(spend[0].pages, 5);
        assert_eq!(spend[1].dataset.as_ref(), "b");
        assert_eq!(spend[1].pages, 0);
    }

    #[test]
    fn snapshot_rolls_up_by_dataset_and_kind() {
        let mut probe = tx("a", 3, 4, 1.0);
        probe.kind = CallKind::BindProbe;
        let snap = TelemetrySnapshot {
            ledger: vec![tx("a", 10, 4, 3.0), probe, tx("a", 5, 4, 2.0)],
            ..Default::default()
        };
        let cells = snap.spend_by_dataset_kind();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].kind, CallKind::Remainder);
        assert_eq!(cells[0].calls, 2);
        assert_eq!(cells[0].pages, 5);
        assert_eq!(cells[1].kind, CallKind::BindProbe);
        assert_eq!(cells[1].pages, 1);
        let j = cells[1].to_json();
        assert_eq!(j.get("kind").unwrap().as_str().unwrap(), "bind-probe");
    }

    #[test]
    fn operator_trace_serialises_est_and_actual() {
        let op = OperatorTrace {
            id: 1,
            parent: Some(0),
            depth: 1,
            label: "fetch Weather".into(),
            table: Some("Weather".into()),
            est: OperatorEstimate {
                rows: 120.0,
                pages: 2.0,
                price: 2.0,
                calls: 1.0,
                uncovered_fraction: Some(0.25),
                zero_price: false,
                provenance: "dp-left-deep",
            },
            actual: OperatorActual {
                rows: 110,
                records: 110,
                pages: 2,
                wasted_pages: 1,
                calls: 1,
                retries: 1,
                nanos: 42,
            },
        };
        assert_eq!(op.actual.billed_pages(), 3);
        let j = op.to_json();
        assert_eq!(
            j.get("est")
                .unwrap()
                .get("pages")
                .unwrap()
                .as_f64()
                .unwrap(),
            2.0
        );
        assert_eq!(
            j.get("actual")
                .unwrap()
                .get("wasted_pages")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
        assert_eq!(j.get("parent").unwrap().as_u64().unwrap(), 0);
    }

    #[test]
    fn snapshot_serialises() {
        let snap = TelemetrySnapshot {
            ledger: vec![tx("a", 10, 4, 3.0)],
            sqr: SqrStats {
                full_hits: 1,
                partial_hits: 2,
                misses: 3,
            },
            ..Default::default()
        };
        let j = snap.to_json();
        assert_eq!(
            j.get("sqr")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64()
                .unwrap(),
            3
        );
        let ledger = j.get("ledger").unwrap().as_arr().unwrap();
        assert_eq!(ledger[0].get("pages").unwrap().as_u64().unwrap(), 3);
    }
}
