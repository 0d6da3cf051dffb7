//! The per-query report: what a query cost, where the money went, and what
//! the optimizer and executor did to keep it low.
//!
//! A [`QueryReport`] is assembled by [`crate::PayLess`] after each traced
//! query from three sources: the session's own phase timers, the
//! optimizer's [`PlanCounters`], and the drained
//! [`payless_telemetry::TelemetrySnapshot`] (spend ledger, SQR hit/miss
//! statistics, operator spans, counters, histograms). The ledger inside is
//! auditable: its totals equal the billing meter's deltas for the query.

use payless_json::{Json, ToJson};
use payless_optimizer::PlanCounters;
use payless_stats::{QErrorAccumulator, QErrorSummary};
use payless_telemetry::{DatasetSpend, OperatorTrace, SpendCell, SqrStats, TelemetrySnapshot};

/// Everything observable about one executed query.
#[derive(Debug, Clone, Default)]
pub struct QueryReport {
    /// Parse + bind + analyze wall time (nanoseconds).
    pub analyze_nanos: u64,
    /// Plan-search wall time (nanoseconds).
    pub optimize_nanos: u64,
    /// Execution wall time (nanoseconds), including market calls.
    pub execute_nanos: u64,
    /// The optimizer's estimated cost (transactions, or calls in MinCalls
    /// mode).
    pub est_cost: f64,
    /// Transactions actually added to the bill by this query.
    pub paid_transactions: u64,
    /// Plan-search effort: plans costed and Theorem 2/3 pruning.
    pub counters: PlanCounters,
    /// Spend ledger, SQR statistics, operator spans, counters, histograms.
    pub telemetry: TelemetrySnapshot,
    /// Per-operator estimate-vs-actual traces, in the plan's pre-order
    /// (`EXPLAIN ANALYZE`). Empty when introspection was off.
    pub ops: Vec<OperatorTrace>,
    /// What the optimizer would have estimated with SQR disabled — the
    /// counterfactual price the store's coverage saved.
    pub est_no_sqr_cost: Option<f64>,
    /// The ideal Download-All price for the query's market tables (Eq. (1)
    /// over their full cardinalities): the paper's upper-bound baseline.
    pub download_all_cost: Option<f64>,
}

impl QueryReport {
    /// Total money spent by this query (sum of the ledger's priced pages).
    pub fn total_price(&self) -> f64 {
        self.telemetry.total_price()
    }

    /// Total pages (transactions) in the ledger. For a correctly wired
    /// pipeline this equals [`QueryReport::paid_transactions`].
    pub fn total_pages(&self) -> u64 {
        self.telemetry.total_pages()
    }

    /// Per-dataset spend rollup, in first-purchase order.
    pub fn spend_by_dataset(&self) -> Vec<DatasetSpend> {
        self.telemetry.spend_by_dataset()
    }

    /// SQR cache effectiveness for this query.
    pub fn sqr(&self) -> &SqrStats {
        &self.telemetry.sqr
    }

    /// Pages billed to operators (delivered + wasted), summed over the plan.
    /// Reconciles with [`QueryReport::total_pages`] when every call the
    /// query made belongs to an operator (i.e. not Download All's prefetch).
    pub fn operator_pages(&self) -> u64 {
        self.ops.iter().map(|o| o.actual.billed_pages()).sum()
    }

    /// Q-error summaries grouped by table, first-seen order.
    pub fn q_error_by_table(&self) -> Vec<(String, QErrorSummary)> {
        let mut groups: Vec<(String, QErrorAccumulator)> = Vec::new();
        for rec in &self.telemetry.qerrors {
            match groups.iter_mut().find(|(k, _)| *k == *rec.table) {
                Some((_, acc)) => acc.record(rec.q),
                None => {
                    let mut acc = QErrorAccumulator::new();
                    acc.record(rec.q);
                    groups.push((rec.table.to_string(), acc));
                }
            }
        }
        groups.into_iter().map(|(k, a)| (k, a.summary())).collect()
    }

    /// Spend attribution: dataset × call-kind cells, first-purchase order.
    pub fn spend_rollup(&self) -> Vec<SpendCell> {
        self.telemetry.spend_by_dataset_kind()
    }

    /// Estimated pages SQR saved this query (no-SQR estimate minus the
    /// chosen plan's estimate); `None` when the counterfactual wasn't costed.
    pub fn est_sqr_savings(&self) -> Option<f64> {
        self.est_no_sqr_cost.map(|n| n - self.est_cost)
    }

    /// Pages paid minus the ideal Download-All price: negative means the
    /// pay-as-you-go plan beat the download-everything baseline.
    pub fn regret_vs_download_all(&self) -> Option<f64> {
        self.download_all_cost
            .map(|d| self.paid_transactions as f64 - d)
    }

    /// Machine-readable form, consumed by the bench figure binaries and by
    /// `--trace`'s JSON output.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "phases",
                Json::obj([
                    ("analyze_nanos", self.analyze_nanos.to_json()),
                    ("optimize_nanos", self.optimize_nanos.to_json()),
                    ("execute_nanos", self.execute_nanos.to_json()),
                ]),
            ),
            ("est_cost", self.est_cost.to_json()),
            ("paid_transactions", self.paid_transactions.to_json()),
            (
                "plan_search",
                Json::obj([
                    ("plans_considered", self.counters.plans_considered.to_json()),
                    ("boxes_enumerated", self.counters.boxes_enumerated.to_json()),
                    ("boxes_kept", self.counters.boxes_kept.to_json()),
                    ("theorem2_hoisted", self.counters.theorem2_hoisted.to_json()),
                    (
                        "theorem3_composed",
                        self.counters.theorem3_composed.to_json(),
                    ),
                ]),
            ),
            ("telemetry", self.telemetry.to_json()),
            ("operators", self.ops.to_json()),
            (
                "q_error",
                Json::obj([
                    ("samples", (self.telemetry.qerrors.len() as u64).to_json()),
                    (
                        "by_table",
                        Json::Arr(
                            self.q_error_by_table()
                                .into_iter()
                                .map(|(k, s)| tagged_summary("table", k, s))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "rollup",
                Json::obj([
                    ("spend", self.spend_rollup().to_json()),
                    ("est_cost", self.est_cost.to_json()),
                    ("est_no_sqr_cost", self.est_no_sqr_cost.to_json()),
                    ("est_sqr_savings", self.est_sqr_savings().to_json()),
                    ("download_all_cost", self.download_all_cost.to_json()),
                    (
                        "regret_vs_download_all",
                        self.regret_vs_download_all().to_json(),
                    ),
                ]),
            ),
        ])
    }
}

/// A [`QErrorSummary`] object with a `{tag: name}` discriminator merged in.
fn tagged_summary(tag: &'static str, name: String, summary: QErrorSummary) -> Json {
    Json::obj([
        (tag, Json::Str(name)),
        ("count", summary.count.to_json()),
        ("geo_mean", summary.geo_mean.to_json()),
        ("p50", summary.p50.to_json()),
        ("p95", summary.p95.to_json()),
        ("max", summary.max.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_has_all_sections() {
        let report = QueryReport {
            analyze_nanos: 1,
            optimize_nanos: 2,
            execute_nanos: 3,
            est_cost: 4.5,
            paid_transactions: 6,
            ..Default::default()
        };
        let json = report.to_json();
        for key in [
            "phases",
            "est_cost",
            "paid_transactions",
            "plan_search",
            "telemetry",
        ] {
            assert!(json.get_opt(key).is_some(), "missing `{key}`");
        }
        assert_eq!(
            json.get_opt("phases").unwrap().get_opt("optimize_nanos"),
            Some(&Json::Int(2))
        );
        // The report round-trips through text as valid JSON.
        let text = json.to_string_pretty();
        payless_json::parse(&text).unwrap();
    }
}
