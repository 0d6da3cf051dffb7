//! Plan-introspection acceptance suite: estimate-vs-actual operator traces,
//! q-error scoring, Chrome-trace export, and the
//! page-attribution invariant (Σ per-operator billed pages == the query's
//! telemetry ledger total), including under injected market faults.

use std::sync::Arc;

use payless_core::{
    ChromeTraceBuilder, DataMarket, FaultInjector, FaultPlan, Mode, PayLess, RetryPolicy, Serve,
    ServeConfig,
};
use payless_json::{Json, ToJson};
use payless_workload::{
    build_market, Finance, FinanceConfig, QueryWorkload, RealWorkload, WhwConfig,
};

/// The three market-call shapes: a plain remainder fetch, an overlapping
/// fetch that exercises SQR remainders, and a join.
const QUERIES: [&str; 3] = [
    "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
     Weather.Date >= 5 AND Weather.Date <= 9",
    "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
     Weather.Date >= 5 AND Weather.Date <= 20",
    "SELECT * FROM Station, Weather WHERE Station.Country = Weather.Country = \
     'Country2' AND Station.StationID = Weather.StationID AND \
     Weather.Date >= 1 AND Weather.Date <= 10",
];

fn whw_session(cfg: ServeConfig, mode: Mode) -> (Arc<DataMarket>, PayLess) {
    let workload = RealWorkload::generate(&WhwConfig {
        stations: 48,
        countries: 4,
        cities_per_country: 3,
        days: 60,
        zips: 60,
        ranks: 100,
        seed: 3,
    });
    let market = Arc::new(build_market(&workload, 100));
    let serve = Serve::new(market.clone(), QueryWorkload::local_tables(&workload), cfg);
    let mut pl = PayLess::over(serve, mode);
    pl.enable_tracing(true);
    (market, pl)
}

/// Finance session: `Watchlist` is local and `Quotes` has a mandatory-bound
/// Symbol, so the join is forced through a bind join.
fn finance_session() -> (Arc<DataMarket>, PayLess) {
    let workload = Finance::generate(&FinanceConfig::default());
    let market = Arc::new(build_market(&workload, 100));
    let mut pl = PayLess::new(market.clone(), Mode::PayLess);
    for t in QueryWorkload::local_tables(&workload) {
        pl.register_local(t.clone());
    }
    (market, pl)
}

// ----------------------------------------------------------------------
// Acceptance: one tree mixing a bind join, an SQR-covered remainder, and
// a local table, with est + actual on every operator.
// ----------------------------------------------------------------------

#[test]
fn explain_analyze_mixes_bind_join_sqr_and_local_scan() {
    let (market, mut pl) = finance_session();
    // Prime the store so the second, wider query is partially SQR-covered.
    pl.query(
        "SELECT * FROM Watchlist, Quotes WHERE Watchlist.Symbol = Quotes.Symbol \
         AND Day >= 1 AND Day <= 5",
    )
    .unwrap();

    let before = market.bill().transactions();
    let out = pl
        .explain_analyze(
            "SELECT * FROM Watchlist, Quotes WHERE Watchlist.Symbol = Quotes.Symbol \
             AND Day >= 1 AND Day <= 8",
        )
        .unwrap();
    let delta = market.bill().transactions() - before;
    assert!(
        !pl.tracing_enabled(),
        "explain_analyze must restore the tracing flag"
    );

    let report = out.report.expect("explain analyze forces tracing");
    assert!(!report.ops.is_empty(), "no operator traces");
    // Pre-order ids, one slot per node, parents pointing backwards.
    for (i, op) in report.ops.iter().enumerate() {
        assert_eq!(op.id, i, "operator ids must be the pre-order index");
        if let Some(p) = op.parent {
            assert!(p < i, "parent must precede the child in pre-order");
        }
        assert!(
            !op.est.provenance.is_empty(),
            "operator {i} lacks provenance"
        );
    }
    let labels: Vec<&str> = report.ops.iter().map(|o| o.label.as_str()).collect();
    assert!(
        labels.iter().any(|l| l.contains("bind-join")),
        "expected a bind-join operator, got {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.contains("(local)")),
        "expected a local scan operator, got {labels:?}"
    );
    // The store primed by the first query covers part of this one.
    assert!(
        report.sqr().full_hits + report.sqr().partial_hits > 0,
        "second query should be partially SQR-covered"
    );
    // Page attribution: operators account for exactly what the meter saw.
    assert_eq!(report.operator_pages(), report.telemetry.total_pages());
    assert_eq!(report.telemetry.total_pages(), delta);
    // The executed probes fed the q-error scorer.
    assert!(
        !report.telemetry.qerrors.is_empty(),
        "bind probes must be q-error scored"
    );
    for q in &report.telemetry.qerrors {
        assert!(q.q >= 1.0 && q.q.is_finite(), "bad q-error {q:?}");
    }
}

// ----------------------------------------------------------------------
// Chrome-trace export round-trips through the JSON crate.
// ----------------------------------------------------------------------

#[test]
fn chrome_trace_export_round_trips_and_is_non_empty() {
    let (_, mut pl) = whw_session(ServeConfig::one_client(), Mode::PayLess);
    let mut builder = ChromeTraceBuilder::new();
    for sql in QUERIES {
        let out = pl.query(sql).unwrap();
        builder.add_query(sql, &out.report.expect("tracing is on").telemetry);
    }
    assert!(!builder.is_empty());
    let doc = builder.finish(Json::obj([("queries", (QUERIES.len() as i64).to_json())]));
    let text = doc.to_string_pretty();
    let parsed = payless_json::parse(&text).unwrap();
    let events = parsed
        .get_opt("traceEvents")
        .and_then(|e| e.as_arr().ok())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace export must be non-empty");
    // Every event carries the mandatory Chrome-trace keys.
    for ev in events {
        assert!(ev.get_opt("ph").is_some(), "event lacks a phase: {ev:?}");
        assert!(ev.get_opt("pid").is_some(), "event lacks a pid: {ev:?}");
    }
    assert_eq!(
        parsed
            .get_opt("otherData")
            .and_then(|o| o.get_opt("queries"))
            .and_then(|q| q.as_i64().ok()),
        Some(QUERIES.len() as i64)
    );
}

// ----------------------------------------------------------------------
// Property: per-operator page attribution reconciles with the ledger,
// clean and under injected faults.
// ----------------------------------------------------------------------

fn assert_ops_reconcile(mode: Mode, plan: Option<FaultPlan>) {
    let retry = if plan.is_some() {
        RetryPolicy::unlimited()
    } else {
        RetryPolicy::default()
    };
    let cfg = ServeConfig {
        retry,
        ..ServeConfig::one_client()
    };
    let (market, mut pl) = whw_session(cfg, mode);
    if let Some(plan) = plan {
        market.attach_fault_injector(FaultInjector::new(plan));
    }
    for (i, sql) in QUERIES.iter().enumerate() {
        let before = market.bill().transactions();
        let out = pl.query(sql).unwrap();
        let delta = market.bill().transactions() - before;
        let report = out.report.expect("tracing is on");
        assert!(!report.ops.is_empty(), "{mode:?} query {i}: no ops");
        assert_eq!(
            report.operator_pages(),
            report.telemetry.total_pages(),
            "{mode:?} query {i}: operators must account for the whole ledger"
        );
        assert_eq!(
            report.telemetry.total_pages(),
            delta,
            "{mode:?} query {i}: ledger must match the meter"
        );
    }
}

#[test]
fn operator_pages_reconcile_on_clean_runs() {
    for mode in [Mode::PayLess, Mode::PayLessNoSqr] {
        assert_ops_reconcile(mode, None);
    }
}

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For any fault seed, every operator's billed pages (delivered +
        /// wasted, across retries) still partition the query's ledger
        /// total exactly: money lost to faults stays attributed to the
        /// operator that spent it.
        #[test]
        fn operator_pages_reconcile_under_chaos(seed in any::<u64>()) {
            assert_ops_reconcile(Mode::PayLess, Some(FaultPlan::chaos(seed)));
        }
    }
}
