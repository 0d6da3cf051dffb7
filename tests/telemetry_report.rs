//! End-to-end telemetry: the traced query report must be auditable against
//! the market's billing meter, across modes and across the whole pipeline.

use std::sync::Arc;

use payless_core::{Mode, PayLess};
use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};

fn session(mode: Mode) -> (Arc<payless_core::DataMarket>, PayLess) {
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
    let mut pl = PayLess::new(market.clone(), mode);
    for t in QueryWorkload::local_tables(&workload) {
        pl.register_local(t.clone());
    }
    pl.enable_tracing(true);
    (market, pl)
}

#[test]
fn ledger_total_matches_billed_total() {
    let (market, mut pl) = session(Mode::PayLess);
    let queries = [
        "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
         Weather.Date >= 5 AND Weather.Date <= 9",
        // Overlaps the first: SQR partial hit, remainder fetch only.
        "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
         Weather.Date >= 5 AND Weather.Date <= 20",
        // Bind join: Station drives point probes into Weather.
        "SELECT * FROM Station, Weather WHERE Station.Country = Weather.Country = \
         'Country2' AND Station.StationID = Weather.StationID AND \
         Weather.Date >= 1 AND Weather.Date <= 10",
    ];
    for sql in queries {
        let before = market.bill().transactions();
        let out = pl.query(sql).unwrap();
        let delta = market.bill().transactions() - before;
        let report = out.report.expect("tracing is on");
        // The spend ledger is the audit trail: its page total must equal the
        // transactions the meter accrued for exactly this query.
        assert_eq!(report.total_pages(), delta, "ledger drifted for {sql}");
        assert_eq!(report.paid_transactions, delta);
        // Unit price market: money == transactions.
        assert!((report.total_price() - delta as f64).abs() < 1e-9);
    }
}

#[test]
fn repeat_query_reports_full_hit_and_empty_ledger() {
    let (_, mut pl) = session(Mode::PayLess);
    let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
               Weather.Date >= 5 AND Weather.Date <= 9";
    let first = pl.query(sql).unwrap().report.unwrap();
    assert!(first.total_pages() > 0);
    assert_eq!(first.sqr().misses, 1);
    let second = pl.query(sql).unwrap().report.unwrap();
    assert_eq!(second.sqr().full_hits, 1);
    // Fully covered: a single zero-page (free) remainder call at most.
    assert_eq!(second.total_pages(), 0);
    assert!((second.total_price()).abs() < 1e-12);
}

#[test]
fn report_carries_plan_search_and_phase_data() {
    let (_, mut pl) = session(Mode::PayLess);
    let out = pl
        .query(
            "SELECT * FROM Station, Weather WHERE Station.Country = Weather.Country = \
             'Country0' AND Station.StationID = Weather.StationID AND \
             Weather.Date >= 1 AND Weather.Date <= 5",
        )
        .unwrap();
    let report = out.report.unwrap();
    assert!(report.counters.plans_considered > 0);
    assert!(report.optimize_nanos > 0);
    assert!(report.execute_nanos > 0);
    assert!(report.analyze_nanos > 0);
    assert!(!report.telemetry.spans.is_empty(), "operator spans missing");
    // Every ledger entry satisfies Eq. (1).
    for e in &report.telemetry.ledger {
        assert_eq!(e.pages, e.records.div_ceil(e.page_size));
    }
    // The JSON dump is well-formed and self-consistent.
    let text = report.to_json().to_string_pretty();
    let parsed = payless_json::parse(&text).unwrap();
    assert!(parsed.get_opt("telemetry").is_some());
}

#[test]
fn download_all_ledger_is_download_kind() {
    let (market, mut pl) = session(Mode::DownloadAll);
    let out = pl
        .query(
            "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
             Weather.Date >= 5 AND Weather.Date <= 9",
        )
        .unwrap();
    let report = out.report.unwrap();
    assert_eq!(report.total_pages(), market.bill().transactions());
    assert!(report
        .telemetry
        .ledger
        .iter()
        .any(|e| e.kind == payless_core::CallKind::Download));
}

#[test]
fn untraced_queries_carry_no_report() {
    let (market, mut pl) = session(Mode::PayLess);
    pl.enable_tracing(false);
    let out = pl
        .query(
            "SELECT * FROM Weather WHERE Weather.Country = 'Country3' AND \
             Weather.Date >= 1 AND Weather.Date <= 3",
        )
        .unwrap();
    assert!(out.report.is_none());
    assert!(market.bill().transactions() > 0); // billing is unaffected
}
