//! Cross-crate integration tests: whole-session behaviour of PayLess over a
//! live (simulated) data market.

use std::sync::Arc;

use payless_core::{Consistency, Mode, PayLess, Serve, ServeConfig};
use payless_workload::{build_market, QueryWorkload, RealWorkload, Tpch, TpchConfig, WhwConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn whw() -> RealWorkload {
    RealWorkload::generate(&WhwConfig {
        stations: 48,
        countries: 4,
        cities_per_country: 3,
        days: 60,
        zips: 60,
        ranks: 100,
        seed: 3,
    })
}

fn session(mode: Mode, workload: &RealWorkload) -> (Arc<payless_core::DataMarket>, PayLess) {
    let market = Arc::new(build_market(workload, 100));
    let mut pl = PayLess::new(market.clone(), mode);
    for t in workload.local_tables() {
        pl.register_local(t.clone());
    }
    (market, pl)
}

#[test]
fn cumulative_bill_grows_sublinearly_with_sqr() {
    let workload = whw();
    let (market, mut pl) = session(Mode::PayLess, &workload);
    let sqls: Vec<String> = (0..10)
        .map(|i| {
            format!(
                "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
                 Weather.Date >= {} AND Weather.Date <= {}",
                5 + i,
                25 + i
            )
        })
        .collect();
    let mut increments = Vec::new();
    let mut last = 0u64;
    for sql in &sqls {
        pl.query(sql).unwrap();
        let now = market.bill().transactions();
        increments.push(now - last);
        last = now;
    }
    // The first query pays for the window; subsequent sliding windows pay
    // only for the one-day remainder slices.
    assert!(increments[0] >= increments[9]);
    assert!(
        increments[5..].iter().sum::<u64>() <= increments[0] * 2,
        "increments {increments:?}"
    );
}

#[test]
fn bind_join_only_touches_needed_stations() {
    let workload = whw();
    let (market, mut pl) = session(Mode::PayLess, &workload);
    // City-selective query: with 12 cities and 48 stations, a city has 4
    // stations. The bind join should retrieve ~4 stations' weather, not the
    // whole country's.
    pl.query(
        "SELECT Temperature FROM Station, Weather WHERE \
         City = 'City0' AND Country = 'Country0' AND \
         Date >= 1 AND Date <= 10 AND Station.StationID = Weather.StationID",
    )
    .unwrap();
    let bill = market.bill();
    let weather: Arc<str> = "Weather".into();
    let fetched = bill.by_table[&weather].records;
    assert_eq!(fetched, 4 * 10, "fetched {fetched} weather records");
}

#[test]
fn or_disjunction_decomposes_into_multiple_calls() {
    let workload = whw();
    let (market, mut pl) = session(Mode::PayLess, &workload);
    let out = pl
        .query(
            "SELECT * FROM Weather WHERE \
             (Weather.Country = 'Country0' OR Weather.Country = 'Country1') AND \
             Weather.Date >= 3 AND Weather.Date <= 4",
        )
        .unwrap();
    // 12 stations per country x 2 days x 2 countries.
    assert_eq!(out.result.rows.len(), 48);
    // The interface cannot express the disjunction: at least two calls.
    assert!(market.bill().calls() >= 2);
}

#[test]
fn all_modes_agree_on_results() {
    let workload = whw();
    let mut rng = StdRng::seed_from_u64(77);
    let mut queries = Vec::new();
    for i in 0..workload.templates().len() {
        for _ in 0..2 {
            queries.push((i, workload.sample_params(i, &mut rng)));
        }
    }
    let mut reference: Option<Vec<Vec<payless_types::Row>>> = None;
    for mode in [
        Mode::PayLess,
        Mode::PayLessNoSqr,
        Mode::MinCalls,
        Mode::DownloadAll,
    ] {
        let (_, mut pl) = session(mode, &workload);
        let templates: Vec<_> = workload
            .templates()
            .iter()
            .map(|t| pl.prepare(t).unwrap())
            .collect();
        let mut results = Vec::new();
        for (t, params) in &queries {
            let out = pl.execute_template(&templates[*t], params).unwrap();
            let mut rows = out.result.rows;
            rows.sort();
            results.push(rows);
        }
        match &reference {
            None => reference = Some(results),
            Some(r) => assert_eq!(r, &results, "mode {mode:?} diverged"),
        }
    }
}

#[test]
fn payless_beats_download_all_on_selective_workload() {
    // The paper's real-data regime: the dataset is large relative to what
    // each query touches (19.5M weather rows vs. a city-month per query).
    // Scale accordingly: queries touch one country (1/10) and a ≤30-day
    // window (≤1/4), so 30 queries cannot pay for the whole dataset.
    let workload = RealWorkload::generate(&WhwConfig {
        stations: 120,
        countries: 10,
        cities_per_country: 4,
        days: 120,
        zips: 200,
        ranks: 100,
        seed: 3,
    });
    let mut totals = Vec::new();
    for mode in [Mode::PayLess, Mode::DownloadAll] {
        let (market, mut pl) = session(mode, &workload);
        let templates: Vec<_> = workload
            .templates()
            .iter()
            .map(|t| pl.prepare(t).unwrap())
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let t = rng.random_range(0..templates.len());
            let params = workload.sample_params(t, &mut rng);
            pl.execute_template(&templates[t], &params).unwrap();
        }
        totals.push(market.bill().transactions());
    }
    assert!(
        totals[0] < totals[1],
        "PayLess {} should beat DownloadAll {}",
        totals[0],
        totals[1]
    );
}

#[test]
fn tpch_queries_run_end_to_end() {
    let workload = Tpch::generate(&TpchConfig::uniform(0.0005));
    let market = Arc::new(build_market(&workload, 100));
    let mut pl = PayLess::new(market.clone(), Mode::PayLess);
    for t in workload.local_tables() {
        pl.register_local(t.clone());
    }
    let mut rng = StdRng::seed_from_u64(13);
    for (i, tmpl) in workload.templates().iter().enumerate() {
        let stmt = pl.prepare(tmpl).unwrap();
        let params = workload.sample_params(i, &mut rng);
        let out = pl
            .execute_template(&stmt, &params)
            .unwrap_or_else(|e| panic!("template {i} failed: {e}"));
        // Scan-heavy templates should rarely be empty, but emptiness is not
        // an error; just ensure the pipeline produced a well-formed result.
        assert!(!out.result.columns.is_empty());
    }
    assert!(market.bill().transactions() > 0);
}

#[test]
fn tpch_skew_changes_distribution_but_not_correctness() {
    let uniform = Tpch::generate(&TpchConfig::uniform(0.0005));
    let skewed = Tpch::generate(&TpchConfig::skewed(0.0005));
    for workload in [&uniform, &skewed] {
        let market = Arc::new(build_market(workload, 100));
        let mut pl = PayLess::new(market.clone(), Mode::PayLess);
        for t in workload.local_tables() {
            pl.register_local(t.clone());
        }
        let out = pl
            .query("SELECT OrderPriority, COUNT(*) FROM Orders WHERE OrderDate >= 1 AND OrderDate <= 2400 GROUP BY OrderPriority")
            .unwrap();
        let total: i64 = out
            .result
            .rows
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .sum();
        assert_eq!(total as u64, market.cardinality("Orders").unwrap());
    }
}

#[test]
fn window_consistency_interacts_with_sliding_queries() {
    let workload = whw();
    let market = Arc::new(build_market(&workload, 100));
    let cfg = ServeConfig {
        consistency: Consistency::Window(3),
        ..ServeConfig::one_client()
    };
    let mut pl = PayLess::over(Serve::new(market.clone(), &[], cfg), Mode::PayLess);
    let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country0' AND \
               Weather.Date >= 1 AND Weather.Date <= 20";
    pl.query(sql).unwrap();
    let first = market.bill().transactions();
    pl.query(sql).unwrap(); // within window: free
    assert_eq!(market.bill().transactions(), first);
    pl.advance_clock(5);
    pl.query(sql).unwrap(); // aged out: pays again
    assert_eq!(market.bill().transactions(), 2 * first);
}

#[test]
fn billing_report_is_per_table() {
    let workload = whw();
    let (market, mut pl) = session(Mode::PayLess, &workload);
    pl.query(
        "SELECT COUNT(ZipCode) FROM Pollution WHERE Pollution.Rank >= 10 AND \
         Pollution.Rank <= 20",
    )
    .unwrap();
    let bill = market.bill();
    let pollution: Arc<str> = "Pollution".into();
    assert!(bill.by_table.contains_key(&pollution));
    let weather: Arc<str> = "Weather".into();
    assert!(!bill.by_table.contains_key(&weather));
}

#[test]
fn heterogeneous_datasets_use_their_own_page_sizes() {
    use payless_market::{Dataset, MarketTable};
    use payless_types::{row, Column, Domain, Row, Schema};
    // Two datasets with different transaction page sizes, as in the real
    // Azure marketplace (each seller prices independently).
    let coarse_schema = Schema::new(
        "Coarse",
        vec![
            Column::free("k", Domain::int(0, 999)),
            Column::output("v", Domain::int(0, 9)),
        ],
    );
    let fine_schema = Schema::new(
        "Fine",
        vec![
            Column::free("k", Domain::int(0, 999)),
            Column::output("v", Domain::int(0, 9)),
        ],
    );
    let rows: Vec<Row> = (0..1000).map(|i| row!(i as i64, (i % 10) as i64)).collect();
    let market = Arc::new(payless_core::DataMarket::new(vec![
        Dataset::new("CoarseDS")
            .with_page_size(100)
            .with_table(MarketTable::new(coarse_schema, rows.clone())),
        Dataset::new("FineDS")
            .with_page_size(10)
            .with_table(MarketTable::new(fine_schema, rows)),
    ]));
    let mut pl = PayLess::new(market.clone(), Mode::PayLess);
    // Identical 300-row fetches cost 3 vs 30 transactions.
    pl.query("SELECT * FROM Coarse WHERE k >= 0 AND k <= 299")
        .unwrap();
    let coarse: Arc<str> = "Coarse".into();
    assert_eq!(market.bill().by_table[&coarse].transactions, 3);
    pl.query("SELECT * FROM Fine WHERE k >= 0 AND k <= 299")
        .unwrap();
    let fine: Arc<str> = "Fine".into();
    assert_eq!(market.bill().by_table[&fine].transactions, 30);
    // And the optimizer's estimates respect the per-table page size.
    let (_, coarse_cost) = pl
        .explain("SELECT * FROM Coarse WHERE k >= 300 AND k <= 599")
        .unwrap();
    let (_, fine_cost) = pl
        .explain("SELECT * FROM Fine WHERE k >= 300 AND k <= 599")
        .unwrap();
    assert!((coarse_cost - 3.0).abs() < 1e-6, "coarse {coarse_cost}");
    assert!((fine_cost - 30.0).abs() < 1e-6, "fine {fine_cost}");
}

#[test]
fn query_outcome_reports_timings_and_counters() {
    let workload = whw();
    let (_, mut pl) = session(Mode::PayLess, &workload);
    let out = pl
        .query(
            "SELECT AVG(Temperature) FROM Station, Weather WHERE \
             Station.Country = Weather.Country = 'Country0' AND \
             Weather.Date >= 1 AND Weather.Date <= 5 AND \
             Station.StationID = Weather.StationID GROUP BY City",
        )
        .unwrap();
    assert!(out.counters.plans_considered > 0);
    assert!(out.optimize_nanos > 0);
    assert!(out.execute_nanos > 0);
    // The paper's efficiency claim: optimization finishes within
    // milliseconds (we allow a generous bound for CI noise).
    assert!(out.optimize_nanos < 500_000_000);
}

#[test]
fn order_by_on_grouped_output() {
    let workload = Tpch::generate(&TpchConfig::uniform(0.0005));
    let market = Arc::new(build_market(&workload, 100));
    let mut pl = PayLess::new(market, Mode::PayLess);
    for t in workload.local_tables() {
        pl.register_local(t.clone());
    }
    let out = pl
        .query(
            "SELECT OrderPriority, COUNT(*) FROM Orders WHERE \
             OrderDate >= 1 AND OrderDate <= 2400 \
             GROUP BY OrderPriority ORDER BY OrderPriority",
        )
        .unwrap();
    assert_eq!(out.result.rows.len(), 5);
    let keys: Vec<String> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "grouped output not ordered: {keys:?}");
    // ORDER BY on a non-grouped column alongside aggregates is rejected.
    let err = pl.query(
        "SELECT OrderPriority, COUNT(*) FROM Orders WHERE OrderDate >= 1 AND OrderDate <= 10 \
         GROUP BY OrderPriority ORDER BY OrderDate",
    );
    assert!(err.is_err());
}
