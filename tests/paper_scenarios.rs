//! Scenario tests that pin the paper's own worked examples to exact numbers.

use std::sync::Arc;

use payless_core::{DataMarket, Dataset, Mode, PayLess};
use payless_market::MarketTable;
use payless_types::{row, Column, Domain, Row, Schema};

/// Figure 1's exact setting (with Section 1's "15 stations in Seattle"
/// variant): 788 US weather stations spread over 53 cities, 15 of them in
/// Seattle, 30 days of June weather per station, transactions of 100 tuples.
fn figure1_market() -> DataMarket {
    let countries = Domain::categorical(["United States"]);
    let cities: Vec<String> = std::iter::once("Seattle".to_string())
        .chain((1..53).map(|i| format!("Other{i}")))
        .collect();
    let station_schema = Schema::new(
        "Station",
        vec![
            Column::free("Country", countries.clone()),
            Column::free("StationID", Domain::int(1, 788)),
            Column::free("City", Domain::categorical(cities.clone())),
        ],
    );
    // Stations 1..=15 are Seattle's; the rest rotate over the other cities,
    // giving ~15 stations per city (so the uniform estimate is accurate).
    let station_rows: Vec<Row> = (1..=788)
        .map(|sid| {
            let city = if sid <= 15 {
                "Seattle".to_string()
            } else {
                format!("Other{}", 1 + (sid - 16) % 52)
            };
            row!("United States", sid as i64, city.as_str())
        })
        .collect();
    let weather_schema = Schema::new(
        "Weather",
        vec![
            Column::free("Country", countries),
            Column::free("StationID", Domain::int(1, 788)),
            Column::free("Date", Domain::int(20140601, 20140630)),
            Column::output("Temperature", Domain::int(-60, 60)),
        ],
    );
    let mut weather_rows = Vec::with_capacity(788 * 30);
    for sid in 1..=788i64 {
        for day in 20140601..=20140630i64 {
            weather_rows.push(row!("United States", sid, day, (sid + day) % 40));
        }
    }
    DataMarket::new(vec![Dataset::new("WHW")
        .with_page_size(100)
        .with_table(MarketTable::new(station_schema, station_rows))
        .with_table(MarketTable::new(weather_schema, weather_rows))])
}

const FIGURE1_SQL: &str = "SELECT Temperature FROM Station, Weather \
     WHERE City = 'Seattle' AND Country = 'United States' AND \
     Date >= 20140601 AND Date <= 20140630 AND \
     Station.StationID = Weather.StationID";

#[test]
fn figure1_payless_executes_plan_p2_for_sixteen_transactions() {
    let market = Arc::new(figure1_market());
    let mut pl = PayLess::new(market.clone(), Mode::PayLess);
    let out = pl.query(FIGURE1_SQL).unwrap();
    // 15 Seattle stations x 30 days of temperatures.
    assert_eq!(out.result.rows.len(), 15 * 30);
    let bill = market.bill();
    // Plan P2 with 15 Seattle stations (Section 1): C1 (15 station records
    // -> 1 txn) + 15 bind-join probes (30 records each -> 1 txn each) =
    // 16 transactions over 16 calls, exactly as the paper computes.
    assert_eq!(bill.transactions(), 16, "bill: {bill:?}");
    assert_eq!(bill.calls(), 16);
}

#[test]
fn figure1_min_calls_pays_238_transactions() {
    let market = Arc::new(figure1_market());
    let mut pl = PayLess::new(market.clone(), Mode::MinCalls);
    let out = pl.query(FIGURE1_SQL).unwrap();
    assert_eq!(out.result.rows.len(), 15 * 30);
    let bill = market.bill();
    // Plan P1: C1 = 1 txn, C2 = ceil(788*30/100) = 237 txns. The paper's
    // Section 1 point exactly: minimizing calls picks 2 calls / 238 txns
    // over 16 calls / 16 txns.
    assert_eq!(bill.transactions(), 238, "bill: {bill:?}");
    assert_eq!(bill.calls(), 2);
}

/// Figure 6's exact setting: R(A[0,100]) with segment cardinalities
/// 21 / 28 / 34 / 91 / 123 (closed-interval encoding of the paper's
/// half-open pictures).
fn figure6_market() -> DataMarket {
    let schema = Schema::new(
        "R",
        vec![
            Column::free("A", Domain::int(0, 100)),
            Column::output("payload", Domain::int(0, 1_000_000)),
        ],
    );
    let mut rows = Vec::new();
    let mut id = 0i64;
    let mut fill = |lo: i64, hi: i64, n: i64, rows: &mut Vec<Row>| {
        for k in 0..n {
            let a = lo + k % (hi - lo + 1);
            id += 1;
            rows.push(row!(a, id));
        }
    };
    fill(0, 9, 21, &mut rows);
    fill(10, 19, 28, &mut rows);
    fill(20, 29, 34, &mut rows);
    fill(30, 59, 91, &mut rows);
    fill(60, 100, 123, &mut rows);
    DataMarket::new(vec![Dataset::new("DS")
        .with_page_size(100)
        .with_table(MarketTable::new(schema, rows))])
}

#[test]
fn figure6_remainder_queries_cost_three_transactions() {
    let market = Arc::new(figure6_market());
    let mut pl = PayLess::new(market.clone(), Mode::PayLess);
    // Store V1 = A[10,19] and V2 = A[30,59] (1 txn each: 28 and 91 tuples).
    pl.query("SELECT * FROM R WHERE A >= 10 AND A <= 19")
        .unwrap();
    pl.query("SELECT * FROM R WHERE A >= 30 AND A <= 59")
        .unwrap();
    let before = market.bill().transactions();
    assert_eq!(before, 2);
    // Q = A[0,100]. The paper's best remainder set costs 3 transactions:
    // A[0,29] (83 tuples, overlapping V1 on purpose) + A[60,100]
    // (123 tuples, 2 txns) — not the naive 4.
    let out = pl
        .query("SELECT * FROM R WHERE A >= 0 AND A <= 100")
        .unwrap();
    assert_eq!(out.result.rows.len(), 297);
    let added = market.bill().transactions() - before;
    assert_eq!(added, 3, "remainder set should cost 3 transactions");
    // And the next full scan is free.
    pl.query("SELECT * FROM R WHERE A >= 0 AND A <= 100")
        .unwrap();
    assert_eq!(market.bill().transactions(), before + 3);
}

/// Figure 6 behind the serving layer: `Serve` runs the same Algorithm 1 as
/// a session, so the remainder set that overlaps V1 on purpose is bought
/// there too — one thread, and answered alike at four.
#[test]
fn figure6_served_remainders_cost_three_transactions() {
    use payless_serve::{digest_rows, run_mix, Serve, ServeConfig};
    use payless_workload::MixItem;

    const QUERIES: [&str; 3] = [
        "SELECT * FROM R WHERE A >= 10 AND A <= 19",
        "SELECT * FROM R WHERE A >= 30 AND A <= 59",
        "SELECT * FROM R WHERE A >= 0 AND A <= 100",
    ];
    let serve_over = |threads| {
        let serve = Serve::new(
            Arc::new(figure6_market()),
            &[],
            ServeConfig {
                threads,
                ..ServeConfig::default()
            },
        );
        let templates: Vec<_> = QUERIES
            .iter()
            .map(|sql| serve.prepare(sql).unwrap())
            .collect();
        (serve, templates)
    };

    // One thread: V1 and V2 cost a page each, then A[0,100] buys A[0,29]
    // (83 tuples, overlapping V1) and A[60,100] (123 tuples): 3 pages for
    // 206 records, where the disjoint remainders cost 4.
    let (serve, templates) = serve_over(1);
    let runs: Vec<_> = templates
        .iter()
        .map(|t| serve.run_query(t, &[]).unwrap())
        .collect();
    let digests: Vec<u64> = runs.iter().map(|(result, _)| digest_rows(result)).collect();
    let (full, snap) = &runs[2];
    assert_eq!(full.rows.len(), 297);
    assert_eq!(
        (snap.total_pages(), snap.total_records()),
        (3, 206),
        "remainder set should cost 3 transactions"
    );
    // Non-vacuous: V1's 28 rows were bought twice on purpose, so the
    // market delivered more records than the mirror holds distinct rows
    // (the full scan's answer is the whole mirror).
    let records = serve.market().bill().records();
    assert!(
        records > full.rows.len() as u64,
        "Algorithm 1 should re-buy V1: {records} records for {} rows",
        full.rows.len()
    );

    // Four threads, coalescing on: every client asks all three in order.
    // Which purchase lands first depends on the schedule, so only the
    // answers are pinned, not the spend.
    let (serve, templates) = serve_over(4);
    let mix: Vec<MixItem> = (0..QUERIES.len())
        .flat_map(|template| {
            (0..4).map(move |client| MixItem {
                client,
                template,
                params: Vec::new(),
            })
        })
        .collect();
    let report = run_mix(&serve, &mix, &templates).unwrap();
    for (item, row) in mix.iter().zip(&report.per_query) {
        assert_eq!(
            row.digest, digests[item.template],
            "template {}",
            item.template
        );
    }
}

/// Theorem 1 end-to-end: the left-deep search must find a plan no more
/// expensive than the exhaustive bushy search, on a query whose natural
/// shape is bushy (Figure 4's U ⟕ R / S ⟕ T).
#[test]
fn theorem1_left_deep_matches_bushy_optimum() {
    use payless_optimizer::{optimize, OptimizerConfig};
    use payless_sql::{analyze, parse, MapCatalog, TableLocation};

    let mk = |name: &str, bound: &str, free: &str| {
        Schema::new(
            name,
            vec![
                if bound.is_empty() {
                    Column::free(free, Domain::int(0, 99))
                } else {
                    Column::bound(bound, Domain::int(0, 99))
                },
                Column::free(
                    if bound.is_empty() { "aux" } else { free },
                    Domain::int(0, 99),
                ),
            ],
        )
    };
    let u = Schema::new(
        "U",
        vec![
            Column::free("x", Domain::int(0, 99)),
            Column::free("y", Domain::int(0, 99)),
        ],
    );
    let r = mk("R", "y", "z");
    let s = Schema::new(
        "S",
        vec![
            Column::free("t", Domain::int(0, 99)),
            Column::free("w", Domain::int(0, 99)),
        ],
    );
    let t = mk("T", "w", "z");
    let mut catalog = MapCatalog::new();
    let mut stats = payless_stats::StatsRegistry::new();
    let mut store = payless_semantic::SemanticStore::new();
    let mut meta = std::collections::HashMap::new();
    for schema in [&u, &r, &s, &t] {
        catalog.add(schema.clone(), TableLocation::Market);
        stats.register(schema, 500);
        store.register(payless_geometry::QuerySpace::of(schema));
        meta.insert(schema.table.to_string(), 100u64);
    }
    let stmt =
        parse("SELECT * FROM U, R, S, T WHERE U.y = R.y AND S.w = T.w AND R.z = T.z").unwrap();
    let q = analyze(&stmt, &catalog).unwrap();
    let ld = optimize(
        &q,
        &stats,
        &store,
        &meta,
        &OptimizerConfig::payless_no_sqr(),
        0,
    )
    .unwrap();
    let bu = optimize(
        &q,
        &stats,
        &store,
        &meta,
        &OptimizerConfig::disable_all(),
        0,
    )
    .unwrap();
    assert!(
        ld.cost.primary <= bu.cost.primary + 1e-6,
        "left-deep {} vs bushy {}",
        ld.cost.primary,
        bu.cost.primary
    );
    assert!(ld.plan.is_left_deep());
    // Theorem 1's point: the restriction loses nothing.
    assert!((ld.cost.primary - bu.cost.primary).abs() < 1e-6);
}

/// Section 4.1's search-space claim, measured: the candidate count of the
/// full bushy space grows far faster than PayLess's reduced space on chain
/// queries.
#[test]
fn search_space_reduction_on_chain_queries() {
    use payless_optimizer::{optimize, OptimizerConfig};
    use payless_sql::{analyze, parse, MapCatalog, TableLocation};

    let mut ld_counts = Vec::new();
    let mut bushy_counts = Vec::new();
    for n in 2..=6usize {
        let mut catalog = MapCatalog::new();
        let mut stats = payless_stats::StatsRegistry::new();
        let mut store = payless_semantic::SemanticStore::new();
        let mut meta = std::collections::HashMap::new();
        for i in 0..n {
            let schema = Schema::new(
                format!("C{i}"),
                vec![
                    Column::free("a", Domain::int(0, 99)),
                    Column::free("b", Domain::int(0, 99)),
                ],
            );
            catalog.add(schema.clone(), TableLocation::Market);
            stats.register(&schema, 1000);
            store.register(payless_geometry::QuerySpace::of(&schema));
            meta.insert(schema.table.to_string(), 100u64);
        }
        let joins: Vec<String> = (0..n - 1)
            .map(|i| format!("C{i}.b = C{}.a", i + 1))
            .collect();
        let tables: Vec<String> = (0..n).map(|i| format!("C{i}")).collect();
        let sql = format!(
            "SELECT * FROM {} WHERE {}",
            tables.join(", "),
            joins.join(" AND ")
        );
        let q = analyze(&parse(&sql).unwrap(), &catalog).unwrap();
        let ld = optimize(
            &q,
            &stats,
            &store,
            &meta,
            &OptimizerConfig::payless_no_sqr(),
            0,
        )
        .unwrap();
        let bu = optimize(
            &q,
            &stats,
            &store,
            &meta,
            &OptimizerConfig::disable_all(),
            0,
        )
        .unwrap();
        ld_counts.push(ld.counters.plans_considered);
        bushy_counts.push(bu.counters.plans_considered);
    }
    // Both grow with n…
    assert!(ld_counts.windows(2).all(|w| w[0] < w[1]));
    assert!(bushy_counts.windows(2).all(|w| w[0] < w[1]));
    // …but the bushy space explodes much faster (paper: ≈6ⁿ−5ⁿ vs
    // ≈2ⁿ + ⅔n³). At n = 6 the gap must be large.
    let (ld6, bu6) = (*ld_counts.last().unwrap(), *bushy_counts.last().unwrap());
    assert!(
        bu6 >= 4 * ld6,
        "bushy {bu6} should dwarf left-deep {ld6}; ld={ld_counts:?} bushy={bushy_counts:?}"
    );
}

/// Theorem 2 end-to-end: once the store covers a market table, PayLess joins
/// it first and pays nothing for it.
#[test]
fn theorem2_zero_price_relations_join_first() {
    let market = Arc::new(figure1_market());
    let mut pl = PayLess::new(market.clone(), Mode::PayLess);
    // Download Station via a full scan.
    pl.query("SELECT * FROM Station").unwrap();
    let after_station = market.bill().transactions();
    // Station now zero-price: the weather query pays only for Weather.
    let out = pl.query(FIGURE1_SQL).unwrap();
    assert_eq!(out.result.rows.len(), 15 * 30);
    let plan = out.plan.unwrap();
    assert!(
        plan.starts_with("(Station"),
        "zero-price Station should lead the plan: {plan}"
    );
    let added = market.bill().transactions() - after_station;
    assert_eq!(added, 15, "15 Seattle weather probes, one transaction each");
}
