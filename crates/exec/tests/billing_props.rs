//! Property tests tying the telemetry spend ledger to the billing meter.
//!
//! The ledger is the auditable record, written by the call layer and by
//! nothing else: for any sequence of queries, its per-dataset totals must
//! equal what the meter accrued, and every entry must obey the paper's
//! Eq. (1): `pages = ceil(records / t)`. SQR is off, so every query is one
//! market call however the queries overlap.

use std::sync::Arc;

use payless_exec::{pipeline, Env, ExecConfig, PipelineConfig, SharedState};
use payless_market::{DataMarket, Dataset, MarketTable};
use payless_optimizer::OptimizerConfig;
use payless_semantic::SemanticStore;
use payless_sql::{analyze, parse};
use payless_stats::StatsRegistry;
use payless_telemetry::Recorder;
use payless_types::{transactions, Column, Domain, PricePerTransaction, Schema};
use proptest::prelude::*;

/// Two datasets with different page sizes and prices, so per-dataset
/// accounting is actually exercised.
fn market() -> DataMarket {
    let weather = MarketTable::new(
        Schema::new(
            "Weather",
            vec![
                Column::free("Country", Domain::categorical(["US", "CA", "MX"])),
                Column::free("Date", Domain::int(1, 30)),
                Column::output("Temp", Domain::int(-50, 60)),
            ],
        ),
        (1..=30)
            .flat_map(|d| {
                ["US", "CA", "MX"]
                    .iter()
                    .map(move |c| payless_types::row!(*c, d, (d % 7) - 3))
            })
            .collect(),
    );
    let visits = MarketTable::new(
        Schema::new(
            "Visits",
            vec![
                Column::free("PatientID", Domain::int(0, 99)),
                Column::output("Cost", Domain::int(0, 1000)),
            ],
        ),
        // Even ids only: an odd point probe is an in-domain 0-record call.
        (0..100)
            .step_by(2)
            .map(|p| payless_types::row!(p, p * 13 % 997))
            .collect(),
    );
    DataMarket::new(vec![
        Dataset::new("WHW")
            .with_page_size(7)
            .with_price(PricePerTransaction(0.5))
            .with_table(weather),
        Dataset::new("EHR")
            .with_page_size(25)
            .with_price(PricePerTransaction(2.0))
            .with_table(visits),
    ])
}

/// One random, always-valid single-table query against the toy market.
#[derive(Clone, Debug)]
enum Call {
    WeatherCountry(usize),
    WeatherDates(i64, i64),
    VisitRange(i64, i64),
    VisitPoint(i64),
}

fn arb_call() -> impl Strategy<Value = Call> {
    prop_oneof![
        (0usize..3).prop_map(Call::WeatherCountry),
        (1i64..=30)
            .prop_flat_map(|lo| (Just(lo), lo..=30))
            .prop_map(|(lo, hi)| { Call::WeatherDates(lo, hi) }),
        (0i64..100)
            .prop_flat_map(|lo| (Just(lo), lo..100))
            .prop_map(|(lo, hi)| { Call::VisitRange(lo, hi) }),
        (0i64..100).prop_map(Call::VisitPoint),
    ]
}

fn to_sql(call: &Call) -> String {
    match call {
        Call::WeatherCountry(i) => format!(
            "SELECT Temp FROM Weather WHERE Country = '{}'",
            ["US", "CA", "MX"][*i]
        ),
        Call::WeatherDates(lo, hi) => {
            format!("SELECT Temp FROM Weather WHERE Date >= {lo} AND Date <= {hi}")
        }
        Call::VisitRange(lo, hi) => {
            format!("SELECT Cost FROM Visits WHERE PatientID >= {lo} AND PatientID <= {hi}")
        }
        Call::VisitPoint(p) => format!("SELECT Cost FROM Visits WHERE PatientID = {p}"),
    }
}

/// Run `calls` through the pipeline on a fresh buyer, every query reporting
/// into `recorder`; hands the market back for its meter.
fn run(calls: &[Call], recorder: &Arc<Recorder>) -> DataMarket {
    let market = market();
    let (catalog, state) =
        SharedState::for_market(&market, SemanticStore::new(), StatsRegistry::new());
    let env = Env {
        market: &market,
        state: &state,
        coalescer: None,
    };
    let cfg = PipelineConfig {
        optimizer: OptimizerConfig::payless_no_sqr(),
        exec: ExecConfig {
            sqr: false,
            recorder: Some(Arc::clone(recorder)),
            synthesize_ledger: true,
            ..ExecConfig::default()
        },
        download_all: false,
    };
    for (i, call) in calls.iter().enumerate() {
        let query = analyze(&parse(&to_sql(call)).unwrap(), &catalog).unwrap();
        pipeline::run_query(&env, &query, &cfg, i as u64 + 1).unwrap();
    }
    market
}

proptest! {
    /// Every ledger entry satisfies Eq. (1), and zero-record calls appear
    /// in the ledger as zero-page (free) entries rather than vanishing.
    #[test]
    fn ledger_entries_obey_eq1(calls in proptest::collection::vec(arb_call(), 0..24)) {
        let recorder = Recorder::enabled();
        run(&calls, &recorder);
        let snap = recorder.take();
        prop_assert_eq!(snap.ledger.len(), calls.len());
        for entry in &snap.ledger {
            prop_assert_eq!(entry.pages, transactions(entry.records, entry.page_size));
            prop_assert_eq!(entry.pages, entry.records.div_ceil(entry.page_size));
            if entry.records == 0 {
                prop_assert_eq!(entry.pages, 0);
                prop_assert_eq!(entry.price, 0.0);
            }
        }
    }

    /// The ledger's per-dataset totals agree exactly with the billing
    /// meter: same calls, records, pages, and revenue.
    #[test]
    fn ledger_totals_match_meter(calls in proptest::collection::vec(arb_call(), 0..24)) {
        let recorder = Recorder::enabled();
        let market = run(&calls, &recorder);
        let snap = recorder.take();
        let bill = market.bill();

        prop_assert_eq!(snap.total_pages(), bill.transactions());
        prop_assert_eq!(snap.total_records(), bill.records());
        prop_assert_eq!(snap.ledger.len() as u64, bill.calls());

        // Per-dataset: each toy dataset hosts exactly one table, so the
        // meter's per-table counters map 1:1 onto datasets.
        for spend in snap.spend_by_dataset() {
            let (table, price_per_page) = match &*spend.dataset {
                "WHW" => ("Weather", 0.5),
                "EHR" => ("Visits", 2.0),
                other => panic!("unexpected dataset {other}"),
            };
            let billed = &bill.by_table[&Arc::from(table)];
            prop_assert_eq!(spend.calls, billed.calls);
            prop_assert_eq!(spend.records, billed.records);
            prop_assert_eq!(spend.pages, billed.transactions);
            let expected_price = price_per_page * billed.transactions as f64;
            prop_assert!((spend.price - expected_price).abs() < 1e-9);
        }

        let expected_total: f64 = snap.spend_by_dataset().iter().map(|d| d.price).sum();
        prop_assert!((snap.total_price() - expected_total).abs() < 1e-9);
    }
}
