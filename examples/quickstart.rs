//! Quickstart: the paper's Figure 1 scenario.
//!
//! Build a small weather data market, ask for one city's temperatures, and
//! watch PayLess choose the bind-join plan P2 (a couple of transactions)
//! instead of the naive P1 (hundreds of transactions).
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use payless_core::{Mode, PayLess};
use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};

fn main() {
    // A synthetic Worldwide-Historical-Weather-like dataset: ~400 stations
    // across 10 countries, one weather row per station per day.
    let workload = RealWorkload::generate(&WhwConfig::scaled(0.1));
    let market = Arc::new(build_market(&workload, 100));

    println!("The market hosts:");
    for name in market.table_names() {
        println!(
            "  {:<10} {:>8} rows   access pattern {}",
            name,
            market.cardinality(&name).unwrap(),
            market.schema(&name).unwrap().binding_pattern()
        );
    }

    let mut payless = PayLess::new(market.clone(), Mode::PayLess);
    for t in workload.local_tables() {
        payless.register_local(t.clone());
    }

    // The paper's Q1: daily temperature of one city over one month.
    let sql = "SELECT Temperature FROM Station, Weather \
               WHERE City = 'City3' AND Country = 'Country0' AND \
               Date >= 152 AND Date <= 181 AND \
               Station.StationID = Weather.StationID";
    println!("\nQuery:\n  {sql}\n");

    let out = payless.query(sql).expect("query runs");
    println!(
        "PayLess plan:        {}",
        out.plan.as_deref().unwrap_or("-")
    );
    println!("Estimated cost:      {:.0} transactions", out.est_cost);
    println!("Rows returned:       {}", out.result.rows.len());
    let bill = market.bill();
    println!(
        "Actual bill:         {} transactions over {} RESTful calls",
        bill.transactions(),
        bill.calls()
    );

    // What would the alternatives have paid?
    let naive = market.cardinality("Weather").unwrap().div_ceil(100);
    println!("\nFor comparison:");
    println!("  Download-All would pay ~{naive} transactions up front for Weather alone.");

    // Ask the same thing again: the semantic store answers for free.
    let before = market.bill().transactions();
    payless.query(sql).expect("repeat runs");
    println!(
        "  Asking the same query again costs {} additional transactions.",
        market.bill().transactions() - before
    );
}
