//! Bound access patterns in action: a quote market whose `Quotes` table
//! *requires* a symbol on every call (`Quotes(Symbolᵇ, Dayᶠ)`).
//!
//! With a bound attribute there is no "just download the table" call — the
//! only ways in are pinning a symbol or flowing symbols through a bind join,
//! which is exactly the setting of the paper's Theorem 1 discussion.
//!
//! Run with: `cargo run --release --example portfolio_tracker`

use std::sync::Arc;

use payless_core::{Mode, PayLess};
use payless_workload::{build_market, Finance, FinanceConfig, QueryWorkload};

fn main() {
    let workload = Finance::generate(&FinanceConfig::default());
    let market = Arc::new(build_market(&workload, 100));
    let mut payless = PayLess::new(market.clone(), Mode::PayLess);
    for t in workload.local_tables() {
        payless.register_local(t.clone());
    }

    println!("Market access patterns:");
    for name in market.table_names() {
        println!(
            "  {:<9} {:>7} rows   {}",
            name,
            market.cardinality(&name).unwrap(),
            market.schema(&name).unwrap().binding_pattern()
        );
    }
    println!("\nQuotes' Symbol attribute is BOUND: every call must name a symbol.\n");

    // A query that cannot name symbols directly: the watchlist (a local
    // table) supplies them through a bind join.
    let sql = "SELECT Watchlist.Symbol, MAX(Price), MIN(Price) FROM Watchlist, Quotes \
               WHERE Watchlist.Symbol = Quotes.Symbol AND Day >= 100 AND Day <= 160 \
               GROUP BY Watchlist.Symbol";
    let out = payless.query(sql).expect("query runs");
    println!("Portfolio high/low over days 100-160:");
    for row in out.result.rows.iter().take(6) {
        println!(
            "  {:<9} high {:>6}  low {:>6}",
            row.get(0).render(),
            row.get(1).render(),
            row.get(2).render()
        );
    }
    let bill = market.bill();
    println!(
        "\nPlan: {}\nPaid {} transactions over {} calls — one probe per \
         watchlist symbol,\nnothing for the rest of the market.",
        out.plan.as_deref().unwrap_or("-"),
        bill.transactions(),
        bill.calls()
    );

    // Trying to scan Quotes without a symbol is *infeasible*, not expensive.
    match payless.query("SELECT * FROM Quotes WHERE Day = 5") {
        Err(e) => println!("\nAs expected, a symbol-less scan fails: {e}"),
        Ok(_) => println!("\nunexpected: symbol-less scan succeeded"),
    }

    // A sector query reaches Quotes through the Symbols directory instead.
    let before = market.bill().transactions();
    let out = payless
        .query(
            "SELECT AVG(Price) FROM Symbols, Quotes WHERE Sector = 'Sector3' AND \
             Symbols.Symbol = Quotes.Symbol AND Day >= 240 AND Day <= 250 \
             GROUP BY Quotes.Symbol",
        )
        .expect("query runs");
    println!(
        "\nSector average via the directory: {} symbols, {} additional transactions.",
        out.result.rows.len(),
        market.bill().transactions() - before
    );
}
