//! TPC-H over a data market: scan-heavy analytics where "Download All" is a
//! serious contender — until semantic rewriting has cached the hot regions.
//!
//! Run with: `cargo run --release --example tpch_market`

use std::sync::Arc;

use payless_core::{Mode, PayLess};
use payless_workload::{build_market, QueryWorkload, Tpch, TpchConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let workload = Tpch::generate(&TpchConfig::uniform(0.002));
    let market = Arc::new(build_market(&workload, 100));
    println!("TPC-H-shaped market (scale 0.002):");
    for name in market.table_names() {
        println!(
            "  {:<10} {:>7} rows",
            name,
            market.cardinality(&name).unwrap()
        );
    }

    let n_queries = 40;
    println!("\nIssuing {n_queries} random instances of 8 TPC-H-style templates.\n");
    println!("{:<16} {:>14} {:>10}", "system", "transactions", "calls");
    for (name, mode) in [
        ("PayLess", Mode::PayLess),
        ("PayLess w/o SQR", Mode::PayLessNoSqr),
        ("Download All", Mode::DownloadAll),
    ] {
        let market = Arc::new(build_market(&workload, 100));
        let mut payless = PayLess::new(market.clone(), mode);
        for t in workload.local_tables() {
            payless.register_local(t.clone());
        }
        let templates: Vec<_> = workload
            .templates()
            .iter()
            .map(|t| payless.prepare(t).expect("parses"))
            .collect();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..n_queries {
            let t = rng.random_range(0..templates.len());
            let params = workload.sample_params(t, &mut rng);
            payless
                .execute_template(&templates[t], &params)
                .expect("query runs");
        }
        let bill = market.bill();
        println!(
            "{name:<16} {:>14} {:>10}",
            bill.transactions(),
            bill.calls()
        );
    }
    println!(
        "\nTPC-H queries scan large fractions of the data, so PayLess \
         without rewriting re-fetches overlapping regions and loses to \
         Download All — with rewriting it converges onto the dataset once \
         and stops paying, exactly as in Figure 10b of the paper."
    );
}
