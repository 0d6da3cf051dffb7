//! A meteorological-application session: the paper's Table 1 templates
//! issued with random parameters, comparing what each system variant pays.
//!
//! Run with: `cargo run --release --example weather_analytics`

use std::sync::Arc;

use payless_core::{Mode, PayLess};
use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QUERIES: usize = 60;

fn run(mode: Mode, workload: &RealWorkload, seed: u64) -> (u64, u64) {
    let market = Arc::new(build_market(workload, 100));
    let mut payless = PayLess::new(market.clone(), mode);
    for t in workload.local_tables() {
        payless.register_local(t.clone());
    }
    let templates: Vec<_> = workload
        .templates()
        .iter()
        .map(|t| payless.prepare(t).expect("template parses"))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..QUERIES {
        let t = rng.random_range(0..templates.len());
        let params = workload.sample_params(t, &mut rng);
        payless
            .execute_template(&templates[t], &params)
            .expect("query runs");
    }
    let bill = market.bill();
    (bill.transactions(), bill.calls())
}

fn main() {
    let workload = RealWorkload::generate(&WhwConfig::scaled(0.05));
    println!("Issuing {QUERIES} random instances of the five Table-1 templates per system.\n");
    println!("{:<16} {:>14} {:>10}", "system", "transactions", "calls");
    for (name, mode) in [
        ("PayLess", Mode::PayLess),
        ("PayLess w/o SQR", Mode::PayLessNoSqr),
        ("MinCalls", Mode::MinCalls),
        ("Download All", Mode::DownloadAll),
    ] {
        let (tx, calls) = run(mode, &workload, 2024);
        println!("{name:<16} {tx:>14} {calls:>10}");
    }
    println!(
        "\nPayLess should sit well below Download All and MinCalls: \
         it fetches only remainder regions and bind-joins selective lookups."
    );
}
