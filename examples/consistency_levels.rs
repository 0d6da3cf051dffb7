//! The consistency levels of Section 4.3: weak, X-week, and strong.
//!
//! Weak consistency reuses any stored result; `Window(n)` reuses results at
//! most `n` clock ticks old; strong consistency always goes to the market.
//!
//! Run with: `cargo run --example consistency_levels`

use std::sync::Arc;

use payless_core::{Consistency, Mode, PayLess, Serve, ServeConfig};
use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};

fn main() {
    let workload = RealWorkload::generate(&WhwConfig::scaled(0.02));
    let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country0' AND \
               Weather.Date >= 100 AND Weather.Date <= 120";

    println!("Same query issued 4 times, one clock tick apart, then once");
    println!("more after 10 idle ticks, under each consistency level.\n");
    println!("{:<14} {:>22}", "consistency", "total transactions");

    for (name, consistency) in [
        ("weak", Consistency::Weak),
        ("window(2)", Consistency::Window(2)),
        ("strong", Consistency::Strong),
    ] {
        let market = Arc::new(build_market(&workload, 100));
        let cfg = ServeConfig {
            consistency,
            ..ServeConfig::one_client()
        };
        let serve = Serve::new(market.clone(), workload.local_tables(), cfg);
        let mut payless = PayLess::over(serve, Mode::PayLess);
        for _ in 0..4 {
            payless.query(sql).expect("query runs");
        }
        payless.advance_clock(10);
        payless.query(sql).expect("query runs");
        println!("{name:<14} {:>22}", market.bill().transactions());
    }

    println!(
        "\nWeak pays once; window(2) re-pays when its results age out; \
         strong re-pays every time. The knob trades money for freshness \
         when sellers update data in place."
    );
}
