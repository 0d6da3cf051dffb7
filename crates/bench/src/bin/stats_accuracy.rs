//! The learning-optimizer angle, measured: how quickly does the
//! feedback-driven statistic converge?
//!
//! PayLess starts with nothing but cardinality + domains (pure uniformity)
//! and refines from every retrieval — the LEO-style loop of Section 1. This
//! binary issues the real-data workload through a one-client [`Serve`] as
//! full PayLess and, after every few queries, probes the Weather estimator
//! in the serving layer's statistics with random regions, reporting the
//! mean relative error against ground truth. The error should fall as
//! coverage grows.

use std::sync::Arc;

use payless_bench::{env_f64, env_usize};
use payless_core::{Serve, ServeConfig};
use payless_geometry::Region;
use payless_types::Value;
use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scale = env_f64("PAYLESS_SCALE_REAL", 0.05);
    let q = env_usize("PAYLESS_Q_REAL", 30);
    let workload = RealWorkload::generate(&WhwConfig::scaled(scale));
    let serve = Serve::new(
        Arc::new(build_market(&workload, 100)),
        workload.local_tables(),
        ServeConfig::one_client(),
    );
    let templates: Vec<_> = workload
        .templates()
        .iter()
        .map(|t| serve.prepare(t).unwrap())
        .collect();

    // Ground truth for Weather: materialize the rows once.
    let weather = workload
        .market_tables()
        .iter()
        .find(|t| &*t.schema.table == "Weather")
        .expect("weather table");
    let space = serve
        .state()
        .store()
        .space("Weather")
        .expect("weather is a market table");
    let truth = |region: &Region| -> u64 {
        weather
            .rows()
            .iter()
            .filter(|row| {
                space.dims().iter().enumerate().all(|(i, d)| {
                    let iv = region.dim(i);
                    match row.get(d.col) {
                        Value::Int(x) => iv.contains_point(*x),
                        Value::Str(s) => d
                            .cat_index(s)
                            .map(|c| iv.contains_point(c))
                            .unwrap_or(false),
                        _ => false,
                    }
                })
            })
            .count() as u64
    };

    let full = space.full_region();
    let mut probe_rng = StdRng::seed_from_u64(99);
    // Two probe families:
    //  - "workload-shaped": one country, all stations, a date window — the
    //    regions the optimizer actually prices when planning these queries;
    //  - "random": arbitrary boxes, including station subranges the workload
    //    never isolates (feedback cannot teach what it never observes).
    let mut workload_probes: Vec<Region> = Vec::new();
    for _ in 0..50 {
        let c = probe_rng.random_range(full.dim(0).lo..=full.dim(0).hi);
        let len = probe_rng.random_range(5..=40i64);
        let lo = probe_rng.random_range(1..=(full.dim(2).hi - len + 1).max(1));
        workload_probes.push(Region::new(vec![
            payless_geometry::Interval::point(c),
            full.dim(1),
            payless_geometry::Interval::new(lo, lo + len - 1),
        ]));
    }
    let mut random_probes: Vec<Region> = Vec::new();
    for _ in 0..50 {
        let dims: Vec<payless_geometry::Interval> = full
            .dims()
            .iter()
            .map(|iv| {
                let width = ((iv.width() as f64) * probe_rng.random_range(0.05..0.5)) as i64;
                let width = width.max(1);
                let lo = probe_rng.random_range(iv.lo..=(iv.hi - width + 1).max(iv.lo));
                payless_geometry::Interval::new(lo, (lo + width - 1).min(iv.hi))
            })
            .collect();
        random_probes.push(Region::new(dims));
    }

    let mean_error = |probes: &[Region]| -> f64 {
        let registry = serve.state().stats_snapshot();
        let stats = registry.table("Weather").unwrap();
        let mut total = 0.0;
        for p in probes {
            let est = stats.estimate(p);
            let actual = truth(p) as f64;
            // Symmetric relative error, robust to zeros.
            total += (est - actual).abs() / (est.max(actual)).max(1.0);
        }
        total / probes.len() as f64
    };

    println!("\n== backend: MultiDim ==");
    println!("Estimator accuracy on Weather as the workload runs");
    println!("(mean symmetric relative error over 50 probes per family):\n");
    println!(
        "{:>8} {:>18} {:>14}",
        "#queries", "workload probes", "random probes"
    );
    let report = |issued: usize| {
        println!(
            "{:>8} {:>18.3} {:>14.3}",
            issued,
            mean_error(&workload_probes),
            mean_error(&random_probes)
        );
    };
    report(0);
    let mut rng = StdRng::seed_from_u64(7);
    let mut issued = 0usize;
    for _ in 0..q {
        for (t, template) in templates.iter().enumerate() {
            let params = workload.sample_params(t, &mut rng);
            serve.run_query(template, &params).unwrap();
            issued += 1;
        }
        if issued % 25 < templates.len() {
            report(issued);
        }
    }
    println!(
        "\nTotal paid: {} transactions.",
        serve.market().bill().transactions()
    );
    println!(
        "MultiDim (ISOMER-style): error on workload-shaped regions falls\n\
         as feedback accumulates; error on never-observed random regions\n\
         persists — the statistic learns exactly what the workload\n\
         exercises."
    );
}
