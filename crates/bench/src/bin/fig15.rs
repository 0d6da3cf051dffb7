//! Figure 15 — effectiveness of the bounding-box pruning rules of
//! Algorithm 1: average number of bounding boxes generated per query, with
//! pruning (PayLess) and without (No Pruning), as q varies.

use payless_bench::{env_f64, env_usize, run_mode, RunConfig};
use payless_core::Mode;
use payless_workload::{QueryWorkload, RealWorkload, Tpch, TpchConfig, WhwConfig};

fn sweep(label: &str, workload: &(dyn QueryWorkload + Sync), qs: &[usize], reps: usize) {
    println!("\n==== {label} ====");
    println!("{:>6} {:>14} {:>14}", "q", "PayLess", "No Pruning");
    for &q in qs {
        let cfg = RunConfig {
            queries_per_template: q,
            repetitions: reps,
            ..Default::default()
        };
        // With pruning: count the boxes surviving both rules. Without: the
        // raw enumeration count. Both are measured on the same (pruned)
        // execution — pruning does not change which plans are chosen, only
        // how many candidates are materialized (rewrite.rs reports both).
        let run = run_mode(workload, Mode::PayLess, "PayLess", &cfg);
        println!(
            "{:>6} {:>14.2} {:>14.2}",
            q, run.avg_boxes_kept, run.avg_boxes_enumerated
        );
    }
}

fn main() {
    let reps = env_usize("PAYLESS_REPS", 5);
    let real = RealWorkload::generate(&WhwConfig::scaled(env_f64("PAYLESS_SCALE_REAL", 0.05)));
    sweep(
        "Figure 15a: avg # bounding boxes, real data",
        &real,
        &[20, 40, 60],
        reps,
    );
    let scale = env_f64("PAYLESS_SCALE_TPCH", 0.001);
    let tpch = Tpch::generate(&TpchConfig::uniform(scale));
    sweep(
        "Figure 15b: avg # bounding boxes, TPC-H",
        &tpch,
        &[5, 10, 20],
        reps,
    );
    let skew = Tpch::generate(&TpchConfig::skewed(scale));
    sweep(
        "Figure 15c: avg # bounding boxes, TPC-H skew",
        &skew,
        &[5, 10, 20],
        reps,
    );
}
