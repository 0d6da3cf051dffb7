//! Figure 12 — influence of the number of query instances per template `q`:
//! PayLess vs. Download All for q ∈ {100, 200, 300} on real data (the paper
//! also shows the same shape at smaller q) and q ∈ {5, 10, 20} on
//! TPC-H / TPC-H skew.
//!
//! Defaults here use scaled-down real-data q values; override with
//! `PAYLESS_Q_LIST_REAL="100,200,300"` to match the paper exactly.

use payless_bench::{env_f64, env_usize, print_cumulative, q_list, run_mode, RunConfig};
use payless_core::Mode;
use payless_workload::{QueryWorkload, RealWorkload, Tpch, TpchConfig, WhwConfig};

fn sweep(label: &str, workload: &(dyn QueryWorkload + Sync), qs: &[usize], reps: usize) {
    for &q in qs {
        let cfg = RunConfig {
            queries_per_template: q,
            repetitions: reps,
            ..Default::default()
        };
        let runs = vec![
            run_mode(workload, Mode::PayLess, "PayLess", &cfg),
            run_mode(workload, Mode::DownloadAll, "Download All", &cfg),
        ];
        print_cumulative(&format!("{label}, q = {q} ({reps} reps)"), &runs);
    }
}

fn main() {
    let reps = env_usize("PAYLESS_REPS", 5);
    let real = RealWorkload::generate(&WhwConfig::scaled(env_f64("PAYLESS_SCALE_REAL", 0.05)));
    sweep(
        "Figure 12a-c: real data",
        &real,
        &q_list("PAYLESS_Q_LIST_REAL", &[20, 40, 60]),
        reps,
    );
    let scale = env_f64("PAYLESS_SCALE_TPCH", 0.001);
    let tpch = Tpch::generate(&TpchConfig::uniform(scale));
    sweep(
        "Figure 12d-f: TPC-H",
        &tpch,
        &q_list("PAYLESS_Q_LIST_TPCH", &[5, 10, 20]),
        reps,
    );
    let skew = Tpch::generate(&TpchConfig::skewed(scale));
    sweep(
        "Figure 12d-f: TPC-H skew",
        &skew,
        &q_list("PAYLESS_Q_LIST_TPCH", &[5, 10, 20]),
        reps,
    );
}
