//! Shared harness for the PayLess evaluation binaries.
//!
//! Each `fig*` binary regenerates one figure of the paper by driving
//! [`run_mode`] over a workload and printing the same series the paper
//! plots. The harness follows the paper's protocol: generate `q` valid
//! query instances per template, issue them in a random order, average over
//! repeated experiments (the paper uses 30; override with `PAYLESS_REPS`).

#![warn(missing_docs)]

use std::sync::Arc;

use payless_core::{build_market, Mode, PayLess, PayLessConfig};
use payless_json::{Json, ToJson};
use payless_workload::QueryWorkload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Tuples per transaction (`t`; paper default 100).
    pub page_size: u64,
    /// Query instances per template (`q`).
    pub queries_per_template: usize,
    /// Repetitions to average over (paper: 30).
    pub repetitions: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Store-freshness policy.
    pub consistency: payless_core::Consistency,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            page_size: 100,
            queries_per_template: 10,
            repetitions: env_usize("PAYLESS_REPS", 5),
            seed: 42,
            consistency: payless_core::Consistency::Weak,
        }
    }
}

// The figure binaries' one way to the environment: configuration enters at
// the binary edge (DESIGN.md), and this file is that edge for `bench`.
#[allow(clippy::disallowed_methods)]
fn env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Read a `usize` override from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    env(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read an `f64` override from the environment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    env(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a comma-separated `q` sweep override from the environment
/// (Figure 12); unparseable entries are skipped.
pub fn q_list(name: &str, default: &[usize]) -> Vec<usize> {
    env(name)
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

/// Aggregated measurements for one system variant.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Display name.
    pub name: String,
    /// Mean cumulative transactions after each issued query.
    pub cumulative_tx: Vec<f64>,
    /// Mean candidate (sub)plans costed per query (Figure 14's metric).
    pub avg_plans: f64,
    /// Mean bounding boxes surviving pruning per query (Figure 15).
    pub avg_boxes_kept: f64,
    /// Mean bounding boxes enumerated per query (Figure 15 "No Pruning").
    pub avg_boxes_enumerated: f64,
    /// Mean optimization time per query (nanoseconds).
    pub avg_optimize_nanos: f64,
    /// Mean execution time per query (nanoseconds).
    pub avg_execute_nanos: f64,
}

impl ToJson for ModeRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("cumulative_tx", self.cumulative_tx.to_json()),
            ("avg_plans", self.avg_plans.to_json()),
            ("avg_boxes_kept", self.avg_boxes_kept.to_json()),
            ("avg_boxes_enumerated", self.avg_boxes_enumerated.to_json()),
            ("avg_optimize_nanos", self.avg_optimize_nanos.to_json()),
            ("avg_execute_nanos", self.avg_execute_nanos.to_json()),
        ])
    }
}

/// Machine-readable form of one figure: the title plus every mode's full
/// series and summary metrics.
pub fn figure_json(title: &str, runs: &[ModeRun]) -> Json {
    Json::obj([
        ("figure", title.to_json()),
        (
            "runs",
            runs.iter()
                .map(ToJson::to_json)
                .collect::<Vec<_>>()
                .to_json(),
        ),
    ])
}

/// When `PAYLESS_JSON` is set, emit the figure as one compact JSON line
/// (JSONL) so plots can be regenerated without scraping the tables.
/// `PAYLESS_JSON=-` writes to stdout; any other value is treated as a file
/// path to append to.
pub fn emit_json(title: &str, runs: &[ModeRun]) {
    let Some(dest) = env("PAYLESS_JSON") else {
        return;
    };
    let line = figure_json(title, runs).to_string_compact();
    if dest == "-" {
        println!("{line}");
    } else {
        use std::io::Write;
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&dest)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{line}");
            }
            Err(e) => eprintln!("PAYLESS_JSON: cannot open {dest}: {e}"),
        }
    }
}

/// The query schedule of one repetition: `q` instances per template,
/// shuffled. The schedule depends only on `(workload, cfg, rep)` so every
/// mode sees identical queries.
fn schedule(
    workload: &dyn QueryWorkload,
    cfg: &RunConfig,
    rep: usize,
) -> Vec<(usize, Vec<payless_types::Value>)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (rep as u64).wrapping_mul(0x9E37_79B9));
    let mut out = Vec::new();
    for t in 0..workload.templates().len() {
        for _ in 0..cfg.queries_per_template {
            out.push((t, workload.sample_params(t, &mut rng)));
        }
    }
    out.shuffle(&mut rng);
    out
}

/// Run one mode over the workload, averaging over `cfg.repetitions`.
pub fn run_mode(
    workload: &(dyn QueryWorkload + Sync),
    mode: Mode,
    name: &str,
    cfg: &RunConfig,
) -> ModeRun {
    let reps = cfg.repetitions.max(1);
    let n_queries = workload.templates().len() * cfg.queries_per_template;
    let mut cumulative = vec![0.0f64; n_queries];
    let mut plans = 0.0;
    let mut kept = 0.0;
    let mut enumerated = 0.0;
    let mut opt_ns = 0.0;
    let mut exe_ns = 0.0;

    // Repetitions are independent; run them on scoped threads.
    let results: Vec<RepResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..reps)
            .map(|rep| {
                let cfg = cfg.clone();
                s.spawn(move || run_rep(workload, mode, &cfg, rep))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &results {
        for (i, v) in r.cumulative.iter().enumerate() {
            cumulative[i] += *v as f64;
        }
        plans += r.plans;
        kept += r.kept;
        enumerated += r.enumerated;
        opt_ns += r.opt_ns;
        exe_ns += r.exe_ns;
    }
    let rf = reps as f64;
    for v in &mut cumulative {
        *v /= rf;
    }
    let per_query = rf * n_queries as f64;
    ModeRun {
        name: name.to_string(),
        cumulative_tx: cumulative,
        avg_plans: plans / per_query,
        avg_boxes_kept: kept / per_query,
        avg_boxes_enumerated: enumerated / per_query,
        avg_optimize_nanos: opt_ns / per_query,
        avg_execute_nanos: exe_ns / per_query,
    }
}

struct RepResult {
    cumulative: Vec<u64>,
    plans: f64,
    kept: f64,
    enumerated: f64,
    opt_ns: f64,
    exe_ns: f64,
}

fn run_rep(workload: &dyn QueryWorkload, mode: Mode, cfg: &RunConfig, rep: usize) -> RepResult {
    let market = Arc::new(build_market(workload, cfg.page_size));
    let mut session_cfg = PayLessConfig::mode(mode);
    session_cfg.consistency = cfg.consistency;
    let mut pl = PayLess::new(market.clone(), session_cfg);
    for t in workload.local_tables() {
        pl.register_local(t.clone());
    }
    let templates: Vec<_> = workload
        .templates()
        .iter()
        .map(|t| pl.prepare(t).expect("template parses"))
        .collect();

    let mut cumulative = Vec::new();
    let mut plans = 0.0;
    let mut kept = 0.0;
    let mut enumerated = 0.0;
    let mut opt_ns = 0.0;
    let mut exe_ns = 0.0;
    for (t, params) in schedule(workload, cfg, rep) {
        let out = pl
            .execute_template(&templates[t], &params)
            .unwrap_or_else(|e| panic!("template {t} failed: {e}"));
        cumulative.push(market.bill().transactions());
        plans += out.counters.plans_considered as f64;
        kept += out.counters.boxes_kept as f64;
        enumerated += out.counters.boxes_enumerated as f64;
        opt_ns += out.optimize_nanos as f64;
        exe_ns += out.execute_nanos as f64;
    }
    RepResult {
        cumulative,
        plans,
        kept,
        enumerated,
        opt_ns,
        exe_ns,
    }
}

/// Print a figure's series as a column-aligned table (query index vs. mean
/// cumulative transactions per system), sampling ~20 evenly spaced rows.
pub fn print_cumulative(title: &str, runs: &[ModeRun]) {
    emit_json(title, runs);
    println!("\n== {title} ==");
    print!("{:>8}", "#queries");
    for r in runs {
        print!(" {:>18}", r.name);
    }
    println!();
    let n = runs.first().map(|r| r.cumulative_tx.len()).unwrap_or(0);
    let step = (n / 20).max(1);
    let mut idx: Vec<usize> = (0..n).step_by(step).collect();
    if idx.last() != Some(&(n - 1)) && n > 0 {
        idx.push(n - 1);
    }
    for i in idx {
        print!("{:>8}", i + 1);
        for r in runs {
            print!(" {:>18.1}", r.cumulative_tx[i]);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_workload::{RealWorkload, WhwConfig};

    fn workload() -> RealWorkload {
        RealWorkload::generate(&WhwConfig {
            stations: 24,
            countries: 3,
            cities_per_country: 2,
            days: 20,
            zips: 30,
            ranks: 100,
            seed: 5,
        })
    }

    #[test]
    fn schedule_depends_on_rep_not_mode() {
        let w = workload();
        let cfg = RunConfig {
            queries_per_template: 3,
            repetitions: 1,
            ..Default::default()
        };
        // Same (cfg, rep) -> identical schedule; different rep -> different.
        let a = schedule(&w, &cfg, 0);
        let b = schedule(&w, &cfg, 0);
        let c = schedule(&w, &cfg, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), w.templates().len() * 3);
    }

    #[test]
    fn run_mode_produces_monotone_cumulative_series() {
        let w = workload();
        let cfg = RunConfig {
            queries_per_template: 2,
            repetitions: 2,
            ..Default::default()
        };
        let run = run_mode(&w, Mode::PayLess, "payless", &cfg);
        assert_eq!(run.cumulative_tx.len(), w.templates().len() * 2);
        assert!(run.cumulative_tx.windows(2).all(|p| p[0] <= p[1] + 1e-9));
        assert!(run.avg_plans > 0.0);
        assert!(run.avg_optimize_nanos > 0.0);
    }

    #[test]
    fn env_parsers_fall_back_to_defaults() {
        assert_eq!(env_usize("PAYLESS_NO_SUCH_VAR_12345", 7), 7);
        assert_eq!(env_f64("PAYLESS_NO_SUCH_VAR_12345", 0.5), 0.5);
    }

    #[test]
    fn figure_json_round_trips() {
        let runs = vec![ModeRun {
            name: "PayLess".into(),
            cumulative_tx: vec![1.0, 2.5],
            avg_plans: 3.0,
            avg_boxes_kept: 1.0,
            avg_boxes_enumerated: 2.0,
            avg_optimize_nanos: 1e6,
            avg_execute_nanos: 2e6,
        }];
        let json = figure_json("Figure X", &runs);
        let parsed = payless_json::parse(&json.to_string_compact()).unwrap();
        assert_eq!(
            parsed.get_opt("figure"),
            Some(&Json::Str("Figure X".into()))
        );
        let run = &parsed.get_opt("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get_opt("name"), Some(&Json::Str("PayLess".into())));
        assert_eq!(
            run.get_opt("cumulative_tx")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
    }
}
