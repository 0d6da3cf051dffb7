//! Self-contained micro-timing utilities shared by the bench binaries
//! (`microbench`, `hotpath`): no external bench framework, just warmed-up
//! batched sampling plus the `PAYLESS_JSON` JSONL dump convention.

use std::time::{Duration, Instant};

use payless_json::{Json, ToJson};

/// Time `f`, returning per-iteration nanoseconds: min, median, mean.
///
/// Warm-up and batch-size calibration: the batch grows until it takes at
/// least ~1 ms, so `Instant` overhead is amortized away; then batches run
/// until ~50 ms of samples are collected.
pub fn measure(mut f: impl FnMut()) -> (f64, f64, f64) {
    let mut batch = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        if start.elapsed() >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let budget = Duration::from_millis(50);
    let begin = Instant::now();
    let mut samples = Vec::new();
    while begin.elapsed() < budget || samples.len() < 5 {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
        if samples.len() >= 1000 {
            break;
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (min, median, mean)
}

/// Format nanoseconds with a human unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Collects benchmark rows, prints them aligned, and emits one JSONL line
/// (`{"figure": <name>, "runs": [...], <extras>}`) when `PAYLESS_JSON` is
/// set — same convention as the `fig*` binaries.
pub struct Runner {
    figure: String,
    results: Vec<(String, f64, f64, f64)>,
    extras: Vec<(String, f64)>,
}

impl Runner {
    /// Start a runner for one figure (one JSONL line).
    pub fn new(figure: &str) -> Runner {
        println!(
            "{:<44} {:>10} {:>10} {:>10}",
            "benchmark", "min", "median", "mean"
        );
        Runner {
            figure: figure.to_string(),
            results: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Measure one case and record the row.
    pub fn bench(&mut self, name: &str, f: impl FnMut()) {
        let (min, median, mean) = measure(f);
        println!(
            "{:<44} {:>10} {:>10} {:>10}",
            name,
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean)
        );
        self.results.push((name.to_string(), min, median, mean));
    }

    /// Names of every recorded case, in bench order.
    pub fn run_names(&self) -> Vec<String> {
        self.results.iter().map(|(n, _, _, _)| n.clone()).collect()
    }

    /// Median nanoseconds of a recorded case (for derived metrics).
    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map(|(_, _, median, _)| *median)
    }

    /// Record a derived scalar (e.g. a speedup ratio): printed and added as
    /// a top-level field of the JSONL line.
    pub fn note(&mut self, key: &str, value: f64) {
        println!("{key:<44} {value:>10.2}");
        self.extras.push((key.to_string(), value));
    }

    /// All recorded notes (for derived gates like the speedup warnings).
    pub fn notes(&self) -> &[(String, f64)] {
        &self.extras
    }

    /// Print/emit and consume the runner.
    pub fn finish(self) {
        let Ok(dest) = std::env::var("PAYLESS_JSON") else {
            return;
        };
        let runs: Vec<Json> = self
            .results
            .iter()
            .map(|(name, min, median, mean)| {
                Json::Obj(vec![
                    ("name".to_string(), name.to_json()),
                    ("min_nanos".to_string(), min.to_json()),
                    ("median_nanos".to_string(), median.to_json()),
                    ("mean_nanos".to_string(), mean.to_json()),
                ])
            })
            .collect();
        let mut fields = vec![
            ("figure".to_string(), self.figure.to_json()),
            ("runs".to_string(), runs.to_json()),
        ];
        for (k, v) in &self.extras {
            fields.push((k.clone(), v.to_json()));
        }
        let line = Json::Obj(fields).to_string_compact();
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
}
