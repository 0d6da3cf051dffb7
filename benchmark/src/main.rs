//! The PayLess benchmark: closed-loop keep-alive socket load on a real
//! `payless-server` child for the end-to-end numbers, and an in-process
//! traced replay of the same streams for the per-layer ledger. See
//! `README.md` beside this package for the metric glossary.
//!
//! ```text
//! payless-benchmark --server-bin PATH --scratch DIR
//!     [--workload NAME --trace 0|1]   one run; last stdout line is the result object
//!     [--seed N] [--seconds S]
//!     [--smoke]                       every workload, tiny sizes, shape + correctness only
//!     [--check]                       two end-to-end sets; must agree within the bounds
//! ```
//!
//! Without `--workload` every workload runs once and one report holding
//! both metric sets is printed.

mod client;
mod ledger;
mod server;
mod socket;
mod streams;

use std::path::{Path, PathBuf};
use std::time::Instant;

use payless_json::Json;

use ledger::Layer;
use streams::{Sizing, Spec, CONNECTIONS, WORKLOADS};

/// Default seed; any claim made with this benchmark must also hold on
/// another.
const DEFAULT_SEED: u64 = 48879;
/// Default length of the measured phase, seconds (`run_seconds`).
const DEFAULT_SECONDS: u64 = 10;

/// One named measurement.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Which metric sets a run produces.
#[derive(Clone, Copy, PartialEq)]
enum Sets {
    EndToEnd,
    PerLayer,
    Both,
}

/// The outcome of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    info: Json,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64
}

/// Median over `k` of `a[k] / b[k]`: two replays of one stream compared
/// query by query, so a noisy stretch of either moves few of the ratios
/// where it would move a ratio of means.
fn paired(a: &[u64], b: &[u64]) -> f64 {
    let ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(a, b)| ratio(*a as f64, *b as f64))
        .collect();
    median(&ratios)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Env {
    server_bin: PathBuf,
    scratch: PathBuf,
    sizing: Sizing,
}

fn run_workload(
    env: &Env,
    spec: &Spec,
    seed: u64,
    seconds: u64,
    sets: Sets,
) -> Result<Outcome, String> {
    let began = Instant::now();
    let data = streams::data(spec);
    let pool = streams::pool(spec, &data, env.sizing);
    let digests = socket::oracle(&data, &pool)?;
    let oracle_s = began.elapsed().as_secs_f64();
    let scratch = env.scratch.join(spec.name);

    let setups = if sets == Sets::PerLayer { 1 } else { 9 };
    let sock = socket::run(
        &env.server_bin,
        spec,
        &pool,
        &digests,
        seed,
        seconds,
        setups,
        &scratch,
    )?;
    if let Some(e) = &sock.first_error {
        eprintln!("{}: first failure: {e}", spec.name);
    }
    let ok = sock.latencies_ns.len() as f64;
    let ms = |p: f64| percentile(&sock.latencies_ns, p) / 1e6;
    let correct = sock.failed == 0;
    let mut info = vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Int(seconds as i64)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
        ("connections", Json::Int(CONNECTIONS as i64)),
        (
            "git_revision",
            Json::str(std::env::var("PAYLESS_BENCH_REV").unwrap_or_else(|_| "unknown".into())),
        ),
        ("pool", Json::Int(pool.len() as i64)),
        ("setups", Json::Int(sock.setup_s.len() as i64)),
        ("rounds", Json::Int(sock.rounds as i64)),
        ("measured_samples", Json::Int(ok as i64)),
        ("measured_s", Json::Float(sock.measured_s)),
        ("counted_queries", Json::Int(sock.counted_queries as i64)),
        ("oracle_s", Json::Float(oracle_s)),
    ];

    let mut end_to_end = Vec::new();
    if sets != Sets::PerLayer {
        end_to_end = vec![
            metric("throughput_qps", "queries/s", ratio(ok, sock.measured_s)),
            metric("latency_p50_ms", "ms", ms(0.50)),
            metric(
                "pages_per_query",
                "pages",
                ratio(sock.counted_pages as f64, sock.counted_queries as f64),
            ),
            metric("setup_s", "s", median(&sock.setup_s)),
            metric("server_peak_rss_mb", "MiB", median(&sock.peak_rss_mib)),
        ];
    }

    let mut per_layer = Vec::new();
    if sets != Sets::EndToEnd {
        let replaying = Instant::now();
        let stream = ledger::stream(spec, pool.len(), seed, env.sizing);
        let ledger::Replays {
            ledger: traced,
            plain,
            bare,
        } = ledger::replay(spec, &data, &pool, &digests, &stream, &scratch)?;
        let n = traced.queries as f64;
        let us = |d: std::time::Duration| ratio(d.as_secs_f64() * 1e6, n);
        let run_query_us = ratio(plain.run_query_ns.iter().sum::<u64>() as f64 / 1000.0, n);
        let mut sorted = plain.run_query_ns.clone();
        sorted.sort_unstable();
        let run_query_p50_us = percentile(&sorted, 0.50) / 1000.0;
        let pages = traced.pages as f64;
        let p = &traced.persist;
        let layer_sum_share = paired(&traced.serve_ns, &plain.run_query_ns);
        if !(0.9..=1.1).contains(&layer_sum_share) {
            eprintln!(
                "{}: serve.layer_sum_share {layer_sum_share:.3} outside 0.9–1.1: \
                 the ledger does not account for the real call",
                spec.name
            );
        }
        if spec.hot && traced.pages != 0 {
            eprintln!(
                "{}: {} pages bought after the fill pass of a hot workload",
                spec.name, traced.pages
            );
        }
        per_layer = vec![
            metric(
                "server.http_read_us",
                "us",
                us(traced.layer(Layer::HttpRead)),
            ),
            metric(
                "server.http_write_us",
                "us",
                us(traced.layer(Layer::HttpWrite)),
            ),
            metric("json.parse_us", "us", us(traced.layer(Layer::JsonParse))),
            metric(
                "sql.bind_analyze_us",
                "us",
                us(traced.layer(Layer::BindAnalyze)),
            ),
            metric(
                "stats.snapshot_us",
                "us",
                us(traced.layer(Layer::StatsSnapshot)),
            ),
            metric(
                "semantic.snapshot_us",
                "us",
                us(traced.layer(Layer::StoreSnapshot)),
            ),
            metric(
                "server.socket_overhead_us",
                "us",
                ms(0.50) * 1000.0 - run_query_p50_us,
            ),
            metric(
                "recording.overhead_share",
                "ratio",
                paired(&plain.run_query_ns, &bare.run_query_ns) - 1.0,
            ),
            metric(
                "optimizer.optimize_us",
                "us",
                us(traced.layer(Layer::Optimize)),
            ),
            metric(
                "optimizer.plans_costed",
                "count",
                ratio(traced.plans_costed as f64, n),
            ),
            metric("exec.execute_us", "us", us(traced.layer(Layer::Execute))),
            metric("exec.join_us", "us", us(traced.join)),
            metric("exec.bindjoin_us", "us", us(traced.bind_join)),
            metric("exec.access_us", "us", us(traced.access)),
            metric("semantic.rewrite_us", "us", us(traced.rewrite)),
            metric("semantic.views", "count", traced.views as f64),
            metric("semantic.compactions", "count", traced.compactions as f64),
            metric("semantic.evictions", "count", traced.evictions as f64),
            metric(
                "semantic.full_hit_share",
                "ratio",
                ratio(traced.full_hits as f64, traced.probes as f64),
            ),
            metric(
                "market.calls_per_query",
                "count",
                ratio(traced.calls as f64, n),
            ),
            metric(
                "market.records_per_query",
                "count",
                ratio(traced.records as f64, n),
            ),
            metric("market.pages_after_fill", "count", pages),
            metric(
                "market.encode_rows_us",
                "us",
                us(traced.layer(Layer::EncodeRows)),
            ),
            metric(
                "market.response_bytes",
                "bytes",
                ratio(traced.response_bytes as f64, n),
            ),
            metric("server.persist_append_us", "us", us(p.append)),
            metric(
                "server.persist_appends_per_query",
                "count",
                ratio(p.appends as f64, n),
            ),
            metric(
                "server.persist_bytes_per_page",
                "bytes",
                ratio(p.bytes as f64, pages),
            ),
            metric(
                "server.snapshot_ms",
                "ms",
                ratio(p.snapshot.as_secs_f64() * 1e3, p.snapshots as f64),
            ),
            metric("server.recover_ms", "ms", p.recover.as_secs_f64() * 1e3),
            metric("exec.coalesce_waits", "count", sock.coalesce_waits as f64),
            metric("client.latency_p95_ms", "ms", ms(0.95)),
            metric("client.latency_p99_ms", "ms", ms(0.99)),
            metric("client.latency_max_ms", "ms", ms(1.0)),
            metric(
                "client.decode_us",
                "us",
                ratio(sock.decode.as_secs_f64() * 1e6, ok),
            ),
            metric(
                "client.error_share",
                "ratio",
                ratio(sock.failed as f64, sock.attempted as f64),
            ),
            metric("serve.run_query_us", "us", run_query_us),
            metric("serve.layer_sum_share", "ratio", layer_sum_share),
            metric(
                "trace.overhead_share",
                "ratio",
                paired(&traced.wall_ns, &plain.wall_ns) - 1.0,
            ),
        ];
        info.push(("traced_queries", Json::Int(traced.queries as i64)));
        info.push(("replay_s", Json::Float(replaying.elapsed().as_secs_f64())));
    }
    info.push(("wall_s", Json::Float(began.elapsed().as_secs_f64())));

    Ok(Outcome {
        correct,
        attempted: sock.attempted,
        failed: sock.failed,
        end_to_end,
        per_layer,
        info: Json::obj(info),
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value =
                    Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.to_string(), value)
            })
            .collect(),
    )
}

/// `end_to_end` bounds and both metric-name lists from `BENCHMARK.json`
/// in the working directory (the repository root).
struct Contract {
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<String>,
}

fn contract() -> Result<Contract, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let j = payless_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<(String, f64)>, String> {
        j.get(key)
            .and_then(|v| v.as_arr())
            .map_err(|e| e.to_string())?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(|n| n.as_str());
                let bound = m.get_opt("bound").map_or(Ok(0.0), |b| b.as_f64());
                Ok((
                    name.map_err(|e| e.to_string())?.to_string(),
                    bound.map_err(|e| e.to_string())?,
                ))
            })
            .collect()
    };
    Ok(Contract {
        end_to_end: names("end_to_end")?,
        per_layer: names("per_layer")?.into_iter().map(|(n, _)| n).collect(),
    })
}

/// The printed names must be exactly the contract's for the sets the run
/// was asked for, every value finite, and the run correct.
fn check_shape(
    spec: &Spec,
    outcome: &Outcome,
    contract: &Contract,
    sets: Sets,
) -> Result<(), String> {
    let printed = |ms: &[Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
    let e2e: Vec<String> = contract.end_to_end.iter().map(|(n, _)| n.clone()).collect();
    let per_layer: &[String] = match sets {
        Sets::EndToEnd => &[],
        _ => &contract.per_layer,
    };
    if printed(&outcome.end_to_end) != e2e || printed(&outcome.per_layer) != per_layer {
        return Err(format!(
            "{}: printed metric names differ from BENCHMARK.json",
            spec.name
        ));
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        if !m.value.is_finite() {
            return Err(format!("{}: {} is not finite", spec.name, m.name));
        }
    }
    if !outcome.correct {
        return Err(format!("{}: incorrect run", spec.name));
    }
    Ok(())
}

fn report(outcomes: &[(&Spec, Outcome)]) -> Json {
    Json::Obj(
        outcomes
            .iter()
            .map(|(spec, o)| {
                let body = Json::obj([
                    ("correct", Json::Bool(o.correct)),
                    ("attempted", Json::Int(o.attempted as i64)),
                    ("failed", Json::Int(o.failed as i64)),
                    ("info", o.info.clone()),
                    ("end_to_end", metrics_json(&o.end_to_end)),
                    ("per_layer", metrics_json(&o.per_layer)),
                ]);
                (spec.name.to_string(), body)
            })
            .collect(),
    )
}

fn run_all(
    env: &Env,
    seed: u64,
    seconds: u64,
    sets: Sets,
) -> Result<Vec<(&'static Spec, Outcome)>, String> {
    WORKLOADS
        .iter()
        .map(|spec| Ok((spec, run_workload(env, spec, seed, seconds, sets)?)))
        .collect()
}

struct Args {
    server_bin: PathBuf,
    scratch: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server_bin: PathBuf::new(),
        scratch: PathBuf::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--server-bin" => args.server_bin = value()?.into(),
            "--scratch" => args.scratch = value()?.into(),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.server_bin.as_os_str().is_empty() || args.scratch.as_os_str().is_empty() {
        return Err("--server-bin and --scratch are required (run.sh passes them)".into());
    }
    Ok(args)
}

fn run(args: &Args, scratch: &Path) -> Result<bool, String> {
    let env = Env {
        server_bin: args.server_bin.clone(),
        scratch: scratch.to_path_buf(),
        sizing: Sizing {
            div: if args.smoke { 10 } else { 1 },
        },
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 2 } else { DEFAULT_SECONDS });

    if let Some(name) = &args.workload {
        let spec = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("no workload {name:?}"))?;
        let sets = if args.trace {
            Sets::PerLayer
        } else {
            Sets::EndToEnd
        };
        let o = run_workload(&env, spec, args.seed, seconds, sets)?;
        println!("{}", o.info.to_string_compact());
        let metrics = if args.trace {
            &o.per_layer
        } else {
            &o.end_to_end
        };
        let result = Json::obj([
            ("correct", Json::Bool(o.correct)),
            ("attempted", Json::Int(o.attempted as i64)),
            ("failed", Json::Int(o.failed as i64)),
            ("metrics", metrics_json(metrics)),
        ]);
        println!("{}", result.to_string_compact());
        // The result line carries the verdict; the exit code says only
        // that a result was produced.
        return Ok(true);
    }

    let contract = contract()?;
    if args.check {
        let first = run_all(&env, args.seed, seconds, Sets::EndToEnd)?;
        let second = run_all(&env, args.seed, seconds, Sets::EndToEnd)?;
        let mut agree = true;
        for ((spec, a), (_, b)) in first.iter().zip(&second) {
            check_shape(spec, a, &contract, Sets::EndToEnd)?;
            check_shape(spec, b, &contract, Sets::EndToEnd)?;
            for ((ma, mb), (_, bound)) in a
                .end_to_end
                .iter()
                .zip(&b.end_to_end)
                .zip(&contract.end_to_end)
            {
                let apart = ratio((ma.value - mb.value).abs(), ma.value.abs());
                let verdict = if apart <= *bound { "ok" } else { "DISAGREE" };
                agree &= apart <= *bound;
                println!(
                    "{:10} {:20} {:>14.4} {:>14.4} {:<10} apart {:.4} bound {:.2} {verdict}",
                    spec.name, ma.name, ma.value, mb.value, ma.unit, apart, bound
                );
            }
        }
        println!(
            "{}",
            Json::obj([("first", report(&first)), ("second", report(&second))]).to_string_pretty()
        );
        return Ok(agree);
    }

    let outcomes = run_all(&env, args.seed, seconds, Sets::Both)?;
    println!("{}", report(&outcomes).to_string_pretty());
    for (spec, o) in &outcomes {
        check_shape(spec, o, &contract, Sets::Both)?;
    }
    Ok(true)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("payless-benchmark: {e}");
            std::process::exit(2);
        }
    };
    // A private scratch directory per process, so concurrent runs in one
    // checkout cannot collide; removed on every exit path below.
    let scratch = args.scratch.join(std::process::id().to_string());
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("payless-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
