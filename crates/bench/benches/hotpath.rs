//! Hot-path benchmark for the plan search and the indexed semantic store:
//! the store's index probe, the SQR rewrite (cached remainder vs scratch
//! subtraction), and both DP engines.
//!
//! Modes (positional args; cargo's own `--bench` flag is ignored):
//!
//! * `sqr`      — store probe + Algorithm 1 rewrite
//! * `store-scale` — probe + rewrite at 1k and 10k stored views; exits
//!   non-zero when the 10k-view rewrite median exceeds the *old* 225-view
//!   rewrite time (the scaling cap CI smokes)
//! * `dp`       — left-deep and bushy DP
//! * `smoke`    — tiny versions of `sqr` and `dp` (CI)
//! * `validate <file>...` — check that each `PAYLESS_JSON` dump or committed
//!   baseline is well-formed JSONL (one object per line with `figure` and a
//!   `runs` array of named medians, at least one run per file); exits
//!   non-zero otherwise
//! * `diff <baseline.json>...` — re-run the full-scale benches and compare
//!   each median against the committed `BENCH_*.json` baselines; exits
//!   non-zero when any run regressed by more than 25%. When
//!   `BENCH_DIFF_JSON` names a path, a machine-readable summary of every
//!   per-bench delta is written there (regressions included) before the
//!   exit status is decided
//! * `validate-explain <file>` — check an `--explain-out` report dump: a
//!   non-empty `operators` array where every node carries both an `est`
//!   and an `actual` object, plus a `q_error` section
//! * `serve <out.json>` — replay a deterministic multi-client mix through
//!   the concurrent serving layer and dump the reconciled
//!   [`payless_serve::ServeReport`]. Knobs: the worker count (see
//!   [`serve`]), `PAYLESS_CLIENTS`, `PAYLESS_SERVE_QUERIES`, `PAYLESS_SERVE_SEED`,
//!   `PAYLESS_COALESCE=0` (disable single flight), `PAYLESS_FAULT_SEED`
//!   (chaos-inject the market; retries become unlimited),
//!   `PAYLESS_STORE_MAX_VIEWS` / `PAYLESS_STORE_COMPACT=0` (shared-store
//!   view cap and compaction toggle). When
//!   `PAYLESS_METRICS_OUT` names a path, a metrics hub is attached and its
//!   exposition (+ `.jsonl` windowed series) is dumped there on exit;
//!   `PAYLESS_METRICS_WINDOW_MS` and `PAYLESS_METRICS_STRICT` apply
//! * `validate-serve <serial.json> <parallel.json>` — reconcile two serve
//!   dumps of the same mix: identical answers query-by-query, each ledger
//!   equal to its billing meter, and parallel delivered spend no greater
//!   than the serial oracle's
//! * `metrics` — the serve mix with the metrics hub attached vs detached;
//!   the `overhead/metrics_on` note is the on/off median ratio the diff
//!   mode gates at 5%
//! * `events` — the serve mix with the flight recorder attached vs
//!   detached; the `overhead/events_on` note is the on/off ratio the diff
//!   mode gates at 5% (the committed `BENCH_events.json` is this mode's
//!   `PAYLESS_JSON` dump)
//! * `validate-events <file> [expect-violation]` — check a flight-recorder
//!   JSONL dump (an `--events-out` journal or a black box): every line one
//!   JSON event with strictly increasing `seq`, a known `severity`, a
//!   `kind`, and an `at_nanos` timestamp. With `expect-violation`, the
//!   dump must be a real post-mortem: a `watchdog_violation` event plus
//!   the `blackbox` marker
//! * `events-abort <blackbox.jsonl>` — deliberately break reconciliation
//!   mid-run (one unattributed charge straight onto the billing meter)
//!   under the strict per-query watchdog; exits non-zero unless the mix
//!   aborts *and* the journal's black box lands at the given path
//! * `validate-metrics <metrics.txt> <serve.json>` — cross-check a metrics
//!   dump against the serve report it was taken with: exposition shape,
//!   billed pages == the report's meter delta (the reconciliation
//!   invariant), query counts, watchdog samples with zero final drift, and
//!   a windowed JSONL series whose per-window deltas sum to the cumulative
//!   totals
//! * `batch <out.json>` — replay the pinned overlapping-hot-region mix
//!   with batched purchasing on at 1/2/4/8 clients and dump the
//!   spend-per-query curve as JSONL (the committed `BENCH_batch.json`);
//!   exits non-zero unless spend per query *strictly* decreases as
//!   clients are added
//! * `batch-serve <out.json>` — one serve run of the overlapping mix,
//!   dumped as a [`payless_serve::ServeReport`]. Same env knobs as
//!   `serve`, plus `PAYLESS_BATCH` / `PAYLESS_BATCH_WINDOW_MS` /
//!   `PAYLESS_BATCH_MAX` for the purchase window
//!   (`PAYLESS_SERVE_QUERIES` counts queries *per client* here)
//! * `validate-batch <unbatched.json> <batched.json>` — reconcile a
//!   batched replay of the overlapping mix against its unbatched twin:
//!   identical answers, both ledgers reconciled, batched delivered spend
//!   no greater than unbatched, and the batched run must actually have
//!   parked remainders in batches
//!
//! With no mode, `sqr` and `dp` both run at full scale. Emit JSONL by
//! setting `PAYLESS_JSON` (the `BENCH_sqr.json` / `BENCH_dp.json` baselines
//! at the repo root are produced this way).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use payless_bench::micro::{fmt_ns, Runner};
use payless_core::{
    build_market, EventJournal, FaultInjector, FaultPlan, MetricsConfig, MetricsHub, RetryPolicy,
};
use payless_geometry::{region, QuerySpace, Region};
use payless_json::{FromJson, Json, ToJson};
use payless_optimizer::{optimize, OptimizerConfig};
use payless_semantic::{
    rewrite, rewrite_cached, Consistency, Rewrite, RewriteConfig, SemanticStore, StoreConfig,
};
use payless_serve::{run_mix, BatchConfig, Serve, ServeConfig, ServeReport};
use payless_sql::{analyze, parse, MapCatalog, TableLocation};
use payless_stats::{StatsRegistry, TableStats};
use payless_types::{Column, Domain, Schema};
use payless_workload::{overlapping_mix, serve_mix, QueryWorkload, RealWorkload, WhwConfig};

/// Scale knobs for one run.
struct Scale {
    /// Views per side of the store grid (total views = grid²).
    grid: usize,
    /// Views per side the benchmark query spans.
    window: usize,
    /// Histogram buckets to train (what makes one statistics probe costly).
    buckets: usize,
    /// Chain length for the DP benches.
    dp_tables: usize,
    /// Feedback rounds per DP table.
    dp_feedbacks: usize,
    /// Queries in the metrics-overhead serve mix.
    serve_queries: usize,
}

const FULL: Scale = Scale {
    grid: 15, // 225 stored views
    window: 6,
    buckets: 4096,
    dp_tables: 8,
    dp_feedbacks: 400,
    serve_queries: 48,
};

const SMOKE: Scale = Scale {
    grid: 8, // 64 stored views
    window: 3,
    buckets: 256,
    dp_tables: 5,
    dp_feedbacks: 48,
    serve_queries: 12,
};

/// Grid spacing and view width: views are disjoint and non-adjacent so the
/// store's coalescer keeps all of them.
const SPACING: i64 = 400;
const VIEW_W: i64 = 100;

/// A 2-D table whose store holds `grid x grid` disjoint views and whose
/// histogram has been trained to `buckets` buckets, so every cardinality
/// probe pays a real statistics lookup. The store's view cap is raised
/// above `grid²` so no view is evicted — these benches measure lookup
/// scaling, not the eviction policy.
fn sqr_fixture(s: &Scale) -> (TableStats, SemanticStore, Region) {
    let hi = s.grid as i64 * SPACING - 1;
    let schema = Schema::new(
        "R",
        vec![
            Column::free("A1", Domain::int(0, hi)),
            Column::free("A2", Domain::int(0, hi)),
        ],
    );
    let mut stats = TableStats::new(QuerySpace::of(&schema), 4_000_000).with_max_buckets(s.buckets);
    for k in 0..(s.buckets as i64 - 16).max(16) {
        let lo0 = (k * 53) % (hi - 60);
        let lo1 = (k * 97) % (hi - 60);
        stats.feedback(&region![(lo0, lo0 + 59), (lo1, lo1 + 59)], 600);
    }
    let mut store = SemanticStore::new();
    store.set_config(StoreConfig {
        max_views: (s.grid * s.grid).max(256) * 2,
        compaction: true,
    });
    store.register(QuerySpace::of(&schema));
    for gx in 0..s.grid as i64 {
        for gy in 0..s.grid as i64 {
            let (x, y) = (gx * SPACING, gy * SPACING);
            store.record("R", region![(x, x + VIEW_W - 1), (y, y + VIEW_W - 1)], 0);
        }
    }
    let w = s.window as i64 * SPACING - 1;
    (stats, store, region![(0, w), (0, w)])
}

/// The production rewrite path: one consistent store probe, the cached
/// remainder pieces when the store can answer, the subtraction sweep
/// otherwise — exactly what the engine and cost model run per region.
fn store_rewrite(
    stats: &TableStats,
    store: &SemanticStore,
    q: &Region,
    cfg: &RewriteConfig,
) -> Rewrite {
    let (views, pieces) = store.probe_rewrite("R", q, Consistency::Weak, 0);
    match &pieces {
        Some(p) => rewrite_cached(stats, 100, q, p, cfg),
        None => rewrite(stats, 100, q, &views, cfg),
    }
}

fn rewrite_cfg() -> RewriteConfig {
    RewriteConfig {
        // The aligned 2-D grid enumerates more candidate boxes than the
        // default cap; raising it keeps Algorithm 1 (not the fallback) on
        // the measured path.
        max_candidates: 8192,
        ..RewriteConfig::default()
    }
}

fn bench_sqr(s: &Scale) -> Runner {
    let (stats, store, q) = sqr_fixture(s);
    let stored = store.views("R", Consistency::Weak, 0).len();
    let mut r = Runner::new("hotpath_sqr");
    r.note("stored_views", stored as f64);

    // The store layer, before vs after: the old pipeline linearly scanned
    // and deep-cloned every stored view on each probe; the new one walks
    // the grid index and hands out Arc handles to the overlap survivors.
    let scan_name = format!("store/probe/scan_clone/{stored}v");
    r.bench(&scan_name, || {
        let out: Vec<Region> = store
            .views("R", Consistency::Weak, 0)
            .iter()
            .filter(|v| v.overlaps(&q))
            .map(|v| (**v).clone())
            .collect();
        black_box(out);
    });
    let idx_name = format!("store/probe/indexed/{stored}v");
    r.bench(&idx_name, || {
        black_box(store.views_overlapping("R", &q, Consistency::Weak, 0));
    });

    // Algorithm 1 end to end (probe + rewrite) on the production path
    // (cached remainder pieces).
    let cfg = rewrite_cfg();
    let rewrite_name = format!("sqr/rewrite/{stored}v");
    r.bench(&rewrite_name, || {
        black_box(store_rewrite(&stats, &store, &q, &cfg));
    });
    // The pre-cache pipeline for comparison: subtraction sweep from raw
    // views on every call.
    let scratch_name = format!("sqr/rewrite_scratch/{stored}v");
    r.bench(&scratch_name, || {
        let views = store.views_overlapping("R", &q, Consistency::Weak, 0);
        black_box(rewrite(&stats, 100, &q, &views, &cfg));
    });

    if let (Some(a), Some(b)) = (r.median_of(&scan_name), r.median_of(&idx_name)) {
        r.note("speedup/store_probe", a / b);
    }
    if let (Some(a), Some(b)) = (r.median_of(&scratch_name), r.median_of(&rewrite_name)) {
        r.note("speedup/remainder_cache", a / b);
    }
    r
}

/// The old committed 225-view rewrite median (PR 6's BENCH_sqr.json):
/// the wall-clock cap the 10k-view rewrite must beat, and the yardstick for
/// the ≥5x claim at 225 views.
const OLD_225V_SEQ_MEDIAN_NS: f64 = 434_558_876.0;

/// Rewrite + probe scaling at 1k and 10k stored views — the scales where
/// the per-query subtraction sweep used to dominate. The query window stays
/// fixed, so these runs measure how cost scales with *store size*, which
/// with the remainder cache and R-tree probes should be barely at all.
fn bench_store_scale() -> Runner {
    let mut r = Runner::new("hotpath_store_scale");
    for grid in [32usize, 100] {
        let s = Scale {
            grid,
            window: 6,
            buckets: 1024,
            dp_tables: 0,
            dp_feedbacks: 0,
            serve_queries: 0,
        };
        let (stats, store, q) = sqr_fixture(&s);
        let stored = store.views("R", Consistency::Weak, 0).len();
        assert_eq!(stored, grid * grid, "no view may be lost to eviction");
        let idx_name = format!("store/probe/indexed/{stored}v");
        r.bench(&idx_name, || {
            black_box(store.views_overlapping("R", &q, Consistency::Weak, 0));
        });
        let cfg = rewrite_cfg();
        r.bench(&format!("sqr/rewrite/{stored}v"), || {
            black_box(store_rewrite(&stats, &store, &q, &cfg));
        });
    }
    r.note("cap/old_225v_seq_median_ns", OLD_225V_SEQ_MEDIAN_NS);
    r
}

/// CI's `store-scale` smoke: the 10k-view rewrite must complete (median)
/// under the *old* 225-view rewrite time — the headline scaling claim.
/// Exits non-zero past the cap.
fn store_scale() {
    let r = bench_store_scale();
    let name = "sqr/rewrite/10000v";
    let Some(median) = r.median_of(name) else {
        eprintln!("store-scale: `{name}` did not run");
        std::process::exit(1);
    };
    r.finish();
    if median > OLD_225V_SEQ_MEDIAN_NS {
        eprintln!(
            "store-scale: {name} median {} exceeds the old 225-view rewrite time {} — \
             the store no longer scales",
            fmt_ns(median),
            fmt_ns(OLD_225V_SEQ_MEDIAN_NS),
        );
        std::process::exit(1);
    }
    println!(
        "store-scale: {name} median {} within the old 225-view cap {}",
        fmt_ns(median),
        fmt_ns(OLD_225V_SEQ_MEDIAN_NS),
    );
}

/// An n-table chain query over trained statistics, so every DP candidate
/// evaluation pays real histogram scans.
#[allow(clippy::type_complexity)]
fn chain_query(
    n: usize,
    feedbacks: usize,
) -> (
    payless_sql::AnalyzedQuery,
    StatsRegistry,
    SemanticStore,
    HashMap<String, u64>,
) {
    let mut catalog = MapCatalog::new();
    let mut stats = StatsRegistry::new();
    let mut store = SemanticStore::new();
    let mut meta = HashMap::new();
    for i in 0..n {
        let schema = Schema::new(
            format!("C{i}"),
            vec![
                Column::free("a", Domain::int(0, 999)),
                Column::free("b", Domain::int(0, 999)),
            ],
        );
        catalog.add(schema.clone(), TableLocation::Market);
        stats.register(&schema, 10_000);
        for k in 0..feedbacks as i64 {
            let lo0 = (k * 53) % 900;
            let lo1 = (k * 97) % 900;
            stats.feedback(
                &schema.table,
                &region![(lo0, lo0 + 24), (lo1, lo1 + 24)],
                40,
            );
        }
        store.register(QuerySpace::of(&schema));
        meta.insert(schema.table.to_string(), 100u64);
    }
    let tables: Vec<String> = (0..n).map(|i| format!("C{i}")).collect();
    let joins: Vec<String> = (0..n - 1)
        .map(|i| format!("C{i}.b = C{}.a", i + 1))
        .collect();
    let sql = format!(
        "SELECT * FROM {} WHERE {}",
        tables.join(", "),
        joins.join(" AND ")
    );
    let q = analyze(&parse(&sql).unwrap(), &catalog).unwrap();
    (q, stats, store, meta)
}

fn bench_dp(s: &Scale) -> Runner {
    let n = s.dp_tables;
    let (q, stats, store, meta) = chain_query(n, s.dp_feedbacks);
    let mut r = Runner::new("hotpath_dp");
    r.note("tables", n as f64);
    for (strategy, cfg) in [
        ("left_deep", OptimizerConfig::payless_no_sqr()),
        ("bushy", OptimizerConfig::disable_all()),
    ] {
        r.bench(&format!("dp/{strategy}/{n}t"), || {
            black_box(optimize(&q, &stats, &store, &meta, &cfg, 0).unwrap());
        });
    }
    r
}

/// Maximum tolerated fresh/baseline median ratio before `diff` fails.
const DIFF_TOLERANCE: f64 = 1.25;

/// Maximum tolerated metrics_on/metrics_off ratio: instrumentation must
/// cost no more than 5% of serve-mix wall-clock.
const METRICS_OVERHEAD_TOLERANCE: f64 = 1.05;

/// Maximum tolerated events_on/events_off ratio: the flight recorder must
/// cost no more than 5% of serve-mix wall-clock.
const EVENTS_OVERHEAD_TOLERANCE: f64 = 1.05;

/// Load `name -> median_nanos` for every run in the given JSONL baselines.
///
/// A baseline that reads fine but contributes **zero** runs is as useless
/// as a missing one — the diff would silently gate nothing — so each file
/// must yield at least one `(name, median_nanos)` pair or we exit loudly.
fn load_baselines(paths: &[String]) -> HashMap<String, f64> {
    let mut medians = HashMap::new();
    for path in paths {
        let data = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("diff: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let before = medians.len();
        for line in data.lines().filter(|l| !l.trim().is_empty()) {
            let parsed = match payless_json::parse(line) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("diff: {path}: malformed baseline JSON: {e}");
                    std::process::exit(1);
                }
            };
            let runs = parsed
                .get_opt("runs")
                .and_then(|r| r.as_arr().ok())
                .unwrap_or(&[]);
            for run in runs {
                if let (Some(name), Some(median)) = (
                    run.get_opt("name").and_then(|n| n.as_str().ok()),
                    run.get_opt("median_nanos").and_then(|m| m.as_f64().ok()),
                ) {
                    medians.insert(name.to_string(), median);
                }
            }
        }
        if medians.len() == before {
            eprintln!(
                "diff: baseline {path} contains no usable runs (every record \
                 lacks `runs[].name`/`runs[].median_nanos`) — refusing to \
                 diff against nothing"
            );
            std::process::exit(1);
        }
    }
    medians
}

/// Shape-check `PAYLESS_JSON` dumps and committed baselines without
/// re-running anything: every file must be non-empty JSONL where each record
/// carries a `figure` string and a `runs` array of named medians, and the
/// file as a whole yields at least one run. Cheap enough for the `fmt`
/// stage, so a truncated or hand-mangled baseline fails CI in seconds
/// instead of surfacing as a mysterious "no baseline runs" half an hour
/// later in `bench-diff`.
fn validate(paths: &[String]) {
    let fail = |msg: String| -> ! {
        eprintln!("validate: {msg}");
        std::process::exit(1);
    };
    for path in paths {
        let data = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        let mut records = 0usize;
        let mut runs_seen = 0usize;
        for (i, line) in data
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let parsed = payless_json::parse(line)
                .unwrap_or_else(|e| fail(format!("{path}:{}: malformed JSON: {e}", i + 1)));
            if parsed
                .get_opt("figure")
                .and_then(|f| f.as_str().ok())
                .is_none()
            {
                fail(format!("{path}:{}: record lacks a `figure` string", i + 1));
            }
            let runs = parsed
                .get_opt("runs")
                .and_then(|r| r.as_arr().ok())
                .unwrap_or_else(|| fail(format!("{path}:{}: record lacks a `runs` array", i + 1)));
            for (j, run) in runs.iter().enumerate() {
                if run.get_opt("name").and_then(|n| n.as_str().ok()).is_none() {
                    fail(format!("{path}:{}: runs[{j}] lacks a `name`", i + 1));
                }
                if run
                    .get_opt("median_nanos")
                    .and_then(|m| m.as_f64().ok())
                    .is_none()
                {
                    fail(format!("{path}:{}: runs[{j}] lacks `median_nanos`", i + 1));
                }
                runs_seen += 1;
            }
            records += 1;
        }
        if records == 0 {
            fail(format!("{path}: no JSONL records"));
        }
        if runs_seen == 0 {
            fail(format!("{path}: {records} record(s) but zero runs"));
        }
        println!("validate: {path}: {records} record(s), {runs_seen} run(s)");
    }
}

/// One instrumentation-overhead gate (see the comment at its call sites):
/// `serve/mix/{q}q/{label}_on` must stay within `tolerance` of its `_off`
/// twin, re-measuring a breach up to twice before failing.
fn gate_overhead(
    label: &str,
    tolerance: f64,
    fresh: &[(String, f64)],
    remeasure: impl Fn() -> Runner,
) {
    let name = |suffix: &str| format!("serve/mix/{}q/{label}_{suffix}", FULL.serve_queries);
    let pair = |suffix: &str| {
        let name = name(suffix);
        fresh.iter().find(|(n, _)| *n == name).map(|(_, m)| *m)
    };
    let mut overhead = match (pair("off"), pair("on")) {
        (Some(off), Some(on)) if off > 0.0 => on / off,
        _ => {
            eprintln!("diff: missing {label}_on/{label}_off serve-mix runs");
            std::process::exit(1);
        }
    };
    let mut attempt = 0;
    while overhead > tolerance && attempt < 2 {
        attempt += 1;
        eprintln!(
            "diff: {label} overhead {overhead:.3}x exceeds {tolerance:.2}x — \
             re-measuring (attempt {attempt}/2)"
        );
        let runner = remeasure();
        if let (Some(off), Some(on)) = (
            runner.median_of(&name("off")),
            runner.median_of(&name("on")),
        ) {
            if off > 0.0 {
                overhead = on / off;
            }
        }
    }
    println!("diff: {label} overhead {overhead:.3}x (tolerance {tolerance:.2}x)");
    if overhead > tolerance {
        eprintln!("diff: {label} instrumentation overhead {overhead:.3}x exceeds {tolerance:.2}x");
        std::process::exit(1);
    }
}

/// Re-run the full-scale benches and compare each median against the
/// committed baselines. Run names embed the scale (`225v`, `8t`), so only a
/// full-scale rerun produces comparable keys; a fresh median more than
/// `DIFF_TOLERANCE` times the baseline is a regression.
fn diff(paths: &[String]) {
    let baselines = load_baselines(paths);
    if baselines.is_empty() {
        eprintln!("diff: no baseline runs found in {paths:?}");
        std::process::exit(1);
    }
    let mut fresh: Vec<(String, f64)> = Vec::new();
    let mut notes: Vec<(String, f64)> = Vec::new();
    for runner in [
        bench_sqr(&FULL),
        bench_store_scale(),
        bench_dp(&FULL),
        bench_metrics(&FULL),
        bench_events(&FULL),
    ] {
        for name in runner.run_names() {
            if let Some(median) = runner.median_of(&name) {
                fresh.push((name, median));
            }
        }
        notes.extend(runner.notes().iter().cloned());
        runner.finish();
    }
    // Batched spend-per-query points: deterministic (not timings), so any
    // drift against the committed BENCH_batch.json curve is a real
    // behavioural change in purchasing, not noise.
    for r in batch_spend_runs() {
        fresh.push((r.name, r.spend_per_query));
    }

    // Speedup advisories: a `speedup/*` note below 1.0 means the optimized
    // arm ran no faster than its reference arm (indexed vs scan-and-clone
    // probe, cached vs from-scratch rewrite). Sub-millisecond margins drown
    // in scheduler noise — so warn, never fail.
    for (key, value) in &notes {
        if key.starts_with("speedup/") && *value < 1.0 {
            eprintln!(
                "diff: warning: {key} = {value:.2}x — no speedup over the reference arm \
                 (advisory only)"
            );
        }
    }

    // Instrumentation overhead gates: the metrics-on serve mix must stay
    // within METRICS_OVERHEAD_TOLERANCE of the metrics-off twin, and the
    // events-on mix within EVENTS_OVERHEAD_TOLERANCE of its events-off
    // twin. Each gate compares two fresh medians against each other (not a
    // baseline), so it holds on any machine regardless of absolute speed.
    // On a loaded shared host one ~5 ms serve-mix median can swing far past
    // the tolerance on noise alone, so a breach is re-measured before it
    // fails: only overhead that persists across every attempt counts as
    // real.
    gate_overhead("metrics", METRICS_OVERHEAD_TOLERANCE, &fresh, || {
        bench_metrics(&FULL)
    });
    gate_overhead("events", EVENTS_OVERHEAD_TOLERANCE, &fresh, || {
        bench_events(&FULL)
    });

    println!();
    println!(
        "{:<44} {:>10} {:>10} {:>7}",
        "diff vs baseline", "fresh", "base", "ratio"
    );
    let mut regressions = 0;
    let mut compared = 0;
    let mut benches: Vec<Json> = Vec::new();
    for (name, median) in &fresh {
        let Some(base) = baselines.get(name) else {
            println!("{name:<44} {:>10} (no baseline — skipped)", fmt_ns(*median));
            benches.push(Json::obj([
                ("name", Json::Str(name.clone())),
                ("fresh_nanos", median.to_json()),
                ("base_nanos", Json::Null),
                ("ratio", Json::Null),
                ("regressed", Json::Bool(false)),
            ]));
            continue;
        };
        compared += 1;
        let ratio = median / base;
        let regressed = ratio > DIFF_TOLERANCE;
        let verdict = if regressed {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{name:<44} {:>10} {:>10} {ratio:>6.2}x {verdict}",
            fmt_ns(*median),
            fmt_ns(*base),
        );
        benches.push(Json::obj([
            ("name", Json::Str(name.clone())),
            ("fresh_nanos", median.to_json()),
            ("base_nanos", base.to_json()),
            ("ratio", ratio.to_json()),
            ("regressed", Json::Bool(regressed)),
        ]));
    }
    // The machine-readable summary is written before any exit path below,
    // so CI gets an artifact even (especially) when a bench regressed.
    if let Ok(out) = std::env::var("BENCH_DIFF_JSON") {
        let summary = Json::obj([
            ("tolerance", DIFF_TOLERANCE.to_json()),
            ("compared", Json::Int(compared)),
            ("regressions", Json::Int(regressions)),
            ("benches", Json::Arr(benches)),
        ]);
        match std::fs::write(&out, summary.to_string_pretty()) {
            Ok(()) => println!("diff: wrote {out}"),
            Err(e) => {
                eprintln!("diff: cannot write {out}: {e}");
                std::process::exit(1);
            }
        }
    }
    if compared == 0 {
        eprintln!("diff: no fresh run matched a baseline name");
        std::process::exit(1);
    }
    if regressions > 0 {
        eprintln!(
            "diff: {regressions} run(s) regressed beyond {:.0}% of baseline",
            (DIFF_TOLERANCE - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!("diff: {compared} run(s) within {DIFF_TOLERANCE:.2}x of baseline");
}

/// Validate an `--explain-out` dump: the report must carry a non-empty
/// `operators` array whose every node pairs an `est` object with an
/// `actual` object, plus the `q_error` accuracy section.
fn validate_explain(path: &str) {
    let data = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate-explain: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let parsed = match payless_json::parse(&data) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("validate-explain: {path}: malformed JSON: {e}");
            std::process::exit(1);
        }
    };
    let Some(ops) = parsed.get_opt("operators").and_then(|o| o.as_arr().ok()) else {
        eprintln!("validate-explain: {path}: missing `operators` array");
        std::process::exit(1);
    };
    if ops.is_empty() {
        eprintln!("validate-explain: {path}: `operators` is empty (tracing off?)");
        std::process::exit(1);
    }
    for (i, op) in ops.iter().enumerate() {
        for side in ["est", "actual"] {
            if op.get_opt(side).and_then(|s| s.as_obj().ok()).is_none() {
                eprintln!("validate-explain: {path}: operator {i} lacks an `{side}` object");
                std::process::exit(1);
            }
        }
    }
    if parsed.get_opt("q_error").is_none() {
        eprintln!("validate-explain: {path}: missing `q_error` section");
        std::process::exit(1);
    }
    println!(
        "validate-explain: {path}: {} operator(s) with est+actual, q_error present",
        ops.len()
    );
}

/// A `u64` environment knob with a default.
fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Shared-store tuning from the environment, mirroring the CLI's mapping:
/// `PAYLESS_STORE_MAX_VIEWS` caps the per-table view count,
/// `PAYLESS_STORE_COMPACT=0` keeps every purchased box verbatim.
fn store_config_from_env() -> StoreConfig {
    let mut cfg = StoreConfig::default();
    let cap = env_u64("PAYLESS_STORE_MAX_VIEWS", 0);
    if cap > 0 {
        cfg.max_views = cap as usize;
    }
    if let Ok(v) = std::env::var("PAYLESS_STORE_COMPACT") {
        cfg.compaction = v != "0";
    }
    cfg
}

/// The pinned serve-smoke workload (shared with the metrics bench so the
/// overhead numbers describe the same mix CI validates).
fn smoke_workload() -> RealWorkload {
    RealWorkload::generate(&WhwConfig {
        stations: 40,
        countries: 4,
        cities_per_country: 3,
        days: 60,
        zips: 60,
        ranks: 100,
        seed: 3,
    })
}

/// The driver behind `serve` and `batch-serve`: replay one pinned
/// multi-client WHW mix through [`payless_serve::Serve`] and dump the
/// reconciled report. The market runs at page size 1, where delivered pages
/// equal delivered records and are therefore independent of thread
/// interleaving — what lets `validate-serve` / `validate-batch` compare
/// dumps across worker counts. `serve` replays the random mix
/// (`PAYLESS_SERVE_QUERIES` in total); `batch-serve` the overlapping
/// hot-region mix (`PAYLESS_SERVE_QUERIES` *per client*, so client streams
/// stay identical across client counts).
fn serve(mode: &str, out: &str) {
    let overlapping = mode == "batch-serve";
    let workload = smoke_workload();
    let page_size = 1;
    let clients = env_u64("PAYLESS_CLIENTS", 4) as usize;
    let queries = env_u64("PAYLESS_SERVE_QUERIES", if overlapping { 12 } else { 24 }) as usize;
    let seed = env_u64("PAYLESS_SERVE_SEED", 48879);
    let coalesce = std::env::var("PAYLESS_COALESCE")
        .map(|v| v != "0")
        .unwrap_or(true);
    let fault_seed = std::env::var("PAYLESS_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let metrics_out = std::env::var("PAYLESS_METRICS_OUT").ok();
    let hub = metrics_out
        .as_ref()
        .map(|_| Arc::new(MetricsHub::new(MetricsConfig::from_env())));

    let market = Arc::new(build_market(&workload, page_size));
    if let Some(fs) = fault_seed {
        market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(fs)));
    }
    let cfg = ServeConfig {
        // The bench's own worker-count knob (one query per worker); no
        // library crate reads it.
        threads: env_u64("PAYLESS_THREADS", 1) as usize,
        coalesce,
        // Chaos runs must still answer every query so dumps stay
        // comparable across worker counts.
        retry: if fault_seed.is_some() {
            RetryPolicy::unlimited()
        } else {
            RetryPolicy::default()
        },
        metrics: hub.clone(),
        strict_reconcile: MetricsConfig::strict_from_env(),
        store: store_config_from_env(),
        batch: BatchConfig::from_env(),
        ..ServeConfig::default()
    };
    let layer = Serve::new(market, QueryWorkload::local_tables(&workload), cfg);
    let templates: Vec<_> = QueryWorkload::templates(&workload)
        .iter()
        .map(|sql| layer.prepare(sql).expect("workload template parses"))
        .collect();
    // Both single-table WHW templates; see the serve-smoke rationale in
    // DESIGN.md for why bind-join templates stay out of the smoke mix.
    let mix = if overlapping {
        overlapping_mix(&workload, &[0, 1], clients, queries, seed)
    } else {
        serve_mix(&workload, &[0, 1], clients, queries, seed)
    };
    let mut report = run_mix(&layer, &mix, &templates).expect("serve mix succeeds");
    report.seed = seed;
    report.clients = clients as u64;
    report.page_size = page_size;
    report.fault_seed = fault_seed;
    if let Err(e) = std::fs::write(out, report.to_json().to_string_pretty()) {
        eprintln!("{mode}: cannot write {out}: {e}");
        std::process::exit(1);
    }
    if let (Some(hub), Some(path)) = (&hub, &metrics_out) {
        hub.roll(); // close the tail window so the series covers the run
        if let Err(e) = std::fs::write(path, hub.exposition())
            .and_then(|()| std::fs::write(format!("{path}.jsonl"), hub.series_jsonl()))
        {
            eprintln!("{mode}: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
        println!("{mode}: metrics -> {path} (+ {path}.jsonl)");
    }
    println!(
        "{mode}: {} queries x {} clients on {} worker(s), coalesce={}, batch={}, fault={:?}: \
         {} pages ({} wasted), {} wait(s), ~{} page(s) saved, {} batch join(s), \
         {} shared page(s) -> {out}",
        report.queries,
        report.clients,
        report.threads,
        report.coalesce,
        report.batch,
        report.fault_seed,
        report.total_pages,
        report.wasted_pages,
        report.coalesce_waits,
        report.saved_pages,
        report.batch_joins,
        report.shared_pages,
    );
}

/// The serve mix with the metrics hub attached vs detached — the cost of
/// live observability on the exact workload the CI smoke replays. Each
/// iteration stands up a fresh market and serving layer, so both arms pay
/// identical setup and purchase costs; only the hub differs.
fn bench_metrics(s: &Scale) -> Runner {
    let workload = smoke_workload();
    let queries = s.serve_queries;
    let mix = serve_mix(&workload, &[0, 1], 4, queries, 48879);
    let templates_sql = QueryWorkload::templates(&workload);
    let run_once = |hub: Option<Arc<MetricsHub>>| {
        let market = Arc::new(build_market(&workload, 1));
        let cfg = ServeConfig {
            threads: 1,
            metrics: hub,
            ..ServeConfig::default()
        };
        let layer = Serve::new(market, QueryWorkload::local_tables(&workload), cfg);
        let templates: Vec<_> = templates_sql
            .iter()
            .map(|sql| layer.prepare(sql).expect("workload template parses"))
            .collect();
        black_box(run_mix(&layer, &mix, &templates).expect("serve mix succeeds"));
    };

    let mut r = Runner::new("hotpath_metrics");
    r.note("queries", queries as f64);
    let off_name = format!("serve/mix/{queries}q/metrics_off");
    r.bench(&off_name, || run_once(None));
    let on_name = format!("serve/mix/{queries}q/metrics_on");
    r.bench(&on_name, || {
        run_once(Some(Arc::new(MetricsHub::new(MetricsConfig::default()))))
    });
    if let (Some(off), Some(on)) = (r.median_of(&off_name), r.median_of(&on_name)) {
        r.note("overhead/metrics_on", on / off);
    }
    r
}

/// The serve mix with the flight recorder attached vs detached — the cost
/// of the structured event journal on the exact workload the CI smoke
/// replays. Mirrors `bench_metrics`: each iteration stands up a fresh
/// market and serving layer, so both arms pay identical setup and purchase
/// costs; only the journal differs.
fn bench_events(s: &Scale) -> Runner {
    let workload = smoke_workload();
    let queries = s.serve_queries;
    let mix = serve_mix(&workload, &[0, 1], 4, queries, 48879);
    let templates_sql = QueryWorkload::templates(&workload);
    let run_once = |journal: Option<Arc<EventJournal>>| {
        let market = Arc::new(build_market(&workload, 1));
        let cfg = ServeConfig {
            threads: 1,
            events: journal,
            ..ServeConfig::default()
        };
        let layer = Serve::new(market, QueryWorkload::local_tables(&workload), cfg);
        let templates: Vec<_> = templates_sql
            .iter()
            .map(|sql| layer.prepare(sql).expect("workload template parses"))
            .collect();
        black_box(run_mix(&layer, &mix, &templates).expect("serve mix succeeds"));
    };

    let mut r = Runner::new("hotpath_events");
    r.note("queries", queries as f64);
    let off_name = format!("serve/mix/{queries}q/events_off");
    r.bench(&off_name, || run_once(None));
    let on_name = format!("serve/mix/{queries}q/events_on");
    r.bench(&on_name, || {
        run_once(Some(Arc::new(EventJournal::default())))
    });
    if let (Some(off), Some(on)) = (r.median_of(&off_name), r.median_of(&on_name)) {
        r.note("overhead/events_on", on / off);
    }
    r
}

/// Validate a flight-recorder JSONL dump (an `--events-out` journal or a
/// black-box post-mortem): every line must parse as one JSON event with a
/// strictly increasing `seq`, an `at_nanos` timestamp, a known `severity`,
/// and a `kind` name. With `expect_violation`, the dump must be a real
/// post-mortem: at least one `watchdog_violation` event plus the `blackbox`
/// marker the dumper appends.
fn validate_events(path: &str, expect_violation: bool) {
    let fail = |msg: String| -> ! {
        eprintln!("validate-events: {msg}");
        std::process::exit(1);
    };
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let mut last_seq: Option<u64> = None;
    let mut events = 0u64;
    let mut saw_violation = false;
    let mut saw_blackbox = false;
    for (i, line) in data.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let parsed = payless_json::parse(line)
            .unwrap_or_else(|e| fail(format!("{path}:{}: malformed JSON: {e}", i + 1)));
        let seq = parsed
            .get_opt("seq")
            .and_then(|s| s.as_u64().ok())
            .unwrap_or_else(|| fail(format!("{path}:{}: no `seq`", i + 1)));
        if let Some(prev) = last_seq {
            if seq <= prev {
                fail(format!(
                    "{path}:{}: seq {seq} not strictly increasing (follows {prev})",
                    i + 1
                ));
            }
        }
        last_seq = Some(seq);
        if parsed
            .get_opt("at_nanos")
            .and_then(|v| v.as_u64().ok())
            .is_none()
        {
            fail(format!("{path}:{}: no `at_nanos` timestamp", i + 1));
        }
        let severity = parsed
            .get_opt("severity")
            .and_then(|s| s.as_str().ok())
            .unwrap_or_else(|| fail(format!("{path}:{}: no `severity`", i + 1)));
        if !matches!(severity, "debug" | "info" | "warn" | "error") {
            fail(format!("{path}:{}: unknown severity `{severity}`", i + 1));
        }
        let kind = parsed
            .get_opt("kind")
            .and_then(|k| k.as_str().ok())
            .unwrap_or_else(|| fail(format!("{path}:{}: no `kind`", i + 1)));
        saw_violation |= kind == "watchdog_violation";
        saw_blackbox |= kind == "blackbox";
        events += 1;
    }
    if events == 0 {
        fail(format!("{path}: no events"));
    }
    if expect_violation {
        if !saw_violation {
            fail(format!(
                "{path}: expected a `watchdog_violation` event in the black box"
            ));
        }
        if !saw_blackbox {
            fail(format!("{path}: expected the `blackbox` marker event"));
        }
    }
    println!(
        "validate-events: {path}: {events} well-formed event(s){}",
        if expect_violation {
            "; violation + black-box marker present"
        } else {
            ""
        }
    );
}

/// The events-smoke abort harness: replay the pinned chaos mix under the
/// strict watchdog sampling after every query, then slip one unattributed
/// charge straight onto the billing meter mid-run — spend no query's ledger
/// can account for. The next watchdog sample sees meter > ledger, strict
/// mode aborts the mix, and the journal's black box must land at `out`
/// covering the violating sample. Exits non-zero unless the run fails *and*
/// the dump exists.
fn events_abort(out: &str) {
    let fail = |msg: String| -> ! {
        eprintln!("events-abort: {msg}");
        std::process::exit(1);
    };
    let _ = std::fs::remove_file(out);
    let workload = smoke_workload();
    let market = Arc::new(build_market(&workload, 1));
    market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(48879)));
    let journal = Arc::new(EventJournal::new(1 << 14));
    journal.set_blackbox(Some(out.to_string()));
    let cfg = ServeConfig {
        threads: 1,
        retry: RetryPolicy::unlimited(),
        strict_reconcile: true,
        watchdog_every: 1,
        events: Some(Arc::clone(&journal)),
        ..ServeConfig::default()
    };
    let layer = Serve::new(
        Arc::clone(&market),
        QueryWorkload::local_tables(&workload),
        cfg,
    );
    let templates: Vec<_> = QueryWorkload::templates(&workload)
        .iter()
        .map(|sql| layer.prepare(sql).expect("workload template parses"))
        .collect();
    let mix = serve_mix(&workload, &[0, 1], 4, 24, 48879);

    // The saboteur waits for the first real purchase (which is necessarily
    // after the watchdog's base snapshot), then charges the meter directly.
    let sab_market = Arc::clone(&market);
    let table = market.table_names()[0].clone();
    let base = market.bill().transactions();
    let saboteur = std::thread::spawn(move || {
        while sab_market.bill().transactions() <= base {
            std::thread::yield_now();
        }
        sab_market.meter().charge(&table, 97, 97);
    });
    // The violation normally surfaces as a mid-run strict Err; if the
    // charge races past the last sample it panics out of the finish-time
    // reconciliation instead. Both paths dump the black box first.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_mix(&layer, &mix, &templates)
    }));
    saboteur.join().expect("saboteur thread");
    match result {
        Ok(Ok(_)) => fail("the sabotaged run reconciled — no violation was detected".into()),
        Ok(Err(e)) => println!("events-abort: mix aborted as expected: {e}"),
        Err(_) => println!("events-abort: finish-time strict reconciliation panicked as expected"),
    }
    match std::fs::metadata(out) {
        Ok(m) if m.len() > 0 => println!(
            "events-abort: black box ({} bytes, {} event(s) recorded) -> {out}",
            m.len(),
            journal.recorded()
        ),
        Ok(_) => fail(format!("black box {out} is empty")),
        Err(e) => fail(format!("black box {out} was not written: {e}")),
    }
}

/// Read and parse one serve dump, or exit non-zero.
fn load_serve_report(path: &str) -> ServeReport {
    let data = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("validate-serve: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let parsed = match payless_json::parse(&data) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("validate-serve: {path}: malformed JSON: {e}");
            std::process::exit(1);
        }
    };
    match ServeReport::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("validate-serve: {path}: not a serve report: {e}");
            std::process::exit(1);
        }
    }
}

/// Reconcile a parallel serve dump against its serial oracle: same mix,
/// identical answers, each ledger equal to its own billing meter, and
/// parallel delivered spend no greater than serial.
fn validate_serve(serial_path: &str, parallel_path: &str) {
    let serial = load_serve_report(serial_path);
    let parallel = load_serve_report(parallel_path);
    let fail = |msg: String| {
        eprintln!("validate-serve: {msg}");
        std::process::exit(1);
    };
    if serial.threads != 1 {
        fail(format!(
            "{serial_path}: serial oracle ran on {} threads, expected 1",
            serial.threads
        ));
    }
    for (field, a, b) in [
        ("seed", serial.seed, parallel.seed),
        ("clients", serial.clients, parallel.clients),
        ("queries", serial.queries, parallel.queries),
        ("page_size", serial.page_size, parallel.page_size),
    ] {
        if a != b {
            fail(format!("dumps replay different mixes: {field} {a} vs {b}"));
        }
    }
    if serial.per_query.len() != parallel.per_query.len() {
        fail(format!(
            "per-query rows differ: {} vs {}",
            serial.per_query.len(),
            parallel.per_query.len()
        ));
    }
    for (i, (s, p)) in serial.per_query.iter().zip(&parallel.per_query).enumerate() {
        if s.client != p.client || s.template != p.template {
            fail(format!("query {i}: submission order diverged"));
        }
        if s.digest != p.digest || s.rows != p.rows {
            fail(format!(
                "query {i}: answers differ from the serial oracle \
                 (digest {:#x} vs {:#x}, rows {} vs {})",
                s.digest, p.digest, s.rows, p.rows
            ));
        }
    }
    for (path, r) in [(serial_path, &serial), (parallel_path, &parallel)] {
        if r.total_pages != r.meter_transactions {
            fail(format!(
                "{path}: ledger does not reconcile with the billing meter: \
                 {} ledger pages vs {} metered transactions",
                r.total_pages, r.meter_transactions
            ));
        }
        if r.fault_seed.is_none() && r.wasted_pages != 0 {
            fail(format!(
                "{path}: clean run reports {} wasted pages",
                r.wasted_pages
            ));
        }
    }
    let (dp, ds) = (parallel.delivered_pages(), serial.delivered_pages());
    if parallel.coalesce && dp > ds {
        fail(format!(
            "coalesced run delivered (and paid for) more pages than the \
             serial oracle: {dp} vs {ds}"
        ));
    }
    println!(
        "validate-serve: {} queries agree with the serial oracle; ledgers \
         reconcile; delivered pages {dp} (parallel, {} threads) vs {ds} \
         (serial); {} coalesce wait(s), ~{} page(s) saved",
        parallel.queries, parallel.threads, parallel.coalesce_waits, parallel.saved_pages
    );
}

/// One durable-store status dump (`/v1/store`), reduced to what recovery
/// validation needs: the per-table ledger/meter pairs.
struct StoreStatus {
    /// Σ per-table ledger pages.
    ledger_total: u64,
    /// `(table, ledger_pages, meter_pages)` rows.
    tables: Vec<(String, u64, u64)>,
}

/// Read and parse one `/v1/store` status dump, or exit non-zero.
fn load_store_status(path: &str) -> StoreStatus {
    let fail = |msg: String| -> ! {
        eprintln!("validate-recovery: {msg}");
        std::process::exit(1);
    };
    let data =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let parsed =
        payless_json::parse(&data).unwrap_or_else(|e| fail(format!("{path}: malformed JSON: {e}")));
    if parsed.get_opt("durable").and_then(|d| d.as_bool().ok()) != Some(true) {
        fail(format!("{path}: server was not running durable"));
    }
    let rows = parsed
        .get_opt("tables")
        .and_then(|t| t.as_arr().ok())
        .unwrap_or_else(|| fail(format!("{path}: missing `tables` array")));
    let mut tables = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let table = row
            .get_opt("table")
            .and_then(|t| t.as_str().ok())
            .unwrap_or_else(|| fail(format!("{path}: tables[{i}] lacks `table`")));
        let ledger = row
            .get_opt("ledger_pages")
            .and_then(|v| v.as_u64().ok())
            .unwrap_or_else(|| fail(format!("{path}: tables[{i}] lacks `ledger_pages`")));
        let meter = row
            .get_opt("meter_pages")
            .and_then(|v| v.as_u64().ok())
            .unwrap_or_else(|| fail(format!("{path}: tables[{i}] lacks `meter_pages`")));
        tables.push((table.to_string(), ledger, meter));
    }
    StoreStatus {
        ledger_total: tables.iter().map(|(_, l, _)| *l).sum(),
        tables,
    }
}

/// The crash-recovery gate: a run that was killed partway through, then
/// restarted and re-driven, must end exactly where an uninterrupted run
/// ends — and nothing may be billed twice along the way.
///
/// Inputs: `oracle` — a clean serial run of the pinned mix on a fresh
/// store; `run2` — the post-crash re-drive of the same mix against the
/// recovered server; `recovered` — `/v1/store` right after restart (before
/// run2); `fin` — `/v1/store` after run2.
///
/// Gates, in order: both store dumps reconcile per table (ledger == the
/// WAL's recorded absolute meter); run2's own ledger matches its meter
/// delta; mixes match; run2's answers equal the oracle's; and the no-
/// double-billing equation `recovered + run2 == oracle` — pages surviving
/// the crash plus pages bought on the re-drive must cover the mix exactly,
/// so a page that survived recovery is never bought again and a page lost
/// to the torn tail is bought exactly once more. Finally the recovered
/// store's ending ledger equals the oracle's total spend.
fn validate_recovery(oracle_path: &str, run2_path: &str, recovered_path: &str, final_path: &str) {
    let fail = |msg: String| -> ! {
        eprintln!("validate-recovery: {msg}");
        std::process::exit(1);
    };
    let oracle = load_serve_report(oracle_path);
    let run2 = load_serve_report(run2_path);
    let recovered = load_store_status(recovered_path);
    let fin = load_store_status(final_path);

    for (path, store) in [(recovered_path, &recovered), (final_path, &fin)] {
        for (table, ledger, meter) in &store.tables {
            if ledger != meter {
                fail(format!(
                    "{path}: table {table} does not reconcile: {ledger} ledger \
                     pages vs {meter} metered (a page was double-counted or lost)"
                ));
            }
        }
    }
    for (path, r) in [(oracle_path, &oracle), (run2_path, &run2)] {
        if r.total_pages != r.meter_transactions {
            fail(format!(
                "{path}: ledger does not reconcile with the billing meter: \
                 {} ledger pages vs {} metered transactions",
                r.total_pages, r.meter_transactions
            ));
        }
    }
    for (field, a, b) in [
        ("seed", oracle.seed, run2.seed),
        ("clients", oracle.clients, run2.clients),
        ("queries", oracle.queries, run2.queries),
        ("page_size", oracle.page_size, run2.page_size),
    ] {
        if a != b {
            fail(format!("dumps replay different mixes: {field} {a} vs {b}"));
        }
    }
    if oracle.per_query.len() != run2.per_query.len() {
        fail(format!(
            "per-query rows differ: {} vs {}",
            oracle.per_query.len(),
            run2.per_query.len()
        ));
    }
    for (i, (s, p)) in oracle.per_query.iter().zip(&run2.per_query).enumerate() {
        if s.digest != p.digest || s.rows != p.rows {
            fail(format!(
                "query {i}: post-recovery answers differ from the oracle \
                 (digest {:#x} vs {:#x}, rows {} vs {})",
                s.digest, p.digest, s.rows, p.rows
            ));
        }
    }
    if recovered.ledger_total + run2.total_pages != oracle.total_pages {
        fail(format!(
            "double-billing check failed: {} page(s) survived the crash + {} \
             bought on the re-drive != {} an uninterrupted run buys (over-buy \
             means a recovered page was billed twice; under-buy means the \
             recovered store claims coverage it never paid for)",
            recovered.ledger_total, run2.total_pages, oracle.total_pages
        ));
    }
    if fin.ledger_total != oracle.total_pages {
        fail(format!(
            "final recovered ledger {} != oracle total spend {}",
            fin.ledger_total, oracle.total_pages
        ));
    }
    println!(
        "validate-recovery: {} page(s) survived the crash, {} re-bought, {} \
         total — matches the uninterrupted oracle exactly; {} table(s) \
         reconcile; answers agree",
        recovered.ledger_total,
        run2.total_pages,
        fin.ledger_total,
        fin.tables.len()
    );
}

/// First sample value of an exposition metric (exact name match before the
/// space), parsed as u64.
fn expo_value(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let (k, v) = line.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok())?
    })
}

/// Cross-check a metrics dump (`<path>` exposition + `<path>.jsonl`
/// series) against the serve report it was captured with.
fn validate_metrics(metrics_path: &str, serve_path: &str) {
    let fail = |msg: String| -> ! {
        eprintln!("validate-metrics: {msg}");
        std::process::exit(1);
    };
    let report = load_serve_report(serve_path);
    let exposition = std::fs::read_to_string(metrics_path)
        .unwrap_or_else(|e| fail(format!("cannot read {metrics_path}: {e}")));

    // Exposition shape: typed families with samples.
    for ty in [
        "# TYPE payless_market_calls_total counter",
        "# TYPE payless_market_call_nanos histogram",
        "# TYPE payless_serve_query_nanos histogram",
        "# TYPE payless_watchdog_drift_pages gauge",
    ] {
        if !exposition.contains(ty) {
            fail(format!("{metrics_path}: missing `{ty}`"));
        }
    }
    let counter = |name: &str| -> u64 {
        expo_value(&exposition, name)
            .unwrap_or_else(|| fail(format!("{metrics_path}: no sample for `{name}`")))
    };

    // The reconciliation invariant, read back from the exposition: pages
    // the call layer counted == pages the seller's meter charged.
    let billed = counter("payless_market_pages_billed_total");
    if billed != report.meter_transactions {
        fail(format!(
            "billed pages diverge from the billing meter: exposition says {billed}, \
             serve report metered {}",
            report.meter_transactions
        ));
    }
    if counter("payless_serve_queries_total") != report.queries {
        fail(format!(
            "query counts diverge: exposition says {}, serve report ran {}",
            counter("payless_serve_queries_total"),
            report.queries
        ));
    }
    if counter("payless_serve_query_nanos_count") != report.queries {
        fail("serve latency histogram did not observe every query".into());
    }
    let samples = counter("payless_watchdog_samples_total");
    if samples == 0 || samples != report.watchdog_samples {
        fail(format!(
            "watchdog samples: exposition {samples}, report {} (want equal and nonzero)",
            report.watchdog_samples
        ));
    }
    if counter("payless_watchdog_drift_pages") != 0 {
        fail("watchdog drift gauge is nonzero after quiescence".into());
    }
    if counter("payless_watchdog_violations_total") != 0 {
        fail("watchdog recorded reconciliation violations".into());
    }

    // Windowed series: parseable lines from window 0 on, whose per-window
    // deltas sum back to the cumulative meter total.
    let series_path = format!("{metrics_path}.jsonl");
    let series = std::fs::read_to_string(&series_path)
        .unwrap_or_else(|e| fail(format!("cannot read {series_path}: {e}")));
    let mut windows = 0u64;
    let mut windowed_billed = 0u64;
    for (i, line) in series.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let parsed = payless_json::parse(line)
            .unwrap_or_else(|e| fail(format!("{series_path}:{}: malformed JSON: {e}", i + 1)));
        let window = parsed
            .get_opt("window")
            .and_then(|w| w.as_u64().ok())
            .unwrap_or_else(|| fail(format!("{series_path}:{}: no `window` index", i + 1)));
        if window != i as u64 {
            fail(format!(
                "{series_path}:{}: window {window} out of order (ring evicted data?)",
                i + 1
            ));
        }
        windowed_billed += parsed
            .get_opt("counters")
            .and_then(|c| c.get_opt("payless_market_pages_billed_total"))
            .and_then(|v| v.as_u64().ok())
            .unwrap_or(0);
        windows += 1;
    }
    if windows == 0 {
        fail(format!("{series_path}: no windows dumped"));
    }
    if windowed_billed != report.meter_transactions {
        fail(format!(
            "windowed billed-page deltas sum to {windowed_billed}, but the meter \
             charged {} — the series lost spend",
            report.meter_transactions
        ));
    }
    println!(
        "validate-metrics: {metrics_path}: exposition reconciles with the meter \
         ({billed} pages, {} queries); watchdog {samples} sample(s), zero drift; \
         {windows} window(s) sum to the cumulative totals",
        report.queries
    );
}

/// One point of the batched spend-per-query curve.
struct BatchSpendRun {
    name: String,
    clients: usize,
    queries: u64,
    delivered_pages: u64,
    spend_per_query: f64,
}

/// Replay the pinned overlapping-hot-region mix with batched purchasing on
/// at each client count. Every client issues the same 12-query stream
/// regardless of how many other clients run, and all streams draw from one
/// seed-pinned hot pool — so total queries grow linearly with clients while
/// the union of purchased regions saturates. At page size 1 under the
/// serve layer's exact rewrite profile, delivered pages are a function of
/// that union alone (interleaving-independent), which is what lets `diff`
/// gate on these numbers like timing medians.
fn batch_spend_runs() -> Vec<BatchSpendRun> {
    let workload = smoke_workload();
    let per_client = 12;
    let seed = 48879;
    let mut out = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let market = Arc::new(build_market(&workload, 1));
        let cfg = ServeConfig {
            threads: clients.min(4),
            batch: Some(BatchConfig::default()),
            ..ServeConfig::default()
        };
        let layer = Serve::new(market, QueryWorkload::local_tables(&workload), cfg);
        let templates: Vec<_> = QueryWorkload::templates(&workload)
            .iter()
            .map(|sql| layer.prepare(sql).expect("workload template parses"))
            .collect();
        let mix = overlapping_mix(&workload, &[0, 1], clients, per_client, seed);
        let report = run_mix(&layer, &mix, &templates).expect("overlapping mix succeeds");
        let delivered = report.delivered_pages();
        out.push(BatchSpendRun {
            name: format!("batch/spend_per_query/{clients}c"),
            clients,
            queries: report.queries,
            delivered_pages: delivered,
            spend_per_query: delivered as f64 / report.queries as f64,
        });
    }
    out
}

/// The `batch` mode: dump the spend-per-query curve as a JSONL baseline
/// and enforce the headline claim — adding clients to the shared hot pool
/// must *strictly* lower the pages each query pays for.
fn bench_batch(out: &str) {
    let runs = batch_spend_runs();
    println!(
        "{:<32} {:>8} {:>12} {:>12}",
        "batched overlapping mix", "queries", "delivered", "pages/query"
    );
    for r in &runs {
        println!(
            "{:<32} {:>8} {:>12} {:>12.3}",
            r.name, r.queries, r.delivered_pages, r.spend_per_query
        );
    }
    let jsonl = Json::obj([
        ("figure", Json::str("hotpath_batch")),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::Str(r.name.clone())),
                            // Spend per query, not a duration — named so the
                            // generic `diff` baseline loader can gate on it.
                            ("median_nanos", r.spend_per_query.to_json()),
                            ("clients", Json::Int(r.clients as i64)),
                            ("queries", r.queries.to_json()),
                            ("delivered_pages", r.delivered_pages.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("unit", Json::str("delivered_pages_per_query")),
    ]);
    if let Err(e) = std::fs::write(out, format!("{}\n", jsonl.to_string_compact())) {
        eprintln!("batch: cannot write {out}: {e}");
        std::process::exit(1);
    }
    for pair in runs.windows(2) {
        if pair[1].spend_per_query >= pair[0].spend_per_query {
            eprintln!(
                "batch: spend per query must strictly decrease as clients are added: \
                 {} pays {:.3} pages/query but {} pays {:.3}",
                pair[0].name, pair[0].spend_per_query, pair[1].name, pair[1].spend_per_query
            );
            std::process::exit(1);
        }
    }
    println!(
        "batch: spend per query falls {:.3} -> {:.3} pages from {} to {} clients -> {out}",
        runs[0].spend_per_query,
        runs[runs.len() - 1].spend_per_query,
        runs[0].clients,
        runs[runs.len() - 1].clients,
    );
}

/// Reconcile a batched replay of the overlapping mix against its unbatched
/// twin: batching may change who pays, never what anyone sees or the total
/// delivered bill.
fn validate_batch(unbatched_path: &str, batched_path: &str) {
    let unbatched = load_serve_report(unbatched_path);
    let batched = load_serve_report(batched_path);
    let fail = |msg: String| {
        eprintln!("validate-batch: {msg}");
        std::process::exit(1);
    };
    if unbatched.batch {
        fail(format!(
            "{unbatched_path}: the unbatched twin ran with batching on"
        ));
    }
    if !batched.batch {
        fail(format!(
            "{batched_path}: the batched run ran with batching off"
        ));
    }
    for (field, a, b) in [
        ("seed", unbatched.seed, batched.seed),
        ("clients", unbatched.clients, batched.clients),
        ("queries", unbatched.queries, batched.queries),
        ("page_size", unbatched.page_size, batched.page_size),
    ] {
        if a != b {
            fail(format!("dumps replay different mixes: {field} {a} vs {b}"));
        }
    }
    if unbatched.per_query.len() != batched.per_query.len() {
        fail(format!(
            "per-query rows differ: {} vs {}",
            unbatched.per_query.len(),
            batched.per_query.len()
        ));
    }
    for (i, (u, b)) in unbatched
        .per_query
        .iter()
        .zip(&batched.per_query)
        .enumerate()
    {
        if u.client != b.client || u.template != b.template {
            fail(format!("query {i}: submission order diverged"));
        }
        if u.digest != b.digest || u.rows != b.rows {
            fail(format!(
                "query {i}: batched answer differs from the unbatched oracle \
                 (digest {:#x} vs {:#x}, rows {} vs {})",
                u.digest, b.digest, u.rows, b.rows
            ));
        }
    }
    for (path, r) in [(unbatched_path, &unbatched), (batched_path, &batched)] {
        if r.total_pages != r.meter_transactions {
            fail(format!(
                "{path}: ledger does not reconcile with the billing meter: \
                 {} ledger pages vs {} metered transactions",
                r.total_pages, r.meter_transactions
            ));
        }
    }
    let (db, du) = (batched.delivered_pages(), unbatched.delivered_pages());
    if db > du {
        fail(format!(
            "batching delivered (and paid for) more pages than the unbatched \
             twin: {db} vs {du}"
        ));
    }
    if batched.batch_joins == 0 {
        fail(format!(
            "{batched_path}: batching was on but no query ever parked a remainder"
        ));
    }
    println!(
        "validate-batch: {} queries agree with the unbatched twin; ledgers \
         reconcile; delivered pages {db} (batched) vs {du} (unbatched); \
         {} batch join(s), {} shared page(s)",
        batched.queries, batched.batch_joins, batched.shared_pages
    );
}

/// The argument-taking modes: name, how many positional arguments must
/// follow it, their usage line, and the handler (handed everything after
/// the mode name).
type Mode = (&'static str, usize, &'static str, fn(&[String]));

#[rustfmt::skip] // one row per mode
const MODES: &[Mode] = &[
    ("validate", 1, "<file.jsonl>...", validate),
    ("validate-explain", 1, "<file>", |a| validate_explain(&a[0])),
    ("serve", 1, "<out.json>", |a| serve("serve", &a[0])),
    ("batch", 1, "<out.json>", |a| bench_batch(&a[0])),
    ("batch-serve", 1, "<out.json>", |a| serve("batch-serve", &a[0])),
    ("validate-batch", 2, "<unbatched.json> <batched.json>", |a| validate_batch(&a[0], &a[1])),
    ("validate-events", 1, "<events.jsonl> [expect-violation]", |a| {
        validate_events(&a[0], a.get(1).map(String::as_str) == Some("expect-violation"))
    }),
    ("events-abort", 1, "<blackbox.jsonl>", |a| events_abort(&a[0])),
    ("validate-serve", 2, "<serial.json> <parallel.json>", |a| validate_serve(&a[0], &a[1])),
    ("validate-recovery", 4, "<oracle.json> <run2.json> <recovered.json> <final.json>", |a| {
        validate_recovery(&a[0], &a[1], &a[2], &a[3])
    }),
    ("validate-metrics", 2, "<metrics.txt> <serve.json>", |a| validate_metrics(&a[0], &a[1])),
    ("diff", 1, "<baseline.json>...", diff),
    ("store-scale", 0, "", |_| store_scale()),
];

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let hit = args
        .iter()
        .enumerate()
        .find_map(|(pos, a)| MODES.iter().find(|m| m.0 == a).map(|m| (pos, m)));
    if let Some((pos, &(mode, arity, usage, handler))) = hit {
        let rest = &args[pos + 1..];
        if rest.len() < arity {
            eprintln!("{mode}: need {usage}");
            std::process::exit(1);
        }
        return handler(rest);
    }

    let smoke = args.iter().any(|a| a == "smoke");
    let scale = if smoke { &SMOKE } else { &FULL };
    let all = smoke || args.is_empty();
    let wants = |m: &str| all || args.iter().any(|a| a == m);

    if wants("sqr") {
        bench_sqr(scale).finish();
    }
    if wants("dp") {
        bench_dp(scale).finish();
    }
    if args.iter().any(|a| a == "metrics") {
        bench_metrics(scale).finish();
    }
    if args.iter().any(|a| a == "events") {
        bench_events(scale).finish();
    }
}
