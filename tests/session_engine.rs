//! The single-tenant `PayLess` session and the serving layer are one
//! engine: this suite pins what a session answers, plans and pays on a
//! fixed WHW stream, and ties the session to a one-client `Serve`.
//!
//! * `session_stream_matches_golden` replays 50 queries (all five Table-1
//!   templates, 40 distinct instances plus 10 repeats, page size 100)
//!   through a session in each of the five paper modes and compares, per
//!   query, the rendered plan, the bits of the estimated cost, the pages
//!   paid, the answer digest and `plans_considered` against
//!   `tests/golden/session_stream.txt` — plus, for a traced `PayLess` run,
//!   the report of the first partial-hit query with every wall-clock field
//!   scrubbed (ledger, `sqr.*` counters, operator estimates and
//!   actuals). The file was recorded at commit 598c77d, before the session
//!   moved onto `SharedState`; a mismatch writes the new text next to the
//!   test binary's scratch directory so it can be diffed.
//! * `session_restarted_after_any_query_matches_golden`: the session's
//!   data directory (`wal.log` + `mirror.log`) is its whole state. For
//!   every k, a durable session that runs the first k queries, is dropped
//!   and is reopened from its directory renders the golden `payless` lines
//!   byte for byte.
//! * `session_equals_one_client_serve` runs the same stream through a
//!   session at its defaults and through `Serve::run_query` with one thread
//!   and coalescing off, clean and under one chaos seed: equal answers,
//!   equal pages per query, equal spend ledgers entry for entry, and both
//!   ledgers sum to their market's meter. The session is a wrapper over
//!   `Serve::run`; this guards its one-client configuration.

mod common;

use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use common::{build_market, prepared};
use payless_core::{
    CallKind, DataMarket, FaultInjector, FaultPlan, Mode, PayLess, QueryOutcome, RetryPolicy,
    TelemetrySnapshot,
};
use payless_json::Json;
use payless_serve::{digest_rows, Serve, ServeConfig};
use payless_server::persist::{recover, PersistConfig};
use payless_types::Value;
use payless_workload::{QueryWorkload, RealWorkload, WhwConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("golden/session_stream.txt");

fn workload() -> RealWorkload {
    RealWorkload::generate(&WhwConfig {
        stations: 48,
        countries: 4,
        cities_per_country: 3,
        days: 60,
        zips: 60,
        ranks: 100,
        seed: 3,
    })
}

/// 40 fresh instances, templates round-robin, then every fourth one again.
fn stream(w: &RealWorkload) -> Vec<(usize, Vec<Value>)> {
    let mut rng = StdRng::seed_from_u64(20_177);
    let n = QueryWorkload::templates(w).len();
    let mut out: Vec<(usize, Vec<Value>)> = (0..40)
        .map(|i| (i % n, QueryWorkload::sample_params(w, i % n, &mut rng)))
        .collect();
    let repeats: Vec<_> = out.iter().step_by(4).cloned().collect();
    out.extend(repeats);
    out
}

fn session(w: &RealWorkload, mode: Mode) -> PayLess {
    session_over(build_market(w, 100), w, ServeConfig::one_client(), mode)
}

fn session_over(
    market: Arc<DataMarket>,
    w: &RealWorkload,
    cfg: ServeConfig,
    mode: Mode,
) -> PayLess {
    PayLess::over(
        Serve::new(market, QueryWorkload::local_tables(w), cfg),
        mode,
    )
}

/// A session at its defaults, kept in (and recovered from) `dir`.
fn durable_session(market: &Arc<DataMarket>, w: &RealWorkload, dir: &Path) -> PayLess {
    let locals = QueryWorkload::local_tables(w);
    let build =
        |store| Serve::with_store(Arc::clone(market), locals, ServeConfig::one_client(), store);
    let (serve, _) =
        recover(dir, PersistConfig::default(), market, build).expect("session directory opens");
    PayLess::over(serve, Mode::PayLess)
}

/// The whole stream.
const ALL: Range<usize> = 0..usize::MAX;

/// Run the stream's `queries` through `pl`, one outcome (and pages paid)
/// per query.
fn replay(
    pl: &mut PayLess,
    w: &RealWorkload,
    queries: Range<usize>,
) -> Vec<(usize, QueryOutcome, u64)> {
    let templates: Vec<_> = QueryWorkload::templates(w)
        .iter()
        .map(|sql| pl.prepare(sql).expect("workload templates parse"))
        .collect();
    stream(w)
        .into_iter()
        .skip(queries.start)
        .take(queries.len())
        .map(|(t, params)| {
            let before = pl.bill().transactions();
            let out = pl
                .execute_template(&templates[t], &params)
                .expect("stream query succeeds");
            (t, out, pl.bill().transactions() - before)
        })
        .collect()
}

fn render(name: &str, runs: &[(usize, QueryOutcome, u64)], into: &mut String) {
    for (i, (t, out, pages)) in runs.iter().enumerate() {
        writeln!(
            into,
            "{name} q{i:02} t{t} plan={} est={:016x} pages={pages} digest={:016x} plans={} rows={}",
            out.plan.as_deref().unwrap_or("-"),
            out.est_cost.to_bits(),
            digest_rows(&out.result),
            out.counters.plans_considered,
            out.result.rows.len(),
        )
        .unwrap();
    }
}

/// Drop every wall-clock field of a report.
fn scrub(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "phases" && !k.contains("nanos"))
                .map(|(k, v)| (k.clone(), scrub(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(scrub).collect()),
        other => other.clone(),
    }
}

#[test]
fn session_stream_matches_golden() {
    let w = workload();
    let mut actual = String::new();
    for (name, mode) in [
        ("payless", Mode::PayLess),
        ("no-sqr", Mode::PayLessNoSqr),
        ("min-calls", Mode::MinCalls),
        ("download-all", Mode::DownloadAll),
        ("disable-all", Mode::DisableAll),
    ] {
        let mut pl = session(&w, mode);
        render(name, &replay(&mut pl, &w, ALL), &mut actual);
    }

    let mut pl = session(&w, Mode::PayLess);
    pl.enable_tracing(true);
    let traced = replay(&mut pl, &w, ALL);
    render("payless-traced", &traced, &mut actual);
    let (i, report) = traced
        .iter()
        .enumerate()
        .find_map(|(i, (_, out, _))| {
            let report = out.report.as_ref().expect("tracing is on");
            (report.sqr().partial_hits > 0).then_some((i, report))
        })
        .expect("the stream has a partial hit");
    writeln!(actual, "first partial hit: q{i:02}").unwrap();
    actual.push_str(&scrub(&report.to_json()).to_string_pretty());
    actual.push('\n');

    if actual != GOLDEN {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("session_stream.txt");
        std::fs::write(&dump, &actual).expect("write the actual stream");
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "session stream diverges from tests/golden/session_stream.txt at line {}:\n  \
             got    {}\n  golden {}\nfull text written to {}",
            line + 1,
            actual.lines().nth(line).unwrap_or("<end>"),
            GOLDEN.lines().nth(line).unwrap_or("<end>"),
            dump.display()
        );
    }
}

#[test]
fn session_restarted_after_any_query_matches_golden() {
    let w = workload();
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.starts_with("payless q"))
        .collect();
    let n = stream(&w).len();
    assert_eq!(golden.len(), n);
    for k in 1..n {
        let dir = std::env::temp_dir().join(format!(
            "payless-session-restart-{}-{k}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let market = build_market(&w, 100);
        let mut runs = replay(&mut durable_session(&market, &w, &dir), &w, 0..k);
        runs.extend(replay(&mut durable_session(&market, &w, &dir), &w, k..n));
        let mut actual = String::new();
        render("payless", &runs, &mut actual);
        for (i, (got, want)) in actual.lines().zip(&golden).enumerate() {
            assert_eq!(got, *want, "restarted after query {k}: q{i:02} diverges");
        }
        assert_eq!(actual.lines().count(), n);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What a ledger entry says, without the recorder's own stamps (`seq`,
/// `at_nanos`).
fn ledger_facts(snap: &TelemetrySnapshot) -> Vec<(&str, &str, CallKind, u64, u64, f64, bool)> {
    snap.ledger
        .iter()
        .map(|e| {
            (
                &*e.dataset,
                &*e.table,
                e.kind,
                e.pages,
                e.records,
                e.price,
                e.wasted,
            )
        })
        .collect()
}

#[test]
fn session_equals_one_client_serve() {
    let w = workload();
    // Clean, then with both markets chaos-injected alike: one client makes
    // the same calls in the same order, so the same faults fire.
    for chaos in [None, Some(48879)] {
        let faulty = |market: Arc<DataMarket>| {
            if let Some(seed) = chaos {
                market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(seed)));
            }
            market
        };
        let mut pl = session_over(
            faulty(build_market(&w, 100)),
            &w,
            ServeConfig {
                retry: RetryPolicy::unlimited(),
                ..ServeConfig::one_client()
            },
            Mode::PayLess,
        );
        pl.enable_tracing(true);
        let session_runs = replay(&mut pl, &w, ALL);
        let session_ledger: u64 = session_runs
            .iter()
            .map(|(_, out, _)| out.report.as_ref().expect("tracing is on").total_pages())
            .sum();
        assert_eq!(session_ledger, pl.bill().transactions());

        let market = faulty(build_market(&w, 100));
        let serve = Serve::new(
            market.clone(),
            QueryWorkload::local_tables(&w),
            ServeConfig {
                threads: 1,
                coalesce: false,
                retry: RetryPolicy::unlimited(),
                ..ServeConfig::default()
            },
        );
        let templates = prepared(&serve, &w);
        let mut serve_ledger = 0;
        for (i, ((t, params), (_, out, pages))) in stream(&w).iter().zip(&session_runs).enumerate()
        {
            let (result, snap) = serve
                .run_query(&templates[*t], params)
                .expect("stream query succeeds");
            assert_eq!(
                digest_rows(&result),
                digest_rows(&out.result),
                "query {i}, chaos {chaos:?}: answers differ"
            );
            assert_eq!(
                snap.total_pages(),
                *pages,
                "query {i}, chaos {chaos:?}: pages differ"
            );
            // One writer: the two ledgers agree entry for entry.
            let report = out.report.as_ref().expect("tracing is on");
            assert_eq!(
                ledger_facts(&snap),
                ledger_facts(&report.telemetry),
                "query {i}, chaos {chaos:?}: ledgers differ"
            );
            serve_ledger += snap.total_pages();
        }
        assert_eq!(serve_ledger, market.bill().transactions());
        if chaos.is_some() {
            let wasted = market.fault_injector().expect("attached").wasted_pages();
            assert!(wasted > 0, "the chaos seed must waste some spend");
        }
    }
}
