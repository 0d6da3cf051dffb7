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
//!   scrubbed (ledger, `sqr.*` / `store.*` counters, operator estimates and
//!   actuals). The file was recorded at commit 598c77d, before the session
//!   moved onto `SharedState`; a mismatch writes the new text next to the
//!   test binary's scratch directory so it can be diffed.
//! * `session_equals_one_client_serve` runs the same stream through a
//!   session at its defaults and through `Serve` with one thread and
//!   coalescing off — both run Algorithm 1 — clean and under one chaos seed:
//!   equal answers, equal pages per query, equal spend ledgers entry for
//!   entry, and both ledgers sum to their market's meter.

mod common;

use std::fmt::Write as _;
use std::sync::Arc;

use common::{build_market, prepared};
use payless_core::{
    CallKind, DataMarket, FaultInjector, FaultPlan, Mode, PayLess, PayLessConfig, QueryOutcome,
    RetryPolicy, TelemetrySnapshot,
};
use payless_json::Json;
use payless_serve::{digest_rows, Serve, ServeConfig};
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

fn session(w: &RealWorkload, cfg: PayLessConfig) -> PayLess {
    session_over(build_market(w, 100), w, cfg)
}

fn session_over(market: Arc<DataMarket>, w: &RealWorkload, cfg: PayLessConfig) -> PayLess {
    let mut pl = PayLess::new(market, cfg);
    for t in QueryWorkload::local_tables(w) {
        pl.register_local(t.clone());
    }
    pl
}

/// Run the stream through `pl`, one outcome (and pages paid) per query.
fn replay(pl: &mut PayLess, w: &RealWorkload) -> Vec<(usize, QueryOutcome, u64)> {
    let templates: Vec<_> = QueryWorkload::templates(w)
        .iter()
        .map(|sql| pl.prepare(sql).expect("workload templates parse"))
        .collect();
    stream(w)
        .into_iter()
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

/// Drop every wall-clock field of a report; a duration histogram keeps
/// only how many samples it saw.
fn scrub(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "phases" && !k.contains("nanos"))
                .map(|(k, v)| match (k.as_str(), v) {
                    ("durations", Json::Obj(hists)) => (
                        k.clone(),
                        Json::Obj(
                            hists
                                .iter()
                                .map(|(name, h)| (name.clone(), h.get("count").unwrap().clone()))
                                .collect(),
                        ),
                    ),
                    _ => (k.clone(), scrub(v)),
                })
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
        let mut pl = session(&w, PayLessConfig::mode(mode));
        render(name, &replay(&mut pl, &w), &mut actual);
    }

    let mut pl = session(&w, PayLessConfig::default());
    pl.enable_tracing(true);
    let traced = replay(&mut pl, &w);
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
            PayLessConfig {
                retry: RetryPolicy::unlimited(),
                ..PayLessConfig::default()
            },
        );
        pl.enable_tracing(true);
        let session_runs = replay(&mut pl, &w);
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
