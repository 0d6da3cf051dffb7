//! Metrics + reconciliation-watchdog suite: a seeded serve mix runs with a
//! live [`payless_metrics::MetricsHub`] attached, clean and under injected
//! chaos, and the continuous watchdog must observe **zero drift** between
//! the sum of per-query spend ledgers and the market billing meter.
//!
//! Invariants checked throughout (`page_size = 1`, so delivered pages equal
//! delivered records — see DESIGN.md "Live metrics & the reconciliation
//! watchdog"):
//!
//! * the watchdog samples after every query and never observes attributed
//!   spend ahead of the meter, clean or faulted — it would abort the mix
//!   otherwise;
//! * at quiescence the cumulative `payless_market_pages_billed_total`
//!   counter equals the billing meter's transaction delta exactly;
//! * per-query wall-clock latencies surface as non-zero row timings and
//!   monotone per-client percentiles;
//! * the registry stays exact under concurrent hammering from many
//!   threads (no lost increments, histogram count == total records);
//! * a charge on the meter that no query's ledger explains aborts the
//!   mix and leaves a well-formed black-box dump naming the violation.

mod common;

use std::sync::Arc;

use common::{build_market, prepared, tiny_workload};

use payless_events::{EventJournal, EventsConfig};
use payless_exec::RetryPolicy;
use payless_market::{FaultInjector, FaultKind, FaultPlan};
use payless_metrics::{MetricsConfig, MetricsHub, Registry};
use payless_serve::{run_mix, Serve, ServeConfig, ServeReport};
use payless_workload::{serve_mix, MixItem, QueryWorkload, RealWorkload};

/// Single-table WHW templates only, as in the concurrency suite.
const TEMPLATES: [usize; 2] = [0, 1];

const CHAOS_SEED: u64 = 48879;

/// Replay `mix` with a fresh hub attached; the watchdog samples after
/// every query, and any mid-run over-attribution aborts the whole mix
/// instead of passing silently.
fn run_with_hub(
    w: &RealWorkload,
    mix: &[MixItem],
    threads: usize,
    faults: Option<FaultPlan>,
) -> (ServeReport, Arc<MetricsHub>, u64) {
    let market = build_market(w, 1);
    let faulted = faults.is_some();
    if let Some(plan) = faults {
        market.attach_fault_injector(FaultInjector::new(plan));
    }
    let hub = Arc::new(MetricsHub::new(MetricsConfig::default()));
    let cfg = ServeConfig {
        threads,
        coalesce: true,
        retry: if faulted {
            RetryPolicy::unlimited()
        } else {
            RetryPolicy::default()
        },
        metrics: Some(Arc::clone(&hub)),
        ..ServeConfig::default()
    };
    let meter_before = market.bill().transactions();
    let serve = Serve::new(Arc::clone(&market), QueryWorkload::local_tables(w), cfg);
    let templates = prepared(&serve, w);
    let report = run_mix(&serve, mix, &templates).expect("serve mix succeeds under the watchdog");
    let meter_delta = market.bill().transactions() - meter_before;
    (report, hub, meter_delta)
}

/// Every hub-level invariant that must hold at quiescence, regardless of
/// thread count or injected faults.
fn assert_hub_reconciles(report: &ServeReport, hub: &MetricsHub, meter_delta: u64) {
    let cum = hub.cumulative();
    assert_eq!(
        cum.counter("payless_market_pages_billed_total"),
        meter_delta,
        "cumulative billed-pages counter must equal the meter's transaction delta"
    );
    assert_eq!(
        cum.counter("payless_serve_queries_total"),
        report.queries,
        "every query in the mix must be counted"
    );
    assert_eq!(
        cum.counter("payless_watchdog_violations_total"),
        0,
        "the watchdog must never observe attributed spend ahead of the meter"
    );
    assert!(
        report.watchdog_samples > 0,
        "the watchdog must sample mid-run, not only at the end"
    );
    assert_eq!(
        cum.counter("payless_watchdog_samples_total"),
        report.watchdog_samples
    );
    assert_eq!(
        cum.gauge("payless_watchdog_drift_pages"),
        0,
        "drift must return to zero at quiescence"
    );
    let lat = cum
        .histogram("payless_serve_query_nanos")
        .expect("per-query latency histogram exists");
    assert_eq!(lat.count, report.queries, "one latency sample per query");
}

/// Row timings and per-client percentiles: every query carries a non-zero
/// wall clock, and p50 <= p95 <= p99 per client.
fn assert_latencies(report: &ServeReport) {
    for (i, q) in report.per_query.iter().enumerate() {
        assert!(q.wall_nanos > 0, "query {i} has no wall-clock timing");
    }
    for c in &report.per_client {
        assert!(
            c.p50_nanos <= c.p95_nanos && c.p95_nanos <= c.p99_nanos,
            "client {}: percentiles not monotone ({} / {} / {})",
            c.client,
            c.p50_nanos,
            c.p95_nanos,
            c.p99_nanos
        );
        assert!(c.queries == 0 || c.p50_nanos > 0);
    }
}

#[test]
fn clean_serial_mix_reconciles_with_zero_drift() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 4, 18, CHAOS_SEED);
    let (report, hub, meter_delta) = run_with_hub(&w, &mix, 1, None);

    assert_hub_reconciles(&report, &hub, meter_delta);
    assert_latencies(&report);
    assert_eq!(
        report.watchdog_samples, report.queries,
        "the watchdog samples once per completed query"
    );
    // One thread means no in-flight spend at any sample point, so the
    // watchdog's running maximum is zero too, not merely the final gauge.
    assert_eq!(
        report.watchdog_max_drift_pages, 0,
        "serial runs can never have in-flight spend at a sample"
    );
}

#[test]
fn clean_parallel_mix_reconciles_with_zero_final_drift() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 4, 18, 7);
    let (report, hub, meter_delta) = run_with_hub(&w, &mix, 4, None);
    assert_hub_reconciles(&report, &hub, meter_delta);
    assert_latencies(&report);
}

#[test]
fn chaos_serial_mix_keeps_the_watchdog_clean() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 4, 16, CHAOS_SEED);
    // Chaos alone may roll no faults on a mix this small, so pin one
    // guaranteed outage onto the first market call: at least one retry is
    // then certain, and its accounting must stay visible and reconciled.
    let plan = FaultPlan::chaos(CHAOS_SEED).at(0, FaultKind::Unavailable);
    let (report, hub, meter_delta) = run_with_hub(&w, &mix, 1, Some(plan));

    assert_hub_reconciles(&report, &hub, meter_delta);
    assert_eq!(report.watchdog_max_drift_pages, 0);
    // The pinned outage forces a retry; the call layer must report it.
    let cum = hub.cumulative();
    assert!(
        cum.counter("payless_market_retries_total") > 0,
        "a pinned Unavailable fault must surface as a counted retry"
    );
    assert_eq!(
        cum.counter("payless_market_pages_wasted_total"),
        report.wasted_pages,
        "wasted-page counter must match the report"
    );
}

#[test]
fn chaos_parallel_mix_keeps_the_watchdog_clean() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 4, 16, CHAOS_SEED);
    let plan = FaultPlan::chaos(CHAOS_SEED).at(0, FaultKind::Unavailable);
    let (report, hub, meter_delta) = run_with_hub(&w, &mix, 4, Some(plan));
    assert_hub_reconciles(&report, &hub, meter_delta);
    assert_latencies(&report);
}

#[test]
fn registry_is_exact_under_concurrent_hammering() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;

    let reg = Registry::default();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let reg = &reg;
            s.spawn(move || {
                // Interleave first-touch registration with increments: every
                // thread resolves the same names, so lost registrations or
                // increments show up as a total mismatch below.
                let c = reg.counter("hammer_total");
                let g = reg.gauge("hammer_last");
                let h = reg.histogram("hammer_nanos");
                for i in 0..PER_THREAD {
                    c.inc(1);
                    g.set(t as u64);
                    h.record(i % 1024);
                }
            });
        }
    });

    let snap = reg.snapshot();
    assert_eq!(snap.counter("hammer_total"), THREADS as u64 * PER_THREAD);
    assert!(snap.gauge("hammer_last") < THREADS as u64);
    let h = snap
        .histogram("hammer_nanos")
        .expect("histogram registered");
    assert_eq!(
        h.count,
        THREADS as u64 * PER_THREAD,
        "no lost histogram samples"
    );
}

#[test]
fn hub_counters_are_exact_under_concurrent_hammering() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 25_000;

    let hub = MetricsHub::new(MetricsConfig::default());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let hub = &hub;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    hub.market_calls.inc(1);
                    hub.market_call_nanos.record(i + 1);
                }
            });
        }
    });
    let cum = hub.cumulative();
    let expect = THREADS as u64 * PER_THREAD;
    assert_eq!(cum.counter("payless_market_calls_total"), expect);
    let h = cum
        .histogram("payless_market_call_nanos")
        .expect("pre-registered histogram");
    assert_eq!(h.count, expect);
    // The exposition must agree with the snapshot it was rendered from.
    let expo = hub.exposition();
    assert!(expo.contains(&format!("payless_market_calls_total {expect}")));
}

/// Check the shape every flight-recorder JSONL line must have — strictly
/// increasing `seq`, an `at_nanos` timestamp, a known `severity`, a `kind`
/// — and return the kinds in order.
fn journal_kinds(dump: &str) -> Vec<String> {
    let mut last_seq = None;
    let mut kinds = Vec::new();
    for (i, line) in dump.lines().enumerate() {
        let event = payless_json::parse(line).expect("every journal line is JSON");
        let seq = event.get("seq").and_then(|v| v.as_u64()).expect("seq");
        assert!(
            last_seq < Some(seq),
            "line {i}: seq {seq} follows {last_seq:?}"
        );
        last_seq = Some(seq);
        event
            .get("at_nanos")
            .and_then(|v| v.as_u64())
            .expect("at_nanos");
        let severity = event.get("severity").unwrap().as_str().unwrap().to_string();
        assert!(
            matches!(severity.as_str(), "debug" | "info" | "warn" | "error"),
            "line {i}: unknown severity `{severity}`"
        );
        kinds.push(event.get("kind").unwrap().as_str().unwrap().to_string());
    }
    kinds
}

/// The post-mortem path: one unattributed charge lands on the billing meter
/// mid-run — spend no query's ledger can account for. Under the watchdog,
/// which samples after every query, the mix must abort, and the
/// journal's black box must land with the violation in it.
#[test]
fn strict_watchdog_aborts_a_sabotaged_meter_and_dumps_the_black_box() {
    let dir = std::env::temp_dir().join(format!("payless-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let blackbox = dir.join("blackbox.jsonl");

    let w = tiny_workload(3);
    let market = build_market(&w, 1);
    market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(CHAOS_SEED)));
    let journal = EventJournal::from_config(&EventsConfig {
        cap: 1 << 14,
        blackbox: Some(blackbox.to_string_lossy().into_owned()),
    });
    let cfg = ServeConfig {
        threads: 1,
        retry: RetryPolicy::unlimited(),
        events: Some(Arc::clone(&journal)),
        ..ServeConfig::default()
    };
    let serve = Serve::new(Arc::clone(&market), QueryWorkload::local_tables(&w), cfg);
    let templates = prepared(&serve, &w);
    let mix = serve_mix(&w, &TEMPLATES, 4, 24, CHAOS_SEED);

    // The saboteur waits for the first real purchase (necessarily after the
    // watchdog's base snapshot), then charges the meter directly.
    let table = market.table_names()[0].clone();
    let base = market.bill().transactions();
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            while market.bill().transactions() <= base {
                std::thread::yield_now();
            }
            market.meter().charge(&table, 97, 97);
        });
        // The violation normally surfaces as a mid-run `Err`; if the
        // charge lands after the last sample, the finish-time
        // reconciliation panics instead. Both dump the black box first.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_mix(&serve, &mix, &templates)
        }))
    });
    if let Ok(Ok(_)) = result {
        panic!("the sabotaged run reconciled: no violation was detected");
    }

    let dump = std::fs::read_to_string(&blackbox).expect("black box was written");
    let kinds = journal_kinds(&dump);
    for expected in ["watchdog_violation", "blackbox"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "black box must hold a `{expected}` event: {kinds:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
