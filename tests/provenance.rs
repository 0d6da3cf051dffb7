//! Provenance-exactness suite for the flight recorder.
//!
//! The journal's per-query provenance must be *accounting-grade*: summing
//! the billed pages over a query's reconstructed provenance tree
//! (`call_delivered` + billed `call_failed` events) must equal the query's
//! spend-ledger total, and Σ over all queries must equal the billing
//! meter's delta — clean and under the pinned chaos seed, serial and
//! 4-thread.
//!
//! A second family of checks asserts causal closure of waste: every event
//! that carries billed waste (a delivered call's truncation overhead, a
//! billed failure) must be reachable from an explicit fault event
//! (`call_fault` / `call_truncated`) through its call id. No page of waste
//! appears out of thin air.

mod common;

use std::sync::Arc;

use common::{build_market, prepared, tiny_workload};

use payless_core::{Mode, PayLess};
use payless_events::{provenance, render_provenance, Event, EventJournal, EventKind};
use payless_exec::RetryPolicy;
use payless_market::{FaultInjector, FaultKind, FaultPlan};
use payless_serve::{run_mix, Serve, ServeConfig, ServeReport};
use payless_workload::{serve_mix, MixItem, QueryWorkload, RealWorkload};

/// Single-table WHW templates, as in `serve_concurrency.rs`.
const TEMPLATES: [usize; 2] = [0, 1];

/// The pinned chaos seed (0xBEEF).
const CHAOS_SEED: u64 = 48879;

/// Replay `mix` with a journal attached; return the report (or the error)
/// plus the journal's merged snapshot.
#[allow(clippy::type_complexity)]
fn run_journaled(
    w: &RealWorkload,
    mix: &[MixItem],
    threads: usize,
    fault_seed: Option<u64>,
    retry: RetryPolicy,
) -> (Result<ServeReport, payless_types::PaylessError>, Vec<Event>) {
    let market = build_market(w, 1);
    if let Some(seed) = fault_seed {
        market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(seed)));
    }
    // Big ring: provenance exactness needs every event of the run retained.
    let journal = Arc::new(EventJournal::new(1 << 16));
    let cfg = ServeConfig {
        threads,
        retry,
        events: Some(Arc::clone(&journal)),
        ..ServeConfig::default()
    };
    let serve = Serve::new(market, QueryWorkload::local_tables(w), cfg);
    let templates = prepared(&serve, w);
    let out = run_mix(&serve, mix, &templates);
    assert_eq!(journal.dropped(), 0, "ring too small for the run");
    (out, journal.snapshot())
}

/// The tentpole acceptance check: per-query provenance == ledger row, and
/// Σ provenance == meter delta.
fn assert_provenance_exact(report: &ServeReport, events: &[Event]) {
    let mut total = 0u64;
    for row in &report.per_query {
        let p = provenance(events, row.query_id);
        assert_eq!(
            p.billed_pages(),
            row.spend.pages,
            "query {}: provenance tree bills {} pages but the ledger says {}\n{}",
            row.query_id,
            p.billed_pages(),
            row.spend.pages,
            render_provenance(events, row.query_id)
        );
        assert_eq!(
            p.wasted_pages, row.spend.wasted_pages,
            "query {}: provenance wasted pages diverge from the ledger",
            row.query_id
        );
        total += p.billed_pages();
    }
    assert_eq!(
        total, report.meter_transactions,
        "Σ per-query provenance must equal the billing meter's delta"
    );
}

/// Replay `mix` through a single-tenant session with a journal attached;
/// queries may fail (the retry policy is the default, four attempts).
/// Returns the journal's snapshot and how many queries ran (ids `1..=n`).
fn run_session_journaled(
    w: &RealWorkload,
    mix: &[MixItem],
    mode: Mode,
    faults: Option<FaultPlan>,
) -> (Vec<Event>, u64) {
    let market = build_market(w, 1);
    if let Some(plan) = faults {
        market.attach_fault_injector(FaultInjector::new(plan));
    }
    let journal = Arc::new(EventJournal::new(1 << 16));
    let cfg = ServeConfig {
        events: Some(Arc::clone(&journal)),
        ..ServeConfig::one_client()
    };
    let mut pl = PayLess::over(
        Serve::new(market, QueryWorkload::local_tables(w), cfg),
        mode,
    );
    let templates: Vec<_> = QueryWorkload::templates(w)
        .iter()
        .map(|sql| pl.prepare(sql).expect("workload templates parse"))
        .collect();
    for item in mix {
        let _ = pl.execute_template(&templates[item.template], &item.params);
    }
    assert_eq!(journal.dropped(), 0, "ring too small for the run");
    (journal.snapshot(), pl.now())
}

/// Each query's `query_done` must state what its call events sum to —
/// pages and waste. Returns the waste journaled by answered and by failed
/// queries.
fn assert_query_done_matches_provenance(events: &[Event], queries: u64) -> (u64, u64) {
    let (mut answered, mut failed) = (0, 0);
    for qid in 1..=queries {
        let (ok, pages, wasted_pages) = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::QueryDone {
                    ok,
                    pages,
                    wasted_pages,
                } if e.query == Some(qid) => Some((*ok, *pages, *wasted_pages)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("query {qid} journaled no query_done"));
        let p = provenance(events, qid);
        assert_eq!(
            (pages, wasted_pages),
            (p.billed_pages(), p.wasted_pages),
            "query {qid}: query_done (pages, wasted) diverges from its calls\n{}",
            render_provenance(events, qid)
        );
        *(if ok { &mut answered } else { &mut failed }) += wasted_pages;
    }
    (answered, failed)
}

/// Causal closure of waste: every waste-carrying event must trace back to
/// an explicit fault event through its call id.
fn assert_waste_reachable_from_faults(events: &[Event]) {
    let has_fault_for_call = |call: u64| {
        events.iter().any(|e| {
            matches!(
                &e.kind,
                EventKind::CallFault { call: c, .. } | EventKind::CallTruncated { call: c, .. }
                    if *c == call
            )
        })
    };
    for e in events {
        match &e.kind {
            EventKind::CallDelivered {
                call, wasted_pages, ..
            } if *wasted_pages > 0 => {
                assert!(
                    has_fault_for_call(*call),
                    "call {call} delivered with waste but journaled no fault"
                );
            }
            EventKind::CallFailed {
                call,
                billed: true,
                wasted_pages,
                ..
            } if *wasted_pages > 0 => {
                assert!(
                    has_fault_for_call(*call),
                    "call {call} billed-and-failed but journaled no fault"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn provenance_is_exact_clean_and_chaos_serial_and_parallel() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 4, 16, CHAOS_SEED);
    for threads in [1usize, 4] {
        for fault_seed in [None, Some(CHAOS_SEED)] {
            let retry = if fault_seed.is_some() {
                RetryPolicy::unlimited()
            } else {
                RetryPolicy::default()
            };
            let (out, events) = run_journaled(&w, &mix, threads, fault_seed, retry);
            let report = out.unwrap_or_else(|e| {
                panic!("mix must succeed (threads {threads}, fault {fault_seed:?}): {e}")
            });
            assert_provenance_exact(&report, &events);
            assert_waste_reachable_from_faults(&events);
        }
    }
    // The single-tenant session runs the same pipeline, and Download All's
    // calls count towards the query that triggered them. Pinned faults: the
    // first market call is billed short once and then delivered (waste on
    // an answered query); the next one is billed four times for nothing,
    // which exhausts its attempts (waste on a failed query).
    let pinned = FaultPlan::none()
        .at(0, FaultKind::Truncate)
        .at(2, FaultKind::Corrupt)
        .at(3, FaultKind::Truncate)
        .at(4, FaultKind::Corrupt)
        .at(5, FaultKind::Truncate);
    for mode in [Mode::PayLess, Mode::DownloadAll] {
        let (events, queries) = run_session_journaled(&w, &mix, mode, None);
        let wasted = assert_query_done_matches_provenance(&events, queries);
        assert_eq!(wasted, (0, 0), "{mode:?}: a clean run wastes nothing");

        let (events, queries) = run_session_journaled(&w, &mix, mode, Some(pinned.clone()));
        let (answered, failed) = assert_query_done_matches_provenance(&events, queries);
        assert!(
            answered > 0 && failed > 0,
            "{mode:?}: {answered} / {failed}"
        );
        assert_waste_reachable_from_faults(&events);
    }
}

/// A served query that fails after spending journals what it spent: one
/// attempt, billed in full and delivered short, is all the retry policy
/// allows.
#[test]
fn failed_served_query_journals_its_spend() {
    let w = tiny_workload(3);
    let market = build_market(&w, 1);
    market.attach_fault_injector(FaultInjector::new(
        FaultPlan::none().at(0, FaultKind::Truncate),
    ));
    let journal = Arc::new(EventJournal::new(1 << 16));
    let cfg = ServeConfig {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        events: Some(Arc::clone(&journal)),
        ..ServeConfig::one_client()
    };
    let serve = Serve::new(market, QueryWorkload::local_tables(&w), cfg);
    let templates = prepared(&serve, &w);
    let item = &serve_mix(&w, &TEMPLATES, 1, 1, CHAOS_SEED)[0];
    let (query, outcome) = serve.run_query_traced(&templates[item.template], &item.params);
    assert!(
        outcome.is_err(),
        "one truncated attempt must fail the query"
    );
    let events = journal.snapshot();
    let (_, failed) = assert_query_done_matches_provenance(&events, query);
    assert!(failed > 0, "the failed query journaled no spend");
}

#[test]
fn every_query_row_has_a_journaled_lifecycle() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 3, 12, 7);
    let (out, events) = run_journaled(&w, &mix, 4, None, RetryPolicy::default());
    let report = out.expect("clean mix succeeds");
    for row in &report.per_query {
        assert!(row.query_id > 0, "run_mix must surface the causal id");
        let start = events
            .iter()
            .any(|e| e.query == Some(row.query_id) && matches!(e.kind, EventKind::QueryStart));
        let done = events.iter().any(|e| {
            e.query == Some(row.query_id) && matches!(e.kind, EventKind::QueryDone { ok: true, .. })
        });
        assert!(start, "query {} journaled no query_start", row.query_id);
        assert!(done, "query {} journaled no ok query_done", row.query_id);
    }
}

mod random_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random K-client chaos schedules, some with limited retries (so
        /// `BilledAndFailed` outcomes actually escape): all waste in the
        /// journal is reachable from a fault event, and when the mix
        /// completes its provenance is exact.
        #[test]
        fn any_schedule_keeps_waste_causally_closed(seed in any::<u64>()) {
            let w = tiny_workload(3);
            let clients = 2 + (seed % 3) as usize; // 2..=4
            let threads = 1 + ((seed >> 2) % 4) as usize; // 1..=4
            let queries = 6 + (seed % 5) as usize; // 6..=10
            let mix = serve_mix(&w, &TEMPLATES, clients, queries, seed);
            let retry = if seed & 2 == 0 {
                RetryPolicy::unlimited()
            } else {
                // Limited retries under chaos: some queries fail with
                // billed waste, which must still trace to fault events.
                RetryPolicy::default()
            };
            let (out, events) =
                run_journaled(&w, &mix, threads, Some(seed ^ 0xc0ffee), retry);
            assert_waste_reachable_from_faults(&events);
            if let Ok(report) = out {
                assert_provenance_exact(&report, &events);
            }
        }
    }
}
