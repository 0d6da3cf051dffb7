//! Shared-spend attribution suite for batched cross-query purchasing.
//!
//! Queries arriving within the serve layer's batching window park their
//! uncovered remainders; the window leader buys the merged remainder once
//! and splits every purchased page's cost across the queries whose
//! remainder it served. The market runs at `page_size = 1`, so delivered
//! pages equal delivered records. The serve layer runs Algorithm 1, which
//! may re-buy stored records when that is cheaper, so the spend bound below
//! holds by search (the random-schedule proptest), not by construction.
//! The oracle:
//!
//! * a batched run returns byte-identical answers to the serial unbatched
//!   replay of the same mix, and never delivers (bills) more pages;
//! * Σ per-query spend ledgers == the billing meter, clean and under
//!   chaos, at every thread count ([`payless_serve::run_mix`] asserts this
//!   internally; strict watchdog mode cross-checks it mid-run);
//! * a failed batch call reverts every member's share to wasted-spend
//!   accounting that still sums exactly to the billed pages.

mod common;

use std::sync::Arc;

use common::{assert_same_answers, build_market, prepared, tiny_workload};

use payless_exec::RetryPolicy;
use payless_market::{FaultInjector, FaultKind, FaultPlan};
use payless_metrics::{MetricsConfig, MetricsHub};
use payless_serve::{run_mix, BatchConfig, Serve, ServeConfig, ServeReport};
use payless_workload::{overlapping_mix, MixItem, QueryWorkload, RealWorkload};

/// Both single-table WHW templates (the interleaving-independence
/// rationale is the same as the serve-concurrency suite's).
const TEMPLATES: [usize; 2] = [0, 1];

/// The chaos seed CI pins (0xBEEF).
const CHAOS_SEED: u64 = 48879;

/// Replay `mix` on a fresh serving layer, batched or not, with the strict
/// watchdog on (any mid-run reconciliation violation fails the mix).
fn run(
    w: &RealWorkload,
    mix: &[MixItem],
    threads: usize,
    batch: Option<BatchConfig>,
    fault_seed: Option<u64>,
) -> ServeReport {
    let market = build_market(w, 1);
    if let Some(seed) = fault_seed {
        market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(seed)));
    }
    let cfg = ServeConfig {
        threads,
        batch,
        retry: if fault_seed.is_some() {
            RetryPolicy::unlimited()
        } else {
            RetryPolicy::default()
        },
        metrics: Some(Arc::new(MetricsHub::new(MetricsConfig::default()))),
        strict_reconcile: true,
        ..ServeConfig::default()
    };
    let serve = Serve::new(market, QueryWorkload::local_tables(w), cfg);
    let templates = prepared(&serve, w);
    run_mix(&serve, mix, &templates).expect("serve mix succeeds")
}

#[test]
fn batched_runs_match_the_unbatched_oracle_and_never_cost_more() {
    let w = tiny_workload(3);
    let mix = overlapping_mix(&w, &TEMPLATES, 4, 8, 48879);
    let oracle = run(&w, &mix, 1, None, None);
    assert!(!oracle.batch);
    assert_eq!(oracle.batch_joins, 0, "batching was off");
    assert_eq!(oracle.shared_pages, 0, "batching was off");

    for threads in [1usize, 4] {
        let batched = run(&w, &mix, threads, Some(BatchConfig::default()), None);
        assert!(batched.batch);
        assert_same_answers(&batched, &oracle);
        assert!(
            batched.delivered_pages() <= oracle.delivered_pages(),
            "batching must never deliver (and bill) more pages than the \
             unbatched replay: batched {} > unbatched {} at {threads} thread(s)",
            batched.delivered_pages(),
            oracle.delivered_pages()
        );
        assert!(
            batched.batch_joins > 0,
            "purchasing queries must park remainders when batching is on"
        );
        // Exact attribution: a query can only report shared-batch pages it
        // was actually billed for.
        for (i, q) in batched.per_query.iter().enumerate() {
            assert!(
                q.spend.shared_pages <= q.spend.pages,
                "query {i} reports more shared pages than it paid"
            );
            assert!(
                q.spend.batch_joins > 0 || q.spend.shared_pages == 0,
                "query {i} reports shared pages without ever joining a batch"
            );
        }
        assert_eq!(batched.wasted_pages, 0, "clean runs waste nothing");
    }
}

#[test]
fn spend_per_query_falls_as_clients_share_the_hot_pool() {
    let w = tiny_workload(3);
    let per_client = 8;
    let spend_per_query = |clients: usize| {
        let mix = overlapping_mix(&w, &TEMPLATES, clients, per_client, 48879);
        let report = run(&w, &mix, clients.min(4), Some(BatchConfig::default()), None);
        report.delivered_pages() as f64 / report.queries as f64
    };
    // Every client replays the same-length stream from one seed-pinned hot
    // pool: queries grow linearly with clients while the union of purchased
    // regions saturates, so each added client must lower the average.
    let curve: Vec<(usize, f64)> = [1, 2, 4, 8]
        .into_iter()
        .map(|clients| (clients, spend_per_query(clients)))
        .collect();
    for pair in curve.windows(2) {
        assert!(
            pair[1].1 < pair[0].1,
            "pages/query must strictly fall as clients share the hot pool: {curve:?}"
        );
    }
}

#[test]
fn chaos_batched_runs_survive_the_strict_watchdog() {
    let w = tiny_workload(3);
    let mix = overlapping_mix(&w, &TEMPLATES, 4, 6, CHAOS_SEED);
    let clean_oracle = run(&w, &mix, 1, None, None);

    // Batched + chaos + unlimited retries, serial and parallel: `run`
    // keeps the strict watchdog on, so a reconciliation or (at one
    // thread) beyond-deferred drift violation fails the mix outright.
    for threads in [1usize, 4] {
        let faulted = run(
            &w,
            &mix,
            threads,
            Some(BatchConfig::default()),
            Some(CHAOS_SEED),
        );
        assert_same_answers(&faulted, &clean_oracle);
        assert!(
            faulted.delivered_pages() <= clean_oracle.delivered_pages(),
            "chaos must not defeat batching: delivered {} > clean oracle {} \
             at {threads} thread(s)",
            faulted.delivered_pages(),
            clean_oracle.delivered_pages()
        );
    }
}

/// A failed batch call reverts every member's share to wasted-spend
/// accounting: the query errors, and the wasted shares distributed across
/// the batch sum exactly to what the meter billed for the failed attempt.
#[test]
fn failed_batch_share_reverts_to_wasted_spend() {
    for kind in [FaultKind::Truncate, FaultKind::Corrupt] {
        let w = tiny_workload(3);
        let market = build_market(&w, 1);
        // The very first market call is billed then fails; no retries, so
        // the failure is final and its billed pages are pure waste.
        market.attach_fault_injector(FaultInjector::new(FaultPlan::none().at(0, kind)));
        let hub = Arc::new(MetricsHub::new(MetricsConfig::default()));
        let cfg = ServeConfig {
            threads: 1,
            batch: Some(BatchConfig::default()),
            retry: RetryPolicy::no_retries(),
            metrics: Some(hub.clone()),
            ..ServeConfig::default()
        };
        let serve = Serve::new(market, QueryWorkload::local_tables(&w), cfg);
        let templates = prepared(&serve, &w);
        let item = &overlapping_mix(&w, &TEMPLATES, 1, 1, 48879)[0];

        let err = serve
            .run_query(&templates[item.template], &item.params)
            .expect_err("a billed-and-failed batch call must fail the query");
        let billed = serve.market().bill().transactions();
        assert!(billed > 0, "the {kind:?} fault was billed before failing");
        assert_eq!(
            hub.batch_wasted_share_pages.get(),
            billed,
            "{kind:?}: wasted shares across the batch must sum to the meter"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("corrupt"),
            "the member share must carry the original market error, got: {msg}"
        );
    }
}

/// Billed faults that *are* recovered on retry: the first several market
/// calls come back truncated, the retries re-buy them, so the batch carries
/// genuinely wasted pages that split across members and still reconcile —
/// `run_mix` asserts the meter identity and the strict watchdog internally.
#[test]
fn retried_batch_waste_splits_and_reconciles() {
    let w = tiny_workload(3);
    let market = build_market(&w, 1);
    // Truncate the first eight call indices: a truncated call that billed
    // zero pages is a no-op, so spanning several indices guarantees at
    // least one lands on a billable purchase regardless of which early
    // calls the mix makes.
    let mut plan = FaultPlan::none();
    for i in 0..8 {
        plan = plan.at(i, FaultKind::Truncate);
    }
    market.attach_fault_injector(FaultInjector::new(plan));
    let cfg = ServeConfig {
        threads: 2,
        batch: Some(BatchConfig::default()),
        retry: RetryPolicy::unlimited(),
        metrics: Some(Arc::new(MetricsHub::new(MetricsConfig::default()))),
        strict_reconcile: true,
        ..ServeConfig::default()
    };
    let serve = Serve::new(market, QueryWorkload::local_tables(&w), cfg);
    let templates = prepared(&serve, &w);
    let mix = overlapping_mix(&w, &TEMPLATES, 2, 6, 48879);
    let report = run_mix(&serve, &mix, &templates).expect("serve mix succeeds");
    assert!(report.batch_joins > 0);
    assert!(
        report.wasted_pages > 0,
        "the truncated first call was billed, so its pages are pure waste"
    );
    assert_eq!(
        report.total_pages,
        report.per_query.iter().map(|q| q.spend.pages).sum::<u64>(),
        "report totals must equal the per-query ledger sums"
    );
}

mod random_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random seeded K-client overlapping schedules, batched at random
        /// thread counts, clean and under chaos: answers equal the serial
        /// unbatched oracle, batched delivered spend never exceeds it, and
        /// Σ ledger == meter with the strict watchdog on (asserted inside
        /// `run` on every replay).
        #[test]
        fn any_batched_schedule_matches_its_unbatched_oracle(seed in any::<u64>()) {
            let w = tiny_workload(3);
            let clients = 2 + (seed % 3) as usize; // 2..=4
            let threads = 1 + ((seed >> 2) % 4) as usize; // 1..=4
            let per_client = 3 + (seed % 4) as usize; // 3..=6
            let fault_seed = (seed & 2 == 0).then_some(seed ^ 0xc0ffee);
            let mix = overlapping_mix(&w, &TEMPLATES, clients, per_client, seed);

            let oracle = run(&w, &mix, 1, None, None);
            let batched = run(&w, &mix, threads, Some(BatchConfig::default()), fault_seed);

            prop_assert_eq!(batched.per_query.len(), oracle.per_query.len());
            for (b, s) in batched.per_query.iter().zip(&oracle.per_query) {
                prop_assert_eq!(b.digest, s.digest);
                prop_assert_eq!(b.rows, s.rows);
            }
            prop_assert!(
                batched.delivered_pages() <= oracle.delivered_pages(),
                "batched delivered pages {} exceed the unbatched oracle {} \
                 (seed {seed}, clients {clients}, threads {threads}, \
                 per_client {per_client}, fault {fault_seed:?})",
                batched.delivered_pages(),
                oracle.delivered_pages()
            );
            for q in &batched.per_query {
                prop_assert!(q.spend.shared_pages <= q.spend.pages);
                prop_assert!(q.spend.batch_joins > 0 || q.spend.shared_pages == 0);
            }
        }
    }
}
