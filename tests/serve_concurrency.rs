//! Concurrency suite for the serving layer: K client sessions replaying a
//! seeded mix over one shared semantic store, with and without single-flight
//! call coalescing, clean and under injected chaos.
//!
//! Invariants checked throughout (the market runs at `page_size = 1`, where
//! delivered pages equal delivered records; Algorithm 1 may re-buy stored
//! records when that is cheaper, so spend bounds below hold by search — the
//! proptest — not by construction; see DESIGN.md "Concurrent serving & call
//! coalescing"):
//!
//! * every run returns the same answers as the single-threaded serial
//!   replay of the same mix (per-query digests, compared elementwise in
//!   global submission order);
//! * with coalescing on, a parallel run never buys a delivered page the
//!   serial replay did not — a coalesced region is billed at most once;
//! * the sum of the per-query spend ledgers reconciles exactly
//!   with the market's billing meter ([`payless_serve::run_mix`] asserts
//!   this internally on every run, clean and faulted);
//! * the purchaser pays and waiters ride free: of identical concurrent
//!   queries exactly one is billed, the rest cost 0 pages;
//! * `coalesce.saved_pages` is only ever credited to queries that actually
//!   waited on another query's flight;
//! * spend per query falls as clients sharing one hot pool are added;
//! * region reads through the mirror's delivery blocks stay exact while
//!   concurrent deliveries append blocks (this case runs at page size 100).

mod common;

use common::{assert_same_answers, build_market, prepared, tiny_workload};

use payless_exec::RetryPolicy;
use payless_market::{FaultInjector, FaultPlan};
use payless_serve::{run_mix, Serve, ServeConfig, ServeReport};
use payless_workload::{overlapping_mix, serve_mix, MixItem, QueryWorkload, RealWorkload};

/// Both single-table WHW templates: Weather country + date range, and the
/// Pollution rank count. Bind-join templates are excluded on purpose: the
/// suite's spend bounds compare single-table purchases only.
const TEMPLATES: [usize; 2] = [0, 1];

/// Replay `mix` on a fresh serving layer. Fault-injected runs retry without
/// limit so every query answers and stays comparable to the clean oracle.
fn run(
    w: &RealWorkload,
    mix: &[MixItem],
    threads: usize,
    coalesce: bool,
    fault_seed: Option<u64>,
) -> ServeReport {
    let market = build_market(w, 1);
    if let Some(seed) = fault_seed {
        market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(seed)));
    }
    let cfg = ServeConfig {
        threads,
        coalesce,
        retry: if fault_seed.is_some() {
            RetryPolicy::unlimited()
        } else {
            RetryPolicy::default()
        },
        ..ServeConfig::default()
    };
    let serve = Serve::new(market, QueryWorkload::local_tables(w), cfg);
    let templates = prepared(&serve, w);
    run_mix(&serve, mix, &templates).expect("serve mix succeeds")
}

/// Savings are estimates credited at wait time — a query that never waited
/// must never report them.
fn assert_savings_imply_waits(report: &ServeReport) {
    for (i, q) in report.per_query.iter().enumerate() {
        assert!(
            q.spend.coalesce_waits > 0 || q.spend.saved_pages == 0,
            "query {i} reports saved pages without ever waiting"
        );
    }
}

#[test]
fn parallel_run_matches_serial_oracle() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 4, 18, 48879);
    let serial = run(&w, &mix, 1, true, None);
    let parallel = run(&w, &mix, 4, true, None);

    assert_eq!(serial.coalesce_waits, 0, "one thread can never contend");
    assert_same_answers(&parallel, &serial);
    assert!(
        parallel.delivered_pages() <= serial.delivered_pages(),
        "coalescing must never deliver (and bill) more pages than the \
         serial replay: parallel {} > serial {}",
        parallel.delivered_pages(),
        serial.delivered_pages()
    );
    assert_savings_imply_waits(&parallel);
    // Clean runs waste nothing, so total pages obey the same bound.
    assert_eq!(parallel.wasted_pages, 0);
    assert_eq!(serial.wasted_pages, 0);
}

#[test]
fn coalescing_off_still_matches_answers_and_reconciles() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 3, 15, 7);
    let serial = run(&w, &mix, 1, true, None);
    // Without single flight, concurrent overlapping purchases may double-buy
    // (that is the waste coalescing removes) — but answers must still match
    // and each run's ledger still reconciles with its own meter (asserted
    // inside `run_mix`).
    let parallel = run(&w, &mix, 4, false, None);
    assert_same_answers(&parallel, &serial);
    assert_eq!(parallel.coalesce_waits, 0, "coalescing was off");
    assert_eq!(parallel.saved_pages, 0, "coalescing was off");
}

#[test]
fn identical_queries_bill_a_coalesced_region_at_most_once() {
    let w = tiny_workload(3);
    // Eight copies of one instance across four clients: the sharpest
    // double-billing probe. Serial: first query buys, seven store hits.
    let base = serve_mix(&w, &TEMPLATES, 1, 1, 5).remove(0);
    let mix: Vec<MixItem> = (0..8)
        .map(|i| MixItem {
            client: i % 4,
            ..base.clone()
        })
        .collect();
    let serial = run(&w, &mix, 1, true, None);
    let parallel = run(&w, &mix, 4, true, None);

    assert_same_answers(&parallel, &serial);
    // Whether a concurrent twin waits on the flight or classifies a store
    // hit after it lands, the region is bought exactly once either way.
    assert_eq!(
        parallel.delivered_pages(),
        serial.delivered_pages(),
        "an identical concurrent query must never re-buy the coalesced region"
    );
    assert_savings_imply_waits(&parallel);
    // The purchaser pays and the waiters ride free: one query carries the
    // whole bill, every other one costs nothing, and the per-query bills
    // add up to what the market delivered.
    for report in [&serial, &parallel] {
        let paying = report.per_query.iter().filter(|q| q.spend.pages > 0);
        assert_eq!(paying.count(), 1, "exactly one query pays");
        let billed: u64 = report.per_query.iter().map(|q| q.spend.pages).sum();
        assert_eq!(billed, report.delivered_pages());
    }
}

#[test]
fn spend_per_query_falls_as_clients_share_the_hot_pool() {
    let w = tiny_workload(3);
    let per_client = 8;
    let spend_per_query = |clients: usize| {
        let mix = overlapping_mix(&w, &TEMPLATES, clients, per_client, 48879);
        let report = run(&w, &mix, clients.min(4), true, None);
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
fn chaos_runs_match_the_clean_serial_oracle() {
    let w = tiny_workload(3);
    let mix = serve_mix(&w, &TEMPLATES, 4, 16, 48879);
    let clean_serial = run(&w, &mix, 1, true, None);

    // Faulted serial replay: with unlimited retries the answers and the
    // *delivered* spend are identical to the clean run; only wasted pages
    // (retried calls) differ, and those reconcile via the meter assert.
    let faulted_serial = run(&w, &mix, 1, true, Some(48879));
    assert_same_answers(&faulted_serial, &clean_serial);
    assert_eq!(
        faulted_serial.delivered_pages(),
        clean_serial.delivered_pages(),
        "retries re-buy the identical request, so delivered spend is unchanged"
    );

    // Faulted parallel replay: answers still match, delivered spend is
    // still bounded by the serial oracle. Wasted pages depend on where
    // faults land in this interleaving, so only their reconciliation (not
    // their count) is asserted — inside `run_mix`.
    let faulted_parallel = run(&w, &mix, 4, true, Some(48879));
    assert_same_answers(&faulted_parallel, &clean_serial);
    assert!(
        faulted_parallel.delivered_pages() <= clean_serial.delivered_pages(),
        "chaos must not defeat single-flight: delivered {} > serial {}",
        faulted_parallel.delivered_pages(),
        clean_serial.delivered_pages()
    );
    assert_savings_imply_waits(&faulted_parallel);
}

/// Q1 and Q3 over overlapping date windows at page size 100: each Weather
/// delivery appends a block to the mirror while other workers' reads walk
/// the blocks already there. With coalescing on and off, every answer
/// equals the serial oracle's and Σ ledger equals the meter.
#[test]
fn block_reads_under_concurrent_deliveries_match_the_serial_oracle() {
    let w = tiny_workload(3);
    let mix = overlapping_mix(&w, &[0, 2], 4, 12, 48879);
    let replay = |threads: usize, coalesce: bool| {
        let cfg = ServeConfig {
            threads,
            coalesce,
            ..ServeConfig::default()
        };
        let serve = Serve::new(build_market(&w, 100), QueryWorkload::local_tables(&w), cfg);
        let templates = prepared(&serve, &w);
        run_mix(&serve, &mix, &templates).expect("serve mix succeeds")
    };
    let serial = replay(1, true);
    for coalesce in [true, false] {
        let parallel = replay(4, coalesce);
        assert_same_answers(&parallel, &serial);
        assert_eq!(parallel.total_pages, parallel.meter_transactions);
    }
    assert_eq!(serial.total_pages, serial.meter_transactions);
}

mod random_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random seeded schedules of K concurrent clients — with and
        /// without coalescing, with and without injected chaos — never
        /// double-bill a coalesced region, keep Σ ledger == meter delta
        /// (asserted inside `run_mix` on every run), and return answers
        /// equal to the serial oracle.
        #[test]
        fn any_schedule_matches_its_serial_oracle(seed in any::<u64>()) {
            let w = tiny_workload(3);
            let clients = 2 + (seed % 3) as usize; // 2..=4
            let threads = 2 + ((seed >> 2) % 3) as usize; // 2..=4
            let coalesce = seed & 1 == 0;
            let fault_seed = (seed & 2 == 0).then_some(seed ^ 0xc0ffee);
            let queries = 9 + (seed % 7) as usize; // 9..=15
            let mix = serve_mix(&w, &TEMPLATES, clients, queries, seed);

            let oracle = run(&w, &mix, 1, true, None);
            let parallel = run(&w, &mix, threads, coalesce, fault_seed);

            prop_assert_eq!(parallel.per_query.len(), oracle.per_query.len());
            for (p, s) in parallel.per_query.iter().zip(&oracle.per_query) {
                prop_assert_eq!(p.digest, s.digest);
                prop_assert_eq!(p.rows, s.rows);
            }
            if coalesce {
                prop_assert!(
                    parallel.delivered_pages() <= oracle.delivered_pages(),
                    "coalesced delivered pages {} exceed serial {} \
                     (seed {seed}, clients {clients}, threads {threads}, \
                     queries {queries}, fault {fault_seed:?})",
                    parallel.delivered_pages(),
                    oracle.delivered_pages()
                );
            } else {
                prop_assert_eq!(parallel.coalesce_waits, 0);
            }
            for q in &parallel.per_query {
                prop_assert!(q.spend.coalesce_waits > 0 || q.spend.saved_pages == 0);
            }
        }
    }
}
