//! Compaction safety suite: merging adjacent view boxes may change neither
//! what a query answers nor what the market bills, and the store keeps
//! every purchase, so nothing bought is ever bought again.
//!
//! Oracle construction: the same seeded serve mix replayed serially
//! (`threads = 1`, `page_size = 1`) on a store with compaction disabled —
//! every purchased box kept verbatim. Against that oracle:
//!
//! * with compaction on, every query returns the same answers *and* the
//!   run delivers exactly the same pages — merging boxes must never re-buy
//!   covered records nor skip uncovered ones;
//! * under injected market chaos, compacted runs still reconcile
//!   Σ per-query ledger == billing meter ([`run_mix`] asserts this on every
//!   run) and still match the clean oracle's answers.
//!
//! And with far more disjoint purchases of one table than a cap could
//! have held, a second pass over the same statements bills nothing.

mod common;

use common::{assert_same_answers, build_market, prepared, tiny_workload};

use payless_exec::RetryPolicy;
use payless_market::{FaultInjector, FaultPlan};
use std::sync::Arc;

use payless_semantic::{SemanticStore, StoreConfig};
use payless_serve::{run_mix, Serve, ServeConfig, ServeReport};
use payless_workload::{serve_mix, MixItem, QueryWorkload, RealWorkload, WhwConfig};

/// Both single-table WHW templates (see `serve_concurrency.rs` for why the
/// bind-join templates stay out at `page_size = 1`).
const TEMPLATES: [usize; 2] = [0, 1];

/// Serial replay of `mix` with the given store tuning; chaos runs retry
/// without limit so every query answers and stays comparable.
fn run(
    w: &RealWorkload,
    mix: &[MixItem],
    store: StoreConfig,
    fault_seed: Option<u64>,
) -> ServeReport {
    let market = build_market(w, 1);
    if let Some(seed) = fault_seed {
        market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(seed)));
    }
    let cfg = ServeConfig {
        threads: 1,
        retry: if fault_seed.is_some() {
            RetryPolicy::unlimited()
        } else {
            RetryPolicy::default()
        },
        ..ServeConfig::default()
    };
    let mut tuned = SemanticStore::new();
    tuned.set_config(store);
    let serve = Serve::with_store(market, QueryWorkload::local_tables(w), cfg, tuned);
    let templates = prepared(&serve, w);
    run_mix(&serve, mix, &templates).expect("serve mix succeeds")
}

/// Raw-box oracle: compaction off, every purchased box kept verbatim.
const ORACLE: StoreConfig = StoreConfig { compaction: false };

#[test]
fn compaction_preserves_answers_and_delivered_spend() {
    let w = tiny_workload(11);
    let mix = serve_mix(&w, &TEMPLATES, 3, 20, 42);
    let oracle = run(&w, &mix, ORACLE, None);
    // Compaction on: merged boxes cover exactly the union of the raw boxes,
    // so classification — and therefore every purchase decision — is
    // identical query by query.
    let compacted = run(&w, &mix, StoreConfig::default(), None);
    assert_same_answers(&compacted, &oracle);
    assert_eq!(
        compacted.delivered_pages(),
        oracle.delivered_pages(),
        "compaction changed delivered spend: merged coverage must be \
         exactly the union of the raw boxes"
    );
    assert_eq!(compacted.wasted_pages, 0);
    assert_eq!(oracle.wasted_pages, 0);
}

#[test]
fn chaos_with_compaction_still_reconciles() {
    let w = tiny_workload(11);
    let mix = serve_mix(&w, &TEMPLATES, 4, 18, 48879);
    let clean_oracle = run(&w, &mix, ORACLE, None);
    // Σ per-query ledger == billing meter is asserted inside `run_mix` on
    // every run; these seeds exercise it with faults landing before, during
    // and after compaction activity.
    for chaos_seed in [48879u64, 0xc0ffee, 31337] {
        let chaotic = run(&w, &mix, StoreConfig::default(), Some(chaos_seed));
        assert_same_answers(&chaotic, &clean_oracle);
        assert!(
            chaotic.delivered_pages() >= clean_oracle.delivered_pages(),
            "seed {chaos_seed}: chaos + compaction delivered fewer pages than \
             the clean oracle"
        );
    }
}

/// 300 one-day purchases of Weather, one day apart so no two coalesce:
/// 300 views of one table, more than the 256 per table the store once
/// capped itself at. Running
/// the same 300 statements again bills 0 pages — every region bought once
/// is still covered.
#[test]
fn disjoint_purchases_past_any_cap_are_never_bought_twice() {
    const DAYS: i64 = 300;
    let w = RealWorkload::generate(&WhwConfig {
        stations: 2,
        countries: 1,
        cities_per_country: 1,
        days: 2 * DAYS,
        zips: 4,
        ranks: 10,
        seed: 3,
    });
    let market = build_market(&w, 1);
    let serve = Serve::new(
        Arc::clone(&market),
        QueryWorkload::local_tables(&w),
        ServeConfig::default(),
    );
    let stmts: Vec<_> = (0..DAYS)
        .map(|k| {
            let sql = format!("SELECT * FROM Weather WHERE Weather.Date = {}", 2 * k + 1);
            serve.prepare(&sql).expect("statement parses")
        })
        .collect();
    let pass = || {
        let before = market.bill().transactions();
        for stmt in &stmts {
            serve.run_query(stmt, &[]).expect("query answers");
        }
        market.bill().transactions() - before
    };
    // Page size 1: each day's two rows (one per station) are two pages.
    assert_eq!(
        pass(),
        2 * DAYS as u64,
        "the first pass buys every row once"
    );
    assert_eq!(serve.state().store().view_count("Weather"), DAYS as usize);
    assert_eq!(pass(), 0, "the second pass re-bought a region it held");
}
