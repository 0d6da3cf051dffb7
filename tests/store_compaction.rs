//! Compaction & eviction safety suite: the semantic store is a *cache*,
//! and neither merging adjacent view boxes nor evicting under the view cap
//! may change what a query answers or what the market bills.
//!
//! Oracle construction: the same seeded serve mix replayed serially
//! (`threads = 1`, `page_size = 1`) on a store with compaction disabled and
//! an effectively unbounded view cap — every purchased box kept verbatim.
//! Against that oracle:
//!
//! * with compaction on and no cap pressure, every query returns the same
//!   answers *and* the run delivers exactly the same pages — merging boxes
//!   must never re-buy covered records nor skip uncovered ones;
//! * under hard cap pressure (evictions forced), answers still match and
//!   delivered spend can only grow (evicted coverage is re-bought, never
//!   hallucinated);
//! * under injected market chaos, compacted + capped runs still reconcile
//!   Σ per-query ledger == billing meter ([`run_mix`] asserts this on every
//!   run) and still match the clean oracle's answers.

mod common;

use common::{assert_same_answers, build_market, prepared, tiny_workload};

use payless_exec::RetryPolicy;
use payless_market::{FaultInjector, FaultPlan};
use payless_semantic::{SemanticStore, StoreConfig};
use payless_serve::{run_mix, Serve, ServeConfig, ServeReport};
use payless_workload::{serve_mix, MixItem, QueryWorkload, RealWorkload};

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

/// Raw-box oracle: compaction off, cap far above anything the mix buys.
fn oracle_config() -> StoreConfig {
    StoreConfig {
        max_views: 1 << 20,
        compaction: false,
    }
}

#[test]
fn compaction_preserves_answers_and_delivered_spend() {
    let w = tiny_workload(11);
    let mix = serve_mix(&w, &TEMPLATES, 3, 20, 42);
    let oracle = run(&w, &mix, oracle_config(), None);
    // Same cap, compaction on: merged boxes cover exactly the union of the
    // raw boxes, so classification — and therefore every purchase decision —
    // is identical query by query.
    let compacted = run(
        &w,
        &mix,
        StoreConfig {
            max_views: 1 << 20,
            compaction: true,
        },
        None,
    );
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
fn eviction_under_cap_pressure_keeps_answers_correct() {
    let w = tiny_workload(11);
    let mix = serve_mix(&w, &TEMPLATES, 3, 24, 7);
    let oracle = run(&w, &mix, oracle_config(), None);
    // A cap this tight guarantees evictions on this mix; the store shrinks
    // to 3/4 of the cap each time it fills. Coverage lost to eviction is
    // re-bought on the next probe — answers never change, spend only grows.
    for max_views in [4usize, 8, 16] {
        let capped = run(
            &w,
            &mix,
            StoreConfig {
                max_views,
                compaction: true,
            },
            None,
        );
        assert_same_answers(&capped, &oracle);
        assert!(
            capped.delivered_pages() >= oracle.delivered_pages(),
            "cap {max_views}: an evicting store delivered fewer pages \
             ({}) than the unbounded oracle ({}) — it answered from \
             coverage it no longer holds",
            capped.delivered_pages(),
            oracle.delivered_pages()
        );
    }
}

#[test]
fn chaos_with_compaction_and_eviction_still_reconciles() {
    let w = tiny_workload(11);
    let mix = serve_mix(&w, &TEMPLATES, 4, 18, 48879);
    let clean_oracle = run(&w, &mix, oracle_config(), None);
    // Σ per-query ledger == billing meter is asserted inside `run_mix` on
    // every run; these seeds exercise it with faults landing before, during
    // and after compaction/eviction activity.
    for chaos_seed in [48879u64, 0xc0ffee, 31337] {
        let chaotic = run(
            &w,
            &mix,
            StoreConfig {
                max_views: 8,
                compaction: true,
            },
            Some(chaos_seed),
        );
        assert_same_answers(&chaotic, &clean_oracle);
        assert!(
            chaotic.delivered_pages() >= clean_oracle.delivered_pages(),
            "seed {chaos_seed}: chaos + eviction delivered fewer pages than \
             the unbounded clean oracle"
        );
    }
}
