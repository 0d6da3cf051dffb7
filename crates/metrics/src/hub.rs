//! The process-wide metrics hub: pre-registered handles for every hot-seam
//! metric.

use std::sync::Arc;

use crate::atomics::{Counter, Gauge, HistSnapshot, LogHistogram};
use crate::registry::Registry;

/// Nothing to configure: the hub keeps cumulative totals only. Kept so the
/// benchmark harness's `MetricsHub::new(MetricsConfig::default())` builds.
#[derive(Debug, Clone, Default)]
pub struct MetricsConfig {}

/// Point-in-time digest of every registered metric (names sorted).
#[derive(Debug, Clone, Default)]
pub struct CumSnapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, current value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, digest)` for every histogram.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl CumSnapshot {
    /// Counter total by exact name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).copied().unwrap_or(0)
    }

    /// Gauge value by exact name (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name).copied().unwrap_or(0)
    }

    /// Histogram digest by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        lookup(&self.histograms, name)
    }
}

fn lookup<'a, V>(sorted: &'a [(String, V)], name: &str) -> Option<&'a V> {
    sorted
        .binary_search_by(|(k, _)| k.as_str().cmp(name))
        .ok()
        .map(|i| &sorted[i].1)
}

/// Shared handle bundle for all PayLess hot-seam metrics.
///
/// Construct once per serving layer (or CLI session), share via `Arc`.
/// The typed fields are pre-registered in [`MetricsHub::registry`] so the
/// instrumented code never pays a registry lock; exporters walk the
/// registry and therefore also see late-registered metrics such as the
/// per-table `payless_store_views{table="…"}` gauges.
#[derive(Debug)]
pub struct MetricsHub {
    /// The underlying name → metric map (for exporters and ad-hoc names).
    pub registry: Registry,

    /// Resilient market calls completed (delivered, billed-failed, free-failed).
    pub market_calls: Arc<Counter>,
    /// End-to-end market-call latency, including stall, backoff, and retry time.
    pub market_call_nanos: Arc<LogHistogram>,
    /// Retry attempts beyond each call's first attempt.
    pub market_retries: Arc<Counter>,
    /// Truncated (billed-but-short) deliveries detected.
    pub market_truncated: Arc<Counter>,
    /// Pages billed by the market: delivered plus wasted.
    pub pages_billed: Arc<Counter>,
    /// Pages billed on failed or superseded attempts.
    pub pages_wasted: Arc<Counter>,
    /// Records delivered by the market.
    pub records_delivered: Arc<Counter>,

    /// Coalescer claims that acquired a fresh flight.
    pub coalesce_acquired: Arc<Counter>,
    /// Coalescer claims that found an overlapping flight in progress.
    pub coalesce_contended: Arc<Counter>,
    /// Time spent waiting for an overlapping flight to land.
    pub coalesce_claim_wait_nanos: Arc<LogHistogram>,
    /// Threads currently blocked on the flight board.
    pub coalesce_waiters: Arc<Gauge>,
    /// Flights currently in progress on the board.
    pub coalesce_flights: Arc<Gauge>,
    /// Under-guard recomputes that shrank a purchase (double buy averted).
    pub coalesce_recomputes_averted: Arc<Counter>,
    /// Estimated pages those recomputes avoided re-buying.
    pub coalesce_averted_pages: Arc<Counter>,
    /// Contended claims whose every region was contained in one in-flight
    /// purchase (the flight alone will satisfy the claim).
    pub coalesce_subset_satisfied: Arc<Counter>,

    /// Store classifications answered entirely from purchased views.
    pub store_full_hits: Arc<Counter>,
    /// Store classifications partially covered by purchased views.
    pub store_partial_hits: Arc<Counter>,
    /// Store classifications with no overlapping view.
    pub store_misses: Arc<Counter>,
    /// Time spent acquiring store shard locks.
    pub store_lock_wait_nanos: Arc<LogHistogram>,
    /// Regions recorded into the store.
    pub store_records: Arc<Counter>,

    /// Queries completed by the serving layer.
    pub serve_queries: Arc<Counter>,
    /// Per-query end-to-end wall-clock latency.
    pub serve_query_nanos: Arc<LogHistogram>,

    /// Reconciliation watchdog samples taken.
    pub watchdog_samples: Arc<Counter>,
    /// Pages on the billing meter not yet attributed by query ledgers.
    pub watchdog_drift_pages: Arc<Gauge>,
    /// Largest drift ever sampled.
    pub watchdog_max_drift_pages: Arc<Gauge>,
    /// Reconciliation violations detected (over-attribution, drift at one
    /// thread).
    pub watchdog_violations: Arc<Counter>,
}

impl MetricsHub {
    /// Build a hub with every hot-seam metric pre-registered.
    pub fn new(_cfg: MetricsConfig) -> MetricsHub {
        let registry = Registry::default();
        let market_calls = registry.counter("payless_market_calls_total");
        let market_call_nanos = registry.histogram("payless_market_call_nanos");
        let market_retries = registry.counter("payless_market_retries_total");
        let market_truncated = registry.counter("payless_market_truncated_total");
        let pages_billed = registry.counter("payless_market_pages_billed_total");
        let pages_wasted = registry.counter("payless_market_pages_wasted_total");
        let records_delivered = registry.counter("payless_market_records_total");
        let coalesce_acquired = registry.counter("payless_coalesce_acquired_total");
        let coalesce_contended = registry.counter("payless_coalesce_contended_total");
        let coalesce_claim_wait_nanos = registry.histogram("payless_coalesce_claim_wait_nanos");
        let coalesce_waiters = registry.gauge("payless_coalesce_waiters");
        let coalesce_flights = registry.gauge("payless_coalesce_flights");
        let coalesce_recomputes_averted =
            registry.counter("payless_coalesce_recomputes_averted_total");
        let coalesce_averted_pages = registry.counter("payless_coalesce_averted_pages_total");
        let coalesce_subset_satisfied = registry.counter("payless_coalesce_subset_satisfied_total");
        let store_full_hits = registry.counter("payless_store_full_hits_total");
        let store_partial_hits = registry.counter("payless_store_partial_hits_total");
        let store_misses = registry.counter("payless_store_misses_total");
        let store_lock_wait_nanos = registry.histogram("payless_store_lock_wait_nanos");
        let store_records = registry.counter("payless_store_records_total");
        let serve_queries = registry.counter("payless_serve_queries_total");
        let serve_query_nanos = registry.histogram("payless_serve_query_nanos");
        let watchdog_samples = registry.counter("payless_watchdog_samples_total");
        let watchdog_drift_pages = registry.gauge("payless_watchdog_drift_pages");
        let watchdog_max_drift_pages = registry.gauge("payless_watchdog_max_drift_pages");
        let watchdog_violations = registry.counter("payless_watchdog_violations_total");
        MetricsHub {
            registry,
            market_calls,
            market_call_nanos,
            market_retries,
            market_truncated,
            pages_billed,
            pages_wasted,
            records_delivered,
            coalesce_acquired,
            coalesce_contended,
            coalesce_claim_wait_nanos,
            coalesce_waiters,
            coalesce_flights,
            coalesce_recomputes_averted,
            coalesce_averted_pages,
            coalesce_subset_satisfied,
            store_full_hits,
            store_partial_hits,
            store_misses,
            store_lock_wait_nanos,
            store_records,
            serve_queries,
            serve_query_nanos,
            watchdog_samples,
            watchdog_drift_pages,
            watchdog_max_drift_pages,
            watchdog_violations,
        }
    }

    /// Per-table store occupancy gauge (`payless_store_views{table="…"}`).
    pub fn table_views_gauge(&self, table: &str) -> Arc<Gauge> {
        self.registry
            .gauge(&format!("payless_store_views{{table=\"{table}\"}}"))
    }

    /// Per-table cumulative compaction events — views absorbed or coalesced
    /// (`payless_store_compactions{table="…"}`).
    pub fn table_compactions_gauge(&self, table: &str) -> Arc<Gauge> {
        self.registry
            .gauge(&format!("payless_store_compactions{{table=\"{table}\"}}"))
    }

    /// Cumulative digest of every registered metric.
    pub fn cumulative(&self) -> CumSnapshot {
        self.registry.snapshot()
    }

    /// Does nothing: the hub keeps cumulative totals only, and a scraper of
    /// [`MetricsHub::exposition`] derives rates from them. Kept because the
    /// benchmark harness calls it once per query.
    pub fn maybe_roll(&self) {}

    /// Prometheus-style text exposition of the cumulative state.
    pub fn exposition(&self) -> String {
        crate::export::exposition(&self.cumulative())
    }
}
