//! The process-wide metrics hub: pre-registered handles for every hot-seam
//! metric, plus the windowed time-series ring.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::atomics::{Counter, Gauge, HistSnapshot, LogHistogram};
use crate::registry::Registry;

/// Sizing and cadence of the window ring.
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Window length in milliseconds (roll cadence for `maybe_roll`).
    pub window_ms: u64,
    /// Ring capacity: how many closed windows are retained.
    pub capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            window_ms: 1000,
            capacity: 1024,
        }
    }
}

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

/// One closed window of the time series.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Zero-based window number since the hub was created.
    pub index: u64,
    /// Actual wall-clock span of the window in nanoseconds.
    pub span_nanos: u64,
    /// Counter *deltas* over the window.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at window close (last-value-wins).
    pub gauges: Vec<(String, u64)>,
    /// Histogram *deltas* over the window (`max` stays cumulative).
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl WindowSnapshot {
    /// Counter delta by exact name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).copied().unwrap_or(0)
    }
}

#[derive(Debug)]
struct WindowState {
    opened: Instant,
    last: CumSnapshot,
    ring: VecDeque<WindowSnapshot>,
    next_index: u64,
    /// Windows evicted because the ring was full — nonzero means the
    /// retained series no longer sums to the cumulative totals.
    dropped: u64,
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

    /// Purchase batches sealed by the batch planner.
    pub batch_batches: Arc<Counter>,
    /// Queries that parked remainders in a batch (members across batches).
    pub batch_members: Arc<Counter>,
    /// Delivered pages attributed through a multi-member split.
    pub batch_shared_pages: Arc<Counter>,
    /// Pages whose attribution reverted to wasted spend because the
    /// batch's purchase failed.
    pub batch_wasted_share_pages: Arc<Counter>,
    /// Pages settled onto members whose queries have not completed yet
    /// (drained as the watchdog attributes each finished query).
    pub batch_deferred_pages: Arc<Gauge>,
    /// Time a query spent parked from join to leadership/settlement.
    pub batch_window_wait_nanos: Arc<LogHistogram>,

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

    window: Duration,
    cap: usize,
    windows: Mutex<WindowState>,
}

fn lock_windows(m: &Mutex<WindowState>) -> MutexGuard<'_, WindowState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsHub {
    /// Build a hub with every hot-seam metric pre-registered.
    pub fn new(cfg: MetricsConfig) -> MetricsHub {
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
        let batch_batches = registry.counter("payless_batch_batches_total");
        let batch_members = registry.counter("payless_batch_members_total");
        let batch_shared_pages = registry.counter("payless_batch_shared_pages_total");
        let batch_wasted_share_pages = registry.counter("payless_batch_wasted_share_pages_total");
        let batch_deferred_pages = registry.gauge("payless_batch_deferred_pages");
        let batch_window_wait_nanos = registry.histogram("payless_batch_window_wait_nanos");
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
        let last = registry.snapshot();
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
            batch_batches,
            batch_members,
            batch_shared_pages,
            batch_wasted_share_pages,
            batch_deferred_pages,
            batch_window_wait_nanos,
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
            window: Duration::from_millis(cfg.window_ms.max(1)),
            cap: cfg.capacity.max(1),
            windows: Mutex::new(WindowState {
                opened: Instant::now(),
                last,
                ring: VecDeque::new(),
                next_index: 0,
                dropped: 0,
            }),
        }
    }

    /// Per-table store occupancy gauge (`payless_store_views{table="…"}`).
    pub fn table_views_gauge(&self, table: &str) -> Arc<Gauge> {
        self.registry
            .gauge(&format!("payless_store_views{{table=\"{table}\"}}"))
    }

    /// Per-table cumulative compaction events — views absorbed, coalesced,
    /// or dropped as redundant (`payless_store_compactions{table="…"}`).
    pub fn table_compactions_gauge(&self, table: &str) -> Arc<Gauge> {
        self.registry
            .gauge(&format!("payless_store_compactions{{table=\"{table}\"}}"))
    }

    /// Per-table cumulative spend-weighted evictions
    /// (`payless_store_evictions{table="…"}`).
    pub fn table_evictions_gauge(&self, table: &str) -> Arc<Gauge> {
        self.registry
            .gauge(&format!("payless_store_evictions{{table=\"{table}\"}}"))
    }

    /// Cumulative digest of every registered metric.
    pub fn cumulative(&self) -> CumSnapshot {
        self.registry.snapshot()
    }

    /// Close the current window unconditionally and start a new one.
    pub fn roll(&self) {
        let mut state = lock_windows(&self.windows);
        self.roll_locked(&mut state);
    }

    /// Close the current window if it has run at least the configured
    /// window length. Cheap when it has not: one mutex lock and one
    /// `Instant` read. Instrumented layers call this once per query.
    pub fn maybe_roll(&self) {
        let mut state = lock_windows(&self.windows);
        if state.opened.elapsed() >= self.window {
            self.roll_locked(&mut state);
        }
    }

    fn roll_locked(&self, state: &mut WindowState) {
        let now = Instant::now();
        let span = now.duration_since(state.opened);
        let cum = self.registry.snapshot();
        let counters = cum
            .counters
            .iter()
            .map(|(name, v)| {
                let prev = lookup(&state.last.counters, name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(prev))
            })
            .collect();
        let gauges = cum.gauges.clone();
        let histograms = cum
            .histograms
            .iter()
            .map(|(name, h)| {
                let d = match lookup(&state.last.histograms, name) {
                    Some(prev) => h.delta(prev),
                    None => h.clone(),
                };
                (name.clone(), d)
            })
            .collect();
        let snap = WindowSnapshot {
            index: state.next_index,
            span_nanos: span.as_nanos() as u64,
            counters,
            gauges,
            histograms,
        };
        state.next_index += 1;
        state.last = cum;
        state.opened = now;
        // Capacity bound: evict the oldest window. `dropped` records that
        // the retained series no longer starts at window 0.
        while state.ring.len() >= self.cap {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(snap);
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> Vec<WindowSnapshot> {
        lock_windows(&self.windows).ring.iter().cloned().collect()
    }

    /// Windows evicted due to the capacity bound (0 means the retained
    /// series is complete and its sums reconcile with cumulative totals).
    pub fn dropped_windows(&self) -> u64 {
        lock_windows(&self.windows).dropped
    }

    /// Prometheus-style text exposition of the cumulative state.
    pub fn exposition(&self) -> String {
        crate::export::exposition(&self.cumulative())
    }

    /// JSONL dump of the retained window ring (one line per window).
    /// Call [`MetricsHub::roll`] first to close the tail window.
    pub fn series_jsonl(&self) -> String {
        crate::export::series_jsonl(&self.windows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_deltas_sum_to_cumulative_totals() {
        let hub = MetricsHub::new(MetricsConfig {
            window_ms: 1,
            capacity: 64,
        });
        for round in 0..5u64 {
            hub.market_calls.inc(round + 1);
            hub.pages_billed.inc(10 * (round + 1));
            hub.serve_query_nanos.record(100 * (round + 1));
            hub.roll();
        }
        let windows = hub.windows();
        assert_eq!(windows.len(), 5);
        assert_eq!(hub.dropped_windows(), 0);
        let cum = hub.cumulative();
        for name in [
            "payless_market_calls_total",
            "payless_market_pages_billed_total",
        ] {
            let summed: u64 = windows.iter().map(|w| w.counter(name)).sum();
            assert_eq!(summed, cum.counter(name), "{name} window sums diverge");
        }
        let hist_sum: u64 = windows
            .iter()
            .filter_map(|w| lookup(&w.histograms, "payless_serve_query_nanos"))
            .map(|h| h.count)
            .sum();
        assert_eq!(
            hist_sum,
            cum.histogram("payless_serve_query_nanos").unwrap().count
        );
        // Per-bucket deltas also reconcile.
        let mut folded: std::collections::BTreeMap<u64, u64> = Default::default();
        for w in &windows {
            if let Some(h) = lookup(&w.histograms, "payless_serve_query_nanos") {
                for &(le, c) in &h.buckets {
                    *folded.entry(le).or_default() += c;
                }
            }
        }
        let cum_buckets: std::collections::BTreeMap<u64, u64> = cum
            .histogram("payless_serve_query_nanos")
            .unwrap()
            .buckets
            .iter()
            .copied()
            .collect();
        assert_eq!(folded, cum_buckets);
    }

    #[test]
    fn ring_capacity_evicts_oldest_and_counts_drops() {
        let hub = MetricsHub::new(MetricsConfig {
            window_ms: 1,
            capacity: 3,
        });
        for i in 0..5u64 {
            hub.market_calls.inc(i + 1);
            hub.roll();
        }
        let windows = hub.windows();
        assert_eq!(windows.len(), 3);
        assert_eq!(hub.dropped_windows(), 2);
        assert_eq!(windows[0].index, 2, "oldest retained window is #2");
        assert_eq!(windows[2].index, 4);
    }

    #[test]
    fn maybe_roll_respects_the_window_length() {
        let hub = MetricsHub::new(MetricsConfig {
            window_ms: 60_000,
            capacity: 8,
        });
        hub.market_calls.inc(1);
        hub.maybe_roll();
        assert!(
            hub.windows().is_empty(),
            "a fresh 60s window must not close immediately"
        );
        hub.roll();
        assert_eq!(hub.windows().len(), 1, "roll() always closes");
    }

    #[test]
    fn concurrent_writers_and_rolls_lose_nothing() {
        use std::sync::atomic::{AtomicBool, Ordering};

        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 10_000;
        let hub = Arc::new(MetricsHub::new(MetricsConfig {
            window_ms: 1,
            capacity: 1 << 20,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let roller = {
            let (hub, stop) = (hub.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    hub.roll();
                    std::thread::yield_now();
                }
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        hub.serve_queries.inc(1);
                        hub.serve_query_nanos.record(i % 512 + 1);
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        roller.join().unwrap();
        hub.roll(); // close the tail so the ring covers everything

        let total = WRITERS as u64 * PER_WRITER;
        let cum = hub.cumulative();
        assert_eq!(cum.counter("payless_serve_queries_total"), total);
        assert_eq!(hub.dropped_windows(), 0);
        let windows = hub.windows();
        let counted: u64 = windows
            .iter()
            .map(|w| w.counter("payless_serve_queries_total"))
            .sum();
        assert_eq!(counted, total, "window counter deltas lost updates");
        let hist: u64 = windows
            .iter()
            .filter_map(|w| lookup(&w.histograms, "payless_serve_query_nanos"))
            .map(|h| h.count)
            .sum();
        assert_eq!(hist, total, "window histogram deltas lost updates");
    }
}
