//! Thread-safe sharing of the semantic store across concurrent sessions.
//!
//! A [`SharedSemanticStore`] wraps the per-table stores of a
//! [`SemanticStore`] in one reader-writer lock *per table* (a sharded
//! scheme): rewrites and cover probes of different tables never contend,
//! and on one table many readers proceed in parallel while a delivery
//! appending coverage takes the shard's write lock only briefly. The
//! R-tree index and incremental remainder cache each shard keeps over its
//! views (see [`crate::store`]) are updated under that same write lock, so
//! readers always see a consistent view-set/index/cache triple —
//! [`SharedSemanticStore::probe_rewrite`] reads all of them under one lock
//! acquisition.
//!
//! The optimizer still wants a plain `&SemanticStore`;
//! [`SharedSemanticStore::snapshot`] reassembles one from the shards.
//! Views are `Arc<Region>` handles, so a snapshot clones handles and
//! bucket indexes, not geometry.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use payless_geometry::{QuerySpace, Region};
use payless_metrics::MetricsHub;
use payless_telemetry::Recorder;

use crate::store::{Consistency, CoverClass, SemanticStore, StoreConfig};

/// Callback invoked after every settled purchase lands in the store:
/// `(table, region, now, spend)`. Durability layers hang a write-ahead-log
/// appender here; the hook runs *outside* the shard's write lock so it may
/// take its own locks (or do I/O) without ordering against shard guards.
pub type SpendObserver = dyn Fn(&str, &Region, u64, u64) + Send + Sync;

/// What one rewrite probe reads in a single consistent look at a shard:
/// the overlapping usable views, plus the cached remainder pieces when the
/// incremental cache could answer (`None` falls back to scratch
/// subtraction).
pub type RewriteProbe = (Vec<Arc<Region>>, Option<Vec<Region>>);

/// A semantic store shareable across threads: per-table shards behind
/// reader-writer locks. All methods take `&self`; clone the containing
/// `Arc` to hand the store to another session.
#[derive(Default)]
pub struct SharedSemanticStore {
    shards: HashMap<Arc<str>, RwLock<SemanticStore>>,
    /// Config handed to tables registered after construction.
    cfg: StoreConfig,
    /// Live instrumentation: hit/miss classification, record counts,
    /// per-table view gauges, and shard lock-wait times. `None` costs one
    /// `OnceLock` load per operation.
    metrics: OnceLock<Arc<MetricsHub>>,
    /// Spend observer notified after every `record_spend`, outside the
    /// shard write lock — so the store is momentarily ahead of a durability
    /// log, never behind it.
    observer: OnceLock<Arc<SpendObserver>>,
}

impl std::fmt::Debug for SharedSemanticStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSemanticStore")
            .field("shards", &self.shards)
            .field("cfg", &self.cfg)
            .field("metrics", &self.metrics.get().is_some())
            .field("observer", &self.observer.get().is_some())
            .finish()
    }
}

/// Read a poisoned lock anyway: shard state is only ever mutated through
/// `SemanticStore` methods that keep it structurally consistent, so a
/// panicking reader elsewhere cannot leave torn data behind.
fn read(l: &RwLock<SemanticStore>) -> RwLockReadGuard<'_, SemanticStore> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write(l: &RwLock<SemanticStore>) -> RwLockWriteGuard<'_, SemanticStore> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

impl SharedSemanticStore {
    /// Shard `store` per table — a fresh store, or a warm one replayed
    /// from a durability log.
    pub fn new(store: SemanticStore) -> Self {
        let cfg = store.config();
        SharedSemanticStore {
            shards: store
                .split_shards()
                .into_iter()
                .map(|(name, s)| (name, RwLock::new(s)))
                .collect(),
            cfg,
            metrics: OnceLock::new(),
            observer: OnceLock::new(),
        }
    }

    /// Apply `cfg` to every shard and to tables registered later. Lowering
    /// `max_views` evicts immediately (each shard under its write lock).
    pub fn set_config(&mut self, cfg: StoreConfig) {
        self.cfg = cfg;
        for shard in self.shards.values() {
            write(shard).set_config(cfg);
        }
    }

    /// Attach a metrics hub: classification hit/miss counters, recorded
    /// coverage counts, per-table view gauges, and shard lock-wait
    /// histograms (`payless_store_*`). First attachment wins; later calls
    /// are ignored.
    pub fn attach_metrics(&self, hub: Arc<MetricsHub>) {
        let _ = self.metrics.set(hub);
    }

    /// Attach a spend observer, notified after every settled purchase is
    /// inserted (see [`SpendObserver`]). First attachment wins; later calls
    /// are ignored. The observer runs with no shard lock held, in the
    /// thread that recorded the spend.
    pub fn attach_observer(&self, observer: Arc<SpendObserver>) {
        let _ = self.observer.set(observer);
    }

    /// Take a shard's read lock, reporting the wait into the hub.
    fn timed_read<'a>(&self, l: &'a RwLock<SemanticStore>) -> RwLockReadGuard<'a, SemanticStore> {
        match self.metrics.get() {
            Some(hub) => {
                let t0 = Instant::now();
                let g = read(l);
                hub.store_lock_wait_nanos
                    .record(t0.elapsed().as_nanos() as u64);
                g
            }
            None => read(l),
        }
    }

    /// Take a shard's write lock, reporting the wait into the hub.
    fn timed_write<'a>(&self, l: &'a RwLock<SemanticStore>) -> RwLockWriteGuard<'a, SemanticStore> {
        match self.metrics.get() {
            Some(hub) => {
                let t0 = Instant::now();
                let g = write(l);
                hub.store_lock_wait_nanos
                    .record(t0.elapsed().as_nanos() as u64);
                g
            }
            None => write(l),
        }
    }

    /// Register a table's query space (idempotent). Takes `&mut self`:
    /// adding tables is a setup-time operation, not a serving-time one.
    pub fn register(&mut self, space: QuerySpace) {
        let cfg = self.cfg;
        self.shards.entry(space.table.clone()).or_insert_with(|| {
            let mut s = SemanticStore::new();
            s.set_config(cfg);
            s.register(space);
            RwLock::new(s)
        });
    }

    /// Attach a store-level telemetry recorder to every shard. Index
    /// hit/scan counters are a property of the shared store, not of any one
    /// session — see DESIGN.md "Concurrent serving & call coalescing".
    pub fn attach_recorder(&self, recorder: Arc<Recorder>) {
        for shard in self.shards.values() {
            write(shard).attach_recorder(recorder.clone());
        }
    }

    /// Attach a flight-recorder journal to every shard (store-level, like
    /// [`SharedSemanticStore::attach_recorder`]: store lifecycle events
    /// carry no query id).
    pub fn attach_events(&self, journal: Arc<payless_events::EventJournal>) {
        for shard in self.shards.values() {
            write(shard).attach_events(journal.clone());
        }
    }

    /// The query space of `table`, if registered (cloned out of the shard).
    pub fn space(&self, table: &str) -> Option<QuerySpace> {
        self.shards
            .get(table)
            .and_then(|s| read(s).space(table).cloned())
    }

    /// Record that `region` of `table` has been fully retrieved at `now`.
    /// Takes the shard's write lock for the duration of the insert
    /// (containment checks, compaction, index and remainder-cache update).
    pub fn record(&self, table: &str, region: Region, now: u64) {
        self.record_spend(table, region, now, 0);
    }

    /// As [`SharedSemanticStore::record`], attributing the pages billed to
    /// retrieve the region — the weight the store's eviction policy uses.
    pub fn record_spend(&self, table: &str, region: Region, now: u64, spend: u64) {
        let shard = self
            .shards
            .get(table)
            .unwrap_or_else(|| panic!("table `{table}` not registered in semantic store"));
        // Clone only when someone is listening: the insert consumes `region`.
        let observed = self
            .observer
            .get()
            .map(|obs| (Arc::clone(obs), region.clone()));
        let mut guard = self.timed_write(shard);
        guard.record_spend(table, region, now, spend);
        if let Some(hub) = self.metrics.get() {
            hub.store_records.inc(1);
            hub.table_views_gauge(table)
                .set(guard.view_count(table) as u64);
            // Cumulative totals, not pending deltas: the store may already
            // have drained pending events into its telemetry recorder, and
            // setting absolute values keeps the gauges idempotent.
            hub.table_compactions_gauge(table)
                .set(guard.compactions(table));
            hub.table_evictions_gauge(table).set(guard.evictions(table));
        }
        // Release the shard before notifying: the observer may take its own
        // locks (e.g. a durability log mutex), and holding the write guard
        // across it would order them inside every shard lock.
        drop(guard);
        if let Some((obs, region)) = observed {
            obs(table, &region, now, spend);
        }
    }

    /// The usable views of `table` overlapping `probe` — a read-locked
    /// passthrough to [`SemanticStore::views_overlapping`].
    pub fn views_overlapping(
        &self,
        table: &str,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> Vec<Arc<Region>> {
        self.shards
            .get(table)
            .map(|s| {
                self.timed_read(s)
                    .views_overlapping(table, probe, consistency, now)
            })
            .unwrap_or_default()
    }

    /// One consistent read of everything a rewrite needs — the overlapping
    /// usable views and (when the remainder cache is valid) the precomputed
    /// remainder pieces — under a **single** shard read-lock acquisition,
    /// so the two can never disagree about an in-flight insert.
    pub fn probe_rewrite(
        &self,
        table: &str,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> RewriteProbe {
        self.shards
            .get(table)
            .map(|s| {
                self.timed_read(s)
                    .probe_rewrite(table, probe, consistency, now)
            })
            .unwrap_or((Vec::new(), None))
    }

    /// [`SharedSemanticStore::probe_rewrite`] over several probes of the
    /// same table under **one** shard read-lock acquisition: a batch
    /// leader re-validating the merged remainder pieces of its members
    /// sees one consistent store state across all of them, so no piece can
    /// be probed against coverage another piece's probe did not see.
    pub fn probe_rewrite_multi(
        &self,
        table: &str,
        probes: &[Region],
        consistency: Consistency,
        now: u64,
    ) -> Vec<RewriteProbe> {
        match self.shards.get(table) {
            Some(s) => {
                let guard = self.timed_read(s);
                probes
                    .iter()
                    .map(|p| guard.probe_rewrite(table, p, consistency, now))
                    .collect()
            }
            None => probes.iter().map(|_| (Vec::new(), None)).collect(),
        }
    }

    /// The cached remainder pieces of `probe` over `table`, or `None` when
    /// the cache cannot answer (see [`SemanticStore::remainder_pieces`]).
    pub fn remainder_pieces(
        &self,
        table: &str,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> Option<Vec<Region>> {
        self.shards.get(table).and_then(|s| {
            self.timed_read(s)
                .remainder_pieces(table, probe, consistency, now)
        })
    }

    /// Total compaction events for `table` since creation.
    pub fn compactions(&self, table: &str) -> u64 {
        self.shards
            .get(table)
            .map(|s| read(s).compactions(table))
            .unwrap_or(0)
    }

    /// Total spend-weighted evictions for `table` since creation.
    pub fn evictions(&self, table: &str) -> u64 {
        self.shards
            .get(table)
            .map(|s| read(s).evictions(table))
            .unwrap_or(0)
    }

    /// Classify how much of `region` the usable views cover.
    pub fn classify(
        &self,
        table: &str,
        region: &Region,
        consistency: Consistency,
        now: u64,
    ) -> CoverClass {
        let class = self
            .shards
            .get(table)
            .map(|s| self.timed_read(s).classify(table, region, consistency, now))
            .unwrap_or(CoverClass::Miss);
        if let Some(hub) = self.metrics.get() {
            match class {
                CoverClass::Full => hub.store_full_hits.inc(1),
                CoverClass::Partial => hub.store_partial_hits.inc(1),
                CoverClass::Miss => hub.store_misses.inc(1),
            }
        }
        class
    }

    /// `true` if `region` of `table` is fully covered by usable views.
    pub fn covers(&self, table: &str, region: &Region, consistency: Consistency, now: u64) -> bool {
        self.shards
            .get(table)
            .map(|s| self.timed_read(s).covers(table, region, consistency, now))
            .unwrap_or(false)
    }

    /// Number of stored view boxes for `table` (after coalescing).
    pub fn view_count(&self, table: &str) -> usize {
        self.shards
            .get(table)
            .map(|s| read(s).view_count(table))
            .unwrap_or(0)
    }

    /// Fraction of `table`'s whole query space covered by stored views.
    pub fn coverage_fraction(&self, table: &str) -> f64 {
        self.shards
            .get(table)
            .map(|s| read(s).coverage_fraction(table))
            .unwrap_or(0.0)
    }

    /// A point-in-time unshared copy: per-table consistent (each shard is
    /// cloned under its read lock), cheap (views are `Arc<Region>` handles),
    /// with no recorder or journal attached. This is what the optimizer
    /// plans against.
    pub fn snapshot(&self) -> SemanticStore {
        let mut out = SemanticStore::new();
        for shard in self.shards.values() {
            out.absorb(read(shard).clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::Interval;
    use payless_types::{Column, Domain, Schema};

    fn space() -> QuerySpace {
        QuerySpace::of(&Schema::new(
            "T",
            vec![Column::free("A", Domain::int(0, 99))],
        ))
    }

    fn r(lo: i64, hi: i64) -> Region {
        Region::new(vec![Interval::new(lo, hi)])
    }

    #[test]
    fn shards_share_coverage_across_threads() {
        let mut base = SemanticStore::new();
        base.register(space());
        let shared = Arc::new(SharedSemanticStore::new(base));
        std::thread::scope(|s| {
            for i in 0..4i64 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    shared.record("T", r(i * 10, i * 10 + 9), 1);
                });
            }
        });
        assert!(shared.covers("T", &r(0, 39), Consistency::Weak, 2));
        assert_eq!(
            shared.view_count("T"),
            1,
            "adjacent ranges coalesce to one box regardless of insert thread"
        );
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let mut base = SemanticStore::new();
        base.register(space());
        base.record("T", r(0, 9), 1);
        let shared = SharedSemanticStore::new(base);
        let snap = shared.snapshot();
        shared.record("T", r(50, 59), 2);
        assert!(snap.covers("T", &r(0, 9), Consistency::Weak, 3));
        assert!(!snap.covers("T", &r(50, 59), Consistency::Weak, 3));
        assert!(shared.covers("T", &r(50, 59), Consistency::Weak, 3));
    }

    #[test]
    fn metrics_observe_classification_and_recording() {
        use payless_metrics::{MetricsConfig, MetricsHub};
        let mut base = SemanticStore::new();
        base.register(space());
        let shared = SharedSemanticStore::new(base);
        let hub = Arc::new(MetricsHub::new(MetricsConfig::default()));
        shared.attach_metrics(Arc::clone(&hub));

        assert_eq!(
            shared.classify("T", &r(0, 9), Consistency::Weak, 1),
            CoverClass::Miss
        );
        shared.record("T", r(0, 9), 1);
        assert_eq!(
            shared.classify("T", &r(0, 9), Consistency::Weak, 2),
            CoverClass::Full
        );
        assert_eq!(
            shared.classify("T", &r(5, 20), Consistency::Weak, 2),
            CoverClass::Partial
        );

        assert_eq!(hub.store_misses.get(), 1);
        assert_eq!(hub.store_full_hits.get(), 1);
        assert_eq!(hub.store_partial_hits.get(), 1);
        assert_eq!(hub.store_records.get(), 1);
        assert_eq!(hub.table_views_gauge("T").get(), 1);
        assert!(
            hub.store_lock_wait_nanos.snapshot().count >= 4,
            "every instrumented lock acquisition reports a wait sample"
        );
    }

    #[test]
    fn observer_sees_every_spend_outside_the_shard_lock() {
        use std::sync::Mutex;
        let mut base = SemanticStore::new();
        base.register(space());
        let shared = Arc::new(SharedSemanticStore::new(base));
        let seen: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            let probe = Arc::clone(&shared);
            shared.attach_observer(Arc::new(move |table: &str, region, now, spend| {
                // Re-entering the store here would deadlock if the shard
                // write lock were still held when the observer fires.
                assert!(probe.covers(table, region, Consistency::Weak, now));
                seen.lock().unwrap().push((table.to_string(), spend));
            }));
        }
        shared.record_spend("T", r(0, 9), 1, 10);
        shared.record_spend("T", r(20, 29), 2, 7);
        // Second attachment is ignored (first wins), so counts stay exact.
        shared.attach_observer(Arc::new(|_, _, _, _| panic!("must never fire")));
        shared.record("T", r(40, 49), 3);
        let seen = seen.lock().unwrap();
        assert_eq!(
            *seen,
            vec![
                ("T".to_string(), 10),
                ("T".to_string(), 7),
                ("T".to_string(), 0)
            ]
        );
    }

    #[test]
    fn unregistered_table_degrades_gracefully() {
        let shared = SharedSemanticStore::new(SemanticStore::new());
        assert_eq!(shared.view_count("nope"), 0);
        assert!(shared.space("nope").is_none());
        assert_eq!(
            shared.classify("nope", &r(0, 1), Consistency::Weak, 1),
            CoverClass::Miss
        );
    }
}
