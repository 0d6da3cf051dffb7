//! Thread-safe sharing of the semantic store across concurrent sessions.
//!
//! A [`SharedSemanticStore`] holds each table's current version (an
//! `Arc<TableStore>`, see [`crate::store`]) behind one reader-writer lock
//! *per table*: rewrites and cover probes of different tables never
//! contend, and on one table many readers proceed in parallel while a
//! delivery appending coverage takes the shard's write lock only briefly.
//! The R-tree index of a version is updated under that same write lock, so
//! readers always see a consistent view-set/index pair —
//! [`SharedSemanticStore::views_overlapping`] reads both under one lock
//! acquisition.
//!
//! The optimizer still wants a plain `&SemanticStore`;
//! [`SharedSemanticStore::snapshot`] clones one `Arc` per shard. A write
//! goes through `Arc::make_mut`, so it copies its one table only while a
//! snapshot still holds the version it replaces.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use payless_events::EventJournal;
use payless_geometry::{QuerySpace, Region};
use payless_metrics::MetricsHub;

use crate::store::{Consistency, CoverClass, RewriteProbe, SemanticStore, TableStore};

/// One table's current version behind its lock.
type Shard = RwLock<Arc<TableStore>>;

/// A semantic store shareable across threads: per-table versions behind
/// reader-writer locks. All methods take `&self`; clone the containing
/// `Arc` to hand the store to another session. Its instrumentation is
/// cumulative and shared — the metrics hub and the event journal — never
/// a query's recorder.
#[derive(Default)]
pub struct SharedSemanticStore {
    shards: HashMap<Arc<str>, Shard>,
    /// Flight recorder for store lifecycle events (inserts and
    /// compactions); they carry no query id. First attachment wins.
    events: OnceLock<Arc<EventJournal>>,
    /// Live instrumentation: hit/miss classification, record counts,
    /// per-table view gauges, and shard lock-wait times. `None` costs one
    /// `OnceLock` load per operation.
    metrics: OnceLock<Arc<MetricsHub>>,
}

impl std::fmt::Debug for SharedSemanticStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSemanticStore")
            .field("shards", &self.shards)
            .field("events", &self.events.get().is_some())
            .field("metrics", &self.metrics.get().is_some())
            .finish()
    }
}

/// Read a poisoned lock anyway: a version is only ever mutated through
/// `TableStore` methods that keep it structurally consistent, so a
/// panicking reader elsewhere cannot leave torn data behind.
fn read(l: &Shard) -> RwLockReadGuard<'_, Arc<TableStore>> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write(l: &Shard) -> RwLockWriteGuard<'_, Arc<TableStore>> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

impl SharedSemanticStore {
    /// Share `store`'s tables — a fresh store, or a warm one replayed from a
    /// durability log. The table set is fixed from here on.
    pub fn new(store: SemanticStore) -> Self {
        SharedSemanticStore {
            shards: store
                .tables
                .into_iter()
                .map(|(name, t)| (name, RwLock::new(t)))
                .collect(),
            ..Self::default()
        }
    }

    /// Attach a metrics hub: classification hit/miss counters, recorded
    /// coverage counts, per-table view gauges, and shard lock-wait
    /// histograms (`payless_store_*`). First attachment wins; later calls
    /// are ignored.
    pub fn attach_metrics(&self, hub: Arc<MetricsHub>) {
        let _ = self.metrics.set(hub);
    }

    /// Does nothing: purchases are logged where their delivery lands
    /// (`payless_exec::PurchaseLog`). Kept for `benchmark/` only.
    #[allow(clippy::type_complexity)]
    pub fn attach_observer(&self, _observer: Arc<dyn Fn(&str, &Region, u64, u64) + Send + Sync>) {}

    /// Attach a flight-recorder journal: every later `record_spend`
    /// journals `store_insert` / `store_compact` events.
    /// First attachment wins; later calls are ignored.
    pub fn attach_events(&self, journal: Arc<EventJournal>) {
        let _ = self.events.set(journal);
    }

    /// Take a shard's read lock, reporting the wait into the hub.
    fn timed_read<'a>(&self, l: &'a Shard) -> RwLockReadGuard<'a, Arc<TableStore>> {
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
    fn timed_write<'a>(&self, l: &'a Shard) -> RwLockWriteGuard<'a, Arc<TableStore>> {
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

    /// Run a probe against `table`'s current version under its read lock
    /// (the wait reported into the hub); `None` if `table` is unknown.
    fn probe<R>(&self, table: &str, f: impl FnOnce(&TableStore) -> R) -> Option<R> {
        let shard = self.shards.get(table)?;
        Some(f(&self.timed_read(shard)))
    }

    /// Read a counter of `table`'s current version; `None` if unknown.
    fn peek<R>(&self, table: &str, f: impl FnOnce(&TableStore) -> R) -> Option<R> {
        self.shards.get(table).map(|s| f(&read(s)))
    }

    /// The query space of `table`, if registered (cloned out of the shard).
    pub fn space(&self, table: &str) -> Option<QuerySpace> {
        self.peek(table, |t| t.space().clone())
    }

    /// Record that `region` of `table` has been fully retrieved at `now`.
    /// Takes the shard's write lock for the duration of the insert
    /// (containment checks, compaction, index update).
    pub fn record(&self, table: &str, region: Region, now: u64) {
        self.record_spend(table, region, now, 0);
    }

    /// As [`SharedSemanticStore::record`], attributing the pages billed to
    /// retrieve the region: the journal's `store_insert` event carries them.
    /// The insert copies the table first only if a snapshot still holds its
    /// current version.
    pub fn record_spend(&self, table: &str, region: Region, now: u64, spend: u64) {
        let shard = self
            .shards
            .get(table)
            .unwrap_or_else(|| panic!("table `{table}` not registered in semantic store"));
        let mut guard = self.timed_write(shard);
        let t = Arc::make_mut(&mut guard);
        let journal = self.events.get().map(|j| &**j);
        t.record(table, region, now, spend, journal);
        if let Some(hub) = self.metrics.get() {
            hub.store_records.inc(1);
            hub.table_views_gauge(table).set(t.view_count() as u64);
            hub.table_compactions_gauge(table).set(t.compactions());
        }
    }

    /// The usable views of `table` overlapping `probe`, read under one
    /// shard read lock. The second element is always `None`: the store
    /// keeps no remainder pieces, so callers subtract (`rewrite`). Kept in
    /// this shape for `benchmark/src/ledger.rs`; the workspace calls
    /// [`SharedSemanticStore::views_overlapping`].
    pub fn probe_rewrite(
        &self,
        table: &str,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> RewriteProbe {
        (self.views_overlapping(table, probe, consistency, now), None)
    }

    /// The usable views of `table` overlapping `probe`, read under one
    /// shard read lock: only these can shape `probe`'s rewrite.
    pub fn views_overlapping(
        &self,
        table: &str,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> Vec<Arc<Region>> {
        self.probe(table, |t| t.views_overlapping(probe, consistency, now))
            .unwrap_or_default()
    }

    /// Total compaction events for `table` since creation.
    pub fn compactions(&self, table: &str) -> u64 {
        self.peek(table, TableStore::compactions).unwrap_or(0)
    }

    /// Always `0`: the store keeps every purchase and evicts nothing. Kept
    /// for `benchmark/src/ledger.rs`, which still reports the count.
    pub fn evictions(&self, _table: &str) -> u64 {
        0
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
            .probe(table, |t| t.classify(region, consistency, now))
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
        self.probe(table, |t| t.covers(region, consistency, now))
            .unwrap_or(false)
    }

    /// Number of stored view boxes for `table` (after coalescing).
    pub fn view_count(&self, table: &str) -> usize {
        self.peek(table, TableStore::view_count).unwrap_or(0)
    }

    /// Fraction of `table`'s whole query space covered by stored views.
    pub fn coverage_fraction(&self, table: &str) -> f64 {
        self.peek(table, TableStore::coverage_fraction)
            .unwrap_or(0.0)
    }

    /// A point-in-time copy that shares every table's current version — one
    /// `Arc` clone per shard, each under its read lock — with no journal
    /// attached. This is what the optimizer plans against; drop it before
    /// writing, or the next write to a table copies it.
    pub fn snapshot(&self) -> SemanticStore {
        SemanticStore {
            tables: self
                .shards
                .iter()
                .map(|(name, s)| (name.clone(), Arc::clone(&read(s))))
                .collect(),
            ..SemanticStore::default()
        }
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
    fn snapshots_share_each_version_until_a_write_replaces_it() {
        let mut base = SemanticStore::new();
        base.register(space());
        base.register(QuerySpace::of(&Schema::new(
            "U",
            vec![Column::free("A", Domain::int(0, 99))],
        )));
        let shared = SharedSemanticStore::new(base);
        shared.record("T", r(0, 9), 1);
        let a = shared.snapshot();
        let b = shared.snapshot();
        for t in ["T", "U"] {
            assert!(Arc::ptr_eq(a.version(t).unwrap(), b.version(t).unwrap()));
        }
        // A write replaces the version of the table it wrote, and only it.
        shared.record("T", r(50, 59), 2);
        let c = shared.snapshot();
        assert!(!Arc::ptr_eq(
            a.version("T").unwrap(),
            c.version("T").unwrap()
        ));
        assert!(Arc::ptr_eq(
            a.version("U").unwrap(),
            c.version("U").unwrap()
        ));
        assert!(!a.covers("T", &r(50, 59), Consistency::Weak, 3));
        assert!(c.covers("T", &r(50, 59), Consistency::Weak, 3));
        // With no snapshot holding it, a write updates the version in place.
        let current = Arc::as_ptr(c.version("T").unwrap());
        drop((a, b, c));
        shared.record("T", r(70, 79), 3);
        assert_eq!(
            Arc::as_ptr(shared.snapshot().version("T").unwrap()),
            current
        );
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        const TABLES: [&str; 2] = ["G", "H"];

        fn store() -> SemanticStore {
            let mut s = SemanticStore::new();
            for t in TABLES {
                s.register(QuerySpace::of(&Schema::new(
                    t,
                    vec![
                        Column::free("A", Domain::int(0, 23)),
                        Column::free("B", Domain::int(0, 23)),
                    ],
                )));
            }
            s
        }

        /// One step of a schedule: a purchase `(table, box, now, spend)`,
        /// or (one step in four) a snapshot.
        fn arb_step() -> impl Strategy<Value = Option<(usize, Region, u64, u64)>> {
            let side = || (0i64..24).prop_flat_map(|lo| (Just(lo), lo..24));
            (0u8..4, 0..TABLES.len(), side(), side(), 0u64..16, 0u64..8).prop_map(
                |(kind, t, (a0, a1), (b0, b1), now, spend)| {
                    let region = Region::new(vec![Interval::new(a0, a1), Interval::new(b0, b1)]);
                    (kind > 0).then_some((t, region, now, spend))
                },
            )
        }

        /// Every box whose sides are unions of the thirds of the domain.
        fn probes() -> Vec<Region> {
            let sides = [(0, 7), (8, 15), (16, 23), (0, 15), (8, 23), (0, 23)];
            sides
                .iter()
                .flat_map(|&a| sides.iter().map(move |&b| (a, b)))
                .map(|((a0, a1), (b0, b1))| {
                    Region::new(vec![Interval::new(a0, a1), Interval::new(b0, b1)])
                })
                .collect()
        }

        proptest! {
            /// A snapshot answers every read exactly as a private store fed
            /// the purchases made before it, however many purchases (with
            /// their merges) the live store took afterwards.
            #[test]
            fn snapshot_reads_equal_a_replay_of_its_prefix(
                steps in proptest::collection::vec(arb_step(), 1..32),
            ) {
                let shared = SharedSemanticStore::new(store());
                let mut snaps = Vec::new();
                for (i, step) in steps.iter().enumerate() {
                    match step {
                        Some((t, region, now, spend)) => {
                            shared.record_spend(TABLES[*t], region.clone(), *now, *spend)
                        }
                        None => snaps.push((i, shared.snapshot())),
                    }
                }
                snaps.push((steps.len(), shared.snapshot()));
                let probes = probes();
                for (prefix, snap) in &snaps {
                    let mut replay = store();
                    for (t, region, now, _) in steps[..*prefix].iter().flatten() {
                        replay.record(TABLES[*t], region.clone(), *now);
                    }
                    for t in TABLES {
                        prop_assert_eq!(snap.view_count(t), replay.view_count(t));
                        prop_assert_eq!(snap.compactions(t), replay.compactions(t));
                        prop_assert_eq!(snap.coverage_fraction(t), replay.coverage_fraction(t));
                        for c in [Consistency::Weak, Consistency::Window(4)] {
                            for p in &probes {
                                prop_assert_eq!(
                                    snap.classify(t, p, c, 16),
                                    replay.classify(t, p, c, 16)
                                );
                                prop_assert_eq!(
                                    snap.covers(t, p, c, 16),
                                    replay.covers(t, p, c, 16)
                                );
                                prop_assert_eq!(
                                    snap.views_overlapping(t, p, c, 16),
                                    replay.views_overlapping(t, p, c, 16)
                                );
                            }
                        }
                    }
                }
            }
        }
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
