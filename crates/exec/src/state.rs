//! Buyer-side state the executor runs against.
//!
//! One [`SharedState`] is the buyer side of the paper's Figure 3 — the
//! local DBMS mirror, the semantic store and the statistics registry — for
//! every caller: the single-tenant session, the in-process mix and the
//! socket server. The local mirror and the statistics registry each sit
//! behind one reader-writer lock, and the semantic store keeps one lock
//! per table ([`payless_semantic::SharedSemanticStore`]). Both the store
//! and the statistics hold each table's state as an `Arc`'d version, so a
//! planning snapshot costs one pointer clone per table and a write copies
//! a table only while a snapshot still holds it. A session is the
//! uncontended case: one query at a time, no coalescer.
//!
//! Lock discipline: every helper here holds **at most one of its own locks
//! at a time** — `land_delivery` takes the mirror's, the statistics' and a
//! store shard's one after another, never nested — and no method calls back
//! into another locked structure, so no lock-order cycles exist by
//! construction. The one nesting is the [`RowObserver`], which runs under
//! the mirror lock and may take its owner's lock inside it. The closures
//! passed to the `with_*` helpers run under a lock; they are pure
//! computations (rewriting, estimation) and must not touch shared state.

use std::sync::{Arc, OnceLock, RwLock};

use payless_geometry::{QuerySpace, Region};
use payless_market::{DataMarket, Response};
use payless_semantic::{SemanticStore, SharedSemanticStore};
use payless_sql::{MapCatalog, TableLocation};
use payless_stats::{StatsRegistry, TableModel};
use payless_storage::{Database, LocalTable};
use payless_telemetry::{QErrorRecord, Recorder};
use payless_types::{Result, Row, Schema};

use crate::engine::row_in_region;

/// Observer invoked after a market delivery lands in the shared mirror:
/// `(table, rows the delivery added)`. Runs under the mirror's write lock,
/// so it must not touch this state; it may take its own lock and do I/O (a
/// durability layer appending the rows to its log).
pub type RowObserver = dyn Fn(&str, &[Row]) + Send + Sync;

/// Buyer-side state shared by every in-flight query.
pub struct SharedState {
    db: RwLock<Database>,
    store: SharedSemanticStore,
    stats: RwLock<StatsRegistry>,
    row_observer: OnceLock<Arc<RowObserver>>,
}

impl std::fmt::Debug for SharedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedState")
            .field("db", &self.db)
            .field("store", &self.store)
            .field("stats", &self.stats)
            .field("row_observer", &self.row_observer.get().is_some())
            .finish()
    }
}

fn rd<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn wr<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

impl SharedState {
    /// Wrap already-populated state.
    pub fn new(db: Database, store: SharedSemanticStore, stats: StatsRegistry) -> Self {
        SharedState {
            db: RwLock::new(db),
            store,
            stats: RwLock::new(stats),
            row_observer: OnceLock::new(),
        }
    }

    /// Install the buyer side over `market`: every hosted table's schema,
    /// cardinality and query space (the "basic statistics" of Section 2.1)
    /// goes into the returned catalog, `stats` and `store`. `store` may
    /// arrive warm (recovered coverage is kept; market tables it lacks are
    /// added).
    pub fn for_market(
        market: &DataMarket,
        mut store: SemanticStore,
        mut stats: StatsRegistry,
    ) -> (MapCatalog, Self) {
        let mut catalog = MapCatalog::new();
        for name in market.table_names() {
            let schema = market.schema(&name).expect("listed table").clone();
            let cardinality = market.cardinality(&name).expect("listed table");
            stats.register(&schema, cardinality);
            store.register(QuerySpace::of(&schema));
            catalog.add(schema, TableLocation::Market);
        }
        let state = SharedState::new(Database::new(), SharedSemanticStore::new(store), stats);
        (catalog, state)
    }

    /// Register a table of the buyer's own DBMS: its rows in the mirror,
    /// its cardinality in the statistics.
    pub fn register_local(&self, table: LocalTable) {
        wr(&self.stats).register(&table.schema, table.len() as u64);
        wr(&self.db).register(table);
    }

    /// Attach the delivered-rows observer. First caller wins; later calls
    /// are ignored, mirroring
    /// [`SharedSemanticStore::attach_observer`](payless_semantic::SharedSemanticStore).
    pub fn attach_row_observer(&self, observer: Arc<RowObserver>) {
        let _ = self.row_observer.set(observer);
    }

    /// Insert a market delivery into the mirror directly (recovery seeding
    /// and the serving layer's own inserts). The observer is **not**
    /// notified — recovered rows are already durable.
    pub fn seed_mirror(&self, schema: &Schema, rows: Vec<Row>) {
        wr(&self.db).table_or_create(schema).insert_all(rows);
    }

    /// The shared semantic store.
    pub fn store(&self) -> &SharedSemanticStore {
        &self.store
    }

    /// A point-in-time snapshot of the statistics registry (what the
    /// optimizer plans against): one `Arc` clone per table model.
    pub fn stats_snapshot(&self) -> StatsRegistry {
        rd(&self.stats).clone()
    }

    /// Run `f` against the local mirror under the read lock.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&rd(&self.db))
    }

    /// Rows of `table` passing `pred` (cloned out). Errors if the table is
    /// unknown to the local mirror.
    pub(crate) fn filtered_rows(
        &self,
        table: &str,
        pred: impl Fn(&Row) -> bool,
    ) -> Result<Vec<Row>> {
        self.with_db(|db| {
            Ok(db
                .table(table)?
                .rows()
                .iter()
                .filter(|r| pred(r))
                .cloned()
                .collect())
        })
    }

    /// Rows of `table` passing `pred`; empty if the table has no mirror yet
    /// (e.g. every remainder was empty).
    pub(crate) fn mirror_rows(&self, table: &str, pred: impl Fn(&Row) -> bool) -> Vec<Row> {
        self.filtered_rows(table, pred).unwrap_or_default()
    }

    /// Land one verified delivery of `region` — the only place a purchase
    /// touches the buyer's state, whoever bought (a remainder fetch or
    /// Download All). The order is load-bearing: the rows enter the
    /// mirror (and reach the row observer) **before** the store records the
    /// spend (and notifies the spend observer), so a durability layer's row
    /// log never trails its spend log. In between, the statistics score the
    /// estimate the optimizer planned with and only then repair it —
    /// afterwards it would always be exact.
    ///
    /// `coverage` is off only when rewriting is: coverage is only ever
    /// *read* by SQR, and without it the store would grow unboundedly (one
    /// region per bind probe) for nothing. The pages billed ride along to
    /// the journal and the spend observer (the write-ahead log).
    pub(crate) fn land_delivery(
        &self,
        recorder: Option<&Recorder>,
        schema: &Schema,
        region: Region,
        response: Response,
        coverage: bool,
        now: u64,
    ) {
        let table = &schema.table;
        let records = response.records();
        if let Some(rec) = recorder {
            rec.record_size("market.records_per_call", records);
        }
        self.insert_rows(schema, response.rows);
        if let Some(ts) = wr(&self.stats).table_mut(table) {
            if let Some(rec) = recorder {
                let estimate = ts.estimate(&region);
                rec.q_error(|| QErrorRecord {
                    table: table.clone(),
                    estimate,
                    actual: records,
                    q: payless_stats::q_error(estimate, records as f64),
                });
            }
            ts.feedback(&region, records);
        }
        if coverage {
            self.store
                .record_spend(table, region, now, response.transactions);
        }
    }

    /// Re-derive what one recovered purchase of `region` taught the
    /// statistics: the `feedback(region, records)` call
    /// [`SharedState::land_delivery`] made when it landed, with `records`
    /// counted from the mirror rows inside `region`. A delivery carries
    /// every row of its region, so once the recovered mirror is seeded that
    /// count is the delivery's.
    pub fn replay_feedback(&self, table: &str, region: &Region) {
        let Some(space) = self.store.space(table) else {
            return;
        };
        let records = self.with_db(|db| {
            db.table(table).map_or(0, |t| {
                t.rows()
                    .iter()
                    .filter(|row| row_in_region(&space, row, region))
                    .count()
            })
        });
        if let Some(ts) = wr(&self.stats).table_mut(table) {
            ts.feedback(region, records as u64);
        }
    }

    /// Insert `rows` into `schema`'s mirror table, creating it if needed.
    /// An attached [`RowObserver`] then sees only the rows the set insert
    /// appended (a re-bought row the mirror already holds is not new), so a
    /// durability layer logs each distinct row once. It runs before the
    /// mirror write lock is released: a concurrent delivery that finds a
    /// row already present goes on to record its spend, and by then that
    /// row's log frame is written.
    fn insert_rows(&self, schema: &Schema, rows: Vec<Row>) {
        let mut db = wr(&self.db);
        let table = db.table_or_create(schema);
        let before = table.len();
        table.insert_all(rows);
        if let Some(obs) = self.row_observer.get() {
            obs(&schema.table, &table.rows()[before..]);
        }
    }

    /// Run `f` against `table`'s statistics model under the read lock. `f`
    /// must be a pure computation.
    pub(crate) fn with_table_model<R>(
        &self,
        table: &str,
        f: impl FnOnce(&TableModel) -> R,
    ) -> Option<R> {
        rd(&self.stats).table(table).map(f)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use payless_geometry::Interval;
    use payless_types::{row, Column, Domain};

    use super::*;

    /// A re-bought delivery (a remainder that overlaps stored coverage on
    /// purpose, or a purchase made under a freshness window) adds nothing
    /// to the mirror, so the row observer — `mirror.log`'s writer — sees
    /// none of it again.
    #[test]
    fn row_observer_sees_each_distinct_row_once() {
        let schema = Schema::new("T", vec![Column::free("a", Domain::int(0, 9))]);
        let state = SharedState::new(
            Database::new(),
            SharedSemanticStore::new(SemanticStore::new()),
            StatsRegistry::new(),
        );
        let seen: Arc<Mutex<Vec<usize>>> = Arc::default();
        let log = Arc::clone(&seen);
        state.attach_row_observer(Arc::new(move |_, rows| {
            log.lock().unwrap().push(rows.len());
        }));
        let delivery = Response {
            rows: (0..3i64).map(|a| row!(a)).collect(),
            transactions: 1,
        };
        let region = Region::new(vec![Interval::new(0, 9)]);
        for now in [1, 2] {
            state.land_delivery(None, &schema, region.clone(), delivery.clone(), false, now);
        }
        assert_eq!(*seen.lock().unwrap(), [3, 0]);
        assert_eq!(state.with_db(|db| db.table("T").unwrap().len()), 3);
    }

    /// Recovery's `replay_feedback`, run over the recovered mirror in log
    /// order, leaves the statistics exactly where the live deliveries left
    /// them — overlapping deliveries included.
    #[test]
    fn replay_feedback_repeats_the_live_feedback() {
        let schema = Schema::new("T", vec![Column::free("a", Domain::int(0, 99))]);
        let fresh = || {
            let mut store = SemanticStore::new();
            store.register(QuerySpace::of(&schema));
            let mut stats = StatsRegistry::new();
            stats.register(&schema, 1_000);
            SharedState::new(Database::new(), SharedSemanticStore::new(store), stats)
        };
        let region = |lo, hi| Region::new(vec![Interval::new(lo, hi)]);
        // The market holds every multiple of 3; a delivery is all of them in
        // its region.
        let market = |lo: i64, hi: i64| -> Vec<Row> {
            (lo..=hi).filter(|a| a % 3 == 0).map(|a| row!(a)).collect()
        };
        let purchases = [(0, 9), (20, 49), (5, 24)];
        let live = fresh();
        for (now, &(lo, hi)) in purchases.iter().enumerate() {
            let delivery = Response {
                rows: market(lo, hi),
                transactions: 1,
            };
            live.land_delivery(None, &schema, region(lo, hi), delivery, true, now as u64);
        }
        let replayed = fresh();
        replayed.seed_mirror(
            &schema,
            live.with_db(|db| db.table("T").unwrap().rows().to_vec()),
        );
        for &(lo, hi) in &purchases {
            replayed.replay_feedback("T", &region(lo, hi));
        }
        for (lo, hi) in [(0, 99), (0, 9), (5, 24), (7, 30), (50, 99)] {
            assert_eq!(
                live.stats_snapshot().estimate("T", &region(lo, hi)),
                replayed.stats_snapshot().estimate("T", &region(lo, hi)),
                "estimate of [{lo}, {hi}]"
            );
        }
    }
}
