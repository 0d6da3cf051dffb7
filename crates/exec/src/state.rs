//! Buyer-side state the executor runs against.
//!
//! One [`SharedState`] is the buyer side of the paper's Figure 3 — the
//! local DBMS mirror, the semantic store and the statistics registry — for
//! every caller: the single-tenant session, the in-process mix and the
//! socket server. The local mirror and the statistics registry sit together
//! behind one reader-writer lock, and the semantic store keeps one lock per
//! table ([`payless_semantic::SharedSemanticStore`]). Both the store and the
//! statistics hold each table's state as an `Arc`'d version, so a planning
//! snapshot costs one pointer clone per table and a write copies a table
//! only while a snapshot still holds it. A session is the uncontended case:
//! one query at a time, no coalescer.
//!
//! The mirror is indexed by purchase. Beside each market table's rows it
//! keeps an append-only list of blocks, one per delivery that added rows:
//! the delivery's new rows (a contiguous range, since the mirror only
//! appends) and the region it bought, recorded only when every one of those
//! rows was checked to lie inside it. A region read walks the blocks in
//! mirror order: a block whose region overlaps no query region is skipped,
//! one that a query region contains is taken whole, and every other row —
//! a partly overlapping block, a delivery that failed the check and a local
//! table's rows — is tested row by row. The blocks live under the mirror's
//! own lock, so they can never disagree with the rows.
//!
//! Lock discipline: a delivery lands under the mirror's write lock — rows,
//! then the statistics' feedback, then one frame in the attached
//! [`PurchaseLog`] — so the log's order is the order deliveries changed the
//! mirror and the statistics, for any number of clients. The store's
//! coverage insert follows under its shard lock, after the mirror lock is
//! released. The log's own lock is the only one ever taken inside another;
//! nothing here calls back into a locked structure, so no lock-order cycle
//! exists. The closures passed to the `with_*` helpers run under a lock;
//! they are pure computations (rewriting, estimation) and must not touch
//! shared state.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, RwLock};

use payless_geometry::{QuerySpace, Region};
use payless_market::{DataMarket, Response};
use payless_semantic::{SemanticStore, SharedSemanticStore};
use payless_sql::{MapCatalog, TableLocation};
use payless_stats::{StatsRegistry, TableStats};
use payless_storage::{Database, LocalTable};
use payless_telemetry::{QErrorRecord, Recorder};
use payless_types::{Result, Row, Schema};

use crate::engine::row_in_region;

/// The signature of the old delivered-rows hook. Kept for `benchmark/`
/// only, with [`SharedState::attach_row_observer`]; nothing calls one.
pub type RowObserver = dyn Fn(&str, &[Row]) + Send + Sync;

/// One landed delivery, as the purchase log records it.
#[derive(Debug)]
pub struct Purchase<'a> {
    /// Market table the delivery is of.
    pub table: &'a str,
    /// Logical tick of the query that bought it.
    pub at: u64,
    /// Pages the market billed for it.
    pub pages: u64,
    /// The region bought.
    pub region: &'a Region,
    /// Rows the market delivered: the statistics' feedback.
    pub records: u64,
    /// Whether the semantic store records `region` as covered.
    pub coverage: bool,
    /// The delivered rows the mirror did not hold yet, in mirror order.
    pub rows: &'a [Row],
}

/// Where landed deliveries are logged: a durability layer.
pub trait PurchaseLog: std::fmt::Debug + Send + Sync {
    /// Log one delivery. Runs under the mirror's write lock, after the
    /// delivery's rows and feedback are in, so it must not touch the
    /// [`SharedState`]; it may take its own lock and do I/O.
    fn append_purchase(&self, purchase: &Purchase<'_>);
}

/// What deliveries change, under one lock: the buyer's tables and, per
/// market table, the blocks its deliveries appended (in mirror order); the
/// statistics refined from every delivery; and the log they are written to.
#[derive(Debug)]
struct Mirror {
    db: Database,
    blocks: HashMap<Arc<str>, Vec<Block>>,
    stats: StatsRegistry,
    log: Option<Arc<dyn PurchaseLog>>,
}

/// Rows of a market table's mirror that one delivery appended, every one of
/// them inside `region`, the region that delivery bought.
#[derive(Debug)]
struct Block {
    rows: Range<usize>,
    region: Region,
}

impl Mirror {
    /// Insert `rows` into `schema`'s mirror table, creating it if needed,
    /// and return the range the set insert appended (a re-bought row the
    /// mirror already holds is not new). `bought` is the delivery's query
    /// space and region: the appended rows become a block of that region if
    /// every one of them lies inside it.
    fn insert_rows(
        &mut self,
        schema: &Schema,
        rows: Vec<Row>,
        bought: Option<(&QuerySpace, &Region)>,
    ) -> Range<usize> {
        let table = self.db.table_or_create(schema);
        let before = table.len();
        table.insert_all(rows);
        let added = before..table.len();
        let Some((space, region)) = bought else {
            return added;
        };
        let rows = &table.rows()[added.clone()];
        if !rows.is_empty() && rows.iter().all(|row| row_in_region(space, row, region)) {
            self.blocks
                .entry(schema.table.clone())
                .or_default()
                .push(Block {
                    rows: added.clone(),
                    region: region.clone(),
                });
        }
        added
    }

    /// Teach `table`'s statistics that `region` holds `records` rows,
    /// scoring the estimate it had first into `recorder`.
    fn feedback(
        &mut self,
        recorder: Option<&Recorder>,
        table: &Arc<str>,
        region: &Region,
        records: u64,
    ) {
        let Some(ts) = self.stats.table_mut(table) else {
            return;
        };
        if let Some(rec) = recorder {
            let estimate = ts.estimate(region);
            rec.q_error(|| QErrorRecord {
                table: table.clone(),
                estimate,
                actual: records,
                q: payless_stats::q_error(estimate, records as f64),
            });
        }
        ts.feedback(region, records);
    }
}

/// Buyer-side state shared by every in-flight query.
#[derive(Debug)]
pub struct SharedState {
    mirror: RwLock<Mirror>,
    store: SharedSemanticStore,
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
            mirror: RwLock::new(Mirror {
                db,
                blocks: HashMap::new(),
                stats,
                log: None,
            }),
            store,
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
        let mut mirror = wr(&self.mirror);
        mirror.stats.register(&table.schema, table.len() as u64);
        // A replaced table's blocks would index rows it no longer holds.
        mirror.blocks.remove(&table.schema.table);
        mirror.db.register(table);
    }

    /// Log every later delivery to `log`. First caller wins; later calls
    /// are ignored.
    pub fn attach_log(&self, log: Arc<dyn PurchaseLog>) {
        wr(&self.mirror).log.get_or_insert(log);
    }

    /// Does nothing: deliveries are logged through
    /// [`SharedState::attach_log`]. Kept for `benchmark/` only.
    pub fn attach_row_observer(&self, _observer: Arc<RowObserver>) {}

    /// The shared semantic store.
    pub fn store(&self) -> &SharedSemanticStore {
        &self.store
    }

    /// A point-in-time snapshot of the statistics registry (what the
    /// optimizer plans against): one `Arc` clone per table model.
    pub fn stats_snapshot(&self) -> StatsRegistry {
        rd(&self.mirror).stats.clone()
    }

    /// Run `f` against the local mirror under the read lock.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&rd(&self.mirror).db)
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

    /// Visit, in mirror order, every row of `table` inside some of
    /// `regions` of its query `space` — exactly the rows a [`row_in_region`]
    /// scan of the whole mirror passes, read through the delivery blocks
    /// (see the module doc). Visits nothing if the table has no mirror yet
    /// (e.g. every remainder was empty). `visit` runs under the mirror's
    /// read lock and must be a pure computation.
    pub(crate) fn visit_rows_in(
        &self,
        table: &str,
        space: &QuerySpace,
        regions: &[Region],
        mut visit: impl FnMut(&Row),
    ) {
        let mirror = rd(&self.mirror);
        let Ok(t) = mirror.db.table(table) else {
            return;
        };
        let rows = t.rows();
        let wanted = |row: &&Row| regions.iter().any(|r| row_in_region(space, row, r));
        let mut next = 0;
        for block in mirror.blocks.get(table).into_iter().flatten() {
            rows[next..block.rows.start]
                .iter()
                .filter(wanted)
                .for_each(&mut visit);
            next = block.rows.end;
            if !regions.iter().any(|r| r.overlaps(&block.region)) {
                continue;
            }
            let whole = regions.iter().any(|r| r.contains(&block.region));
            rows[block.rows.clone()]
                .iter()
                .filter(|row| whole || wanted(row))
                .for_each(&mut visit);
        }
        rows[next..].iter().filter(wanted).for_each(&mut visit);
    }

    /// Land one verified delivery of `region` — the only place a purchase
    /// touches the buyer's state, whoever bought (a remainder fetch or
    /// Download All). Under the mirror's write lock, the rows enter the
    /// mirror, the statistics score the estimate the optimizer planned with
    /// and only then repair it (afterwards it would always be exact), and
    /// the attached [`PurchaseLog`] gets one frame of it all. The store
    /// records the coverage after the lock is released.
    ///
    /// `coverage` is off only when rewriting is: coverage is only ever
    /// *read* by SQR, and without it the store would grow unboundedly (one
    /// region per bind probe) for nothing. The pages billed ride along to
    /// the log and the journal.
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
        let space = self.store.space(table);
        {
            let mut mirror = wr(&self.mirror);
            let added =
                mirror.insert_rows(schema, response.rows, space.as_ref().map(|s| (s, &region)));
            mirror.feedback(recorder, table, &region, records);
            if let Some(log) = &mirror.log {
                let rows = mirror.db.table(table).expect("just inserted").rows();
                log.append_purchase(&Purchase {
                    table,
                    at: now,
                    pages: response.transactions,
                    region: &region,
                    records,
                    coverage,
                    rows: &rows[added],
                });
            }
        }
        if coverage {
            self.store
                .record_spend(table, region, now, response.transactions);
        }
    }

    /// Land one logged purchase again (recovery): its rows, which the
    /// mirror held none of when it was logged, and the statistics'
    /// `feedback(region, records)`, exactly as [`SharedState::land_delivery`]
    /// applied them. Replayed in log order, the rows form the same blocks
    /// and the statistics end where the logged deliveries left them.
    pub fn replay(&self, schema: &Schema, region: &Region, rows: Vec<Row>, records: u64) {
        let space = self.store.space(&schema.table);
        let mut mirror = wr(&self.mirror);
        mirror.insert_rows(schema, rows, space.as_ref().map(|s| (s, region)));
        mirror.feedback(None, &schema.table, region, records);
    }

    /// Run `f` against `table`'s statistics model under the read lock. `f`
    /// must be a pure computation.
    pub(crate) fn with_table_stats<R>(
        &self,
        table: &str,
        f: impl FnOnce(&TableStats) -> R,
    ) -> Option<R> {
        rd(&self.mirror).stats.table(table).map(f)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use payless_geometry::Interval;
    use payless_types::{row, Column, Domain};

    use super::*;

    /// One logged purchase, owned: what a log hands recovery back.
    #[derive(Debug, Clone)]
    struct Logged {
        region: Region,
        records: u64,
        coverage: bool,
        rows: Vec<Row>,
    }

    /// A log that keeps every purchase in memory.
    #[derive(Debug, Default)]
    struct MemLog(Mutex<Vec<Logged>>);

    impl PurchaseLog for MemLog {
        fn append_purchase(&self, p: &Purchase<'_>) {
            self.0.lock().unwrap().push(Logged {
                region: p.region.clone(),
                records: p.records,
                coverage: p.coverage,
                rows: p.rows.to_vec(),
            });
        }
    }

    fn logged(state: &SharedState) -> Arc<MemLog> {
        let log = Arc::new(MemLog::default());
        state.attach_log(log.clone());
        log
    }

    /// A re-bought delivery (a remainder that overlaps stored coverage on
    /// purpose, or a purchase made under a freshness window) adds nothing
    /// to the mirror, so its frame carries none of its rows again — only
    /// what it taught the statistics.
    #[test]
    fn the_log_sees_each_distinct_row_once() {
        let schema = Schema::new("T", vec![Column::free("a", Domain::int(0, 9))]);
        let state = SharedState::new(
            Database::new(),
            SharedSemanticStore::new(SemanticStore::new()),
            StatsRegistry::new(),
        );
        let log = logged(&state);
        let delivery = Response {
            rows: (0..3i64).map(|a| row!(a)).collect(),
            transactions: 1,
        };
        let region = Region::new(vec![Interval::new(0, 9)]);
        for now in [1, 2] {
            state.land_delivery(None, &schema, region.clone(), delivery.clone(), false, now);
        }
        let frames = log.0.lock().unwrap();
        let rows: Vec<usize> = frames.iter().map(|f| f.rows.len()).collect();
        assert_eq!(rows, [3, 0]);
        assert!(frames.iter().all(|f| f.records == 3 && !f.coverage));
        assert_eq!(state.with_db(|db| db.table("T").unwrap().len()), 3);
    }

    /// Replaying the logged purchases, in log order, into a fresh state
    /// rebuilds the live mirror row for row, the same delivery blocks, and
    /// statistics that estimate every region to the same bits —
    /// overlapping and re-bought deliveries included.
    #[test]
    fn replayed_purchases_form_the_live_blocks_and_statistics() {
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
        let live = fresh();
        let log = logged(&live);
        for (now, &(lo, hi)) in [(0, 9), (20, 49), (5, 24), (0, 9)].iter().enumerate() {
            let delivery = Response {
                rows: market(lo, hi),
                transactions: 1,
            };
            live.land_delivery(None, &schema, region(lo, hi), delivery, true, now as u64);
        }
        let replayed = fresh();
        for f in log.0.lock().unwrap().iter() {
            replayed.replay(&schema, &f.region, f.rows.clone(), f.records);
        }
        let mirror = |s: &SharedState| s.with_db(|db| db.table("T").unwrap().rows().to_vec());
        assert_eq!(mirror(&replayed), mirror(&live));
        let spans = |s: &SharedState| -> Vec<(Range<usize>, Region)> {
            rd(&s.mirror).blocks["T"]
                .iter()
                .map(|b| (b.rows.clone(), b.region.clone()))
                .collect()
        };
        assert_eq!(spans(&replayed).len(), 3, "the re-buy added no rows");
        assert_eq!(spans(&replayed), spans(&live));
        for (lo, hi) in [(0, 99), (0, 9), (5, 24), (7, 30), (50, 99)] {
            let bits = |s: &SharedState| {
                s.stats_snapshot()
                    .estimate("T", &region(lo, hi))
                    .map(f64::to_bits)
            };
            assert_eq!(bits(&live), bits(&replayed), "estimate of [{lo}, {hi}]");
        }
    }

    /// `T(a ∈ 0..=19, c ∈ {x, y, z})`, with its query space registered in
    /// the store (the space a delivery's rows are checked against).
    fn block_fixture() -> (Schema, QuerySpace, SharedState) {
        let schema = Schema::new(
            "T",
            vec![
                Column::free("a", Domain::int(0, 19)),
                Column::free("c", Domain::categorical(CATS)),
            ],
        );
        let space = QuerySpace::of(&schema);
        let mut store = SemanticStore::new();
        store.register(space.clone());
        let state = SharedState::new(
            Database::new(),
            SharedSemanticStore::new(store),
            StatsRegistry::new(),
        );
        (schema, space, state)
    }

    const CATS: [&str; 3] = ["x", "y", "z"];

    /// The box `a ∈ [a.0, a.1]`, `c ∈ [c.0, c.1]` (category indices).
    fn boxed(a: (i64, i64), c: (i64, i64)) -> Region {
        Region::new(vec![Interval::new(a.0, a.1), Interval::new(c.0, c.1)])
    }

    fn everywhere() -> Region {
        boxed((0, 19), (0, 2))
    }

    /// The market's rows in `region`: every `(a, c)` with `a + c` even, so
    /// a small box may hold none.
    fn market_rows(region: &Region) -> Vec<Row> {
        let (a, c) = (region.dim(0), region.dim(1));
        (a.lo..=a.hi)
            .flat_map(|a| (c.lo..=c.hi).map(move |c| (a, c)))
            .filter(|(a, c)| (a + c) % 2 == 0)
            .map(|(a, c)| row!(a, CATS[c as usize]))
            .collect()
    }

    fn deliver(state: &SharedState, schema: &Schema, region: Region, rows: Vec<Row>) {
        let delivery = Response {
            rows,
            transactions: 1,
        };
        state.land_delivery(None, schema, region, delivery, false, 0);
    }

    /// The block walk's answer for `regions`.
    fn read(state: &SharedState, space: &QuerySpace, regions: &[Region]) -> Vec<Row> {
        let mut out = Vec::new();
        state.visit_rows_in("T", space, regions, |row| out.push(row.clone()));
        out
    }

    /// What the block walk must return: a `row_in_region` scan of the
    /// whole mirror.
    fn full_scan(state: &SharedState, space: &QuerySpace, regions: &[Region]) -> Vec<Row> {
        state
            .filtered_rows("T", |row| {
                regions.iter().any(|r| row_in_region(space, row, r))
            })
            .unwrap_or_default()
    }

    fn blocks(state: &SharedState) -> usize {
        rd(&state.mirror).blocks.get("T").map_or(0, Vec::len)
    }

    /// A delivery holding a row outside the region it was bought for
    /// forms no block, and the stray row is still found.
    #[test]
    fn a_delivery_with_a_row_outside_its_region_forms_no_block() {
        let (schema, space, state) = block_fixture();
        let bought = boxed((0, 4), (0, 2));
        let mut rows = market_rows(&bought);
        rows.push(row!(9i64, "y"));
        deliver(&state, &schema, bought, rows);
        assert_eq!(blocks(&state), 0);
        let beyond = [boxed((5, 19), (0, 2))];
        assert_eq!(read(&state, &space, &beyond), vec![row!(9i64, "y")]);
        assert_eq!(
            read(&state, &space, &[everywhere()]),
            full_scan(&state, &space, &[everywhere()])
        );
        // A clean delivery after it forms a block of its own.
        let bought = boxed((10, 14), (0, 2));
        deliver(&state, &schema, bought.clone(), market_rows(&bought));
        assert_eq!(blocks(&state), 1);
        assert_eq!(
            read(&state, &space, &beyond).len(),
            1 + market_rows(&bought).len()
        );
    }

    /// Rows seeded by recovery's replay and rows delivered live,
    /// interleaved — some in blocks, some (a purchase with a row outside its
    /// region) in none — are all found wherever they sit.
    #[test]
    fn seeded_and_delivered_rows_interleaved_are_all_found() {
        let (schema, space, state) = block_fixture();
        let seeded = boxed((0, 4), (0, 2));
        let mut stray = market_rows(&seeded);
        stray.push(row!(18i64, "x"));
        state.replay(&schema, &seeded, stray, 0);
        let first = boxed((3, 9), (0, 2));
        deliver(&state, &schema, first.clone(), market_rows(&first));
        let seeded = boxed((15, 17), (0, 2));
        state.replay(&schema, &seeded, market_rows(&seeded), 0);
        let second = boxed((8, 14), (1, 2));
        deliver(&state, &schema, second.clone(), market_rows(&second));
        assert_eq!(blocks(&state), 3);
        let all = read(&state, &space, &[everywhere()]);
        assert_eq!(
            all,
            state.with_db(|db| db.table("T").unwrap().rows().to_vec())
        );
        for regions in [
            vec![boxed((0, 2), (0, 2))],
            vec![boxed((4, 16), (1, 1))],
            vec![first.clone(), boxed((17, 19), (2, 2))],
            vec![second.clone(), boxed((18, 18), (0, 0))],
        ] {
            assert_eq!(
                read(&state, &space, &regions),
                full_scan(&state, &space, &regions),
                "{regions:?}"
            );
        }
    }

    /// A query region that contains a block takes it whole, one that
    /// overlaps it filters it, and one that misses it skips it.
    #[test]
    fn a_query_region_containing_overlapping_or_missing_a_block_reads_correctly() {
        let (schema, space, state) = block_fixture();
        let bought = boxed((5, 9), (0, 2));
        let delivered = market_rows(&bought);
        deliver(&state, &schema, bought.clone(), delivered.clone());
        assert_eq!(blocks(&state), 1);
        assert_eq!(read(&state, &space, &[bought]), delivered);
        assert_eq!(read(&state, &space, &[everywhere()]), delivered);
        let partly = [boxed((7, 12), (0, 1))];
        let expected: Vec<Row> = delivered
            .iter()
            .filter(|row| row_in_region(&space, row, &partly[0]))
            .cloned()
            .collect();
        assert!(!expected.is_empty() && expected.len() < delivered.len());
        assert_eq!(read(&state, &space, &partly), expected);
        assert!(read(&state, &space, &[boxed((10, 19), (0, 2))]).is_empty());
        // Two query regions that together, but neither alone, contain it.
        let halves = [boxed((0, 7), (0, 2)), boxed((8, 19), (0, 2))];
        assert_eq!(read(&state, &space, &halves), delivered);
    }

    mod property {
        use proptest::prelude::*;

        use super::*;

        /// One step of a mirror's life: the market's rows in `region`,
        /// plus one row outside it when `stray` (a delivery the block check
        /// must refuse), delivered live or replayed by recovery.
        #[derive(Debug, Clone)]
        struct Step {
            region: Region,
            stray: bool,
            replayed: bool,
        }

        fn any_box() -> impl Strategy<Value = Region> {
            (0..20i64, 0..8i64, 0..3i64, 0..3i64)
                .prop_map(|(a, wa, c, wc)| boxed((a, (a + wa).min(19)), (c, (c + wc).min(2))))
        }

        /// Random boxes (overlapping, re-bought, often empty), Download
        /// All's whole space and its per-category pieces.
        fn any_bought() -> impl Strategy<Value = Region> {
            prop_oneof![
                any_box(),
                Just(everywhere()),
                (0..3i64).prop_map(|c| boxed((0, 19), (c, c))),
            ]
        }

        fn any_step() -> impl Strategy<Value = Step> {
            let stray = prop_oneof![any::<bool>(), Just(false)];
            (any_bought(), stray, any::<bool>()).prop_map(|(region, stray, replayed)| Step {
                region,
                stray,
                replayed,
            })
        }

        proptest! {
            /// After every step, live or recovered, the block walk returns
            /// exactly the rows of a full `row_in_region` scan, in mirror
            /// order.
            #[test]
            fn block_reads_equal_a_full_scan(
                steps in proptest::collection::vec(any_step(), 0..16),
                queries in proptest::collection::vec(any_bought(), 1..4),
            ) {
                let (schema, space, state) = block_fixture();
                for Step { region, stray, replayed } in &steps {
                    let mut rows = market_rows(region);
                    if *stray {
                        let outside = market_rows(&everywhere())
                            .into_iter()
                            .find(|row| !row_in_region(&space, row, region));
                        rows.extend(outside);
                    }
                    if *replayed {
                        state.replay(&schema, region, rows, 0);
                    } else {
                        deliver(&state, &schema, region.clone(), rows);
                    }
                    prop_assert_eq!(
                        read(&state, &space, &queries),
                        full_scan(&state, &space, &queries)
                    );
                }
                let rows = state.with_db(|db| db.table("T").map_or(0, |t| t.len()));
                prop_assert!(blocks(&state) <= rows);
            }
        }
    }
}
