//! The semantic store: which regions of each table have been retrieved, and
//! when.
//!
//! Row data itself lives in the buyer's local DBMS (the execution engine
//! mirrors every retrieved tuple there); the store tracks *coverage* — the
//! regions of each table's query space whose tuples are locally complete —
//! plus a timestamp per region for the consistency levels of Section 4.3.
//!
//! Regions are stored behind `Arc` and handed out by handle, so the hot
//! query path never deep-copies coverage geometry. Each table keeps a
//! multidimensional R-tree over its stored boxes (see [`TableStore`]), so
//! probes for the views overlapping one query region touch only the tree
//! path the region intersects instead of scanning every stored view. A
//! query's remainder `Q ∖ ⋃Vᵢ` is always subtracted afresh from those
//! views: one rewrite input, whatever the consistency level.
//!
//! Inserts also **compact**: contained views are absorbed and mergeable
//! neighbours coalesce into single boxes (tree-assisted, so coalescing
//! never scans the whole table). Nothing else ever removes a view: the
//! store keeps every purchase, so a region bought once is never bought
//! again. The view count is bounded by the purchase log — at most one view
//! per logged purchase — as the mirror's rows and the logs already are.
//!
//! Each table's state is one **version**, an `Arc<TableStore>`. Cloning a
//! [`SemanticStore`] — a planning snapshot — clones one pointer per table;
//! a write goes through `Arc::make_mut`, so it copies the table only while
//! a snapshot still holds the version it replaces. Every consistency-aware
//! read is written once, on [`TableStore`]; the plain and the shared store
//! look the table up and delegate.

use std::collections::HashMap;
use std::sync::Arc;

use payless_events::{EventJournal, EventKind, Severity};
use payless_geometry::{QuerySpace, RTree, Region};

/// Result-freshness policy (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Reuse any stored result, however old. Semantic query rewriting is
    /// always enabled.
    Weak,
    /// Reuse results retrieved within the last `n` time units (the paper
    /// phrases it as "X-week consistency"; the unit is whatever clock the
    /// caller advances).
    Window(u64),
    /// Never reuse stored results — semantic query rewriting is disabled and
    /// every query goes to the market.
    Strong,
}

impl Consistency {
    /// The minimum `stored_at` timestamp a view must have to be reusable at
    /// time `now`, or `None` when nothing is reusable.
    pub fn min_stored_at(&self, now: u64) -> Option<u64> {
        match self {
            Consistency::Weak => Some(0),
            Consistency::Window(w) => Some(now.saturating_sub(*w)),
            Consistency::Strong => None,
        }
    }
}

/// One stored view: a retrieved region and when it was retrieved.
///
/// The region sits behind an `Arc` so probes can hand out handles without
/// copying the geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredView {
    /// The covered region of the table's query space.
    region: Arc<Region>,
    /// Logical retrieval time.
    stored_at: u64,
}

/// Tuning knobs of the per-table store.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Compaction on insert: absorb contained views and coalesce mergeable
    /// neighbours into single boxes. Disabling it keeps every purchased box
    /// verbatim: the reference the compaction tests compare against.
    pub compaction: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { compaction: true }
    }
}

/// Probes against tables with fewer views than this skip the index: a short
/// linear scan beats the tree walk.
const INDEX_MIN_VIEWS: usize = 8;

/// Per-table coverage plus the view index.
///
/// Views live in stable slots (`slots[id]`, freed ids reused LIFO) so the
/// R-tree can address them by `u32` id across removals; probes iterate ids
/// ascending, which reproduces the slot-order linear scan exactly.
///
/// All mutation happens through [`TableStore::record`] — one per market
/// purchase — while probes happen for every candidate plan the optimizer
/// costs, so reads stay `&self` and thread-safe.
#[derive(Debug, Clone)]
pub(crate) struct TableStore {
    space: QuerySpace,
    slots: Vec<Option<StoredView>>,
    free: Vec<u32>,
    live: usize,
    tree: RTree,
    /// The highest `now` ever recorded; never lowered, although a merge
    /// may date the view it landed in earlier. `0` when nothing has been
    /// recorded.
    newest: u64,
    cfg: StoreConfig,
    compactions: u64,
}

impl TableStore {
    fn new(space: QuerySpace, cfg: StoreConfig) -> Self {
        TableStore {
            space,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            tree: RTree::new(),
            newest: 0,
            cfg,
            compactions: 0,
        }
    }

    fn view(&self, id: u32) -> &StoredView {
        self.slots[id as usize].as_ref().expect("live view slot")
    }

    fn add_view(&mut self, v: StoredView) -> u32 {
        let region = (*v.region).clone();
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(v);
                id
            }
            None => {
                self.slots.push(Some(v));
                (self.slots.len() - 1) as u32
            }
        };
        self.tree.insert(region, id);
        self.live += 1;
        id
    }

    fn remove_view(&mut self, id: u32) -> StoredView {
        let v = self.slots[id as usize].take().expect("live view slot");
        self.tree.remove(&v.region, id);
        self.free.push(id);
        self.live -= 1;
        v
    }

    /// Insert a region, dropping views it contains and coalescing mergeable
    /// neighbours (two views whose union is a single box and whose
    /// timestamps may be conservatively merged to the older one). Both
    /// steps consult only the views the R-tree finds near the new region.
    fn insert(&mut self, region: Region, now: u64) {
        self.newest = self.newest.max(now);
        // Already fully covered by a newer-or-equal view: nothing to do.
        // (Inflate by 1 so the same candidate set also serves adjacency
        // coalescing below.)
        let near = self.tree.query(&region.inflate(1));
        if near.iter().any(|&id| {
            let v = self.view(id);
            v.stored_at >= now && v.region.contains(&region)
        }) {
            return;
        }

        let mut current = StoredView {
            region: Arc::new(region.clone()),
            stored_at: now,
        };

        if self.cfg.compaction {
            // Drop older views the new region swallows; their coverage is
            // absorbed by `current`.
            for &id in &near {
                let v = self.view(id);
                if current.region.contains(&v.region) && v.stored_at <= now {
                    self.remove_view(id);
                    self.compactions += 1;
                }
            }
            // Coalesce until fixpoint: each round re-queries around the
            // (possibly grown) current box, so chains of adjacent views
            // collapse just as the full-scan loop did.
            loop {
                let near = self.tree.query(&current.region.inflate(1));
                let mut merged = false;
                for id in near {
                    let v = self.view(id);
                    if let Some(union) = box_union(&v.region, &current.region) {
                        let old = self.remove_view(id);
                        current = StoredView {
                            region: Arc::new(union),
                            // Conservative freshness: the union is only as
                            // fresh as its stalest part.
                            stored_at: old.stored_at.min(current.stored_at),
                        };
                        self.compactions += 1;
                        merged = true;
                        break;
                    }
                }
                if !merged {
                    break;
                }
            }
        }

        self.add_view(current);
    }

    fn usable_views(&self, min_stored_at: u64) -> Vec<Arc<Region>> {
        self.slots
            .iter()
            .flatten()
            .filter(|v| v.stored_at >= min_stored_at)
            .map(|v| v.region.clone())
            .collect()
    }

    /// The usable views overlapping `probe`, via the R-tree when the table
    /// is big enough for the walk to pay off. Returns views in slot order
    /// (identical to the linear scan).
    fn probe(&self, probe: &Region, min_stored_at: u64) -> Vec<Arc<Region>> {
        if self.live < INDEX_MIN_VIEWS {
            return self
                .slots
                .iter()
                .flatten()
                .filter(|v| v.stored_at >= min_stored_at && v.region.overlaps(probe))
                .map(|v| v.region.clone())
                .collect();
        }
        // Leaf entries are the exact stored boxes, so every id returned
        // truly overlaps; ascending-id iteration reproduces slot order.
        self.tree
            .query(probe)
            .into_iter()
            .map(|id| self.view(id))
            .filter(|v| v.stored_at >= min_stored_at)
            .map(|v| v.region.clone())
            .collect()
    }

    /// Record that `region` (of the table named `table`) was retrieved at
    /// `now`, billed `spend` pages, journaling the insert and what it
    /// compacted into `journal` (`store_insert` / `store_compact`).
    pub(crate) fn record(
        &mut self,
        table: &str,
        region: Region,
        now: u64,
        spend: u64,
        journal: Option<&EventJournal>,
    ) {
        let c0 = self.compactions;
        self.insert(region, now);
        let c = self.compactions - c0;
        if let Some(j) = journal {
            let views = self.live as u64;
            j.emit(None, Severity::Debug, || EventKind::StoreInsert {
                table: table.to_string(),
                spend_pages: spend,
                views,
            });
            if c > 0 {
                j.emit(None, Severity::Info, || EventKind::StoreCompact {
                    table: table.to_string(),
                    compactions: c,
                });
            }
        }
    }

    /// See [`SemanticStore::views_overlapping`].
    pub(crate) fn views_overlapping(
        &self,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> Vec<Arc<Region>> {
        match consistency.min_stored_at(now) {
            Some(min) => self.probe(probe, min),
            None => Vec::new(),
        }
    }

    /// See [`SemanticStore::covers`].
    pub(crate) fn covers(&self, region: &Region, consistency: Consistency, now: u64) -> bool {
        let Some(min) = consistency.min_stored_at(now) else {
            return false;
        };
        region.subtract_all(&self.probe(region, min)).is_empty()
    }

    /// See [`SemanticStore::classify`].
    pub(crate) fn classify(
        &self,
        region: &Region,
        consistency: Consistency,
        now: u64,
    ) -> CoverClass {
        // Probe for overlapping views only: anything disjoint from the
        // region is a Miss regardless, which the empty-overlap check covers.
        let Some(min) = consistency.min_stored_at(now) else {
            return CoverClass::Miss;
        };
        let views = self.probe(region, min);
        if views.is_empty() {
            return CoverClass::Miss;
        }
        if region.subtract_all(&views).is_empty() {
            CoverClass::Full
        } else {
            CoverClass::Partial
        }
    }

    /// See [`SemanticStore::view_count`].
    pub(crate) fn view_count(&self) -> usize {
        self.live
    }

    /// See [`SemanticStore::compactions`].
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// See [`SemanticStore::coverage_fraction`].
    pub(crate) fn coverage_fraction(&self) -> f64 {
        let full = self.space.full_region();
        let volume = full.volume();
        if volume == 0 {
            return 0.0;
        }
        let uncovered: u128 = full
            .subtract_all(&self.usable_views(0))
            .iter()
            .fold(0, |acc, piece| acc.saturating_add(piece.volume()));
        let covered = volume.saturating_sub(uncovered);
        (covered as f64 / volume as f64).clamp(0.0, 1.0)
    }

    /// See [`SemanticStore::space`].
    pub(crate) fn space(&self) -> &QuerySpace {
        &self.space
    }
}

/// What [`crate::SharedSemanticStore::probe_rewrite`] returns: the
/// overlapping usable views, and an `Option` that is always `None` (the
/// store keeps no remainder pieces; callers subtract). The shape is kept
/// for `benchmark/src/ledger.rs`.
pub type RewriteProbe = (Vec<Arc<Region>>, Option<Vec<Region>>);

/// The union of two regions if it is exactly one box, else `None`.
///
/// True when one contains the other, or when they differ on a single
/// dimension where their intervals are adjacent/overlapping and agree
/// everywhere else.
fn box_union(a: &Region, b: &Region) -> Option<Region> {
    if a.contains(b) {
        return Some(a.clone());
    }
    if b.contains(a) {
        return Some(b.clone());
    }
    let mut differing = None;
    for d in 0..a.arity() {
        if a.dim(d) != b.dim(d) {
            if differing.is_some() {
                return None;
            }
            differing = Some(d);
        }
    }
    let d = differing?;
    let (ia, ib) = (a.dim(d), b.dim(d));
    if !ia.mergeable(&ib) {
        return None;
    }
    let mut dims = a.dims().to_vec();
    dims[d] = ia.merge(&ib);
    Some(Region::new(dims))
}

/// Coverage for every market table PayLess has touched: one shared
/// version per table, so a clone costs one pointer clone per table. It
/// records into no query's telemetry; the [`crate::SharedSemanticStore`]
/// over it reports to the metrics hub and the event journal.
#[derive(Debug, Clone, Default)]
pub struct SemanticStore {
    pub(crate) tables: HashMap<Arc<str>, Arc<TableStore>>,
    /// Config applied to tables registered from here on (existing tables
    /// keep theirs until [`SemanticStore::set_config`]).
    pub(crate) cfg: StoreConfig,
}

impl SemanticStore {
    /// An empty store with the default [`StoreConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply `cfg` to every registered table and to tables registered later.
    pub fn set_config(&mut self, cfg: StoreConfig) {
        self.cfg = cfg;
        for t in self.tables.values_mut() {
            Arc::make_mut(t).cfg = cfg;
        }
    }

    /// The highest `now` ever recorded into any table, `0` when there is
    /// none. A clock resumed over a recovered store starts after it, so no
    /// purchase is dated in the future — whether or not a surviving view
    /// still carries that timestamp.
    pub fn newest_stored_at(&self) -> u64 {
        self.tables.values().map(|t| t.newest).max().unwrap_or(0)
    }

    /// Register a table's query space (idempotent).
    pub fn register(&mut self, space: QuerySpace) {
        let cfg = self.cfg;
        self.tables
            .entry(space.table.clone())
            .or_insert_with(|| Arc::new(TableStore::new(space, cfg)));
    }

    /// The query space of `table`, if registered.
    pub fn space(&self, table: &str) -> Option<&QuerySpace> {
        self.tables.get(table).map(|t| t.space())
    }

    /// Record that `region` of `table` has been fully retrieved at time
    /// `now`.
    pub fn record(&mut self, table: &str, region: Region, now: u64) {
        let t = self
            .tables
            .get_mut(table)
            .unwrap_or_else(|| panic!("table `{table}` not registered in semantic store"));
        Arc::make_mut(t).record(table, region, now, 0, None);
    }

    /// The stored regions of `table` usable under `consistency` at `now`.
    /// Strong consistency yields no views (rewriting disabled).
    pub fn views(&self, table: &str, consistency: Consistency, now: u64) -> Vec<Arc<Region>> {
        let Some(min) = consistency.min_stored_at(now) else {
            return Vec::new();
        };
        self.tables
            .get(table)
            .map(|t| t.usable_views(min))
            .unwrap_or_default()
    }

    /// The usable views of `table` that overlap `probe`, served from the
    /// per-table R-tree. Views that do not overlap the probe region cannot
    /// contribute to its decomposition or remainder, so this is
    /// interchangeable with [`SemanticStore::views`] for per-region work —
    /// and what the optimizer's hot path should call.
    pub fn views_overlapping(
        &self,
        table: &str,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> Vec<Arc<Region>> {
        self.tables
            .get(table)
            .map(|t| t.views_overlapping(probe, consistency, now))
            .unwrap_or_default()
    }

    /// Number of stored view boxes for `table` (after coalescing), read
    /// from the live counter — no scan.
    pub fn view_count(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, |t| t.view_count())
    }

    /// Total compaction events (absorbed or coalesced views) for `table`
    /// since creation.
    pub fn compactions(&self, table: &str) -> u64 {
        self.tables.get(table).map_or(0, |t| t.compactions())
    }

    /// Fraction of `table`'s whole query space covered by stored views
    /// (freshness-agnostic): `1 − vol(full ∖ ⋃ views) / vol(full)`,
    /// subtracted on demand.
    pub fn coverage_fraction(&self, table: &str) -> f64 {
        self.tables
            .get(table)
            .map_or(0.0, |t| t.coverage_fraction())
    }

    /// `true` if `region` of `table` is fully covered by usable views.
    pub fn covers(&self, table: &str, region: &Region, consistency: Consistency, now: u64) -> bool {
        self.tables
            .get(table)
            .is_some_and(|t| t.covers(region, consistency, now))
    }

    /// Classify how much of `region` the usable views cover.
    pub fn classify(
        &self,
        table: &str,
        region: &Region,
        consistency: Consistency,
        now: u64,
    ) -> CoverClass {
        self.tables
            .get(table)
            .map_or(CoverClass::Miss, |t| t.classify(region, consistency, now))
    }

    /// The version `table` currently points at.
    #[cfg(test)]
    pub(crate) fn version(&self, table: &str) -> Option<&Arc<TableStore>> {
        self.tables.get(table)
    }
}

/// How well the store covers a region under a consistency policy — the
/// telemetry classification behind SQR hit/miss counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverClass {
    /// Entirely answerable from stored views: nothing to purchase.
    Full,
    /// Some usable views overlap the region: only remainders are purchased.
    Partial,
    /// No usable coverage: the whole region must be purchased.
    Miss,
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::region;
    use payless_types::{Column, Domain, Schema};

    fn space_1d() -> QuerySpace {
        QuerySpace::of(&Schema::new(
            "R",
            vec![Column::free("A", Domain::int(0, 100))],
        ))
    }

    fn store_1d() -> SemanticStore {
        let mut s = SemanticStore::new();
        s.register(space_1d());
        s
    }

    #[test]
    fn consistency_windows() {
        assert_eq!(Consistency::Weak.min_stored_at(100), Some(0));
        assert_eq!(Consistency::Window(10).min_stored_at(100), Some(90));
        assert_eq!(Consistency::Window(200).min_stored_at(100), Some(0));
        assert_eq!(Consistency::Strong.min_stored_at(100), None);
    }

    #[test]
    fn record_and_cover() {
        let mut s = store_1d();
        s.record("R", region![(10, 20)], 1);
        assert!(s.covers("R", &region![(12, 18)], Consistency::Weak, 2));
        assert!(!s.covers("R", &region![(5, 15)], Consistency::Weak, 2));
        assert!(!s.covers("R", &region![(12, 18)], Consistency::Strong, 2));
    }

    #[test]
    fn window_consistency_expires_views() {
        let mut s = store_1d();
        s.record("R", region![(10, 20)], 1);
        assert!(s.covers("R", &region![(10, 20)], Consistency::Window(5), 4));
        assert!(!s.covers("R", &region![(10, 20)], Consistency::Window(5), 10));
    }

    #[test]
    fn adjacent_views_coalesce() {
        let mut s = store_1d();
        s.record("R", region![(0, 9)], 1);
        s.record("R", region![(10, 19)], 2);
        assert_eq!(s.view_count("R"), 1);
        assert_eq!(s.compactions("R"), 1);
        assert!(s.covers("R", &region![(0, 19)], Consistency::Weak, 3));
        // Conservative freshness: the union carries the older timestamp
        // (1), so a window reaching back only to t=2 cannot use it.
        assert!(!s.covers("R", &region![(0, 19)], Consistency::Window(1), 3));
    }

    #[test]
    fn contained_views_are_absorbed() {
        let mut s = store_1d();
        s.record("R", region![(10, 20)], 1);
        s.record("R", region![(0, 50)], 2);
        assert_eq!(s.view_count("R"), 1);
        assert_eq!(
            s.views("R", Consistency::Weak, 3),
            vec![Arc::new(region![(0, 50)])]
        );
    }

    #[test]
    fn disjoint_views_stay_separate() {
        let mut s = store_1d();
        s.record("R", region![(0, 9)], 1);
        s.record("R", region![(50, 59)], 2);
        assert_eq!(s.view_count("R"), 2);
        assert_eq!(s.compactions("R"), 0);
    }

    #[test]
    fn chained_coalescing_reaches_fixpoint() {
        let mut s = store_1d();
        s.record("R", region![(0, 9)], 1);
        s.record("R", region![(20, 29)], 1);
        // The middle piece bridges both.
        s.record("R", region![(10, 19)], 2);
        assert_eq!(s.view_count("R"), 1);
        assert!(s.covers("R", &region![(0, 29)], Consistency::Weak, 3));
    }

    #[test]
    fn box_union_2d() {
        // Same extent on dim 1, adjacent on dim 0 -> merges.
        let a = region![(0, 4), (0, 9)];
        let b = region![(5, 9), (0, 9)];
        assert_eq!(box_union(&a, &b), Some(region![(0, 9), (0, 9)]));
        // Differ on two dims -> no box union.
        let c = region![(5, 9), (10, 19)];
        assert_eq!(box_union(&a, &c), None);
        // Disjoint on the differing dim -> none.
        let d = region![(6, 9), (0, 9)];
        assert_eq!(box_union(&a, &d), None);
    }

    #[test]
    fn unregistered_table_has_no_views() {
        let s = SemanticStore::new();
        assert!(s.views("X", Consistency::Weak, 0).is_empty());
        assert_eq!(s.view_count("X"), 0);
        assert!(s.space("X").is_none());
        assert!(s
            .views_overlapping("X", &region![(0, 1)], Consistency::Weak, 0)
            .is_empty());
    }

    #[test]
    fn coverage_fraction_tracks_union() {
        let mut s = store_1d();
        assert_eq!(s.coverage_fraction("R"), 0.0);
        s.record("R", region![(0, 49)], 1);
        assert!((s.coverage_fraction("R") - 50.0 / 101.0).abs() < 1e-9);
        // Overlapping view counts once.
        s.record("R", region![(25, 74)], 2);
        assert!((s.coverage_fraction("R") - 75.0 / 101.0).abs() < 1e-9);
        assert_eq!(s.coverage_fraction("unknown"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn recording_unregistered_table_panics() {
        let mut s = SemanticStore::new();
        s.record("X", region![(0, 1)], 0);
    }

    /// Every purchase stays: 300 disjoint slivers (one point apart, so
    /// nothing coalesces) are all still covered, one view each.
    #[test]
    fn every_purchase_is_kept() {
        let mut s = SemanticStore::new();
        s.register(QuerySpace::of(&Schema::new(
            "R",
            vec![Column::free("A", Domain::int(0, 1000))],
        )));
        for i in 0..300i64 {
            s.record("R", region![(i * 3, i * 3 + 1)], i as u64);
        }
        assert_eq!(s.view_count("R"), 300);
        for i in 0..300i64 {
            let sliver = region![(i * 3, i * 3 + 1)];
            assert!(s.covers("R", &sliver, Consistency::Weak, 300), "{sliver}");
        }
        assert!((s.coverage_fraction("R") - 600.0 / 1001.0).abs() < 1e-9);
    }

    #[test]
    fn compaction_toggle_keeps_views_verbatim() {
        let mut s = SemanticStore::new();
        s.register(space_1d());
        s.set_config(StoreConfig { compaction: false });
        s.record("R", region![(0, 9)], 1);
        s.record("R", region![(10, 19)], 2);
        assert_eq!(s.view_count("R"), 2, "no coalescing with compaction off");
        assert_eq!(s.compactions("R"), 0);
        assert!(s.covers("R", &region![(0, 19)], Consistency::Weak, 3));
    }

    fn space_2d() -> QuerySpace {
        QuerySpace::of(&Schema::new(
            "G",
            vec![
                Column::free("A", Domain::int(0, 255)),
                Column::free("B", Domain::int(0, 255)),
            ],
        ))
    }

    /// Reference implementation the index must agree with: linear scan,
    /// freshness filter, overlap filter, stored order.
    fn linear_probe(
        s: &SemanticStore,
        table: &str,
        probe: &Region,
        consistency: Consistency,
        now: u64,
    ) -> Vec<Arc<Region>> {
        s.views(table, consistency, now)
            .into_iter()
            .filter(|v| v.overlaps(probe))
            .collect()
    }

    #[test]
    fn indexed_probe_matches_linear_scan_when_fragmented() {
        let mut s = SemanticStore::new();
        s.register(space_2d());
        // Many disjoint views so coalescing leaves them separate and the
        // store is comfortably past the index threshold.
        for i in 0..40i64 {
            s.record("G", region![(i * 6, i * 6 + 3), (0, 10)], i as u64);
        }
        assert!(s.view_count("G") >= INDEX_MIN_VIEWS);
        for probe in [
            region![(0, 5), (0, 255)],
            region![(100, 140), (0, 255)],
            region![(0, 255), (0, 255)],
            region![(250, 255), (0, 255)],
        ] {
            let fast = s.views_overlapping("G", &probe, Consistency::Weak, 100);
            let slow = linear_probe(&s, "G", &probe, Consistency::Weak, 100);
            assert_eq!(fast, slow, "probe {probe} diverged from linear scan");
        }
        // Freshness filtering holds through the index too.
        let fast = s.views_overlapping(
            "G",
            &region![(0, 255), (0, 255)],
            Consistency::Window(5),
            30,
        );
        let slow = linear_probe(
            &s,
            "G",
            &region![(0, 255), (0, 255)],
            Consistency::Window(5),
            30,
        );
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        fn arb_box(span: i64) -> impl Strategy<Value = Region> {
            proptest::collection::vec((0..span).prop_flat_map(move |lo| (Just(lo), lo..span)), 2)
                .prop_map(|dims| {
                    Region::new(dims.into_iter().map(|(l, h)| Interval::new(l, h)).collect())
                })
        }

        use payless_geometry::Interval;

        proptest! {
            /// The indexed probe returns exactly the linear scan's view set
            /// (same views, same order) for any insert/query sequence.
            #[test]
            fn indexed_probe_equals_linear_scan(
                inserts in proptest::collection::vec((arb_box(256), 0u64..16), 1..24),
                probes in proptest::collection::vec(arb_box(256), 1..6),
                window in 0u64..8,
                now in 8u64..24,
            ) {
                let mut s = SemanticStore::new();
                s.register(space_2d());
                for (r, t) in &inserts {
                    s.record("G", r.clone(), *t);
                }
                // 0 doubles as "no window": exercise Weak too.
                let consistency = match window {
                    0 => Consistency::Weak,
                    w => Consistency::Window(w),
                };
                for probe in &probes {
                    let fast = s.views_overlapping("G", probe, consistency, now);
                    let slow = linear_probe(&s, "G", probe, consistency, now);
                    prop_assert_eq!(&fast, &slow, "probe {} diverged", probe);
                }
            }
        }
    }
}
