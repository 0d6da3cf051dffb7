//! Per-table statistics registry.
//!
//! The paper (Section 3): "PayLess is indeed amenable for any updatable
//! statistic." PayLess runs one: every registered table gets a
//! multidimensional feedback model ([`TableStats`]).

use std::collections::HashMap;
use std::sync::Arc;

use payless_geometry::{QuerySpace, Region};
use payless_types::Schema;

use crate::table_stats::TableStats;

/// All statistics PayLess maintains, keyed by table name.
///
/// Created from schemas + published cardinalities; refined through
/// [`StatsRegistry::feedback`] as results arrive (step 5.4 of the paper's
/// architecture diagram). Each table's model is one shared version: a
/// clone (the optimizer's snapshot) costs one pointer clone per table, and
/// a write copies a model only while a clone still holds it.
#[derive(Debug, Clone, Default)]
pub struct StatsRegistry {
    tables: HashMap<Arc<str>, Arc<TableStats>>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table with its published cardinality.
    pub fn register(&mut self, schema: &Schema, cardinality: u64) {
        let model = TableStats::new(QuerySpace::of(schema), cardinality);
        self.tables.insert(schema.table.clone(), Arc::new(model));
    }

    /// Statistics for `table`, if registered.
    pub fn table(&self, table: &str) -> Option<&TableStats> {
        self.tables.get(table).map(|t| &**t)
    }

    /// Mutable statistics for `table`, if registered.
    pub fn table_mut(&mut self, table: &str) -> Option<&mut TableStats> {
        self.tables.get_mut(table).map(Arc::make_mut)
    }

    /// Estimated tuples of `table` inside `region`; `None` if unregistered.
    pub fn estimate(&self, table: &str, region: &Region) -> Option<f64> {
        self.tables.get(table).map(|t| t.estimate(region))
    }

    /// Record an observation for `table`.
    pub fn feedback(&mut self, table: &str, region: &Region, actual: u64) {
        if let Some(t) = self.table_mut(table) {
            t.feedback(region, actual);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::region;
    use payless_types::{Column, Domain};

    fn schema() -> Schema {
        Schema::new("R", vec![Column::free("A", Domain::int(0, 9))])
    }

    #[test]
    fn register_and_estimate() {
        let mut reg = StatsRegistry::new();
        reg.register(&schema(), 100);
        assert!((reg.estimate("R", &region![(0, 4)]).unwrap() - 50.0).abs() < 1e-9);
        assert!(reg.estimate("S", &region![(0, 4)]).is_none());
        assert!(reg.table("R").is_some());
        assert!(reg.table("S").is_none());
    }

    #[test]
    fn feedback_routes_to_table() {
        let mut reg = StatsRegistry::new();
        reg.register(&schema(), 100);
        reg.feedback("R", &region![(0, 4)], 90);
        assert!((reg.estimate("R", &region![(0, 4)]).unwrap() - 90.0).abs() < 1e-6);
        // Feedback to an unknown table is a no-op, not a panic.
        reg.feedback("S", &region![(0, 4)], 1);
    }

    #[test]
    fn table_mut_allows_configuration() {
        let mut reg = StatsRegistry::new();
        reg.register(&schema(), 100);
        let t = reg.table_mut("R").unwrap();
        t.feedback(&region![(0, 0)], 3);
        assert!(reg.table("R").unwrap().bucket_count() > 0);
    }

    #[test]
    fn snapshot_shares_the_model_until_feedback() {
        let mut reg = StatsRegistry::new();
        reg.register(&schema(), 100);
        let m = reg.table("R").unwrap();
        assert_eq!(m.cardinality(), 100);
        assert_eq!(m.space().arity(), 1);
        assert!(m.distinct_in(&region![(0, 9)], 0) <= 10.0);

        // A snapshot shares the model until the live registry learns,
        // and keeps its estimate after.
        let snap = reg.clone();
        assert!(Arc::ptr_eq(&snap.tables["R"], &reg.tables["R"]));
        let before = snap.estimate("R", &region![(0, 4)]).unwrap();
        reg.feedback("R", &region![(0, 4)], 90);
        assert!(!Arc::ptr_eq(&snap.tables["R"], &reg.tables["R"]));
        assert_eq!(snap.estimate("R", &region![(0, 4)]).unwrap(), before);
        let live = reg.estimate("R", &region![(0, 4)]).unwrap();
        assert!((live - before).abs() > 1.0, "{before} -> {live}");
    }
}
