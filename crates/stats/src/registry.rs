//! Per-table statistics registry, with a choice of backend.
//!
//! The paper (Section 3): "PayLess is indeed amenable for any updatable
//! statistic. As our focus … is to give a proof-of-concept first solution,
//! we will test other updatable statistics in place of ISOMER in the next
//! version." Three backends are provided; serving always runs the default,
//! and the other two are the `stats_accuracy` binary's comparison controls:
//!
//! * [`StatsBackend::MultiDim`] — STHoles-style multidimensional buckets
//!   ([`TableStats`]): exactly consistent with the newest observation,
//!   correlation-aware, cheap per feedback;
//! * [`StatsBackend::PerDimension`] — classic independent 1-D feedback
//!   histograms ([`PerDimStats`]): cheaper still, correlation-blind;
//! * [`StatsBackend::Isomer`] — full ISOMER discipline
//!   ([`IsomerStats`]): retains recent observations as constraints and
//!   refits by iterative proportional fitting, staying consistent with all
//!   of them.

use std::collections::HashMap;
use std::sync::Arc;

use payless_geometry::{QuerySpace, Region};
use payless_types::Schema;

use crate::independence::PerDimStats;
use crate::isomer::IsomerStats;
use crate::table_stats::TableStats;

/// Which cardinality model backs each table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsBackend {
    /// Multidimensional feedback buckets (the default; ISOMER-flavoured).
    #[default]
    MultiDim,
    /// Independent per-dimension 1-D histograms.
    PerDimension,
    /// Full ISOMER: retained constraints + iterative proportional fitting.
    Isomer,
}

/// One table's model, whichever backend it uses.
#[derive(Debug, Clone)]
pub enum TableModel {
    /// Multidimensional bucket model.
    Multi(TableStats),
    /// Independence-assuming per-dimension model.
    PerDim(PerDimStats),
    /// Constraint-retaining ISOMER model.
    Isomer(IsomerStats),
}

impl TableModel {
    /// The table's query space.
    pub fn space(&self) -> &QuerySpace {
        match self {
            TableModel::Multi(m) => m.space(),
            TableModel::PerDim(m) => m.space(),
            TableModel::Isomer(m) => m.space(),
        }
    }

    /// Published table cardinality.
    pub fn cardinality(&self) -> u64 {
        match self {
            TableModel::Multi(m) => m.cardinality(),
            TableModel::PerDim(m) => m.cardinality(),
            TableModel::Isomer(m) => m.cardinality(),
        }
    }

    /// Estimated tuples inside `region`.
    pub fn estimate(&self, region: &Region) -> f64 {
        match self {
            TableModel::Multi(m) => m.estimate(region),
            TableModel::PerDim(m) => m.estimate(region),
            TableModel::Isomer(m) => m.estimate(region),
        }
    }

    /// Estimated distinct values of dimension `dim` inside `region`.
    pub fn distinct_in(&self, region: &Region, dim: usize) -> f64 {
        match self {
            TableModel::Multi(m) => m.distinct_in(region, dim),
            TableModel::PerDim(m) => m.distinct_in(region, dim),
            TableModel::Isomer(m) => m.distinct_in(region, dim),
        }
    }

    /// Record an observation.
    pub fn feedback(&mut self, region: &Region, actual: u64) {
        match self {
            TableModel::Multi(m) => m.feedback(region, actual),
            TableModel::PerDim(m) => m.feedback(region, actual),
            TableModel::Isomer(m) => m.feedback(region, actual),
        }
    }

    /// Learned bucket count (zero for the per-dim backend, whose buckets
    /// live inside its 1-D models); exposed for the bench harness.
    pub fn bucket_count(&self) -> usize {
        match self {
            TableModel::Multi(m) => m.bucket_count(),
            TableModel::PerDim(_) => 0,
            TableModel::Isomer(_) => 0,
        }
    }
}

/// All statistics PayLess maintains, keyed by table name.
///
/// Created from schemas + published cardinalities; refined through
/// [`StatsRegistry::feedback`] as results arrive (step 5.4 of the paper's
/// architecture diagram). Each table's model is one shared version: a
/// clone (the optimizer's snapshot) costs one pointer clone per table, and
/// a write copies a model only while a clone still holds it.
#[derive(Debug, Clone, Default)]
pub struct StatsRegistry {
    tables: HashMap<Arc<str>, Arc<TableModel>>,
    backend: StatsBackend,
}

impl StatsRegistry {
    /// An empty registry with the default (multidimensional) backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Choose the backend used for tables registered from now on.
    pub fn with_backend(mut self, backend: StatsBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Register a table with its published cardinality.
    pub fn register(&mut self, schema: &Schema, cardinality: u64) {
        let space = QuerySpace::of(schema);
        let model = match self.backend {
            StatsBackend::MultiDim => TableModel::Multi(TableStats::new(space, cardinality)),
            StatsBackend::PerDimension => TableModel::PerDim(PerDimStats::new(space, cardinality)),
            StatsBackend::Isomer => TableModel::Isomer(IsomerStats::new(space, cardinality)),
        };
        self.tables.insert(schema.table.clone(), Arc::new(model));
    }

    /// Statistics for `table`, if registered.
    pub fn table(&self, table: &str) -> Option<&TableModel> {
        self.tables.get(table).map(|t| &**t)
    }

    /// Mutable statistics for `table`, if registered.
    pub fn table_mut(&mut self, table: &str) -> Option<&mut TableModel> {
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
    fn per_dimension_backend_registers_and_learns() {
        let mut reg = StatsRegistry::new().with_backend(StatsBackend::PerDimension);
        reg.register(&schema(), 100);
        assert!(matches!(reg.table("R"), Some(TableModel::PerDim(_))));
        reg.feedback("R", &region![(0, 4)], 90);
        let est = reg.estimate("R", &region![(0, 4)]).unwrap();
        assert!((est - 90.0).abs() < 1.0, "{est}");
    }

    #[test]
    fn backends_share_the_registry_interface() {
        for backend in [
            StatsBackend::MultiDim,
            StatsBackend::PerDimension,
            StatsBackend::Isomer,
        ] {
            let mut reg = StatsRegistry::new().with_backend(backend);
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
            assert!(
                (live - before).abs() > 1.0,
                "{backend:?}: {before} -> {live}"
            );
        }
    }
}
