//! The full ISOMER discipline: stay consistent with *all* retained feedback,
//! not just the newest observation.
//!
//! ISOMER (Srivastava et al., ICDE'06) keeps query-feedback records as
//! constraints and maintains the maximum-entropy histogram satisfying them.
//! This implementation approximates the max-entropy solve with **iterative
//! proportional fitting** over the bucket model: the retained constraints
//! are replayed in rounds against a fresh uniform model; each replay makes
//! its constraint exact while disturbing the others as little as the bucket
//! geometry allows, and a few rounds converge to a model consistent with
//! every retained observation (exactly the IPF recipe for marginal
//! constraints).
//!
//! Compared to [`TableStats`] (which is exact only for the newest
//! observation and lets older ones drift as buckets split), this backend
//! trades rebuild time for durable consistency — the trade ISOMER itself
//! makes against simpler feedback histograms.

use std::collections::VecDeque;

use payless_geometry::{QuerySpace, Region};

use crate::table_stats::TableStats;

/// How many recent observations are retained as constraints.
pub const DEFAULT_MAX_CONSTRAINTS: usize = 48;

/// How many replay rounds of iterative scaling per rebuild.
const IPF_ROUNDS: usize = 3;

/// ISOMER-style statistics for one table.
#[derive(Debug, Clone)]
pub struct IsomerStats {
    space: QuerySpace,
    cardinality: u64,
    /// Retained feedback records, oldest first.
    constraints: VecDeque<(Region, u64)>,
    max_constraints: usize,
    /// The current fitted model.
    model: TableStats,
}

impl IsomerStats {
    /// A fresh model knowing only cardinality and domains.
    pub fn new(space: QuerySpace, cardinality: u64) -> Self {
        let model = TableStats::new(space.clone(), cardinality);
        IsomerStats {
            space,
            cardinality,
            constraints: VecDeque::new(),
            max_constraints: DEFAULT_MAX_CONSTRAINTS,
            model,
        }
    }

    /// Override the constraint-retention cap.
    pub fn with_max_constraints(mut self, cap: usize) -> Self {
        self.max_constraints = cap.max(1);
        self
    }

    /// The table's query space.
    pub fn space(&self) -> &QuerySpace {
        &self.space
    }

    /// Published table cardinality.
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Number of retained constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Estimated tuples inside `region`.
    pub fn estimate(&self, region: &Region) -> f64 {
        self.model.estimate(region)
    }

    /// Estimated distinct values on dimension `dim` inside `region`.
    pub fn distinct_in(&self, region: &Region, dim: usize) -> f64 {
        self.model.distinct_in(region, dim)
    }

    /// Record an observation and refit the model to all retained
    /// constraints.
    pub fn feedback(&mut self, region: &Region, actual: u64) {
        // A new observation supersedes any retained constraint on the same
        // region (append-only markets may still revise counts as data
        // arrives).
        self.constraints.retain(|(r, _)| r != region);
        self.constraints.push_back((region.clone(), actual));
        while self.constraints.len() > self.max_constraints {
            self.constraints.pop_front();
        }
        self.refit();
    }

    /// Iterative proportional fitting: replay the retained constraints in
    /// rounds against a fresh model.
    fn refit(&mut self) {
        let mut model = TableStats::new(self.space.clone(), self.cardinality);
        for _ in 0..IPF_ROUNDS {
            for (region, actual) in &self.constraints {
                model.feedback(region, *actual);
            }
        }
        self.model = model;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::region;
    use payless_types::{Column, Domain, Schema};

    fn space_1d() -> QuerySpace {
        QuerySpace::of(&Schema::new(
            "R",
            vec![Column::free("A", Domain::int(0, 99))],
        ))
    }

    #[test]
    fn consistent_with_all_constraints_not_just_newest() {
        let mut s = IsomerStats::new(space_1d(), 1000);
        s.feedback(&region![(0, 49)], 600);
        s.feedback(&region![(25, 74)], 500);
        s.feedback(&region![(50, 99)], 400);
        // All three observations hold simultaneously (they are mutually
        // consistent: 600 + 400 = 1000, and [25,74] bridging them at 500).
        assert!((s.estimate(&region![(0, 49)]) - 600.0).abs() < 25.0);
        assert!((s.estimate(&region![(25, 74)]) - 500.0).abs() < 25.0);
        assert!((s.estimate(&region![(50, 99)]) - 400.0).abs() < 1e-6);
    }

    #[test]
    fn simple_model_drifts_where_isomer_holds() {
        // The scenario that motivates constraint retention.
        let teach = |stats_feedback: &mut dyn FnMut(&Region, u64)| {
            stats_feedback(&region![(0, 59)], 900);
            stats_feedback(&region![(40, 99)], 500);
            stats_feedback(&region![(20, 79)], 700);
        };
        let mut isomer = IsomerStats::new(space_1d(), 1000);
        teach(&mut |r, a| isomer.feedback(r, a));
        let mut simple = TableStats::new(space_1d(), 1000);
        teach(&mut |r, a| simple.feedback(r, a));
        // The FIRST constraint: ISOMER should still honour it better than
        // (or as well as) the drift-prone simple model.
        let err_isomer = (isomer.estimate(&region![(0, 59)]) - 900.0).abs();
        let err_simple = (simple.estimate(&region![(0, 59)]) - 900.0).abs();
        assert!(
            err_isomer <= err_simple + 1e-6,
            "isomer {err_isomer} vs simple {err_simple}"
        );
        // The newest constraint is exact in both.
        assert!((isomer.estimate(&region![(20, 79)]) - 700.0).abs() < 20.0);
    }

    #[test]
    fn repeated_region_supersedes() {
        let mut s = IsomerStats::new(space_1d(), 1000);
        s.feedback(&region![(0, 9)], 100);
        s.feedback(&region![(0, 9)], 300);
        assert_eq!(s.constraint_count(), 1);
        assert!((s.estimate(&region![(0, 9)]) - 300.0).abs() < 1e-6);
    }

    #[test]
    fn constraint_cap_evicts_oldest() {
        let mut s = IsomerStats::new(space_1d(), 10_000).with_max_constraints(4);
        for i in 0..10i64 {
            s.feedback(&region![(i * 10, i * 10 + 9)], 50);
        }
        assert_eq!(s.constraint_count(), 4);
        // The retained tail is honoured.
        assert!((s.estimate(&region![(90, 99)]) - 50.0).abs() < 1e-6);
    }

    #[test]
    fn estimates_stay_finite_under_conflicts() {
        // Deliberately inconsistent constraints (stale counts): the fit must
        // stay finite and non-negative.
        let mut s = IsomerStats::new(space_1d(), 100);
        s.feedback(&region![(0, 49)], 90);
        s.feedback(&region![(0, 99)], 50); // contradicts the first
        let est = s.estimate(&region![(0, 49)]);
        assert!(est.is_finite() && est >= 0.0);
    }
}
