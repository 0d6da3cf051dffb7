//! The alternative statistic the paper contrasts with ISOMER: independent
//! per-dimension feedback histograms.
//!
//! One 1-D bucket model per dimension; joint estimates are product-form
//! (`N · Π selᵢ`), i.e. the classic attribute-value-independence
//! assumption. Feedback on a multi-dimensional region is *backed out* to
//! each dimension by dividing through the other dimensions' current
//! selectivities. Cheaper than the multidimensional model, exact on
//! single-attribute workloads, and systematically wrong under correlation —
//! which is precisely the trade-off the `stats_accuracy` bench measures.

use payless_geometry::{DimKind, QuerySpace, Region};
use payless_types::{Column, Domain, Schema};

use crate::table_stats::TableStats;

/// Per-dimension (independence-assuming) statistics for one table.
#[derive(Debug, Clone)]
pub struct PerDimStats {
    space: QuerySpace,
    cardinality: u64,
    /// One 1-D model per dimension of the query space.
    dims: Vec<TableStats>,
}

impl PerDimStats {
    /// A fresh model: uniform marginals on every dimension.
    pub fn new(space: QuerySpace, cardinality: u64) -> Self {
        let dims = space
            .dims()
            .iter()
            .map(|d| {
                let domain = match &d.kind {
                    DimKind::Int { lo, hi } => Domain::int(*lo, *hi),
                    DimKind::Cat { values } => Domain::Categorical(values.clone()),
                };
                let schema = Schema::new(
                    format!("{}#{}", space.table, d.name),
                    vec![Column::free(d.name.clone(), domain)],
                );
                TableStats::new(QuerySpace::of(&schema), cardinality)
            })
            .collect();
        PerDimStats {
            space,
            cardinality,
            dims,
        }
    }

    /// The table's query space.
    pub fn space(&self) -> &QuerySpace {
        &self.space
    }

    /// Published table cardinality.
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    fn marginal(&self, region: &Region, d: usize) -> f64 {
        let sub = Region::new(vec![region.dim(d)]);
        self.dims[d].estimate(&sub)
    }

    /// Product-form estimate: `N · Π (marginalᵢ / N)`.
    pub fn estimate(&self, region: &Region) -> f64 {
        let n = self.cardinality as f64;
        if n <= 0.0 {
            return 0.0;
        }
        let mut est = n;
        for d in 0..self.dims.len() {
            est *= (self.marginal(region, d) / n).clamp(0.0, 1.0);
        }
        est
    }

    /// Estimated distinct values on dimension `dim` within `region`.
    pub fn distinct_in(&self, region: &Region, dim: usize) -> f64 {
        let width = region.dim(dim).width() as f64;
        width.min(self.estimate(region)).max(0.0)
    }

    /// Back the joint observation out to each dimension's marginal:
    /// `marginalᵈ ≈ actual / Π_{d'≠d} sel_{d'}`, clamped to
    /// `[actual, cardinality]` (a marginal can never be below the joint nor
    /// above the table).
    pub fn feedback(&mut self, region: &Region, actual: u64) {
        let n = self.cardinality as f64;
        if n <= 0.0 {
            return;
        }
        let sels: Vec<f64> = (0..self.dims.len())
            .map(|d| (self.marginal(region, d) / n).clamp(1e-9, 1.0))
            .collect();
        for d in 0..self.dims.len() {
            let others: f64 = sels
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != d)
                .map(|(_, s)| s)
                .product();
            let implied =
                (actual as f64 / others.max(1e-9)).clamp(actual as f64, n.max(actual as f64));
            // Damp toward the current marginal: the back-out divides by the
            // *other* dimensions' (possibly wrong) selectivities, so a raw
            // update oscillates. Exponential smoothing keeps it stable.
            let current = self.marginal(region, d);
            let blended = 0.5 * implied + 0.5 * current;
            let sub = Region::new(vec![region.dim(d)]);
            self.dims[d].feedback(&sub, blended.round().max(actual as f64) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::region;

    fn space_2d() -> QuerySpace {
        QuerySpace::of(&Schema::new(
            "R",
            vec![
                Column::free("a", Domain::int(0, 99)),
                Column::free("b", Domain::int(0, 99)),
            ],
        ))
    }

    #[test]
    fn uniform_before_feedback() {
        let s = PerDimStats::new(space_2d(), 10_000);
        // 10% x 10% of a 10k table = 100.
        let est = s.estimate(&region![(0, 9), (0, 9)]);
        assert!((est - 100.0).abs() < 1e-6, "{est}");
        assert!((s.estimate(&s.space().full_region().clone()) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn single_dimension_feedback_is_exact() {
        let mut s = PerDimStats::new(space_2d(), 10_000);
        // Observe a slab constrained on one dimension only.
        s.feedback(&region![(0, 9), (0, 99)], 5000);
        let est = s.estimate(&region![(0, 9), (0, 99)]);
        assert!((est - 5000.0).abs() < 1.0, "{est}");
        // The other dimension's marginal is untouched at uniformity.
        let est2 = s.estimate(&region![(0, 99), (0, 49)]);
        assert!((est2 - 5000.0).abs() < 1.0, "{est2}");
    }

    #[test]
    fn joint_feedback_backs_out_marginals() {
        let mut s = PerDimStats::new(space_2d(), 10_000);
        // A quadrant with twice the uniform mass.
        s.feedback(&region![(0, 9), (0, 9)], 200);
        let est = s.estimate(&region![(0, 9), (0, 9)]);
        // Independence cannot represent the joint exactly, but the estimate
        // must move toward the observation from the uniform 100.
        assert!(est > 100.0, "{est}");
        assert!(est <= 10_000.0);
    }

    #[test]
    fn correlation_blind_spot() {
        // The model's defining weakness: perfectly correlated mass on the
        // diagonal. Teach both marginals, then probe an off-diagonal box —
        // independence predicts mass where there is none. (The multi-dim
        // bucket model learns the hole instead.)
        let mut s = PerDimStats::new(space_2d(), 10_000);
        s.feedback(&region![(0, 49), (0, 49)], 5_000);
        s.feedback(&region![(50, 99), (50, 99)], 5_000);
        let off_diag = s.estimate(&region![(0, 49), (50, 99)]);
        let mut multi = TableStats::new(space_2d(), 10_000);
        multi.feedback(&region![(0, 49), (0, 49)], 5_000);
        multi.feedback(&region![(50, 99), (50, 99)], 5_000);
        let off_diag_multi = multi.estimate(&region![(0, 49), (50, 99)]);
        // Independence keeps predicting rows off the learned box; the
        // multidimensional model knows better.
        assert!(off_diag > off_diag_multi, "{off_diag} vs {off_diag_multi}");
    }

    #[test]
    fn distinct_bounded() {
        let s = PerDimStats::new(space_2d(), 50);
        assert!(s.distinct_in(&region![(0, 99), (0, 99)], 0) <= 50.0);
        assert!((s.distinct_in(&region![(0, 4), (0, 99)], 0) - 2.5).abs() < 1e-6);
    }
}
