//! Feedback-driven statistics for PayLess.
//!
//! Section 4.3 of the paper: the optimizer begins with only the *basic*
//! statistics a data market publishes — table cardinality and per-attribute
//! domains — and estimates with the "textbook methods (using the domain size
//! and uniform distribution assumption)". Every result retrieved from the
//! market is then fed back to refine the model (the paper plugs in ISOMER
//! [Srivastava et al., ICDE'06] and notes PayLess "is amenable for any
//! updatable statistic").
//!
//! This crate implements that updatable statistic as a **flat STHoles-style
//! bucket model** per table:
//!
//! * the model is a set of *disjoint* regions ("buckets") with known tuple
//!   counts, learned from query feedback;
//! * everything outside the buckets is estimated uniformly from the mass not
//!   yet accounted for (`cardinality − Σ bucket counts` spread over the
//!   unexplored volume) — exactly the uniformity assumption, but confined to
//!   the unexplored part of the space;
//! * feedback *drills holes*: buckets partially overlapping the observed
//!   region are split along it, and the pieces inside the region are rescaled
//!   (iterative-proportional-fitting style) so the model is **exactly
//!   consistent with the newest observation** — ISOMER's defining property.
//!
//! The model answers the two questions the optimizer asks:
//! [`TableStats::estimate`] (tuples in a region — transaction pricing) and
//! [`TableStats::distinct_in`] (distinct values on one dimension — bind-join
//! fan-out).

#![warn(missing_docs)]

pub mod independence;
pub mod isomer;
pub mod qerror;
pub mod registry;
pub mod table_stats;

use payless_geometry::{QuerySpace, Region};

/// The interface every cardinality model exposes to the rewriter and
/// optimizer. Implemented by both backends and the registry's
/// [`TableModel`] wrapper.
pub trait CardinalityModel {
    /// The table's query space.
    fn space(&self) -> &QuerySpace;
    /// Published table cardinality.
    fn cardinality(&self) -> u64;
    /// Estimated tuples inside `region`.
    fn estimate(&self, region: &Region) -> f64;
    /// Estimated distinct values on dimension `dim` inside `region`.
    fn distinct_in(&self, region: &Region, dim: usize) -> f64;
}

macro_rules! impl_cardinality_model {
    ($t:ty) => {
        impl CardinalityModel for $t {
            fn space(&self) -> &QuerySpace {
                <$t>::space(self)
            }
            fn cardinality(&self) -> u64 {
                <$t>::cardinality(self)
            }
            fn estimate(&self, region: &Region) -> f64 {
                <$t>::estimate(self, region)
            }
            fn distinct_in(&self, region: &Region, dim: usize) -> f64 {
                <$t>::distinct_in(self, region, dim)
            }
        }
    };
}
impl_cardinality_model!(table_stats::TableStats);
impl_cardinality_model!(independence::PerDimStats);
impl_cardinality_model!(isomer::IsomerStats);
impl_cardinality_model!(registry::TableModel);

pub use independence::PerDimStats;
pub use isomer::IsomerStats;
pub use qerror::{q_error, QErrorAccumulator, QErrorSummary, Q_ERROR_CAP};
pub use registry::{StatsBackend, StatsRegistry, TableModel};
pub use table_stats::TableStats;
