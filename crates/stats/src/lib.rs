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
//! This crate implements that updatable statistic, and only that one, as a
//! **flat STHoles-style bucket model** per table ([`TableStats`]):
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
//!
//! Full ISOMER (retained constraints refitted by iterative proportional
//! fitting) and independent per-dimension histograms were measured against
//! it on the real-data workload and removed: ISOMER paid the same and
//! learned less, and the per-dimension model's error rose with feedback
//! (EXPERIMENTS.md, "One statistic").

#![warn(missing_docs)]

pub mod qerror;
pub mod registry;
pub mod table_stats;

pub use qerror::{q_error, QErrorAccumulator, QErrorSummary, Q_ERROR_CAP};
pub use registry::StatsRegistry;
pub use table_stats::TableStats;
