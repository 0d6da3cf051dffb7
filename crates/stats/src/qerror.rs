//! q-error: the standard multiplicative accuracy score for cardinality
//! estimates (Moerkotte et al., VLDB'09): `max(est/actual, actual/est)`.
//!
//! A perfect estimate scores exactly 1.0; a factor-of-k miss scores k in
//! either direction. Zeros are the classic trap — an estimator that says
//! "0 rows" for a region that holds rows has an infinite ratio — so this
//! module clamps every score into `[1, Q_ERROR_CAP]` and treats "both
//! sides empty" as perfect.

use payless_json::{Json, ToJson};

/// Upper clamp for q-error scores, applied when either side of the ratio
/// is zero (or the ratio overflows). Large enough that any real estimation
/// miss stays distinguishable, small enough to keep aggregates finite.
pub const Q_ERROR_CAP: f64 = 1e9;

/// Score an estimate against the observed actual.
///
/// * both sides zero (or negative, which estimators never mean) → `1.0`;
/// * exactly one side zero → [`Q_ERROR_CAP`] (an infinite ratio, clamped);
/// * otherwise `max(est/actual, actual/est)` clamped into
///   `[1, Q_ERROR_CAP]`. Non-finite estimates clamp to the cap.
pub fn q_error(estimate: f64, actual: f64) -> f64 {
    if !estimate.is_finite() || !actual.is_finite() {
        return Q_ERROR_CAP;
    }
    let est = estimate.max(0.0);
    let act = actual.max(0.0);
    if est == 0.0 && act == 0.0 {
        return 1.0;
    }
    if est == 0.0 || act == 0.0 {
        return Q_ERROR_CAP;
    }
    (est / act).max(act / est).clamp(1.0, Q_ERROR_CAP)
}

/// Aggregate of a set of q-error samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QErrorSummary {
    /// Number of scored estimates.
    pub count: u64,
    /// Geometric mean (the natural average for a multiplicative score).
    pub geo_mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Worst score.
    pub max: f64,
}

impl ToJson for QErrorSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("geo_mean", self.geo_mean.to_json()),
            ("p50", self.p50.to_json()),
            ("p95", self.p95.to_json()),
            ("max", self.max.to_json()),
        ])
    }
}

/// Accumulates q-error samples and summarises them.
#[derive(Debug, Clone, Default)]
pub struct QErrorAccumulator {
    samples: Vec<f64>,
}

impl QErrorAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one q-error score (already clamped by [`q_error`]).
    pub fn record(&mut self, q: f64) {
        self.samples.push(q);
    }

    /// Number of samples so far.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Summarise the samples seen so far.
    pub fn summary(&self) -> QErrorSummary {
        if self.samples.is_empty() {
            return QErrorSummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));
        let pct = |p: f64| {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        let log_sum: f64 = sorted.iter().map(|q| q.ln()).sum();
        QErrorSummary {
            count: sorted.len() as u64,
            geo_mean: (log_sum / sorted.len() as f64).exp(),
            p50: pct(0.50),
            p95: pct(0.95),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_estimate_scores_one() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
        // Slightly-off estimates score just above 1, symmetrically.
        let over = q_error(110.0, 100.0);
        let under = q_error(100.0, 110.0);
        assert!((over - 1.1).abs() < 1e-12);
        assert_eq!(over, under);
    }

    #[test]
    fn zero_estimates_clamp_finite() {
        assert_eq!(q_error(0.0, 50.0), Q_ERROR_CAP);
        assert_eq!(q_error(50.0, 0.0), Q_ERROR_CAP);
        assert_eq!(q_error(f64::NAN, 10.0), Q_ERROR_CAP);
        assert_eq!(q_error(f64::INFINITY, 10.0), Q_ERROR_CAP);
        assert!(q_error(1e300, 1e-300).is_finite());
        assert!(q_error(-5.0, 10.0).is_finite());
    }

    #[test]
    fn summary_statistics() {
        let mut acc = QErrorAccumulator::new();
        assert_eq!(acc.summary(), QErrorSummary::default());
        for q in [1.0, 2.0, 4.0] {
            acc.record(q);
        }
        let s = acc.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 4.0);
        // Geometric mean of {1,2,4} is exactly 2.
        assert!((s.geo_mean - 2.0).abs() < 1e-12);
        let j = s.to_json();
        assert_eq!(j.get("count").unwrap().as_u64().unwrap(), 3);
    }

    /// After feedback on a region, the multidimensional model's estimate of
    /// that region is exact, so the scored q-error is exactly 1.0.
    #[test]
    fn feedback_perfect_estimate_has_q_error_one() {
        use crate::TableStats;
        use payless_geometry::{region, QuerySpace};
        use payless_types::{Column, Domain, Schema};

        let schema = Schema::new(
            "T",
            vec![
                Column::free("a", Domain::int(0, 99)),
                Column::free("b", Domain::int(0, 99)),
            ],
        );
        let mut stats = TableStats::new(QuerySpace::of(&schema), 10_000);
        let observed = region![(0, 9), (0, 99)];
        stats.feedback(&observed, 5000);
        let est = stats.estimate(&observed);
        assert_eq!(q_error(est, 5000.0), 1.0);
        // Whereas a zero estimate is clamped, not infinite.
        assert!(q_error(0.0, 5000.0).is_finite());
    }
}
