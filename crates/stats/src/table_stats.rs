//! The per-table feedback statistic.

use payless_geometry::{QuerySpace, RTree, Region};

/// Default cap on buckets per table; beyond it, the least recently refreshed
/// buckets are folded back into the uniform remainder.
pub const DEFAULT_MAX_BUCKETS: usize = 512;

/// Below this many buckets a linear scan beats the R-tree descent, so the
/// index is left empty and [`TableStats::estimate`] scans.
const INDEX_MIN_BUCKETS: usize = 32;

/// One learned bucket: a region with a (possibly fractional) tuple count.
#[derive(Debug, Clone)]
struct Bucket {
    region: Region,
    count: f64,
    volume: f64,
    /// Feedback tick of the last refresh (for eviction).
    touched: u64,
}

/// Feedback-consistent cardinality model for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    space: QuerySpace,
    cardinality: u64,
    full_volume: f64,
    buckets: Vec<Bucket>,
    /// R-tree over bucket regions, ids = positions in `buckets`. Rebuilt
    /// after every feedback (feedback rewrites the bucket list wholesale
    /// anyway); empty below [`INDEX_MIN_BUCKETS`]. Estimates iterate matches
    /// in ascending id order — the same order the linear scan visits
    /// overlapping buckets — so indexed sums are bit-identical to scans.
    index: RTree,
    known_count: f64,
    known_volume: f64,
    max_buckets: usize,
    tick: u64,
}

impl TableStats {
    /// A fresh model knowing only cardinality and domains (pure uniformity).
    pub fn new(space: QuerySpace, cardinality: u64) -> Self {
        let full_volume = space.full_region().volume() as f64;
        TableStats {
            space,
            cardinality,
            full_volume,
            buckets: Vec::new(),
            index: RTree::new(),
            known_count: 0.0,
            known_volume: 0.0,
            max_buckets: DEFAULT_MAX_BUCKETS,
            tick: 0,
        }
    }

    /// Override the bucket cap (useful in tests and ablation benches).
    pub fn with_max_buckets(mut self, cap: usize) -> Self {
        self.max_buckets = cap.max(1);
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

    /// Number of learned buckets (exposed for the bench harness).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Density of the not-yet-explored part of the space.
    fn unknown_density(&self) -> f64 {
        let mass = (self.cardinality as f64 - self.known_count).max(0.0);
        let volume = (self.full_volume - self.known_volume).max(0.0);
        if volume <= 0.0 {
            0.0
        } else {
            mass / volume
        }
    }

    /// Estimated number of tuples inside `region`.
    ///
    /// At [`INDEX_MIN_BUCKETS`]+ learned buckets the probe walks the bucket
    /// R-tree instead of scanning: `query` returns matching positions in
    /// ascending order, so the float accumulation visits the same buckets in
    /// the same order as a scan (non-overlapping buckets contribute exactly
    /// nothing) and the result is bit-identical.
    pub fn estimate(&self, region: &Region) -> f64 {
        let mut est = 0.0;
        let mut covered = 0.0;
        let mut add = |b: &Bucket| {
            if let Some(overlap) = b.region.intersect(region) {
                let v = overlap.volume() as f64;
                covered += v;
                if b.volume > 0.0 {
                    est += b.count * v / b.volume;
                }
            }
        };
        if self.index.is_empty() {
            for b in &self.buckets {
                add(b);
            }
        } else {
            for id in self.index.query(region) {
                add(&self.buckets[id as usize]);
            }
        }
        let outside = (region.volume() as f64 - covered).max(0.0);
        est + outside * self.unknown_density()
    }

    /// Estimated number of distinct values on dimension `dim` among the
    /// tuples inside `region`: bounded by both the dimension's width within
    /// the region and the estimated tuple count (uniformity assumption).
    pub fn distinct_in(&self, region: &Region, dim: usize) -> f64 {
        let width = region.dim(dim).width() as f64;
        width.min(self.estimate(region)).max(0.0)
    }

    /// Record that a retrieval of `region` actually returned `actual` tuples.
    ///
    /// Afterwards `estimate(region)` equals `actual` (up to floating-point
    /// error): buckets straddling the region boundary are split along it and
    /// the inside pieces rescaled to sum to `actual`, with mass never created
    /// ex nihilo outside the observation.
    pub fn feedback(&mut self, region: &Region, actual: u64) {
        self.tick += 1;
        let tick = self.tick;
        let prior_unknown_density = self.unknown_density();

        /// A bucket that straddles the observed region: its overlap piece
        /// (indexed into `inside`) and its outside pieces, whose mass is
        /// settled only after the inside rescale so the bucket's *total*
        /// count — an older constraint — is preserved (ISOMER consistency).
        struct Split {
            inside_idx: usize,
            out_pieces: Vec<Region>,
            original_count: f64,
            touched: u64,
        }

        let mut inside: Vec<Bucket> = Vec::new();
        let mut outside: Vec<Bucket> = Vec::new();
        let mut splits: Vec<Split> = Vec::new();

        for b in self.buckets.drain(..) {
            match b.region.intersect(region) {
                None => outside.push(b),
                Some(overlap) if overlap == b.region => inside.push(b),
                Some(overlap) => {
                    let ov = overlap.volume() as f64;
                    let density = if b.volume > 0.0 {
                        b.count / b.volume
                    } else {
                        0.0
                    };
                    let inside_idx = inside.len();
                    inside.push(Bucket {
                        region: overlap,
                        count: density * ov,
                        volume: ov,
                        touched: tick,
                    });
                    splits.push(Split {
                        inside_idx,
                        out_pieces: b.region.subtract(region),
                        original_count: b.count,
                        touched: b.touched,
                    });
                }
            }
        }

        // The uncovered remainder of the observed region becomes new buckets
        // seeded at the prior uniform density.
        let inside_regions: Vec<Region> = inside.iter().map(|b| b.region.clone()).collect();
        for piece in region.subtract_all(&inside_regions) {
            let pv = piece.volume() as f64;
            inside.push(Bucket {
                region: piece,
                count: prior_unknown_density * pv,
                volume: pv,
                touched: tick,
            });
        }

        // Rescale the inside pieces to sum exactly to the observation.
        let total: f64 = inside.iter().map(|b| b.count).sum();
        let total_volume: f64 = inside.iter().map(|b| b.volume).sum();
        if total > 0.0 {
            let scale = actual as f64 / total;
            for b in &mut inside {
                b.count *= scale;
                b.touched = tick;
            }
        } else if total_volume > 0.0 {
            for b in &mut inside {
                b.count = actual as f64 * b.volume / total_volume;
                b.touched = tick;
            }
        }

        // Settle the outside pieces of split buckets: they carry whatever
        // mass of the original bucket the observation did not claim, so the
        // bucket's previous total (an older observation) stays satisfied.
        for split in splits {
            let claimed = inside[split.inside_idx].count;
            let leftover = (split.original_count - claimed).max(0.0);
            let out_volume: f64 = split.out_pieces.iter().map(|p| p.volume() as f64).sum();
            for piece in split.out_pieces {
                let pv = piece.volume() as f64;
                let count = if out_volume > 0.0 {
                    leftover * pv / out_volume
                } else {
                    0.0
                };
                outside.push(Bucket {
                    region: piece,
                    count,
                    volume: pv,
                    touched: split.touched,
                });
            }
        }

        self.buckets = outside;
        self.buckets.extend(inside);
        self.recompute_totals();
        self.enforce_cap();
        self.rebuild_index();
    }

    fn recompute_totals(&mut self) {
        self.known_count = self.buckets.iter().map(|b| b.count).sum();
        self.known_volume = self.buckets.iter().map(|b| b.volume).sum();
    }

    /// Re-index the bucket list (positions change wholesale on feedback).
    fn rebuild_index(&mut self) {
        self.index.clear();
        if self.buckets.len() < INDEX_MIN_BUCKETS {
            return;
        }
        for (i, b) in self.buckets.iter().enumerate() {
            self.index.insert(b.region.clone(), i as u32);
        }
    }

    /// Fold least-recently-touched buckets back into the uniform remainder
    /// when over the cap.
    fn enforce_cap(&mut self) {
        if self.buckets.len() <= self.max_buckets {
            return;
        }
        self.buckets.sort_by(|a, b| {
            b.touched.cmp(&a.touched).then(
                b.volume
                    .partial_cmp(&a.volume)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        self.buckets.truncate(self.max_buckets);
        self.recompute_totals();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::region;
    use payless_types::{Column, Domain, Schema};

    /// 1-D table: attribute A over [0, 99], 1000 tuples.
    fn stats_1d() -> TableStats {
        let schema = Schema::new("R", vec![Column::free("A", Domain::int(0, 99))]);
        TableStats::new(QuerySpace::of(&schema), 1000)
    }

    /// 2-D table: A1 in [0,9], A2 in [0,9], 500 tuples.
    fn stats_2d() -> TableStats {
        let schema = Schema::new(
            "R",
            vec![
                Column::free("A1", Domain::int(0, 9)),
                Column::free("A2", Domain::int(0, 9)),
            ],
        );
        TableStats::new(QuerySpace::of(&schema), 500)
    }

    #[test]
    fn uniform_estimates_before_feedback() {
        let s = stats_1d();
        // 10% of the domain -> 10% of tuples.
        assert!((s.estimate(&region![(0, 9)]) - 100.0).abs() < 1e-9);
        assert!((s.estimate(&region![(0, 99)]) - 1000.0).abs() < 1e-9);
        assert!((s.estimate(&region![(50, 50)]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn feedback_makes_observation_exact() {
        let mut s = stats_1d();
        s.feedback(&region![(0, 9)], 700);
        assert!((s.estimate(&region![(0, 9)]) - 700.0).abs() < 1e-6);
        // The rest of the space holds the remaining mass.
        assert!((s.estimate(&region![(10, 99)]) - 300.0).abs() < 1e-6);
        // Total is conserved.
        assert!((s.estimate(&region![(0, 99)]) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn overlapping_feedback_drills_holes() {
        let mut s = stats_1d();
        s.feedback(&region![(0, 49)], 600);
        s.feedback(&region![(25, 74)], 500);
        // Newest observation is exact.
        assert!((s.estimate(&region![(25, 74)]) - 500.0).abs() < 1e-6);
        // Subregion estimates follow the refined densities, and are finite
        // and non-negative.
        let sub = s.estimate(&region![(25, 49)]);
        assert!((0.0..=500.0).contains(&sub));
    }

    #[test]
    fn zero_feedback_zeroes_region() {
        let mut s = stats_1d();
        s.feedback(&region![(90, 99)], 0);
        assert!(s.estimate(&region![(90, 99)]).abs() < 1e-9);
        assert!((s.estimate(&region![(0, 99)]) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn feedback_on_2d_regions() {
        let mut s = stats_2d();
        s.feedback(&region![(0, 4), (0, 4)], 250);
        assert!((s.estimate(&region![(0, 4), (0, 4)]) - 250.0).abs() < 1e-6);
        // Quadrant estimate within the fed-back region follows uniformity
        // inside the bucket.
        let quarter = s.estimate(&region![(0, 1), (0, 1)]);
        assert!(quarter > 0.0 && quarter < 250.0);
        assert!((s.estimate(&s.space().full_region()) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn diagonal_feedback_leaves_off_diagonal_empty() {
        // Perfectly correlated mass on the diagonal: once both diagonal
        // boxes are observed to hold every row, the model knows the
        // off-diagonal boxes are empty. Independent per-dimension
        // marginals would still predict a quarter of the table there.
        let schema = Schema::new(
            "R",
            vec![
                Column::free("a", Domain::int(0, 99)),
                Column::free("b", Domain::int(0, 99)),
            ],
        );
        let mut s = TableStats::new(QuerySpace::of(&schema), 10_000);
        s.feedback(&region![(0, 49), (0, 49)], 5_000);
        s.feedback(&region![(50, 99), (50, 99)], 5_000);
        assert_eq!(s.estimate(&region![(0, 49), (50, 99)]), 0.0);
        assert_eq!(s.estimate(&region![(50, 99), (0, 49)]), 0.0);
    }

    #[test]
    fn repeated_identical_feedback_is_stable() {
        let mut s = stats_1d();
        for _ in 0..5 {
            s.feedback(&region![(10, 19)], 42);
        }
        assert!((s.estimate(&region![(10, 19)]) - 42.0).abs() < 1e-6);
        assert!(s.bucket_count() <= 3);
    }

    #[test]
    fn distinct_is_bounded_by_width_and_count() {
        let mut s = stats_1d();
        // Uniform: 100 tuples in [0,9], width 10 -> 10 distinct.
        assert!((s.distinct_in(&region![(0, 9)], 0) - 10.0).abs() < 1e-9);
        // After learning the region holds 3 tuples, distinct <= 3.
        s.feedback(&region![(0, 9)], 3);
        assert!((s.distinct_in(&region![(0, 9)], 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn bucket_cap_is_enforced() {
        let mut s = stats_1d().with_max_buckets(4);
        for i in 0..20 {
            let lo = i * 5;
            s.feedback(&region![(lo, lo + 4)], 50);
        }
        assert!(s.bucket_count() <= 4);
        // Estimates remain sane.
        let total = s.estimate(&region![(0, 99)]);
        assert!(total > 0.0 && total.is_finite());
    }

    #[test]
    fn estimates_never_negative() {
        let mut s = stats_1d();
        // Feed back more tuples than the published cardinality (stale
        // cardinality is possible in append-only markets).
        s.feedback(&region![(0, 49)], 5000);
        assert!(s.estimate(&region![(50, 99)]) >= 0.0);
        assert!((s.estimate(&region![(0, 49)]) - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn full_coverage_leaves_no_unknown_mass() {
        let mut s = stats_1d();
        s.feedback(&region![(0, 99)], 800);
        assert!((s.estimate(&region![(0, 99)]) - 800.0).abs() < 1e-6);
        s.feedback(&region![(0, 49)], 300);
        assert!((s.estimate(&region![(0, 49)]) - 300.0).abs() < 1e-6);
        // 800 was the global truth; after the refinement the right half
        // still carries the rest.
        assert!((s.estimate(&region![(50, 99)]) - 500.0).abs() < 1e-6);
    }

    /// The reference linear-scan estimate the R-tree path must reproduce
    /// bit-for-bit (same bucket visit order, skipped buckets add nothing).
    fn linear_estimate(s: &TableStats, q: &Region) -> f64 {
        let mut est = 0.0;
        let mut covered = 0.0;
        for b in &s.buckets {
            if let Some(ov) = b.region.intersect(q) {
                let v = ov.volume() as f64;
                covered += v;
                if b.volume > 0.0 {
                    est += b.count * v / b.volume;
                }
            }
        }
        let outside = (q.volume() as f64 - covered).max(0.0);
        est + outside * s.unknown_density()
    }

    #[test]
    fn indexed_estimate_is_bit_identical_to_scan() {
        let mut s = stats_1d().with_max_buckets(512);
        for i in 0..60i64 {
            let lo = (i * 7) % 90;
            s.feedback(&region![(lo, lo + 9)], (i * 13 % 50) as u64);
        }
        assert!(
            s.bucket_count() >= INDEX_MIN_BUCKETS,
            "test must exercise the indexed path ({} buckets)",
            s.bucket_count()
        );
        assert!(!s.index.is_empty());
        for lo in (0..90).step_by(7) {
            let q = region![(lo, lo + 10)];
            assert_eq!(
                s.estimate(&q).to_bits(),
                linear_estimate(&s, &q).to_bits(),
                "indexed estimate diverged from scan at {q}"
            );
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        fn arb_iv() -> impl Strategy<Value = (i64, i64)> {
            (0i64..100).prop_flat_map(|lo| (Just(lo), lo..100))
        }

        proptest! {
            /// The newest feedback is always reproduced exactly.
            #[test]
            fn newest_feedback_exact(
                feeds in proptest::collection::vec((arb_iv(), 0u64..2000), 1..8)
            ) {
                let mut s = stats_1d();
                for ((lo, hi), n) in &feeds {
                    s.feedback(&region![(*lo, *hi)], *n);
                }
                let ((lo, hi), n) = feeds.last().unwrap();
                let est = s.estimate(&region![(*lo, *hi)]);
                prop_assert!((est - *n as f64).abs() < 1e-3,
                    "estimate {est} != actual {n}");
            }

            /// Estimates are finite and non-negative everywhere.
            #[test]
            fn estimates_nonnegative(
                feeds in proptest::collection::vec((arb_iv(), 0u64..2000), 0..8),
                (qlo, qhi) in arb_iv(),
            ) {
                let mut s = stats_1d();
                for ((lo, hi), n) in &feeds {
                    s.feedback(&region![(*lo, *hi)], *n);
                }
                let est = s.estimate(&region![(qlo, qhi)]);
                prop_assert!(est.is_finite() && est >= 0.0);
            }

            /// Indexed and scanned estimates agree bit-for-bit at any
            /// bucket count, including across the index-on threshold.
            #[test]
            fn indexed_estimate_matches_scan(
                feeds in proptest::collection::vec((arb_iv(), 0u64..2000), 0..40),
                (qlo, qhi) in arb_iv(),
            ) {
                let mut s = stats_1d();
                for ((lo, hi), n) in &feeds {
                    s.feedback(&region![(*lo, *hi)], *n);
                }
                let q = region![(qlo, qhi)];
                prop_assert_eq!(
                    s.estimate(&q).to_bits(),
                    linear_estimate(&s, &q).to_bits()
                );
            }

            /// Buckets stay pairwise disjoint.
            #[test]
            fn buckets_disjoint(
                feeds in proptest::collection::vec((arb_iv(), 0u64..2000), 0..8)
            ) {
                let mut s = stats_1d();
                for ((lo, hi), n) in &feeds {
                    s.feedback(&region![(*lo, *hi)], *n);
                }
                for (i, a) in s.buckets.iter().enumerate() {
                    for b in &s.buckets[i + 1..] {
                        prop_assert!(!a.region.overlaps(&b.region),
                            "{} overlaps {}", a.region, b.region);
                    }
                }
            }
        }
    }
}
