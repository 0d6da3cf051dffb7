use payless_json::{Json, ToJson};

/// Sample-keeping histogram for size samples.
///
/// Queries touch at most a few thousand market calls, so keeping raw
/// samples (8 bytes each) and sorting on demand is cheaper and more exact
/// than bucketing.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    pub fn summary(&self) -> HistogramSummary {
        if self.samples.is_empty() {
            return HistogramSummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let q = |p: f64| {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        // Bucket the sorted samples on the shared payless-metrics log
        // scale so external tooling can recompute percentiles from the
        // JSON dump (the sorted order makes each bucket a contiguous run).
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        for &v in &sorted {
            let le = payless_metrics::bucket_le(payless_metrics::bucket_index(v));
            match buckets.last_mut() {
                Some((last_le, c)) if *last_le == le => *c += 1,
                _ => buckets.push((le, 1)),
            }
        }
        HistogramSummary {
            count: sorted.len() as u64,
            sum: sorted.iter().sum(),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max: *sorted.last().unwrap(),
            buckets,
        }
    }
}

/// Immutable digest of a [`Histogram`].
///
/// Percentiles are exact (computed from the raw samples); `buckets` are
/// `(inclusive_upper_bound, count)` pairs on the shared payless-metrics
/// log scale (ascending, nonzero only) so the JSON form is enough to
/// recompute any quantile to within the bucket resolution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl ToJson for HistogramSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("p50", self.p50.to_json()),
            ("p95", self.p95.to_json()),
            ("p99", self.p99.to_json()),
            ("max", self.max.to_json()),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(le, c)| Json::Arr(vec![le.to_json(), c.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarises_to_zeros() {
        assert_eq!(Histogram::default().summary(), HistogramSummary::default());
    }

    #[test]
    fn percentiles_are_order_insensitive() {
        let mut h = Histogram::default();
        for v in [5u64, 1, 4, 2, 3] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 15);
        assert_eq!(s.p50, 3);
        assert_eq!(s.max, 5);
        assert_eq!(s.p95, 5);
        assert_eq!(s.p99, 5);
    }

    #[test]
    fn buckets_cover_every_sample_in_order() {
        let mut h = Histogram::default();
        for v in [1u64, 1, 2, 9, 9, 9, 5000, 2] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.buckets.iter().map(|(_, c)| c).sum::<u64>(), s.count);
        for w in s.buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "bucket bounds must be ascending");
        }
        for &(le, c) in &s.buckets {
            assert!(c > 0, "zero buckets are omitted");
            assert!(le <= payless_metrics::bucket_le(payless_metrics::bucket_index(s.max)));
        }
        // Exact small values get exact buckets.
        assert!(s.buckets.contains(&(1, 2)));
        assert!(s.buckets.contains(&(2, 2)));
    }

    #[test]
    fn json_form_exposes_buckets() {
        let mut h = Histogram::default();
        h.record(3);
        h.record(300);
        let j = h.summary().to_json();
        assert_eq!(j.get("p99").unwrap().as_u64().unwrap(), 300);
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 2);
        let first = buckets[0].as_arr().unwrap();
        assert_eq!(first[0].as_u64().unwrap(), 3);
        assert_eq!(first[1].as_u64().unwrap(), 1);
    }
}
