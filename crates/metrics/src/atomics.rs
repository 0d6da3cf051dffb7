//! The three metric primitives: counter, gauge, log-bucketed histogram.
//!
//! All write paths are relaxed atomic operations — no locks, no
//! allocation — so instrumented hot paths (market calls, claim waits,
//! store locks) pay a handful of nanoseconds per event.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::buckets::{bucket_index, bucket_le, BUCKETS};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` events.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value-wins instantaneous measurement (occupancy, waiters, drift).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment (e.g. a waiter arriving).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrement, saturating at zero under racy teardown.
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log-bucketed histogram: exact counts, value resolution ≤ 12.5 %.
///
/// `record` touches one bucket plus the `sum`/`max` aggregates, all with
/// relaxed atomics. Snapshots derive `count` from the bucket array itself,
/// so `count == Σ bucket counts` holds in every snapshot even while
/// writers race (`sum`/`max` may transiently lag by in-flight records).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time digest: nonzero `(upper_bound, count)` pairs in
    /// ascending bound order.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = Vec::new();
        let mut count = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                count += c;
                out.push((bucket_le(idx), c));
            }
        }
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: out,
        }
    }
}

/// Immutable digest of a [`LogHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total observations (always `Σ` of the bucket counts below).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest value ever observed.
    pub max: u64,
    /// Nonzero buckets as `(inclusive_upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Quantile `p in [0, 1]`: exact in rank space, resolved to the
    /// containing bucket's upper bound in value space.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count - 1) as f64 * p).round() as u64;
        let mut seen = 0u64;
        for &(le, c) in &self.buckets {
            seen += c;
            if seen > target {
                return le.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc(3);
        c.inc(4);
        assert_eq!(c.get(), 7);

        let g = Gauge::default();
        g.set(5);
        g.add(2);
        g.sub(4);
        assert_eq!(g.get(), 3);
        g.sub(10);
        assert_eq!(g.get(), 0, "gauge decrements saturate at zero");
    }

    #[test]
    fn histogram_counts_are_exact_and_quantiles_bucket_bounded() {
        let h = LogHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        assert_eq!(s.count, s.buckets.iter().map(|(_, c)| c).sum::<u64>());
        // Exact rank, bucket-bounded value: within 12.5 % above the truth.
        for (p, truth) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let q = s.quantile(p);
            assert!(q >= truth, "p{p}: {q} below exact value {truth}");
            assert!(
                q as f64 <= truth as f64 * 1.125 + 1.0,
                "p{p}: {q} too far above exact value {truth}"
            );
        }
        assert_eq!(s.quantile(1.0), 1000);
    }

    /// Satellite: concurrent writers against one snapshot reader lose no
    /// updates and never produce a torn (internally inconsistent) digest.
    #[test]
    fn concurrent_writers_lose_nothing() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;

        let h = Arc::new(LogHistogram::default());
        let c = Arc::new(Counter::default());
        let stop = Arc::new(AtomicBool::new(false));

        let reader = {
            let (h, c, stop) = (h.clone(), c.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut last_count = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = h.snapshot();
                    // Internal consistency: count is derived from buckets.
                    assert_eq!(s.count, s.buckets.iter().map(|(_, n)| n).sum::<u64>());
                    assert!(s.count >= last_count, "histogram count went backwards");
                    last_count = s.count;
                    assert!(c.get() <= WRITERS as u64 * PER_WRITER);
                }
            })
        };

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (h, c) = (h.clone(), c.clone());
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        h.record((w as u64 + 1) * 7 + i % 1000);
                        c.inc(1);
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();

        let total = WRITERS as u64 * PER_WRITER;
        let s = h.snapshot();
        assert_eq!(s.count, total, "histogram lost updates");
        assert_eq!(c.get(), total, "counter lost updates");
        assert_eq!(s.count, s.buckets.iter().map(|(_, n)| n).sum::<u64>());
    }
}
