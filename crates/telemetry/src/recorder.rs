use crate::metrics::Histogram;
use crate::{QErrorRecord, SpanRecord, SqrStats, TelemetrySnapshot, TransactionRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Thread-safe telemetry sink of one query, shared by every layer of that
/// query's pipeline. Its epoch is its creation.
///
/// A recorder always records; a caller that wants no telemetry holds none
/// (every attach point is an `Option`).
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

struct Inner {
    ledger: Vec<TransactionRecord>,
    sqr: SqrStats,
    spans: Vec<SpanRecord>,
    span_seq: u64,
    qerrors: Vec<QErrorRecord>,
    counters: BTreeMap<&'static str, u64>,
    sizes: BTreeMap<&'static str, Histogram>,
    /// Time origin all records are stamped against.
    epoch: Instant,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            ledger: Vec::new(),
            sqr: SqrStats::default(),
            spans: Vec::new(),
            span_seq: 0,
            qerrors: Vec::new(),
            counters: BTreeMap::new(),
            sizes: BTreeMap::new(),
            epoch: Instant::now(),
        }
    }
}

impl Recorder {
    /// A fresh, empty recorder. (The name predates the removed off-switch;
    /// `benchmark/` imports it.)
    pub fn enabled() -> Arc<Recorder> {
        Arc::new(Recorder {
            inner: Mutex::new(Inner::default()),
        })
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        f(&mut self.inner.lock().expect("telemetry poisoned"))
    }

    /// Append a market transaction to the spend ledger. The record is built
    /// lazily; `seq` and the epoch-relative timestamp are filled in by the
    /// recorder.
    pub fn transaction(&self, build: impl FnOnce() -> TransactionRecord) {
        self.with_inner(|inner| {
            let mut record = build();
            record.seq = inner.ledger.len() as u64;
            record.at_nanos = inner.epoch.elapsed().as_nanos() as u64;
            inner.ledger.push(record);
        });
    }

    /// Score one cardinality estimate against its actual. The record is
    /// built lazily, like [`Recorder::transaction`].
    pub fn q_error(&self, build: impl FnOnce() -> QErrorRecord) {
        self.with_inner(|inner| inner.qerrors.push(build()));
    }

    pub fn sqr_full_hit(&self) {
        self.with_inner(|inner| inner.sqr.full_hits += 1);
    }

    pub fn sqr_partial_hit(&self) {
        self.with_inner(|inner| inner.sqr.partial_hits += 1);
    }

    pub fn sqr_miss(&self) {
        self.with_inner(|inner| inner.sqr.misses += 1);
    }

    /// Increment a monotonic counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        self.with_inner(|inner| *inner.counters.entry(name).or_insert(0) += delta);
    }

    /// Record one size sample (bytes, tuples, pages, ...).
    pub fn record_size(&self, name: &'static str, value: u64) {
        self.with_inner(|inner| inner.sizes.entry(name).or_default().record(value));
    }

    /// Open a timed span; the span records itself when the guard drops.
    pub fn span(
        self: &Arc<Self>,
        label: &'static str,
        detail: impl FnOnce() -> Option<String>,
    ) -> SpanGuard {
        let (start_seq, start_nanos) = self.with_inner(|inner| {
            let seq = inner.span_seq;
            inner.span_seq += 1;
            (seq, inner.epoch.elapsed().as_nanos() as u64)
        });
        SpanGuard {
            recorder: Arc::clone(self),
            label,
            detail: detail(),
            start_seq,
            start_nanos,
            start: Instant::now(),
        }
    }

    /// Drain everything recorded so far.
    pub fn take(&self) -> TelemetrySnapshot {
        let drained = std::mem::take(&mut *self.inner.lock().expect("telemetry poisoned"));
        TelemetrySnapshot {
            ledger: drained.ledger,
            sqr: drained.sqr,
            spans: drained.spans,
            qerrors: drained.qerrors,
            counters: drained.counters.into_iter().collect(),
            sizes: drained
                .sizes
                .into_iter()
                .map(|(k, h)| (k, h.summary()))
                .collect(),
        }
    }
}

/// Drop guard returned by [`Recorder::span`].
pub struct SpanGuard {
    recorder: Arc<Recorder>,
    label: &'static str,
    detail: Option<String>,
    start_seq: u64,
    start_nanos: u64,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.recorder.with_inner(|inner| {
            inner.spans.push(SpanRecord {
                start_seq: self.start_seq,
                label: self.label,
                detail: self.detail.take(),
                start_nanos: self.start_nanos,
                nanos,
            });
        });
    }
}

#[cfg(test)]
// The ledger's own tests write to it directly (`clippy.toml`).
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::CallKind;

    #[test]
    fn enabled_recorder_captures_and_drains() {
        let rec = Recorder::enabled();
        rec.transaction(|| TransactionRecord {
            seq: 999, // overwritten
            dataset: Arc::from("d"),
            table: Arc::from("T"),
            kind: CallKind::Download,
            records: 10,
            page_size: 3,
            pages: 4,
            price: 4.0,
            wasted: false,
            at_nanos: 0,
        });
        rec.count("plans", 2);
        rec.count("plans", 3);
        rec.record_size("rows", 10);
        {
            let _g = rec.span("phase", || Some("outer".into()));
        }
        let snap = rec.take();
        assert_eq!(snap.ledger.len(), 1);
        assert_eq!(snap.ledger[0].seq, 0);
        assert_eq!(snap.ledger[0].kind, CallKind::Download);
        assert_eq!(snap.counters, vec![("plans", 5)]);
        assert_eq!(snap.sizes[0].1.sum, 10);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].detail.as_deref(), Some("outer"));

        // Drained: a second take is empty.
        assert!(rec.take().ledger.is_empty());
    }

    fn dummy_tx() -> TransactionRecord {
        TransactionRecord {
            seq: 0,
            dataset: Arc::from("d"),
            table: Arc::from("T"),
            kind: CallKind::Remainder,
            records: 10,
            page_size: 5,
            pages: 2,
            price: 2.0,
            wasted: true,
            at_nanos: 0,
        }
    }

    #[test]
    fn records_are_stamped_against_the_epoch() {
        let rec = Recorder::enabled();
        rec.transaction(dummy_tx);
        {
            let _g = rec.span("s", || None);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = rec.take();
        // Stamps are epoch-relative and ordered.
        assert!(snap.spans[0].start_nanos >= snap.ledger[0].at_nanos);
        assert!(snap.spans[0].nanos >= 1_000_000);
    }

    #[test]
    fn q_errors_are_recorded_and_drained() {
        let rec = Recorder::enabled();
        rec.q_error(|| QErrorRecord {
            table: Arc::from("T"),
            estimate: 50.0,
            actual: 100,
            q: 2.0,
        });
        let snap = rec.take();
        assert_eq!(snap.qerrors.len(), 1);
        assert_eq!(snap.qerrors[0].q, 2.0);
        assert!(rec.take().qerrors.is_empty());
    }

    #[test]
    fn spans_order_by_start() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer", || None);
            let _inner = rec.span("inner", || None);
        }
        let snap = rec.take();
        // Inner drops first but started second.
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.label == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.label == "inner").unwrap();
        assert!(outer.start_seq < inner.start_seq);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::enabled();
        std::thread::scope(|s| {
            for i in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        rec.count("n", 1);
                        let _ = i;
                    }
                });
            }
        });
        assert_eq!(rec.take().counters, vec![("n", 400)]);
    }
}
