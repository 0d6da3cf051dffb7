use crate::metrics::Histogram;
use crate::{CallKind, QErrorRecord, SpanRecord, SqrStats, TelemetrySnapshot, TransactionRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Thread-safe telemetry sink shared by every layer of the pipeline.
///
/// A recorder starts disabled. While disabled, every entry point returns
/// after a single relaxed atomic load — no lock, no allocation — so leaving
/// a recorder attached costs nearly nothing. Detail strings and transaction
/// records are built inside closures that only run when enabled.
pub struct Recorder {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

struct Inner {
    ledger: Vec<TransactionRecord>,
    sqr: SqrStats,
    spans: Vec<SpanRecord>,
    span_seq: u64,
    qerrors: Vec<QErrorRecord>,
    counters: BTreeMap<&'static str, u64>,
    durations: BTreeMap<&'static str, Histogram>,
    sizes: BTreeMap<&'static str, Histogram>,
    call_kind: CallKind,
    /// Time origin all records are stamped against; reset by
    /// [`Recorder::begin_epoch`] so timestamps are per-query.
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
            durations: BTreeMap::new(),
            sizes: BTreeMap::new(),
            call_kind: CallKind::default(),
            epoch: Instant::now(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Recorder {
    /// A recorder that is already enabled.
    pub fn enabled() -> Arc<Recorder> {
        let rec = Recorder::default();
        rec.set_enabled(true);
        Arc::new(rec)
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        if !self.is_enabled() {
            return None;
        }
        Some(f(&mut self.inner.lock().expect("telemetry poisoned")))
    }

    /// Append a market transaction to the spend ledger. The record is built
    /// lazily; `seq`, call kind, and the epoch-relative timestamp are filled
    /// in by the recorder.
    pub fn transaction(&self, build: impl FnOnce() -> TransactionRecord) {
        self.with_inner(|inner| {
            let mut record = build();
            record.seq = inner.ledger.len() as u64;
            record.kind = inner.call_kind;
            record.at_nanos = inner.epoch.elapsed().as_nanos() as u64;
            inner.ledger.push(record);
        });
    }

    /// Score one cardinality estimate against its actual. The record is
    /// built lazily, like [`Recorder::transaction`].
    pub fn q_error(&self, build: impl FnOnce() -> QErrorRecord) {
        self.with_inner(|inner| inner.qerrors.push(build()));
    }

    /// Set the call shape for subsequent [`Recorder::transaction`] calls.
    /// The executor sets this before issuing market requests.
    pub fn set_call_kind(&self, kind: CallKind) {
        self.with_inner(|inner| inner.call_kind = kind);
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

    /// Record one duration sample (nanoseconds).
    pub fn record_duration(&self, name: &'static str, nanos: u64) {
        self.with_inner(|inner| inner.durations.entry(name).or_default().record(nanos));
    }

    /// Record one size sample (bytes, tuples, pages, ...).
    pub fn record_size(&self, name: &'static str, value: u64) {
        self.with_inner(|inner| inner.sizes.entry(name).or_default().record(value));
    }

    /// Open a timed span; the span records itself when the guard drops.
    /// `detail` runs only when recording is on.
    pub fn span(
        self: &Arc<Self>,
        label: &'static str,
        detail: impl FnOnce() -> Option<String>,
    ) -> SpanGuard {
        match self.with_inner(|inner| {
            let seq = inner.span_seq;
            inner.span_seq += 1;
            (seq, inner.epoch.elapsed().as_nanos() as u64)
        }) {
            Some((seq, start_nanos)) => SpanGuard {
                recorder: Some(self.clone()),
                label,
                detail: detail(),
                start_seq: seq,
                start_nanos,
                start: Instant::now(),
            },
            None => SpanGuard {
                recorder: None,
                label,
                detail: None,
                start_seq: 0,
                start_nanos: 0,
                start: Instant::now(),
            },
        }
    }

    /// Start a fresh per-query epoch: drop everything recorded so far and
    /// reset the timestamp origin. Unlike [`Recorder::take`] this drains
    /// **even while disabled**, so records left behind by an aborted or
    /// untraced query can never leak into the next query's snapshot (the
    /// wasted/delivered page partition must be per-query). The call-kind
    /// context survives.
    pub fn begin_epoch(&self) {
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        let kind = inner.call_kind;
        *inner = Inner::default();
        inner.call_kind = kind;
    }

    /// Drain everything recorded so far, resetting for the next query.
    /// The current call-kind context survives the drain. Draining happens
    /// even while disabled (discarding any leftovers); the returned snapshot
    /// is only populated when enabled.
    pub fn take(&self) -> TelemetrySnapshot {
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        let kind = inner.call_kind;
        let drained = std::mem::take(&mut *inner);
        inner.call_kind = kind;
        if !self.is_enabled() {
            return TelemetrySnapshot::default();
        }
        TelemetrySnapshot {
            ledger: drained.ledger,
            sqr: drained.sqr,
            spans: drained.spans,
            qerrors: drained.qerrors,
            counters: drained.counters.into_iter().collect(),
            durations: drained
                .durations
                .into_iter()
                .map(|(k, h)| (k, h.summary()))
                .collect(),
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
    recorder: Option<Arc<Recorder>>,
    label: &'static str,
    detail: Option<String>,
    start_seq: u64,
    start_nanos: u64,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(rec) = self.recorder.take() {
            let nanos = self.start.elapsed().as_nanos() as u64;
            rec.with_inner(|inner| {
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
}

#[cfg(test)]
// The ledger's own tests write to it directly (`clippy.toml`).
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Arc::new(Recorder::default());
        rec.count("x", 1);
        rec.sqr_miss();
        rec.transaction(|| panic!("must not be built while disabled"));
        {
            let _g = rec.span("s", || panic!("must not be built while disabled"));
        }
        let snap = rec.take();
        assert!(snap.ledger.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(snap.sqr, SqrStats::default());
    }

    #[test]
    fn enabled_recorder_captures_and_drains() {
        let rec = Recorder::enabled();
        rec.set_call_kind(CallKind::Download);
        rec.transaction(|| TransactionRecord {
            seq: 999, // overwritten
            dataset: Arc::from("d"),
            table: Arc::from("T"),
            kind: CallKind::Remainder, // overwritten by context
            records: 10,
            page_size: 3,
            pages: 4,
            price: 4.0,
            wasted: false,
            at_nanos: 0,
        });
        rec.count("plans", 2);
        rec.count("plans", 3);
        rec.record_duration("dp", 100);
        rec.record_size("rows", 10);
        {
            let _g = rec.span("phase", || Some("outer".into()));
        }
        let snap = rec.take();
        assert_eq!(snap.ledger.len(), 1);
        assert_eq!(snap.ledger[0].seq, 0);
        assert_eq!(snap.ledger[0].kind, CallKind::Download);
        assert_eq!(snap.counters, vec![("plans", 5)]);
        assert_eq!(snap.durations[0].1.count, 1);
        assert_eq!(snap.sizes[0].1.sum, 10);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].detail.as_deref(), Some("outer"));

        // Drained: a second take is empty, but context persists.
        let snap2 = rec.take();
        assert!(snap2.ledger.is_empty());
        rec.transaction(|| TransactionRecord {
            seq: 0,
            dataset: Arc::from("d"),
            table: Arc::from("T"),
            kind: CallKind::Remainder,
            records: 0,
            page_size: 3,
            pages: 0,
            price: 0.0,
            wasted: false,
            at_nanos: 0,
        });
        assert_eq!(rec.take().ledger[0].kind, CallKind::Download);
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
    fn begin_epoch_discards_leftovers_even_while_disabled() {
        // A traced query that aborts mid-flight leaves its records in the
        // buffer; toggling tracing off must not preserve them for the next
        // traced query.
        let rec = Recorder::enabled();
        rec.set_call_kind(CallKind::Download);
        rec.transaction(dummy_tx);
        rec.count("stale", 1);
        rec.set_enabled(false);

        rec.begin_epoch(); // what every query start does, traced or not
        rec.set_enabled(true);
        let snap = rec.take();
        assert!(snap.ledger.is_empty(), "stale ledger entry leaked");
        assert!(snap.counters.is_empty(), "stale counter leaked");
        assert_eq!(snap.wasted_pages(), 0);

        // The call-kind context survives an epoch boundary.
        rec.transaction(dummy_tx);
        assert_eq!(rec.take().ledger[0].kind, CallKind::Download);
    }

    #[test]
    fn take_drains_even_while_disabled() {
        let rec = Recorder::enabled();
        rec.transaction(dummy_tx);
        rec.set_enabled(false);
        assert!(rec.take().ledger.is_empty());
        rec.set_enabled(true);
        assert!(
            rec.take().ledger.is_empty(),
            "disabled take must still drain"
        );
    }

    #[test]
    fn records_are_stamped_against_the_epoch() {
        let rec = Recorder::enabled();
        rec.begin_epoch();
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
            estimator: "per-dim",
            estimate: 50.0,
            actual: 100,
            q: 2.0,
        });
        let snap = rec.take();
        assert_eq!(snap.qerrors.len(), 1);
        assert_eq!(snap.qerrors[0].estimator, "per-dim");
        assert!(rec.take().qerrors.is_empty());

        // Disabled recorders never build the record.
        rec.set_enabled(false);
        rec.q_error(|| panic!("must not be built while disabled"));
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
