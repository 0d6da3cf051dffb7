//! Continuous spend reconciliation while a mix is running.
//!
//! `run_mix` has always reconciled Σ per-query ledger pages against the
//! billing meter — but only once, at exit. The [`Watchdog`] moves that
//! cross-check into the run: every K completed queries it samples the
//! meter and compares it against the pages attributed so far, globally and
//! per table.
//!
//! **Soundness under concurrency.** A sample reads the attributed totals
//! *before* reading the meter. Every ledger entry corresponds to a meter
//! charge that already happened, so at that instant `meter ≥ attributed`
//! always holds; the difference ("drift") is spend whose queries are still
//! in flight, and it must return to zero at quiescence. `attributed >
//! meter` can never legitimately happen — it means double-counted ledger
//! entries — and is flagged as a violation the moment it is seen.
//!
//! Drift is recorded into the metrics hub (`payless_watchdog_*`); under
//! strict mode a violation aborts the mix immediately instead of waiting
//! for the exit reconciliation. With one worker thread there is no
//! in-flight spend at sample time, so the *serial check* additionally
//! requires zero drift at every sample.
//!
//! **Batched purchasing.** A batch leader charges the meter once and
//! settles shares onto members whose queries have *not completed yet* —
//! spend that is neither in flight nor attributed, and that would trip the
//! serial check even single-threaded. The planner tracks
//! exactly those pages in a deferred register
//! ([`payless_exec::BatchPlanner::deferred_handle`], incremented *before*
//! any member share becomes visible); [`Watchdog::with_deferred`] attaches
//! it, the serial check then permits `drift ≤ deferred`, and
//! [`Watchdog::note_query`] drains each completed member's settled pages
//! (`batch.settled_pages`) back off the register. The over-attribution
//! checks are untouched: a share is distributed only after its meter
//! charge, so `attributed ≤ meter` still always holds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use payless_events::{EventJournal, EventKind, Severity};
use payless_market::DataMarket;
use payless_metrics::MetricsHub;
use payless_telemetry::TelemetrySnapshot;
use payless_types::{PaylessError, Result};

/// One table's figures from a reconciliation sample: pages the completed
/// queries' ledgers attribute to it versus the billing meter's delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableDrift {
    /// Market table name.
    pub table: String,
    /// Pages attributed by completed queries' ledgers.
    pub attributed_pages: u64,
    /// The meter's page delta for the table since the watchdog started.
    pub meter_pages: u64,
}

impl TableDrift {
    /// Pages billed but not yet attributed (in-flight or deferred spend).
    pub fn drift_pages(&self) -> u64 {
        self.meter_pages.saturating_sub(self.attributed_pages)
    }
}

/// Render a per-table breakdown for violation messages: only tables with
/// nonzero drift, worst first.
fn render_breakdown(rows: &[TableDrift]) -> String {
    let mut drifting: Vec<&TableDrift> = rows
        .iter()
        .filter(|r| r.attributed_pages != r.meter_pages)
        .collect();
    drifting.sort_by_key(|r| std::cmp::Reverse(r.drift_pages()));
    if drifting.is_empty() {
        return "all tables reconciled".into();
    }
    drifting
        .iter()
        .map(|r| {
            format!(
                "`{}` ledger {} vs meter {}",
                r.table, r.attributed_pages, r.meter_pages
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// What the watchdog saw over one mix (folded into the serve report).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Mid-run reconciliation samples taken.
    pub samples: u64,
    /// Largest in-flight drift (meter minus attributed pages) sampled.
    pub max_drift_pages: u64,
    /// Per-table breakdown from the last reconciliation sample (the exit
    /// reconciliation when the mix ran to completion), sorted by table.
    pub last_sample: Vec<TableDrift>,
}

/// Samples `Σ attributed ledger pages == billing meter` every K queries.
pub struct Watchdog<'a> {
    market: &'a DataMarket,
    every: u64,
    strict: bool,
    /// One worker thread: no spend can be in flight at a sample, so any
    /// nonzero drift is itself a violation (the serial check).
    serial: bool,
    base_pages: u64,
    base_by_table: HashMap<Arc<str>, u64>,
    attributed: AtomicU64,
    by_table: Mutex<HashMap<Arc<str>, u64>>,
    completed: AtomicU64,
    samples: AtomicU64,
    max_drift: AtomicU64,
    /// Pages settled onto batch members that have not completed yet —
    /// drift the serial check must allow (see module docs).
    deferred: Option<Arc<AtomicU64>>,
    hub: Option<Arc<MetricsHub>>,
    /// Flight recorder: every sample is journaled, and a violation becomes
    /// an error event before it aborts anything.
    events: Option<Arc<EventJournal>>,
    /// Per-table breakdown of the most recent sample (see
    /// [`WatchdogReport::last_sample`]).
    last_sample: Mutex<Vec<TableDrift>>,
}

fn table_pages(report: &payless_market::BillingReport) -> HashMap<Arc<str>, u64> {
    report
        .by_table
        .iter()
        .map(|(t, b)| (t.clone(), b.transactions))
        .collect()
}

impl<'a> Watchdog<'a> {
    /// Start watching `market` from its current meter state.
    pub fn new(
        market: &'a DataMarket,
        every: u64,
        strict: bool,
        threads: usize,
        hub: Option<Arc<MetricsHub>>,
    ) -> Self {
        let base = market.bill();
        Watchdog {
            market,
            every: every.max(1),
            strict,
            serial: threads <= 1,
            base_pages: base.transactions(),
            base_by_table: table_pages(&base),
            attributed: AtomicU64::new(0),
            by_table: Mutex::new(HashMap::new()),
            completed: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            max_drift: AtomicU64::new(0),
            deferred: None,
            hub,
            events: None,
            last_sample: Mutex::new(Vec::new()),
        }
    }

    /// Attach a batch planner's deferred-pages register: spend settled
    /// onto still-running batch members, which the serial drift check
    /// must tolerate and which each completing member drains via its
    /// `batch.settled_pages` counter.
    pub fn with_deferred(mut self, deferred: Arc<AtomicU64>) -> Self {
        self.deferred = Some(deferred);
        self
    }

    /// Attach a flight-recorder journal: every reconciliation sample is
    /// journaled (`watchdog_sample`), and any violation is journaled as an
    /// error event before strict mode aborts or `finish` panics — so the
    /// black-box dump always covers the violating sample.
    pub fn with_events(mut self, journal: Arc<EventJournal>) -> Self {
        self.events = Some(journal);
        self
    }

    /// Attribute one finished query's ledger; every K-th completion takes
    /// a reconciliation sample. Errors only under strict mode.
    pub fn note_query(&self, snap: &TelemetrySnapshot) -> Result<()> {
        {
            let mut per = self.by_table.lock().unwrap_or_else(|e| e.into_inner());
            for tr in &snap.ledger {
                *per.entry(tr.table.clone()).or_default() += tr.pages;
            }
        }
        self.attributed
            .fetch_add(snap.total_pages(), Ordering::SeqCst);
        // A completing batch member's settled pages are attributed now, so
        // they stop being deferred. The order matters: attribute first,
        // then drain — a sample in between sees the pages double-counted
        // on the tolerance side (drift ≤ deferred stays safe), never
        // missing from both.
        if let Some(deferred) = &self.deferred {
            let settled = snap.counter("batch.settled_pages");
            if settled > 0 {
                let _ = deferred.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
                    Some(d.saturating_sub(settled))
                });
                if let Some(hub) = &self.hub {
                    hub.batch_deferred_pages
                        .set(deferred.load(Ordering::SeqCst));
                }
            }
        }
        let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if done.is_multiple_of(self.every) {
            self.sample()?;
        }
        Ok(())
    }

    /// Per-table breakdown of one sample: every table the meter or the
    /// ledgers have touched, sorted by name.
    fn breakdown(
        &self,
        per_attr: &HashMap<Arc<str>, u64>,
        meter_by_table: &HashMap<Arc<str>, u64>,
    ) -> Vec<TableDrift> {
        let mut rows: Vec<TableDrift> = meter_by_table
            .iter()
            .map(|(t, &pages)| {
                let base = self.base_by_table.get(t).copied().unwrap_or(0);
                TableDrift {
                    table: t.to_string(),
                    attributed_pages: per_attr.get(t).copied().unwrap_or(0),
                    meter_pages: pages.saturating_sub(base),
                }
            })
            .filter(|r| r.attributed_pages > 0 || r.meter_pages > 0)
            .collect();
        // A table attributed but never metered is pure over-attribution;
        // it must show up in the breakdown too.
        for (t, &attr) in per_attr {
            if attr > 0 && !meter_by_table.contains_key(t) {
                rows.push(TableDrift {
                    table: t.to_string(),
                    attributed_pages: attr,
                    meter_pages: 0,
                });
            }
        }
        rows.sort_by(|a, b| a.table.cmp(&b.table));
        rows
    }

    /// One mid-run cross-check. Ordering matters: attributed totals are
    /// read *before* the meter, so `meter ≥ attributed` is guaranteed for
    /// correctly-attributed spend and any excess is true drift.
    fn sample(&self) -> Result<()> {
        let attributed = self.attributed.load(Ordering::SeqCst);
        let per_attr: HashMap<Arc<str>, u64> = self
            .by_table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let bill = self.market.bill();
        let meter = bill.transactions() - self.base_pages;
        let meter_by_table = table_pages(&bill);
        let rows = self.breakdown(&per_attr, &meter_by_table);
        *self.last_sample.lock().unwrap_or_else(|e| e.into_inner()) = rows.clone();

        let sample_no = self.samples.fetch_add(1, Ordering::SeqCst) + 1;
        let mut violation: Option<String> = None;
        if attributed > meter {
            violation = Some(format!(
                "over-attribution: Σ ledger pages {attributed} exceeds meter delta {meter} \
                 ({})",
                render_breakdown(&rows)
            ));
        }
        for (table, &attr) in &per_attr {
            let base = self.base_by_table.get(table).copied().unwrap_or(0);
            let meter_t = meter_by_table.get(table).copied().unwrap_or(0) - base;
            if attr > meter_t {
                violation = Some(format!(
                    "over-attribution on `{table}`: ledger {attr} exceeds meter delta {meter_t}"
                ));
                break;
            }
        }
        let drift = meter.saturating_sub(attributed);
        // Pages settled onto batch members whose queries are still running
        // are legitimately unattributed; only drift beyond that register is
        // a violation under the serial check.
        let deferred = self
            .deferred
            .as_ref()
            .map(|d| d.load(Ordering::SeqCst))
            .unwrap_or(0);
        if violation.is_none() && self.serial && drift > deferred {
            violation = Some(format!(
                "single-threaded run sampled drift beyond the batch-deferred register: \
                 meter delta {meter}, attributed {attributed}, deferred {deferred} \
                 ({})",
                render_breakdown(&rows)
            ));
        }
        self.max_drift.fetch_max(drift, Ordering::SeqCst);
        if let Some(j) = &self.events {
            j.emit(None, Severity::Debug, || EventKind::WatchdogSample {
                sample: sample_no,
                attributed_pages: attributed,
                meter_pages: meter,
                deferred_pages: deferred,
                exact: self.serial,
            });
            if let Some(v) = &violation {
                j.emit(None, Severity::Error, || EventKind::WatchdogViolation {
                    detail: v.clone(),
                });
            }
        }
        if let Some(hub) = &self.hub {
            hub.watchdog_samples.inc(1);
            hub.watchdog_drift_pages.set(drift);
            hub.watchdog_max_drift_pages
                .set(self.max_drift.load(Ordering::SeqCst));
            if violation.is_some() {
                hub.watchdog_violations.inc(1);
            }
        }
        match violation {
            Some(v) if self.strict => Err(PaylessError::Internal(format!(
                "reconciliation watchdog (strict): {v}"
            ))),
            _ => Ok(()),
        }
    }

    /// Final reconciliation at quiescence: the meter delta must equal the
    /// attributed pages exactly, globally and per table. Panics on
    /// mismatch, like `run_mix`'s historical exit assert — with the
    /// per-table breakdown in the message, and an error event journaled
    /// first so the black-box dump covers the violating reconciliation.
    pub fn finish(&self) -> WatchdogReport {
        let attributed = self.attributed.load(Ordering::SeqCst);
        let per_attr = self
            .by_table
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let bill = self.market.bill();
        let meter = bill.transactions() - self.base_pages;
        let meter_by_table = table_pages(&bill);
        let rows = self.breakdown(&per_attr, &meter_by_table);
        *self.last_sample.lock().unwrap_or_else(|e| e.into_inner()) = rows.clone();

        let mut violation: Option<String> = None;
        if attributed != meter {
            violation = Some(format!(
                "spend ledger must reconcile with the billing meter: \
                 Σ per-query ledger pages = {attributed}, meter delta = {meter} \
                 ({})",
                render_breakdown(&rows)
            ));
        } else if let Some(r) = rows.iter().find(|r| r.attributed_pages != r.meter_pages) {
            violation = Some(format!(
                "per-table reconciliation failed for `{}`: ledger {} vs meter {} \
                 ({})",
                r.table,
                r.attributed_pages,
                r.meter_pages,
                render_breakdown(&rows)
            ));
        }
        if let Some(v) = violation {
            if let Some(j) = &self.events {
                j.emit(None, Severity::Error, || EventKind::WatchdogViolation {
                    detail: v.clone(),
                });
            }
            panic!("{v}");
        }
        if let Some(hub) = &self.hub {
            hub.watchdog_drift_pages.set(0);
        }
        WatchdogReport {
            samples: self.samples.load(Ordering::SeqCst),
            max_drift_pages: self.max_drift.load(Ordering::SeqCst),
            last_sample: rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_market::Dataset;
    use payless_telemetry::{CallKind, TransactionRecord};

    fn market() -> DataMarket {
        DataMarket::new(vec![Dataset::new("d")])
    }

    /// A completed query's snapshot: `pages` attributed to table `T`, and
    /// (for batch members) `settled` pages counted as `batch.settled_pages`.
    fn snap(pages: u64, settled: u64) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        if pages > 0 {
            s.ledger.push(TransactionRecord {
                seq: 0,
                dataset: "d".into(),
                table: "T".into(),
                kind: CallKind::Remainder,
                records: pages,
                page_size: 1,
                pages,
                price: pages as f64,
                wasted: false,
                at_nanos: 0,
            });
        }
        if settled > 0 {
            s.counters.push(("batch.settled_pages", settled));
        }
        s
    }

    /// Regression (batched purchasing): a leader charges the meter for the
    /// whole batch but members' shares are attributed only when *their*
    /// queries complete. The strict serial check must tolerate exactly that much
    /// drift — no more — and the register must drain as members finish.
    #[test]
    fn deferred_share_pages_are_tolerated_then_drained() {
        let market = market();
        let deferred = Arc::new(AtomicU64::new(0));
        let dog = Watchdog::new(&market, 1, true, 1, None).with_deferred(deferred.clone());

        // Leader buys 10 pages for the batch: 4 its own, 6 settled onto a
        // still-running sibling (registered before any share is visible).
        market.meter().charge(&"T".into(), 10, 10);
        deferred.store(6, Ordering::SeqCst);
        dog.note_query(&snap(4, 0))
            .expect("drift equal to the deferred register must pass the serial check");

        // The sibling completes, attributing its 6-page share and draining
        // the register; drift returns to zero and the run reconciles.
        dog.note_query(&snap(6, 6)).expect("drained sample");
        assert_eq!(deferred.load(Ordering::SeqCst), 0);
        let report = dog.finish();
        assert_eq!(report.samples, 2);
        assert_eq!(report.max_drift_pages, 6);
    }

    #[test]
    fn drift_beyond_deferred_register_still_flags() {
        let market = market();
        let deferred = Arc::new(AtomicU64::new(2));
        let dog = Watchdog::new(&market, 1, true, 1, None).with_deferred(deferred);
        market.meter().charge(&"T".into(), 10, 10);
        let err = dog.note_query(&snap(4, 0)).unwrap_err();
        assert!(
            err.to_string().contains("deferred"),
            "the serial check must flag drift beyond the register: {err}"
        );
    }

    #[test]
    fn serial_check_without_register_flags_any_drift() {
        let market = market();
        let dog = Watchdog::new(&market, 1, true, 1, None);
        market.meter().charge(&"T".into(), 5, 5);
        assert!(dog.note_query(&snap(2, 0)).is_err());
    }
}
