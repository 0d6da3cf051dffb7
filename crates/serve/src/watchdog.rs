//! Continuous spend reconciliation while a mix is running.
//!
//! `run_mix` reconciles Σ per-query ledger pages against the billing meter
//! at exit. The [`Watchdog`] also cross-checks during the run: after every
//! completed query it samples the meter and compares it against the pages
//! attributed so far, globally and per table. A sample is one meter read
//! and a clone of the per-table map, and the first violation aborts the
//! mix.
//!
//! **Soundness under concurrency.** A sample reads the attributed totals
//! *before* reading the meter. Every ledger entry corresponds to a meter
//! charge that already happened, so at that instant `meter ≥ attributed`
//! always holds; the difference ("drift") is spend whose queries are still
//! in flight, and it must return to zero at quiescence. `attributed >
//! meter` can never legitimately happen — it means double-counted ledger
//! entries — and is flagged as a violation the moment it is seen.
//!
//! Drift is recorded into the metrics hub (`payless_watchdog_*`). With one
//! worker thread there is no in-flight spend at sample time, so the
//! *serial check* additionally requires zero drift at every sample. Every
//! page is attributed to the query that bought it (a coalescing waiter
//! buys nothing and is billed nothing), so no spend outlives its query.

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
    /// Pages billed but not yet attributed (in-flight spend).
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

/// Samples `Σ attributed ledger pages == billing meter` after every query.
pub struct Watchdog<'a> {
    market: &'a DataMarket,
    /// One worker thread: no spend can be in flight at a sample, so any
    /// nonzero drift is itself a violation (the serial check).
    serial: bool,
    base_pages: u64,
    base_by_table: HashMap<Arc<str>, u64>,
    attributed: AtomicU64,
    by_table: Mutex<HashMap<Arc<str>, u64>>,
    samples: AtomicU64,
    max_drift: AtomicU64,
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
    pub fn new(market: &'a DataMarket, threads: usize, hub: Option<Arc<MetricsHub>>) -> Self {
        let base = market.bill();
        Watchdog {
            market,
            serial: threads <= 1,
            base_pages: base.transactions(),
            base_by_table: table_pages(&base),
            attributed: AtomicU64::new(0),
            by_table: Mutex::new(HashMap::new()),
            samples: AtomicU64::new(0),
            max_drift: AtomicU64::new(0),
            hub,
            events: None,
            last_sample: Mutex::new(Vec::new()),
        }
    }

    /// Attach a flight-recorder journal: every reconciliation sample is
    /// journaled (`watchdog_sample`), and any violation is journaled as an
    /// error event before the mix aborts or `finish` panics — so the
    /// black-box dump always covers the violating sample.
    pub fn with_events(mut self, journal: Arc<EventJournal>) -> Self {
        self.events = Some(journal);
        self
    }

    /// Attribute one finished query's ledger, then take a reconciliation
    /// sample. Errors at the first violation.
    pub fn note_query(&self, snap: &TelemetrySnapshot) -> Result<()> {
        {
            let mut per = self.by_table.lock().unwrap_or_else(|e| e.into_inner());
            for tr in &snap.ledger {
                *per.entry(tr.table.clone()).or_default() += tr.pages;
            }
        }
        self.attributed
            .fetch_add(snap.total_pages(), Ordering::SeqCst);
        self.sample()
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
        if violation.is_none() && self.serial && drift > 0 {
            violation = Some(format!(
                "single-threaded run sampled nonzero drift: \
                 meter delta {meter}, attributed {attributed} ({})",
                render_breakdown(&rows)
            ));
        }
        self.max_drift.fetch_max(drift, Ordering::SeqCst);
        if let Some(j) = &self.events {
            j.emit(None, Severity::Debug, || EventKind::WatchdogSample {
                sample: sample_no,
                attributed_pages: attributed,
                meter_pages: meter,
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
            Some(v) => Err(PaylessError::Internal(format!(
                "reconciliation watchdog: {v}"
            ))),
            None => Ok(()),
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

    /// A completed query's snapshot: `pages` attributed to table `T`.
    fn snap(pages: u64) -> TelemetrySnapshot {
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
        s
    }

    #[test]
    fn serial_check_without_register_flags_any_drift() {
        let market = market();
        let dog = Watchdog::new(&market, 1, None);
        market.meter().charge(&"T".into(), 2, 2);
        dog.note_query(&snap(2)).expect("zero drift passes");
        market.meter().charge(&"T".into(), 5, 5);
        let err = dog.note_query(&snap(2)).unwrap_err();
        assert!(err.to_string().contains("nonzero drift"), "{err}");
    }
}
