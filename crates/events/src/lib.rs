//! Flight recorder for PayLess: a bounded, structured event journal with
//! end-to-end spend provenance.
//!
//! The metrics hub can say *that* attributed spend diverged from the billing
//! meter; this crate records *why*. Every interesting step of a query's life
//! — market call attempts, retries, truncated deliveries, billed faults,
//! coalesced flights, store insert/compact, and every reconciliation
//! watchdog sample — is appended to a ring-buffered journal as a typed
//! [`Event`] carrying stable causal ids (query / call / flight). From the
//! journal alone, [`provenance`] reconstructs the exact chain of events
//! behind any query's bill, and [`EventJournal::dump_blackbox`] writes the
//! last N events as JSONL when a run aborts or panics — the black box.
//!
//! # Design
//!
//! * **One dependency.** JSONL lines are [`payless_json`] objects; that
//!   crate depends on nothing, so this one can sit below every other
//!   PayLess crate.
//! * **One ring.** A single mutex guards the next sequence number and the
//!   ring, so the ring is always in sequence order and
//!   [`EventJournal::snapshot`] is a plain copy.
//! * **Bounded.** The ring holds the newest `cap` events; the older ones
//!   it drops are counted in [`EventJournal::dropped`].
//! * **Free when absent.** Every attach point holds an
//!   `Option<Arc<EventJournal>>`; with `None` no payload is built.
//!
//! Libraries never read the environment: front ends pass an explicit
//! [`EventsConfig`].

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use payless_json::{Json, ToJson};

/// Default ring capacity (events retained, and the size of a black-box
/// dump).
pub const DEFAULT_CAP: usize = 8192;

// ---------------------------------------------------------------------------
// Causal ids
// ---------------------------------------------------------------------------

/// Stable id of one logical query (the session / serve logical clock value
/// under which it executed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Stable id of one resilient market call (a full attempt loop), unique per
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u64);

/// Stable id of one coalesced single-flight claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlightId(pub u64);

static NEXT_CALL: AtomicU64 = AtomicU64::new(1);

impl CallId {
    /// Allocate a process-unique call id (used by the resilient call
    /// chokepoint at the top of each attempt loop).
    pub fn next() -> CallId {
        CallId(NEXT_CALL.fetch_add(1, Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Event severity, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Debug,
    Info,
    Warn,
    Error,
}

impl Severity {
    /// Lowercase wire name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// What happened. Page counts are billing-meter transactions (pages), the
/// same unit the ledger and meter use, so provenance sums reconcile exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A query began executing under the journal's logical clock.
    QueryStart,
    /// A query finished; totals are its ledger view of the run.
    QueryDone {
        ok: bool,
        pages: u64,
        wasted_pages: u64,
    },
    /// One attempt of a resilient call is about to hit the market wire.
    CallAttempt {
        call: u64,
        table: String,
        attempt: u64,
    },
    /// A delivery was billed but failed row-count validation (Eq. 1) — the
    /// pages are charged and wasted.
    CallTruncated {
        call: u64,
        table: String,
        wasted_pages: u64,
    },
    /// An attempt failed; `billed_pages` > 0 means the market charged for
    /// the failure (wasted spend), 0 means it failed free.
    CallFault {
        call: u64,
        table: String,
        billed_pages: u64,
        error: String,
    },
    /// The call will be retried after backing off.
    CallRetry {
        call: u64,
        table: String,
        next_attempt: u64,
        backoff_ms: u64,
    },
    /// The call delivered. `pages` is the clean delivery; `wasted_pages`
    /// accumulates billed-but-useless pages from earlier attempts.
    CallDelivered {
        call: u64,
        table: String,
        pages: u64,
        wasted_pages: u64,
        records: u64,
        attempts: u64,
    },
    /// The call gave up. `billed` mirrors `CallOutcome::BilledAndFailed`
    /// (the wasted pages were charged) vs `FailedFree`.
    CallFailed {
        call: u64,
        table: String,
        wasted_pages: u64,
        attempts: u64,
        billed: bool,
        error: String,
    },
    /// This query won the single-flight claim for a region.
    FlightClaimed { flight: u64, table: String },
    /// This query lost the claim and waited for in-flight work to land.
    /// `satisfied` means the contended region was already contained in a
    /// flight in progress.
    FlightWait { table: String, satisfied: bool },
    /// After waiting, the re-probe found the store already covered what
    /// this query was about to buy — a double-buy averted.
    FlightRecomputeAverted { table: String, pages: u64 },
    /// The semantic store recorded a bought region.
    StoreInsert {
        table: String,
        spend_pages: u64,
        views: u64,
    },
    /// Views were absorbed/coalesced during an insert.
    StoreCompact { table: String, compactions: u64 },
    /// One reconciliation watchdog sample (attributed ledger pages vs the
    /// billing meter).
    WatchdogSample {
        sample: u64,
        attributed_pages: u64,
        meter_pages: u64,
        /// The watchdog's serial check (zero drift at one thread) applied.
        exact: bool,
    },
    /// The watchdog flagged a reconciliation violation.
    WatchdogViolation { detail: String },
    /// Synthetic marker appended when the black box is dumped.
    BlackBox { reason: String },
}

impl EventKind {
    /// Snake-case wire name used as the JSONL `kind` discriminator.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryStart => "query_start",
            EventKind::QueryDone { .. } => "query_done",
            EventKind::CallAttempt { .. } => "call_attempt",
            EventKind::CallTruncated { .. } => "call_truncated",
            EventKind::CallFault { .. } => "call_fault",
            EventKind::CallRetry { .. } => "call_retry",
            EventKind::CallDelivered { .. } => "call_delivered",
            EventKind::CallFailed { .. } => "call_failed",
            EventKind::FlightClaimed { .. } => "flight_claimed",
            EventKind::FlightWait { .. } => "flight_wait",
            EventKind::FlightRecomputeAverted { .. } => "flight_recompute_averted",
            EventKind::StoreInsert { .. } => "store_insert",
            EventKind::StoreCompact { .. } => "store_compact",
            EventKind::WatchdogSample { .. } => "watchdog_sample",
            EventKind::WatchdogViolation { .. } => "watchdog_violation",
            EventKind::BlackBox { .. } => "blackbox",
        }
    }
}

/// One journal entry: a totally ordered, timestamped, severity-tagged
/// [`EventKind`] attributed to at most one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Position in the journal's total order (assigned under the ring lock).
    pub seq: u64,
    /// Nanoseconds since the journal was created.
    pub at_nanos: u64,
    pub severity: Severity,
    /// The query this event belongs to, when one is in scope. Store and
    /// watchdog events are system-level and carry `None`.
    pub query: Option<u64>,
    pub kind: EventKind,
}

/// `(name, value)` JSON fields named after the bindings that hold them.
macro_rules! fields {
    ($($field:ident),*) => {
        vec![$((stringify!($field), $field.to_json())),*]
    };
}

impl Event {
    /// Render as one flat JSON object (one JSONL line, no trailing newline).
    /// The `kind` field is the discriminator; variant payload fields are
    /// inlined beside it in declaration order.
    pub fn to_json_line(&self) -> String {
        let mut line = vec![
            ("seq", self.seq.to_json()),
            ("at_nanos", self.at_nanos.to_json()),
            ("severity", Json::str(self.severity.as_str())),
        ];
        if let Some(q) = self.query {
            line.push(("query", q.to_json()));
        }
        line.push(("kind", Json::str(self.kind.name())));
        line.extend(match &self.kind {
            EventKind::QueryStart => vec![],
            EventKind::QueryDone {
                ok,
                pages,
                wasted_pages,
            } => fields!(ok, pages, wasted_pages),
            EventKind::CallAttempt {
                call,
                table,
                attempt,
            } => fields!(call, table, attempt),
            EventKind::CallTruncated {
                call,
                table,
                wasted_pages,
            } => fields!(call, table, wasted_pages),
            EventKind::CallFault {
                call,
                table,
                billed_pages,
                error,
            } => fields!(call, table, billed_pages, error),
            EventKind::CallRetry {
                call,
                table,
                next_attempt,
                backoff_ms,
            } => fields!(call, table, next_attempt, backoff_ms),
            EventKind::CallDelivered {
                call,
                table,
                pages,
                wasted_pages,
                records,
                attempts,
            } => fields!(call, table, pages, wasted_pages, records, attempts),
            EventKind::CallFailed {
                call,
                table,
                wasted_pages,
                attempts,
                billed,
                error,
            } => fields!(call, table, wasted_pages, attempts, billed, error),
            EventKind::FlightClaimed { flight, table } => fields!(flight, table),
            EventKind::FlightWait { table, satisfied } => fields!(table, satisfied),
            EventKind::FlightRecomputeAverted { table, pages } => fields!(table, pages),
            EventKind::StoreInsert {
                table,
                spend_pages,
                views,
            } => fields!(table, spend_pages, views),
            EventKind::StoreCompact { table, compactions } => fields!(table, compactions),
            EventKind::WatchdogSample {
                sample,
                attributed_pages,
                meter_pages,
                exact,
            } => fields!(sample, attributed_pages, meter_pages, exact),
            EventKind::WatchdogViolation { detail } => fields!(detail),
            EventKind::BlackBox { reason } => fields!(reason),
        });
        Json::obj(line).to_string_compact()
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Flight-recorder configuration. The server runs the `Default`; the CLI
/// sets `blackbox` from `--events-out`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventsConfig {
    /// Ring capacity: events retained and the size of a black-box dump.
    pub cap: usize,
    /// Where [`EventJournal::dump_blackbox`] writes its JSONL dump, if
    /// anywhere.
    pub blackbox: Option<String>,
}

impl Default for EventsConfig {
    fn default() -> Self {
        EventsConfig {
            cap: DEFAULT_CAP,
            blackbox: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// The ring and the next sequence number, under one lock: the ring is in
/// sequence order, and every event emitted and not evicted is in it.
#[derive(Debug, Default)]
struct Ring {
    next_seq: u64,
    events: VecDeque<Event>,
}

/// The flight recorder. Cheap to share (`Arc`), bounded in memory (see
/// crate docs).
#[derive(Debug)]
pub struct EventJournal {
    epoch: Instant,
    cap: usize,
    ring: Mutex<Ring>,
    blackbox: Option<String>,
    dumped: AtomicBool,
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::new(DEFAULT_CAP)
    }
}

impl EventJournal {
    /// A journal retaining the newest `cap` events, with no black box.
    pub fn new(cap: usize) -> EventJournal {
        EventJournal {
            epoch: Instant::now(),
            cap: cap.max(1),
            ring: Mutex::default(),
            blackbox: None,
            dumped: AtomicBool::new(false),
        }
    }

    /// Build a shared journal from an explicit config.
    pub fn from_config(cfg: &EventsConfig) -> Arc<EventJournal> {
        Arc::new(EventJournal {
            blackbox: cfg.blackbox.clone(),
            ..EventJournal::new(cfg.cap)
        })
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring capacity (events retained).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Total events ever emitted (including those since rotated out).
    pub fn recorded(&self) -> u64 {
        self.lock().next_seq
    }

    /// Events lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        let ring = self.lock();
        ring.next_seq - ring.events.len() as u64
    }

    /// Append one event.
    pub fn emit(&self, query: Option<u64>, severity: Severity, kind: impl FnOnce() -> EventKind) {
        let kind = kind();
        let at_nanos = self.epoch.elapsed().as_nanos() as u64;
        let mut ring = self.lock();
        if ring.events.len() >= self.cap {
            ring.events.pop_front();
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.events.push_back(Event {
            seq,
            at_nanos,
            severity,
            query,
            kind,
        });
    }

    /// The newest `cap` events in sequence order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().events.iter().cloned().collect()
    }

    /// The whole journal as JSONL (one event per line, newline-terminated).
    pub fn dump_jsonl(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(snap.len() * 128);
        for e in &snap {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Write the black box: append a [`EventKind::BlackBox`] marker carrying
    /// `reason`, then dump the journal as JSONL to the configured path,
    /// creating parent directories. Only the *first* dump wins (an abort
    /// that unwinds into a second failure must not overwrite the original
    /// evidence). Returns the path written, `Ok(None)` when no path is
    /// configured, and a readable error instead of panicking on I/O
    /// failure — this runs on abort/panic paths.
    pub fn dump_blackbox(&self, reason: &str) -> Result<Option<String>, String> {
        let Some(path) = self.blackbox.clone() else {
            return Ok(None);
        };
        if self.dumped.swap(true, Ordering::SeqCst) {
            return Ok(Some(path));
        }
        self.emit(None, Severity::Error, || EventKind::BlackBox {
            reason: reason.to_string(),
        });
        let body = self.dump_jsonl();
        let p = std::path::Path::new(&path);
        if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("events black box `{path}`: cannot create parent: {e}"))?;
        }
        std::fs::write(p, body).map_err(|e| format!("events black box `{path}`: {e}"))?;
        Ok(Some(path))
    }
}

// ---------------------------------------------------------------------------
// Per-query emission scope
// ---------------------------------------------------------------------------

/// A journal handle bound to one query: what the executor threads through
/// the call chokepoint so every event lands with the right causal ids.
#[derive(Clone, Copy)]
pub struct EventScope<'a> {
    journal: &'a EventJournal,
    query: u64,
}

impl<'a> EventScope<'a> {
    /// Scope `journal` to `query`.
    pub fn new(journal: &'a EventJournal, query: u64) -> EventScope<'a> {
        EventScope { journal, query }
    }

    /// The query id this scope attributes to.
    pub fn query(&self) -> u64 {
        self.query
    }

    /// The underlying journal.
    pub fn journal(&self) -> &'a EventJournal {
        self.journal
    }

    /// Emit under this scope's query id.
    pub fn emit(&self, severity: Severity, kind: impl FnOnce() -> EventKind) {
        self.journal.emit(Some(self.query), severity, kind);
    }
}

// ---------------------------------------------------------------------------
// Provenance reconstruction
// ---------------------------------------------------------------------------

/// A query's spend provenance, reconstructed from the journal alone.
///
/// `billed_pages == delivered_pages + wasted_pages` and, by construction of
/// the instrumented seams, equals the query's ledger total and its share of
/// the billing meter: the sum of its delivered calls' pages and waste plus
/// the waste of its billed failed calls. A coalescing waiter bought nothing,
/// so it has no call events and is billed nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    pub query: u64,
    pub delivered_pages: u64,
    pub wasted_pages: u64,
    pub records: u64,
    /// Events attributed to the query, in sequence order.
    pub events: Vec<Event>,
}

impl Provenance {
    /// Total pages the billing meter charged this query.
    pub fn billed_pages(&self) -> u64 {
        self.delivered_pages + self.wasted_pages
    }
}

/// Reconstruct the spend provenance of `query` from a journal snapshot.
pub fn provenance(events: &[Event], query: u64) -> Provenance {
    let mut p = Provenance {
        query,
        ..Provenance::default()
    };
    for e in events {
        if e.query != Some(query) {
            continue;
        }
        match &e.kind {
            EventKind::CallDelivered {
                pages,
                wasted_pages,
                records,
                ..
            } => {
                p.delivered_pages += pages;
                p.wasted_pages += wasted_pages;
                p.records += records;
            }
            EventKind::CallFailed {
                wasted_pages,
                billed,
                ..
            } if *billed => {
                p.wasted_pages += wasted_pages;
            }
            _ => {}
        }
        p.events.push(e.clone());
    }
    p
}

/// Render `query`'s provenance as a human-readable tree (the CLI `\why`
/// view).
pub fn render_provenance(events: &[Event], query: u64) -> String {
    let p = provenance(events, query);
    let mut out = String::new();
    if p.events.is_empty() {
        let _ = writeln!(
            out,
            "query {query}: no events in the journal (recorder off, \
             query never ran, or the ring rotated past it)"
        );
        return out;
    }
    let _ = writeln!(
        out,
        "query {} — billed {} pages = {} delivered + {} wasted · {} records",
        query,
        p.billed_pages(),
        p.delivered_pages,
        p.wasted_pages,
        p.records
    );

    // Group attempt-level call events under their call id.
    let mut call_detail: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for e in &p.events {
        let (call, line) = match &e.kind {
            EventKind::CallAttempt { call, attempt, .. } => {
                (*call, format!("attempt {attempt} hit the wire"))
            }
            EventKind::CallTruncated {
                call, wasted_pages, ..
            } => (
                *call,
                format!("truncated delivery: {wasted_pages} pages billed and wasted"),
            ),
            EventKind::CallFault {
                call,
                billed_pages,
                error,
                ..
            } => (
                *call,
                if *billed_pages > 0 {
                    format!("fault ({error}): {billed_pages} pages billed and wasted")
                } else {
                    format!("fault ({error}): failed free")
                },
            ),
            EventKind::CallRetry {
                call,
                next_attempt,
                backoff_ms,
                ..
            } => (
                *call,
                format!("retrying as attempt {next_attempt} after {backoff_ms} ms"),
            ),
            _ => continue,
        };
        call_detail.entry(call).or_default().push(line);
    }

    // Top-level nodes in journal order.
    let mut nodes: Vec<(String, Vec<String>)> = Vec::new();
    for e in &p.events {
        match &e.kind {
            EventKind::CallDelivered {
                call,
                table,
                pages,
                wasted_pages,
                records,
                attempts,
            } => {
                nodes.push((
                    format!(
                        "call {call} on `{table}`: delivered {pages} pages \
                         (+{wasted_pages} wasted) · {records} records · {attempts} attempt(s)"
                    ),
                    call_detail.remove(call).unwrap_or_default(),
                ));
            }
            EventKind::CallFailed {
                call,
                table,
                wasted_pages,
                attempts,
                billed,
                error,
            } => {
                let cost = if *billed {
                    format!("{wasted_pages} pages billed and wasted")
                } else {
                    "failed free".to_string()
                };
                nodes.push((
                    format!(
                        "call {call} on `{table}` FAILED after {attempts} attempt(s): \
                         {error} — {cost}"
                    ),
                    call_detail.remove(call).unwrap_or_default(),
                ));
            }
            EventKind::FlightClaimed { flight, table } => {
                nodes.push((format!("flight {flight} claimed on `{table}`"), Vec::new()));
            }
            EventKind::FlightWait { table, satisfied } => {
                let note = if *satisfied {
                    "region already covered by a flight in progress"
                } else {
                    "waited for in-flight purchases to land"
                };
                nodes.push((format!("coalesced on `{table}`: {note}"), Vec::new()));
            }
            EventKind::FlightRecomputeAverted { table, pages } => {
                nodes.push((
                    format!("double-buy averted on `{table}`: {pages} pages already stored"),
                    Vec::new(),
                ));
            }
            _ => {}
        }
    }

    for (i, (head, subs)) in nodes.iter().enumerate() {
        let last = i + 1 == nodes.len();
        let _ = writeln!(out, "{} {}", if last { "└──" } else { "├──" }, head);
        let stem = if last { "    " } else { "│   " };
        for (j, sub) in subs.iter().enumerate() {
            let sub_last = j + 1 == subs.len();
            let _ = writeln!(
                out,
                "{}{} {}",
                stem,
                if sub_last { "└──" } else { "├──" },
                sub
            );
        }
    }
    out
}

/// Query ids present in the journal, in first-seen order — lets the CLI
/// list what `\why` can explain.
pub fn known_queries(events: &[Event]) -> Vec<u64> {
    let mut seen = Vec::new();
    for e in events {
        if let Some(q) = e.query {
            if !seen.contains(&q) {
                seen.push(q);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call_delivered(call: u64, pages: u64, wasted: u64) -> EventKind {
        EventKind::CallDelivered {
            call,
            table: "T".into(),
            pages,
            wasted_pages: wasted,
            records: pages * 10,
            attempts: 1,
        }
    }

    #[test]
    fn seq_orders_events_across_threads() {
        let j = Arc::new(EventJournal::new(1024));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        j.emit(Some(t), Severity::Debug, || EventKind::CallAttempt {
                            call: t * 1000 + i,
                            table: "T".into(),
                            attempt: 1,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 400);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.recorded(), 400);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_overflow_keeps_exactly_the_newest_cap() {
        let j = EventJournal::new(16);
        for i in 0..100u64 {
            j.emit(Some(i), Severity::Debug, || EventKind::QueryStart);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(snap[0].seq, 84);
        assert_eq!(snap.last().unwrap().seq, 99);
        assert_eq!(j.dropped(), 84);
    }

    /// One event of every [`EventKind`] variant; the strings carry a quote,
    /// a backslash, a newline and a `\u{1}` control character.
    fn every_kind() -> Vec<Event> {
        let nasty = "a\"b\\c\nd\u{1}e".to_string();
        let kinds = vec![
            EventKind::QueryStart,
            EventKind::QueryDone {
                ok: true,
                pages: 12,
                wasted_pages: 3,
            },
            EventKind::CallAttempt {
                call: 4,
                table: "Weather".into(),
                attempt: 2,
            },
            EventKind::CallTruncated {
                call: 4,
                table: nasty.clone(),
                wasted_pages: 5,
            },
            EventKind::CallFault {
                call: 5,
                table: "Weather \"W\"".into(),
                billed_pages: 2,
                error: "corrupt\nbody\\".into(),
            },
            EventKind::CallRetry {
                call: 5,
                table: "T".into(),
                next_attempt: 3,
                backoff_ms: 40,
            },
            EventKind::CallDelivered {
                call: 6,
                table: "Station".into(),
                pages: 7,
                wasted_pages: 1,
                records: 700,
                attempts: 2,
            },
            EventKind::CallFailed {
                call: 7,
                table: "T".into(),
                wasted_pages: 4,
                attempts: 3,
                billed: false,
                error: nasty.clone(),
            },
            EventKind::FlightClaimed {
                flight: 9,
                table: "T".into(),
            },
            EventKind::FlightWait {
                table: "T".into(),
                satisfied: true,
            },
            EventKind::FlightRecomputeAverted {
                table: "T".into(),
                pages: 6,
            },
            EventKind::StoreInsert {
                table: "T".into(),
                spend_pages: 8,
                views: 3,
            },
            EventKind::StoreCompact {
                table: "T".into(),
                compactions: 2,
            },
            EventKind::WatchdogSample {
                sample: 11,
                attributed_pages: 90,
                meter_pages: 91,
                exact: false,
            },
            EventKind::WatchdogViolation {
                detail: nasty.clone(),
            },
            EventKind::BlackBox {
                reason: "panic: \"x\"\n".into(),
            },
        ];
        let severities = [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                at_nanos: 1_000 * i as u64 + 17,
                severity: severities[i % severities.len()],
                query: (i % 3 != 0).then_some(100 + i as u64),
                kind,
            })
            .collect()
    }

    /// Every variant renders to the exact bytes the journal has always
    /// written: flat objects, keys in declaration order, strings escaped.
    #[test]
    fn jsonl_lines_are_flat_objects() {
        let expected = [
            "{\"seq\":0,\"at_nanos\":17,\"severity\":\"debug\",\"kind\":\"query_start\"}",
            "{\"seq\":1,\"at_nanos\":1017,\"severity\":\"info\",\"query\":101,\"kind\":\"query_done\",\"ok\":true,\"pages\":12,\"wasted_pages\":3}",
            "{\"seq\":2,\"at_nanos\":2017,\"severity\":\"warn\",\"query\":102,\"kind\":\"call_attempt\",\"call\":4,\"table\":\"Weather\",\"attempt\":2}",
            "{\"seq\":3,\"at_nanos\":3017,\"severity\":\"error\",\"kind\":\"call_truncated\",\"call\":4,\"table\":\"a\\\"b\\\\c\\nd\\u0001e\",\"wasted_pages\":5}",
            "{\"seq\":4,\"at_nanos\":4017,\"severity\":\"debug\",\"query\":104,\"kind\":\"call_fault\",\"call\":5,\"table\":\"Weather \\\"W\\\"\",\"billed_pages\":2,\"error\":\"corrupt\\nbody\\\\\"}",
            "{\"seq\":5,\"at_nanos\":5017,\"severity\":\"info\",\"query\":105,\"kind\":\"call_retry\",\"call\":5,\"table\":\"T\",\"next_attempt\":3,\"backoff_ms\":40}",
            "{\"seq\":6,\"at_nanos\":6017,\"severity\":\"warn\",\"kind\":\"call_delivered\",\"call\":6,\"table\":\"Station\",\"pages\":7,\"wasted_pages\":1,\"records\":700,\"attempts\":2}",
            "{\"seq\":7,\"at_nanos\":7017,\"severity\":\"error\",\"query\":107,\"kind\":\"call_failed\",\"call\":7,\"table\":\"T\",\"wasted_pages\":4,\"attempts\":3,\"billed\":false,\"error\":\"a\\\"b\\\\c\\nd\\u0001e\"}",
            "{\"seq\":8,\"at_nanos\":8017,\"severity\":\"debug\",\"query\":108,\"kind\":\"flight_claimed\",\"flight\":9,\"table\":\"T\"}",
            "{\"seq\":9,\"at_nanos\":9017,\"severity\":\"info\",\"kind\":\"flight_wait\",\"table\":\"T\",\"satisfied\":true}",
            "{\"seq\":10,\"at_nanos\":10017,\"severity\":\"warn\",\"query\":110,\"kind\":\"flight_recompute_averted\",\"table\":\"T\",\"pages\":6}",
            "{\"seq\":11,\"at_nanos\":11017,\"severity\":\"error\",\"query\":111,\"kind\":\"store_insert\",\"table\":\"T\",\"spend_pages\":8,\"views\":3}",
            "{\"seq\":12,\"at_nanos\":12017,\"severity\":\"debug\",\"kind\":\"store_compact\",\"table\":\"T\",\"compactions\":2}",
            "{\"seq\":13,\"at_nanos\":13017,\"severity\":\"info\",\"query\":113,\"kind\":\"watchdog_sample\",\"sample\":11,\"attributed_pages\":90,\"meter_pages\":91,\"exact\":false}",
            "{\"seq\":14,\"at_nanos\":14017,\"severity\":\"warn\",\"query\":114,\"kind\":\"watchdog_violation\",\"detail\":\"a\\\"b\\\\c\\nd\\u0001e\"}",
            "{\"seq\":15,\"at_nanos\":15017,\"severity\":\"error\",\"kind\":\"blackbox\",\"reason\":\"panic: \\\"x\\\"\\n\"}",
        ];
        let events = every_kind();
        assert_eq!(events.len(), expected.len());
        for (e, want) in events.iter().zip(expected) {
            assert_eq!(e.to_json_line(), want, "{:?}", e.kind);
            let parsed = payless_json::parse(want).expect("line parses");
            assert_eq!(parsed.get("kind").unwrap().as_str().unwrap(), e.kind.name());
        }
    }

    #[test]
    fn provenance_sums_delivered_calls_and_billed_failures() {
        let j = EventJournal::new(256);
        // Query 1: two plain calls (5 delivered + 2 wasted, then 3 + 0).
        j.emit(Some(1), Severity::Info, || call_delivered(10, 5, 2));
        j.emit(Some(1), Severity::Info, || call_delivered(11, 3, 0));
        // Query 2 buys on its own; none of it is query 1's.
        j.emit(Some(2), Severity::Info, || call_delivered(14, 6, 0));
        // A billed failure charges its waste; a free failure does not.
        j.emit(Some(1), Severity::Error, || EventKind::CallFailed {
            call: 12,
            table: "T".into(),
            wasted_pages: 4,
            attempts: 2,
            billed: true,
            error: "corrupt".into(),
        });
        j.emit(Some(1), Severity::Error, || EventKind::CallFailed {
            call: 13,
            table: "T".into(),
            wasted_pages: 0,
            attempts: 1,
            billed: false,
            error: "unavailable".into(),
        });
        let snap = j.snapshot();
        let p1 = provenance(&snap, 1);
        assert_eq!(p1.delivered_pages, 8);
        assert_eq!(p1.wasted_pages, 6);
        assert_eq!(p1.billed_pages(), 14);
        assert_eq!(p1.records, 80);
        let p2 = provenance(&snap, 2);
        assert_eq!(p2.billed_pages(), 6);
        let tree = render_provenance(&snap, 1);
        assert!(tree.contains("billed 14 pages"));
        assert!(tree.contains("call 12 on `T` FAILED"));
        assert_eq!(known_queries(&snap), vec![1, 2]);
    }

    #[test]
    fn blackbox_dump_writes_once_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("payless-events-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/black.jsonl");
        let j = EventJournal::from_config(&EventsConfig {
            cap: 16,
            blackbox: Some(path.to_string_lossy().into_owned()),
        });
        j.emit(Some(1), Severity::Info, || EventKind::QueryStart);
        let written = j.dump_blackbox("test abort").unwrap();
        assert!(written.is_some());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"kind\":\"blackbox\""));
        assert!(body.contains("test abort"));
        // Second dump must not overwrite the first.
        j.emit(Some(2), Severity::Info, || EventKind::QueryStart);
        j.dump_blackbox("second").unwrap();
        let again = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
