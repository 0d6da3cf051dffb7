//! Flight recorder for PayLess: a lock-cheap, bounded, structured event
//! journal with end-to-end spend provenance.
//!
//! The metrics hub can say *that* attributed spend diverged from the billing
//! meter; this crate records *why*. Every interesting step of a query's life
//! — market call attempts, retries, truncated deliveries, billed faults,
//! coalesced flights, store insert/compact/evict, and every reconciliation
//! watchdog sample — is appended to a ring-buffered journal as a typed
//! [`Event`] carrying stable causal ids (query / call / flight). From the
//! journal alone, [`provenance`] reconstructs the exact chain of events
//! behind any query's bill, and [`EventJournal::dump_blackbox`] writes the
//! last N events as JSONL when a run aborts or panics — the black box.
//!
//! # Design
//!
//! * **Std-only, zero dependencies.** JSONL emission is hand-rolled so the
//!   crate can sit below every other PayLess crate.
//! * **Lock-cheap.** Threads append to one of [`SHARDS`] mutex-protected
//!   rings chosen per-thread (round-robin at first use), so unrelated
//!   threads rarely contend. A global atomic sequence counter gives every
//!   event a total order; [`EventJournal::snapshot`] merges the shards by
//!   sequence number.
//! * **Bounded.** Each shard ring holds at most `cap` events. Because an
//!   event among the globally newest `cap` has fewer than `cap` newer
//!   events in *any* shard, the merged snapshot (truncated to the newest
//!   `cap`) is exactly the globally newest `cap` events — overflow only
//!   ever drops events older than that. Worst-case memory is
//!   `SHARDS × cap` events; evictions are counted in
//!   [`EventJournal::dropped`].
//! * **Free when absent.** Every attach point holds an
//!   `Option<Arc<EventJournal>>`; with `None` no payload is built.
//!
//! Libraries never read the environment: front ends pass an explicit
//! [`EventsConfig`].

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of per-thread ring shards. A small power of two: enough to keep
/// an 8-way serve mix from contending, small enough that a full snapshot
/// merge stays trivial.
pub const SHARDS: usize = 8;

/// Default ring capacity (events retained per shard, and the size of the
/// merged black-box dump).
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
    /// Views were absorbed/coalesced/redundancy-dropped during an insert.
    StoreCompact { table: String, compactions: u64 },
    /// Spend-weighted evictions ran to bound the view count.
    StoreEvict { table: String, evictions: u64 },
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
            EventKind::StoreEvict { .. } => "store_evict",
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
    /// Position in the journal's total order (global atomic counter).
    pub seq: u64,
    /// Nanoseconds since the journal was created.
    pub at_nanos: u64,
    pub severity: Severity,
    /// The query this event belongs to, when one is in scope. Store and
    /// watchdog events are system-level and carry `None`.
    pub query: Option<u64>,
    pub kind: EventKind,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Render as one flat JSON object (one JSONL line, no trailing newline).
    /// The `kind` field is the discriminator; variant payload fields are
    /// inlined beside it.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"seq\":{},\"at_nanos\":{},\"severity\":\"{}\"",
            self.seq,
            self.at_nanos,
            self.severity.as_str()
        );
        if let Some(q) = self.query {
            let _ = write!(s, ",\"query\":{q}");
        }
        let _ = write!(s, ",\"kind\":\"{}\"", self.kind.name());
        let num = |s: &mut String, k: &str, v: u64| {
            let _ = write!(s, ",\"{k}\":{v}");
        };
        let txt = |s: &mut String, k: &str, v: &str| {
            let _ = write!(s, ",\"{k}\":");
            push_json_str(s, v);
        };
        let flag = |s: &mut String, k: &str, v: bool| {
            let _ = write!(s, ",\"{k}\":{v}");
        };
        match &self.kind {
            EventKind::QueryStart => {}
            EventKind::QueryDone {
                ok,
                pages,
                wasted_pages,
            } => {
                flag(&mut s, "ok", *ok);
                num(&mut s, "pages", *pages);
                num(&mut s, "wasted_pages", *wasted_pages);
            }
            EventKind::CallAttempt {
                call,
                table,
                attempt,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "attempt", *attempt);
            }
            EventKind::CallTruncated {
                call,
                table,
                wasted_pages,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "wasted_pages", *wasted_pages);
            }
            EventKind::CallFault {
                call,
                table,
                billed_pages,
                error,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "billed_pages", *billed_pages);
                txt(&mut s, "error", error);
            }
            EventKind::CallRetry {
                call,
                table,
                next_attempt,
                backoff_ms,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "next_attempt", *next_attempt);
                num(&mut s, "backoff_ms", *backoff_ms);
            }
            EventKind::CallDelivered {
                call,
                table,
                pages,
                wasted_pages,
                records,
                attempts,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "pages", *pages);
                num(&mut s, "wasted_pages", *wasted_pages);
                num(&mut s, "records", *records);
                num(&mut s, "attempts", *attempts);
            }
            EventKind::CallFailed {
                call,
                table,
                wasted_pages,
                attempts,
                billed,
                error,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "wasted_pages", *wasted_pages);
                num(&mut s, "attempts", *attempts);
                flag(&mut s, "billed", *billed);
                txt(&mut s, "error", error);
            }
            EventKind::FlightClaimed { flight, table } => {
                num(&mut s, "flight", *flight);
                txt(&mut s, "table", table);
            }
            EventKind::FlightWait { table, satisfied } => {
                txt(&mut s, "table", table);
                flag(&mut s, "satisfied", *satisfied);
            }
            EventKind::FlightRecomputeAverted { table, pages } => {
                txt(&mut s, "table", table);
                num(&mut s, "pages", *pages);
            }
            EventKind::StoreInsert {
                table,
                spend_pages,
                views,
            } => {
                txt(&mut s, "table", table);
                num(&mut s, "spend_pages", *spend_pages);
                num(&mut s, "views", *views);
            }
            EventKind::StoreCompact { table, compactions } => {
                txt(&mut s, "table", table);
                num(&mut s, "compactions", *compactions);
            }
            EventKind::StoreEvict { table, evictions } => {
                txt(&mut s, "table", table);
                num(&mut s, "evictions", *evictions);
            }
            EventKind::WatchdogSample {
                sample,
                attributed_pages,
                meter_pages,
                exact,
            } => {
                num(&mut s, "sample", *sample);
                num(&mut s, "attributed_pages", *attributed_pages);
                num(&mut s, "meter_pages", *meter_pages);
                flag(&mut s, "exact", *exact);
            }
            EventKind::WatchdogViolation { detail } => {
                txt(&mut s, "detail", detail);
            }
            EventKind::BlackBox { reason } => {
                txt(&mut s, "reason", reason);
            }
        }
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Flight-recorder configuration. The server runs the `Default`; the CLI
/// sets `blackbox` from `--events-out`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventsConfig {
    /// Ring capacity: events retained per shard and the size of a
    /// black-box dump.
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

fn shard_index() -> usize {
    use std::cell::Cell;
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(v);
        }
        v
    })
}

/// The flight recorder. Cheap to share (`Arc`), bounded in memory (see
/// crate docs).
#[derive(Debug)]
pub struct EventJournal {
    seq: AtomicU64,
    epoch: Instant,
    cap: usize,
    dropped: AtomicU64,
    shards: Vec<Mutex<VecDeque<Event>>>,
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
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
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

    /// Ring capacity (events retained).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Total events ever emitted (including those since rotated out).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Append one event.
    pub fn emit(&self, query: Option<u64>, severity: Severity, kind: impl FnOnce() -> EventKind) {
        let kind = kind();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let at_nanos = self.epoch.elapsed().as_nanos() as u64;
        let mut ring = self.shards[shard_index()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Event {
            seq,
            at_nanos,
            severity,
            query,
            kind,
        });
    }

    /// The newest `cap` events in sequence order (see crate docs for why
    /// the per-shard rings make this exact).
    pub fn snapshot(&self) -> Vec<Event> {
        let mut all: Vec<Event> = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock().unwrap_or_else(PoisonError::into_inner);
            all.extend(ring.iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        if all.len() > self.cap {
            let cut = all.len() - self.cap;
            all.drain(..cut);
        }
        all
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
    fn seq_orders_events_across_shards() {
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
        // Single-threaded: one shard, so the newest 16 survive exactly.
        assert_eq!(snap[0].seq, 84);
        assert_eq!(snap.last().unwrap().seq, 99);
        assert!(j.dropped() > 0);
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        let j = EventJournal::new(16);
        j.emit(Some(7), Severity::Warn, || EventKind::CallFault {
            call: 3,
            table: "Weather \"W\"".into(),
            billed_pages: 2,
            error: "corrupt\nbody".into(),
        });
        let dump = j.dump_jsonl();
        let line = dump.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"call_fault\""));
        assert!(line.contains("\"query\":7"));
        assert!(line.contains("\\\"W\\\""));
        assert!(line.contains("corrupt\\nbody"));
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
