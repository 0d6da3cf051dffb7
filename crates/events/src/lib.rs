//! Flight recorder for PayLess: a lock-cheap, bounded, structured event
//! journal with end-to-end spend provenance.
//!
//! The metrics hub can say *that* attributed spend diverged from the billing
//! meter; this crate records *why*. Every interesting step of a query's life
//! — market call attempts, retries, truncated deliveries, billed faults,
//! coalesced flights, batch parking/sealing/share-splits, store
//! insert/compact/evict, and every reconciliation watchdog sample — is
//! appended to a ring-buffered journal as a typed [`Event`] carrying stable
//! causal ids (query / call / flight / batch). From the journal alone,
//! [`provenance`] reconstructs the exact chain of events behind any query's
//! bill, and [`EventJournal::dump_blackbox`] writes the last N events as
//! JSONL when a run aborts or panics — the black box.
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
//! * **Cheap when disabled.** A disabled journal costs one relaxed atomic
//!   load per emission site; event payloads are built lazily behind that
//!   check, so no strings or ids are materialized.
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

/// Stable id of one sealed purchase batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchId(pub u64);

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
    /// accumulates billed-but-useless pages from earlier attempts. A `batch`
    /// id marks a purchase the leader made on behalf of a sealed batch —
    /// its pages reach member ledgers through [`EventKind::BatchShare`]
    /// events instead, so provenance must not double-count it.
    CallDelivered {
        call: u64,
        table: String,
        pages: u64,
        wasted_pages: u64,
        records: u64,
        attempts: u64,
        batch: Option<u64>,
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
        batch: Option<u64>,
    },
    /// This query won the single-flight claim for a region set.
    FlightClaimed {
        flight: u64,
        table: String,
        regions: u64,
    },
    /// This query lost the claim and waited for in-flight work to land.
    /// `satisfied` means the contended regions were already a subset of
    /// flights in progress.
    FlightWait { table: String, satisfied: bool },
    /// After waiting, the re-probe found the store already covered what
    /// this query was about to buy — a double-buy averted.
    FlightRecomputeAverted { table: String, pages: u64 },
    /// This query parked its uncovered remainder in an open batch.
    BatchParked {
        batch: u64,
        table: String,
        pieces: u64,
    },
    /// A batch sealed; `reason` is `cap`, `quiescence`, or `window`.
    BatchSealed {
        batch: u64,
        table: String,
        members: u64,
        reason: String,
    },
    /// This query was elected leader and will purchase for the batch.
    BatchLeader {
        batch: u64,
        table: String,
        members: u64,
    },
    /// One member's exact page share of a sealed batch purchase (the
    /// first-match row partition with largest-remainder rounding; shares
    /// sum to the billed total).
    BatchShare {
        batch: u64,
        table: String,
        delivered_pages: u64,
        wasted_pages: u64,
        records: u64,
        members: u64,
        leader: bool,
        failed: bool,
    },
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
    /// billing meter, with the batching deferred-pages register).
    WatchdogSample {
        sample: u64,
        attributed_pages: u64,
        meter_pages: u64,
        deferred_pages: u64,
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
            EventKind::BatchParked { .. } => "batch_parked",
            EventKind::BatchSealed { .. } => "batch_sealed",
            EventKind::BatchLeader { .. } => "batch_leader",
            EventKind::BatchShare { .. } => "batch_share",
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
                batch,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "pages", *pages);
                num(&mut s, "wasted_pages", *wasted_pages);
                num(&mut s, "records", *records);
                num(&mut s, "attempts", *attempts);
                if let Some(b) = batch {
                    num(&mut s, "batch", *b);
                }
            }
            EventKind::CallFailed {
                call,
                table,
                wasted_pages,
                attempts,
                billed,
                error,
                batch,
            } => {
                num(&mut s, "call", *call);
                txt(&mut s, "table", table);
                num(&mut s, "wasted_pages", *wasted_pages);
                num(&mut s, "attempts", *attempts);
                flag(&mut s, "billed", *billed);
                txt(&mut s, "error", error);
                if let Some(b) = batch {
                    num(&mut s, "batch", *b);
                }
            }
            EventKind::FlightClaimed {
                flight,
                table,
                regions,
            } => {
                num(&mut s, "flight", *flight);
                txt(&mut s, "table", table);
                num(&mut s, "regions", *regions);
            }
            EventKind::FlightWait { table, satisfied } => {
                txt(&mut s, "table", table);
                flag(&mut s, "satisfied", *satisfied);
            }
            EventKind::FlightRecomputeAverted { table, pages } => {
                txt(&mut s, "table", table);
                num(&mut s, "pages", *pages);
            }
            EventKind::BatchParked {
                batch,
                table,
                pieces,
            } => {
                num(&mut s, "batch", *batch);
                txt(&mut s, "table", table);
                num(&mut s, "pieces", *pieces);
            }
            EventKind::BatchSealed {
                batch,
                table,
                members,
                reason,
            } => {
                num(&mut s, "batch", *batch);
                txt(&mut s, "table", table);
                num(&mut s, "members", *members);
                txt(&mut s, "reason", reason);
            }
            EventKind::BatchLeader {
                batch,
                table,
                members,
            } => {
                num(&mut s, "batch", *batch);
                txt(&mut s, "table", table);
                num(&mut s, "members", *members);
            }
            EventKind::BatchShare {
                batch,
                table,
                delivered_pages,
                wasted_pages,
                records,
                members,
                leader,
                failed,
            } => {
                num(&mut s, "batch", *batch);
                txt(&mut s, "table", table);
                num(&mut s, "delivered_pages", *delivered_pages);
                num(&mut s, "wasted_pages", *wasted_pages);
                num(&mut s, "records", *records);
                num(&mut s, "members", *members);
                flag(&mut s, "leader", *leader);
                flag(&mut s, "failed", *failed);
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
                deferred_pages,
                exact,
            } => {
                num(&mut s, "sample", *sample);
                num(&mut s, "attributed_pages", *attributed_pages);
                num(&mut s, "meter_pages", *meter_pages);
                num(&mut s, "deferred_pages", *deferred_pages);
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

/// The flight recorder. Cheap to share (`Arc`), cheap when disabled (one
/// relaxed atomic load per emission site), bounded in memory (see crate
/// docs).
#[derive(Debug)]
pub struct EventJournal {
    enabled: AtomicBool,
    seq: AtomicU64,
    epoch: Instant,
    cap: usize,
    dropped: AtomicU64,
    shards: Vec<Mutex<VecDeque<Event>>>,
    blackbox: Mutex<Option<String>>,
    dumped: AtomicBool,
}

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::new(DEFAULT_CAP)
    }
}

impl EventJournal {
    /// An enabled journal retaining the newest `cap` events.
    pub fn new(cap: usize) -> EventJournal {
        EventJournal {
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            blackbox: Mutex::new(None),
            dumped: AtomicBool::new(false),
        }
    }

    /// Build a shared journal from an explicit config.
    pub fn from_config(cfg: &EventsConfig) -> Arc<EventJournal> {
        let j = EventJournal::new(cfg.cap);
        *j.blackbox.lock().unwrap_or_else(PoisonError::into_inner) = cfg.blackbox.clone();
        Arc::new(j)
    }

    /// Turn recording on or off. Off, every emission site pays one relaxed
    /// atomic load and builds nothing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
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

    /// Set (or clear) the black-box dump path.
    pub fn set_blackbox(&self, path: Option<String>) {
        *self.blackbox.lock().unwrap_or_else(PoisonError::into_inner) = path;
    }

    /// The configured black-box dump path, if any.
    pub fn blackbox_path(&self) -> Option<String> {
        self.blackbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Append one event. `kind` is evaluated only when recording is on.
    pub fn emit(&self, query: Option<u64>, severity: Severity, kind: impl FnOnce() -> EventKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
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
        let Some(path) = self.blackbox_path() else {
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

/// A journal handle bound to one query (and optionally one batch): what the
/// executor threads through the call chokepoint so every event lands with
/// the right causal ids.
#[derive(Clone, Copy)]
pub struct EventScope<'a> {
    journal: &'a EventJournal,
    query: u64,
    batch: Option<u64>,
}

impl<'a> EventScope<'a> {
    /// Scope `journal` to `query`.
    pub fn new(journal: &'a EventJournal, query: u64) -> EventScope<'a> {
        EventScope {
            journal,
            query,
            batch: None,
        }
    }

    /// The same scope, tagged with the batch the current purchase serves
    /// (leader-side purchases; see [`EventKind::CallDelivered::batch`]).
    pub fn with_batch(self, batch: u64) -> EventScope<'a> {
        EventScope {
            batch: Some(batch),
            ..self
        }
    }

    /// The batch tag, if any.
    pub fn batch(&self) -> Option<u64> {
        self.batch
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
/// the billing meter: non-batched calls contribute their delivered + billed
/// waste, batch members contribute their exact split shares, and the
/// leader's raw batch purchase (tagged with the batch id) is excluded so
/// nothing is counted twice.
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
                batch,
                ..
            } if batch.is_none() => {
                p.delivered_pages += pages;
                p.wasted_pages += wasted_pages;
                p.records += records;
            }
            EventKind::CallFailed {
                wasted_pages,
                billed,
                batch,
                ..
            } if batch.is_none() && *billed => {
                p.wasted_pages += wasted_pages;
            }
            EventKind::BatchShare {
                delivered_pages,
                wasted_pages,
                records,
                ..
            } => {
                p.delivered_pages += delivered_pages;
                p.wasted_pages += wasted_pages;
                p.records += records;
            }
            _ => {}
        }
        p.events.push(e.clone());
    }
    p
}

/// Render `query`'s provenance as a human-readable tree (the CLI `\why`
/// view). Batch shares cross-reference the leader's purchase events by
/// batch id, so the full slice (not just this query's events) is consulted.
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
                batch,
            } => {
                let tag = match batch {
                    Some(b) => format!(" [for batch {b}; pages split across members]"),
                    None => String::new(),
                };
                nodes.push((
                    format!(
                        "call {call} on `{table}`: delivered {pages} pages \
                         (+{wasted_pages} wasted) · {records} records · {attempts} attempt(s){tag}"
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
                batch,
            } => {
                let tag = match batch {
                    Some(b) => format!(" [for batch {b}]"),
                    None => String::new(),
                };
                let cost = if *billed {
                    format!("{wasted_pages} pages billed and wasted")
                } else {
                    "failed free".to_string()
                };
                nodes.push((
                    format!(
                        "call {call} on `{table}` FAILED after {attempts} attempt(s): \
                         {error} — {cost}{tag}"
                    ),
                    call_detail.remove(call).unwrap_or_default(),
                ));
            }
            EventKind::BatchShare {
                batch,
                table,
                delivered_pages,
                wasted_pages,
                records,
                members,
                leader,
                failed,
            } => {
                let role = if *leader { "as leader" } else { "as member" };
                let mut sub = Vec::new();
                // Cross-reference the leader's purchases for this batch.
                for le in events {
                    match &le.kind {
                        EventKind::CallDelivered {
                            call,
                            pages,
                            wasted_pages,
                            batch: Some(b),
                            ..
                        } if b == batch => sub.push(format!(
                            "leader call {call} (query {}) billed {} pages for the batch",
                            le.query.map_or("?".to_string(), |q| q.to_string()),
                            pages + wasted_pages
                        )),
                        EventKind::BatchSealed {
                            batch: b,
                            members,
                            reason,
                            ..
                        } if b == batch => {
                            sub.push(format!("batch sealed ({reason}) with {members} member(s)"))
                        }
                        _ => {}
                    }
                }
                let state = if *failed { "FAILED share" } else { "share" };
                nodes.push((
                    format!(
                        "batch {batch} {state} on `{table}` {role}: {delivered_pages} delivered \
                         + {wasted_pages} wasted pages · {records} records · {members}-member split"
                    ),
                    sub,
                ));
            }
            EventKind::FlightClaimed {
                flight,
                table,
                regions,
            } => {
                nodes.push((
                    format!("flight {flight} claimed on `{table}` ({regions} region(s))"),
                    Vec::new(),
                ));
            }
            EventKind::FlightWait { table, satisfied } => {
                let note = if *satisfied {
                    "regions already covered by flights in progress"
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
            EventKind::BatchParked {
                batch,
                table,
                pieces,
            } => {
                nodes.push((
                    format!("parked {pieces} remainder piece(s) in batch {batch} on `{table}`"),
                    Vec::new(),
                ));
            }
            EventKind::BatchLeader {
                batch,
                table,
                members,
            } => {
                nodes.push((
                    format!("elected leader of batch {batch} on `{table}` ({members} member(s))"),
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

    fn call_delivered(call: u64, pages: u64, wasted: u64, batch: Option<u64>) -> EventKind {
        EventKind::CallDelivered {
            call,
            table: "T".into(),
            pages,
            wasted_pages: wasted,
            records: pages * 10,
            attempts: 1,
            batch,
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
    fn disabled_journal_records_nothing_and_skips_payload() {
        let j = EventJournal::new(16);
        j.set_enabled(false);
        let mut built = false;
        j.emit(None, Severity::Info, || {
            built = true;
            EventKind::QueryStart
        });
        assert!(!built);
        assert!(j.snapshot().is_empty());
        assert_eq!(j.recorded(), 0);
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
    fn provenance_sums_calls_and_batch_shares_without_double_count() {
        let j = EventJournal::new(256);
        // Query 1: a plain call (5 delivered + 2 wasted) and a batch share
        // (3 + 1).
        j.emit(Some(1), Severity::Info, || call_delivered(10, 5, 2, None));
        j.emit(Some(1), Severity::Info, || EventKind::BatchShare {
            batch: 9,
            table: "T".into(),
            delivered_pages: 3,
            wasted_pages: 1,
            records: 30,
            members: 2,
            leader: false,
            failed: false,
        });
        // Query 2 is the leader: its raw batch purchase must not count
        // toward query 2's own total.
        j.emit(Some(2), Severity::Info, || {
            call_delivered(11, 6, 0, Some(9))
        });
        j.emit(Some(2), Severity::Info, || EventKind::BatchShare {
            batch: 9,
            table: "T".into(),
            delivered_pages: 3,
            wasted_pages: 0,
            records: 30,
            members: 2,
            leader: true,
            failed: false,
        });
        // A billed failure charges its waste; a free failure does not.
        j.emit(Some(1), Severity::Error, || EventKind::CallFailed {
            call: 12,
            table: "T".into(),
            wasted_pages: 4,
            attempts: 2,
            billed: true,
            error: "corrupt".into(),
            batch: None,
        });
        j.emit(Some(1), Severity::Error, || EventKind::CallFailed {
            call: 13,
            table: "T".into(),
            wasted_pages: 0,
            attempts: 1,
            billed: false,
            error: "unavailable".into(),
            batch: None,
        });
        let snap = j.snapshot();
        let p1 = provenance(&snap, 1);
        assert_eq!(p1.delivered_pages, 8);
        assert_eq!(p1.wasted_pages, 7);
        assert_eq!(p1.billed_pages(), 15);
        let p2 = provenance(&snap, 2);
        assert_eq!(p2.billed_pages(), 3);
        let tree = render_provenance(&snap, 1);
        assert!(tree.contains("billed 15 pages"));
        assert!(tree.contains("batch 9"));
        assert_eq!(known_queries(&snap), vec![1, 2]);
    }

    #[test]
    fn blackbox_dump_writes_once_and_creates_dirs() {
        let dir = std::env::temp_dir().join(format!("payless-events-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/black.jsonl");
        let j = EventJournal::new(16);
        j.set_blackbox(Some(path.to_string_lossy().into_owned()));
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
