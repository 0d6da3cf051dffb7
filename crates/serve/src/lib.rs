//! Serving over one shared semantic store: the one front end every query
//! runs through.
//!
//! [`Serve`] is the middleware of the paper's Figure 3 with any number of
//! clients: they run queries in parallel against a single market, one
//! shared local mirror, one shared statistics registry, and one shared
//! (per-table sharded) semantic store — so every client benefits from every
//! other client's purchases. [`Serve::run`] is the one place a query runs:
//! the REPL session (`payless_core::PayLess`, a one-client `Serve`), the
//! in-process mix and the socket server all go through it, differing only in
//! the [`Mode`] preset and whether plan introspection is on.
//! Overlapping in-flight purchases coalesce to a single flight
//! ([`payless_exec::CallCoalescer`]), and each query's own recorder gets the
//! spend ledger the call layer writes — attributing every shared purchase to
//! the query that triggered it.
//!
//! [`run_mix`] is the deterministic multi-client workload driver behind
//! `payless --serve` and `tests/serve_concurrency.rs`: it replays a seeded
//! query mix across K worker threads (K = 1 is the serial oracle), then
//! reconciles total spend against the market's billing meter. See DESIGN.md
//! "Concurrent serving & call coalescing" for the invariants, and
//! [`report`] for the JSON dump of one run.

#![warn(missing_docs)]

pub mod report;
pub mod watchdog;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use payless_exec::{
    pipeline, CallCoalescer, Env, ExecConfig, PipelineConfig, QueryResult, Ran, RetryPolicy,
    SharedState,
};
use payless_market::DataMarket;
use payless_metrics::MetricsHub;
use payless_optimizer::{Optimized, OptimizerConfig};
use payless_semantic::{Consistency, SemanticStore, SharedSemanticStore};
use payless_sql::{analyze, parse, AnalyzedQuery, MapCatalog, SelectStmt, TableLocation};
use payless_stats::StatsRegistry;
use payless_storage::LocalTable;
use payless_telemetry::{Recorder, TelemetrySnapshot};
use payless_types::{Result, Value};
use payless_workload::{drive, MixItem};

use payless_events::{EventJournal, EventKind, Severity};

pub use payless_exec::Mode;
pub use payless_workload::QuerySpend;
pub use report::{query_spend, ClientSpend, QueryRow, ServeReport};
pub use watchdog::{TableDrift, Watchdog, WatchdogReport};

/// Serving-layer options. Everything is explicit — the library reads no
/// environment variables. `payless --serve` and `payless-server` run the
/// `Default` (the server's `PAYLESS_COALESCE` aside), the
/// REPL session [`ServeConfig::one_client`]; the other values are set by
/// `tests/`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads replaying the mix. `1` is the serial oracle.
    pub threads: usize,
    /// Single-flight coalescing of overlapping market calls
    /// (`PAYLESS_COALESCE=0` maps to `false`).
    pub coalesce: bool,
    /// Store-freshness policy shared by every client.
    pub consistency: Consistency,
    /// Retry/backoff policy for market calls. Fault-injected runs should
    /// use [`RetryPolicy::unlimited`] so every query eventually answers
    /// and runs stay comparable across thread counts.
    pub retry: RetryPolicy,
    /// Live metrics hub shared by every client session. When set, the
    /// call layer, coalescer, shared store, and serving driver all report
    /// into it.
    pub metrics: Option<Arc<MetricsHub>>,
    /// Flight recorder shared by every client session: query lifecycle,
    /// call attempts/faults, coalescer claims, store lifecycle, and
    /// watchdog samples all journal here. `None` costs
    /// nothing.
    pub events: Option<Arc<EventJournal>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 1,
            coalesce: true,
            consistency: Consistency::Weak,
            retry: RetryPolicy::default(),
            metrics: None,
            events: None,
        }
    }
}

impl ServeConfig {
    /// One client, so nobody to coalesce a purchase with: the REPL
    /// session's configuration.
    pub fn one_client() -> Self {
        ServeConfig {
            coalesce: false,
            ..ServeConfig::default()
        }
    }
}

/// A serving layer fronting one market: shared buyer-side state plus the
/// coalescing rendezvous. Every query method takes `&self`; wrap in an
/// `Arc` to share with worker threads.
pub struct Serve {
    market: Arc<DataMarket>,
    catalog: MapCatalog,
    state: SharedState,
    coalescer: CallCoalescer,
    /// Logical clock: each query gets a distinct tick, which is also its
    /// causal id; X-week consistency windows are measured in ticks.
    clock: AtomicU64,
    cfg: ServeConfig,
}

impl Serve {
    /// Assemble a serving layer over `market`, registering every market
    /// table's schema, cardinality and query space (the "basic statistics"
    /// of Section 2.1) plus the given local tables.
    pub fn new(market: Arc<DataMarket>, locals: &[LocalTable], cfg: ServeConfig) -> Self {
        Self::with_store(market, locals, cfg, SemanticStore::new())
    }

    /// As [`Serve::new`], but seeding the shared store from `store` — a
    /// warm store recovered from disk, whose coverage the serving layer
    /// keeps honoring so already-purchased regions are never re-bought.
    /// `store` keeps its own [`payless_semantic::StoreConfig`]. Market
    /// tables missing from `store` are registered fresh, and the clock
    /// resumes after the last purchase `store` recorded
    /// ([`SemanticStore::newest_stored_at`]) — not after the newest
    /// surviving view, which a merge may have dated earlier.
    pub fn with_store(
        market: Arc<DataMarket>,
        locals: &[LocalTable],
        cfg: ServeConfig,
        store: SemanticStore,
    ) -> Self {
        let clock = AtomicU64::new(store.newest_stored_at());
        let (catalog, state) = SharedState::for_market(&market, store, StatsRegistry::new());
        let coalescer = match &cfg.metrics {
            Some(hub) => {
                state.store().attach_metrics(Arc::clone(hub));
                CallCoalescer::with_metrics(Arc::clone(hub))
            }
            None => CallCoalescer::new(),
        };
        if let Some(j) = &cfg.events {
            state.store().attach_events(Arc::clone(j));
        }
        let mut serve = Serve {
            market,
            catalog,
            state,
            coalescer,
            clock,
            cfg,
        };
        for t in locals {
            serve.register_local(t.clone());
        }
        serve
    }

    /// Register a table in the buyer's local DBMS.
    pub fn register_local(&mut self, table: LocalTable) {
        self.catalog.add(table.schema.clone(), TableLocation::Local);
        self.state.register_local(table);
    }

    /// The market this layer fronts.
    pub fn market(&self) -> &DataMarket {
        &self.market
    }

    /// The buyer-side state every client shares: local mirror, semantic
    /// store and statistics — what recovery replays the log into.
    pub fn state(&self) -> &SharedState {
        &self.state
    }

    /// The logical clock: the tick of the latest query.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advance the logical clock by `ticks` (e.g. to let weeks pass for
    /// X-week consistency experiments).
    pub fn advance_clock(&self, ticks: u64) {
        self.clock.fetch_add(ticks, Ordering::SeqCst);
    }

    /// The shared semantic store behind this layer. No program caller since
    /// recovery goes through [`Serve::state`]; it stays for
    /// `benchmark/src/ledger.rs` and goes with the next benchmark PR.
    pub fn shared_store(&self) -> &SharedSemanticStore {
        self.state.store()
    }

    /// Does nothing: deliveries are logged through
    /// [`SharedState::attach_log`]. Kept for `benchmark/` only.
    pub fn attach_row_observer(&self, _observer: Arc<payless_exec::RowObserver>) {}

    /// A point-in-time copy of every market table's mirror rows. No program
    /// caller since the purchase log became the durable mirror; it stays
    /// for `benchmark/src/ledger.rs` and goes with the next benchmark PR.
    pub fn mirror_dump(&self) -> Vec<(String, Vec<payless_types::Row>)> {
        self.state.with_db(|db| {
            self.market
                .table_names()
                .into_iter()
                .filter_map(|name| {
                    let rows = db.table(&name).ok()?.rows().to_vec();
                    (!rows.is_empty()).then_some((name.to_string(), rows))
                })
                .collect()
        })
    }

    /// Parse a workload template (shared across clients).
    pub fn prepare(&self, sql: &str) -> Result<SelectStmt> {
        parse(sql)
    }

    /// Analyze a bound statement against this layer's catalog.
    pub fn analyze(&self, bound: &SelectStmt) -> Result<AnalyzedQuery> {
        analyze(bound, &self.catalog)
    }

    /// `mode`'s plan search under this layer's consistency policy, and
    /// whether the mode downloads first.
    fn preset(&self, mode: Mode) -> (OptimizerConfig, bool) {
        let (mut optimizer, download_all) = mode.preset();
        optimizer.consistency = self.cfg.consistency;
        (optimizer, download_all)
    }

    fn env(&self) -> Env<'_> {
        Env {
            market: &self.market,
            state: &self.state,
            coalescer: self.cfg.coalesce.then_some(&self.coalescer),
        }
    }

    /// Plan `query` as `mode` would at the current tick, without executing
    /// it: `EXPLAIN`, and the no-SQR counterfactual. Charges nothing.
    pub fn plan(&self, query: &AnalyzedQuery, mode: Mode) -> Result<Optimized> {
        let (optimizer, _) = self.preset(mode);
        pipeline::plan(&self.env(), query, &optimizer, self.now())
    }

    /// Run one analyzed query through the paper's Figure 3
    /// ([`payless_exec::pipeline`]) with this layer's coalescer attached:
    /// tick the clock, journal the query's start, run it into a fresh
    /// recorder of its own, journal what the query spent — on the error
    /// path too — and time it into the metrics hub. `trace` turns on the
    /// optimizer's per-operator introspection. Returns the query's causal
    /// id (its tick), the run, and its recorder's telemetry.
    pub fn run(
        &self,
        query: &AnalyzedQuery,
        mode: Mode,
        trace: bool,
    ) -> (u64, Result<Ran>, TelemetrySnapshot) {
        let started = self.cfg.metrics.as_ref().map(|_| Instant::now());
        let now = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(j) = &self.cfg.events {
            j.emit(Some(now), Severity::Info, || EventKind::QueryStart);
        }
        let recorder = Recorder::enabled();
        let (mut optimizer, download_all) = self.preset(mode);
        optimizer.introspect = trace;
        let cfg = PipelineConfig {
            exec: ExecConfig {
                sqr: optimizer.sqr,
                consistency: self.cfg.consistency,
                recorder: Some(Arc::clone(&recorder)),
                retry: self.cfg.retry.clone(),
                synthesize_ledger: true,
                metrics: self.cfg.metrics.clone(),
                events: self.cfg.events.clone(),
                ..ExecConfig::default()
            },
            optimizer,
            download_all,
        };
        let ran = pipeline::run_query(&self.env(), query, &cfg, now);
        let snap = recorder.take();
        if let Some(j) = &self.cfg.events {
            let ok = ran.is_ok();
            let sev = if ok { Severity::Info } else { Severity::Warn };
            j.emit(Some(now), sev, || EventKind::QueryDone {
                ok,
                pages: snap.total_pages(),
                wasted_pages: snap.wasted_pages(),
            });
        }
        if let (Some(hub), Some(t0)) = (&self.cfg.metrics, started) {
            hub.serve_queries.inc(1);
            hub.serve_query_nanos.record(t0.elapsed().as_nanos() as u64);
        }
        (now, ran, snap)
    }

    /// Run one client query: bind, analyze, then [`Serve::run`] as full
    /// PayLess. Returns the query's result rows together with its
    /// recorder's telemetry (ledger, coalesce counters).
    pub fn run_query(
        &self,
        template: &SelectStmt,
        params: &[Value],
    ) -> Result<(QueryResult, TelemetrySnapshot)> {
        self.run_query_traced(template, params).1
    }

    /// As [`Serve::run_query`], also returning the query's causal id (its
    /// logical-clock tick) — the id every flight-recorder event for this
    /// query carries, and the argument `\why` takes. A statement that does
    /// not bind or analyze never runs and gets id 0.
    pub fn run_query_traced(
        &self,
        template: &SelectStmt,
        params: &[Value],
    ) -> (u64, Result<(QueryResult, TelemetrySnapshot)>) {
        let query = match template.bind(params).and_then(|b| self.analyze(&b)) {
            Ok(query) => query,
            Err(e) => return (0, Err(e)),
        };
        let (id, ran, snap) = self.run(&query, Mode::PayLess, false);
        (id, ran.map(|ran| (ran.result, snap)))
    }
}

/// Order-insensitive digest of a result: FNV-1a over the sorted rendered
/// rows. Insensitive to mirror insertion order, which varies across
/// interleavings; sensitive to multiplicity and every value.
pub fn digest_rows(result: &payless_exec::QueryResult) -> u64 {
    digest_row_slice(&result.rows)
}

/// [`digest_rows`] over a bare row slice — what a network client computes
/// from decoded wire rows to compare against the in-process oracle.
pub fn digest_row_slice(rows: &[payless_types::Row]) -> u64 {
    let mut rendered: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rendered.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in &rendered {
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab"] and ["a","b"] differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Dumps the flight recorder's black box when the enclosing scope unwinds
/// (a watchdog `finish` assert, or any panic that escapes a worker): the
/// journal's last events land on disk before the process dies.
struct BlackBoxOnPanic<'a>(Option<&'a EventJournal>);

impl Drop for BlackBoxOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some(j) = self.0 {
                let _ = j.dump_blackbox("panic during run_mix");
            }
        }
    }
}

/// Replay `mix` across `serve.cfg.threads` workers pulling from one global
/// queue, then reconcile: the sum of every query's spend ledger must
/// equal the market meter's delta, page for page — clean and under
/// injected faults. Panics on reconciliation failure (this is the driver
/// the serve tests trust); query errors are returned.
///
/// Post-mortem: when the journal has a black-box path configured, a
/// watchdog abort, a failed query, or a panicking reconciliation dumps the
/// last events as JSONL before this function returns or unwinds.
pub fn run_mix(serve: &Serve, mix: &[MixItem], templates: &[SelectStmt]) -> Result<ServeReport> {
    let threads = serve.cfg.threads.max(1);
    let _blackbox_guard = BlackBoxOnPanic(serve.cfg.events.as_deref());
    let meter_before = serve.market.bill();
    let mut dog = Watchdog::new(&serve.market, threads, serve.cfg.metrics.clone());
    if let Some(j) = &serve.cfg.events {
        dog = dog.with_events(Arc::clone(j));
    }

    let per_query = drive(mix, threads, |_, item| {
        let t0 = Instant::now();
        let (query_id, outcome) = serve.run_query_traced(&templates[item.template], &item.params);
        let (result, snap) = outcome?;
        dog.note_query(&snap)?;
        Ok(QueryRow {
            query_id,
            client: item.client as u64,
            template: item.template as u64,
            digest: digest_rows(&result),
            rows: result.rows.len() as u64,
            spend: query_spend(&snap),
            wall_nanos: t0.elapsed().as_nanos() as u64,
        })
    })
    .inspect_err(|e| {
        // Post-mortem dump: a watchdog abort (or any failing query)
        // leaves the journal's last events on disk for `\why`-style
        // analysis. First dump wins; errors writing it never mask `e`.
        if let Some(j) = &serve.cfg.events {
            let _ = j.dump_blackbox(&format!("run_mix aborted: {e}"));
        }
    })?;

    // Final reconciliation at quiescence: global and per-table, exact.
    let dog_report = dog.finish();

    let meter_after = serve.market.bill();
    let report = ServeReport::from_rows(
        per_query,
        (
            meter_after.calls() - meter_before.calls(),
            meter_after.transactions() - meter_before.transactions(),
            meter_after.records() - meter_before.records(),
        ),
    );
    assert_eq!(
        report.total_pages, report.meter_transactions,
        "spend ledger must reconcile with the billing meter: \
         Σ per-query ledger pages != meter delta"
    );
    Ok(ServeReport {
        threads: threads as u64,
        coalesce: serve.cfg.coalesce,
        watchdog_samples: dog_report.samples,
        watchdog_max_drift_pages: dog_report.max_drift_pages,
        watchdog_tables: dog_report.last_sample,
        ..report
    })
}
