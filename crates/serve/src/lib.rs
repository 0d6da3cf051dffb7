//! Concurrent multi-session serving over one shared semantic store.
//!
//! [`Serve`] is the middleware shape the ROADMAP's "many users" goal needs:
//! N client sessions run queries in parallel against a single market, one
//! shared local mirror, one shared statistics registry, and one shared
//! (per-table sharded) semantic store — so every client benefits from every
//! other client's purchases. A query takes the same path a single-tenant
//! session's does ([`payless_exec::pipeline`]), with overlapping in-flight
//! purchases coalesced to a single flight ([`payless_exec::CallCoalescer`])
//! and its own telemetry recorder, whose spend ledger the call layer
//! writes — attributing every shared purchase to the query that triggered it.
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
    pipeline, BatchPlanner, CallCoalescer, Env, ExecConfig, PipelineConfig, RetryPolicy,
    SharedState,
};
use payless_market::DataMarket;
use payless_metrics::MetricsHub;
use payless_optimizer::OptimizerConfig;
use payless_semantic::{Consistency, SemanticStore, SharedSemanticStore, StoreConfig};
use payless_sql::{analyze, parse, MapCatalog, SelectStmt};
use payless_stats::StatsRegistry;
use payless_storage::LocalTable;
use payless_telemetry::Recorder;
use payless_types::Result;
use payless_workload::{drive, MixItem};

use payless_events::{EventJournal, EventKind, Severity};

pub use payless_exec::BatchConfig;
pub use payless_workload::QuerySpend;
pub use report::{query_spend, ClientSpend, QueryRow, ServeReport};
pub use watchdog::{TableDrift, Watchdog, WatchdogReport};

/// Serving-layer options. Everything is explicit — the library reads no
/// environment variables. `payless --serve` and `payless-server` run the
/// `Default` (the server's `PAYLESS_COALESCE` / `PAYLESS_BATCH` aside);
/// the other values are set by `tests/`.
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
    /// The reconciliation watchdog samples the billing meter every this
    /// many completed queries while the mix runs.
    pub watchdog_every: u64,
    /// Fail a mix the moment the watchdog sees a violation instead of
    /// waiting for the exit reconciliation.
    pub strict_reconcile: bool,
    /// Shared-store tuning: per-table view cap and compaction toggle.
    /// Applied to every table shard before the mix starts.
    pub store: StoreConfig,
    /// Cross-query batched purchasing: queries arriving within the window
    /// park their uncovered remainders with a shared [`BatchPlanner`]; one
    /// leader buys the merged remainder and the cost splits exactly across
    /// the members. `None` (the default) buys per query.
    pub batch: Option<BatchConfig>,
    /// Flight recorder shared by every client session: query lifecycle,
    /// call attempts/faults, coalescer claims, batch shares, store
    /// lifecycle, and watchdog samples all journal here. `None` costs
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
            watchdog_every: 8,
            strict_reconcile: false,
            store: StoreConfig::default(),
            batch: None,
            events: None,
        }
    }
}

/// A serving layer fronting one market: shared buyer-side state plus the
/// coalescing rendezvous. All methods take `&self`; wrap in an `Arc` to
/// share with worker threads.
pub struct Serve {
    market: Arc<DataMarket>,
    catalog: MapCatalog,
    state: SharedState,
    coalescer: CallCoalescer,
    /// Cross-query batching rendezvous; `Some` iff `cfg.batch` is set.
    batcher: Option<BatchPlanner>,
    /// Logical clock: each query gets a distinct `now`, like a session's
    /// per-query increment but shared across clients.
    clock: AtomicU64,
    cfg: ServeConfig,
}

impl Serve {
    /// Assemble a serving layer over `market`, registering every market
    /// table (like a single-tenant session does) plus the given local
    /// tables.
    pub fn new(market: Arc<DataMarket>, locals: &[LocalTable], cfg: ServeConfig) -> Self {
        Self::with_store(market, locals, cfg, SemanticStore::new())
    }

    /// As [`Serve::new`], but seeding the shared store from `store` — a
    /// warm store recovered from disk, whose coverage the serving layer
    /// keeps honoring so already-purchased regions are never re-bought.
    /// Market tables missing from `store` are registered fresh.
    pub fn with_store(
        market: Arc<DataMarket>,
        locals: &[LocalTable],
        cfg: ServeConfig,
        mut store: SemanticStore,
    ) -> Self {
        store.set_config(cfg.store);
        let (catalog, state) =
            SharedState::for_market(&market, locals, store, StatsRegistry::new());
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
        let batcher = cfg.batch.map(|b| {
            let planner = match &cfg.metrics {
                Some(hub) => BatchPlanner::with_metrics(b, Arc::clone(hub)),
                None => BatchPlanner::new(b),
            };
            match &cfg.events {
                Some(j) => planner.with_events(Arc::clone(j)),
                None => planner,
            }
        });
        Serve {
            market,
            catalog,
            state,
            coalescer,
            batcher,
            clock: AtomicU64::new(0),
            cfg,
        }
    }

    /// The market this layer fronts.
    pub fn market(&self) -> &DataMarket {
        &self.market
    }

    /// The shared semantic store behind this layer — what a durability
    /// layer observes (spend log) and snapshots.
    pub fn shared_store(&self) -> &SharedSemanticStore {
        self.state.store()
    }

    /// Attach an observer for market deliveries landing in the local
    /// mirror ([`payless_exec::RowObserver`]) — the durability layer's row
    /// log. First caller wins, like every other attach hook.
    pub fn attach_row_observer(&self, observer: Arc<payless_exec::RowObserver>) {
        self.state.attach_row_observer(observer);
    }

    /// Insert recovered market rows into the local mirror without
    /// notifying the row observer (they are already durable). Unknown
    /// tables are an error — recovered data must match the market.
    pub fn seed_mirror(&self, table: &str, rows: Vec<payless_types::Row>) -> Result<()> {
        let schema = self
            .market
            .schema(table)
            .ok_or_else(|| payless_types::PaylessError::UnknownTable(table.into()))?
            .clone();
        self.state.seed_mirror(&schema, rows);
        Ok(())
    }

    /// A point-in-time copy of every market table's mirror rows. No program
    /// caller since `mirror.log` became the durable mirror; it stays for
    /// `benchmark/src/ledger.rs` and goes with the next benchmark PR.
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

    /// Run one client query: bind, analyze, then the shared pipeline
    /// ([`payless_exec::pipeline`]) with this layer's coalescer and batch
    /// planner attached. Returns the query's result rows together with the
    /// telemetry snapshot of its private recorder (ledger, coalesce
    /// counters).
    pub fn run_query(
        &self,
        template: &SelectStmt,
        params: &[payless_types::Value],
    ) -> Result<(
        payless_exec::QueryResult,
        payless_telemetry::TelemetrySnapshot,
    )> {
        self.run_query_traced(template, params).1
    }

    /// As [`Serve::run_query`], also returning the query's causal id (its
    /// logical-clock tick) — the id every flight-recorder event for this
    /// query carries, and the argument `\why` takes.
    pub fn run_query_traced(
        &self,
        template: &SelectStmt,
        params: &[payless_types::Value],
    ) -> (
        u64,
        Result<(
            payless_exec::QueryResult,
            payless_telemetry::TelemetrySnapshot,
        )>,
    ) {
        let started = self.cfg.metrics.as_ref().map(|_| Instant::now());
        let now = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(j) = &self.cfg.events {
            j.emit(Some(now), Severity::Info, || EventKind::QueryStart);
        }
        let out = self.run_query_inner(template, params, now);
        if let Some(j) = &self.cfg.events {
            let (ok, pages, wasted_pages) = match &out {
                Ok((_, snap)) => (true, snap.total_pages(), snap.wasted_pages()),
                Err(_) => (false, 0, 0),
            };
            let sev = if ok { Severity::Info } else { Severity::Warn };
            j.emit(Some(now), sev, || EventKind::QueryDone {
                ok,
                pages,
                wasted_pages,
            });
        }
        if let (Some(hub), Some(t0)) = (&self.cfg.metrics, started) {
            hub.serve_queries.inc(1);
            hub.serve_query_nanos.record(t0.elapsed().as_nanos() as u64);
            hub.maybe_roll();
        }
        (now, out)
    }

    fn run_query_inner(
        &self,
        template: &SelectStmt,
        params: &[payless_types::Value],
        now: u64,
    ) -> Result<(
        payless_exec::QueryResult,
        payless_telemetry::TelemetrySnapshot,
    )> {
        let recorder = Recorder::enabled();
        let bound = template.bind(params)?;
        let query = analyze(&bound, &self.catalog)?;
        let mut optimizer = OptimizerConfig::payless();
        optimizer.consistency = self.cfg.consistency;
        let cfg = PipelineConfig {
            optimizer,
            exec: ExecConfig {
                sqr: true,
                consistency: self.cfg.consistency,
                recorder: Some(recorder.clone()),
                retry: self.cfg.retry.clone(),
                synthesize_ledger: true,
                metrics: self.cfg.metrics.clone(),
                events: self.cfg.events.clone(),
                ..ExecConfig::default()
            },
            download_all: false,
            store_recorder: None,
        };
        let env = Env {
            market: &self.market,
            state: &self.state,
            coalescer: self.cfg.coalesce.then_some(&self.coalescer),
            batcher: self.batcher.as_ref(),
        };
        let (_, ran) = pipeline::run_query(&env, &query, &cfg, now);
        Ok((ran?.result, recorder.take()))
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
/// Post-mortem: when the journal has a black-box path configured, a strict
/// watchdog abort, a failed query, or a panicking reconciliation dumps the
/// last events as JSONL before this function returns or unwinds.
pub fn run_mix(serve: &Serve, mix: &[MixItem], templates: &[SelectStmt]) -> Result<ServeReport> {
    let threads = serve.cfg.threads.max(1);
    let _blackbox_guard = BlackBoxOnPanic(serve.cfg.events.as_deref());
    let meter_before = serve.market.bill();
    let mut dog = Watchdog::new(
        &serve.market,
        serve.cfg.watchdog_every,
        serve.cfg.strict_reconcile,
        threads,
        serve.cfg.metrics.clone(),
    );
    if let Some(b) = &serve.batcher {
        // Batch settlements attribute pages to queries that have not
        // completed yet; the watchdog's drift bound must allow exactly
        // that much (see `watchdog.rs`).
        dog = dog.with_deferred(b.deferred_handle());
    }
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
        // Post-mortem dump: a strict watchdog abort (or any failing query)
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
        batch: serve.cfg.batch.is_some(),
        watchdog_samples: dog_report.samples,
        watchdog_max_drift_pages: dog_report.max_drift_pages,
        watchdog_tables: dog_report.last_sample,
        ..report
    })
}
