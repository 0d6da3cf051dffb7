//! The traced run: an in-process, single-threaded replay of the workload's
//! stream in which the harness itself calls each layer's public functions
//! in the order `server::run_query` and `Serve::run_query_inner` do, with a
//! lap timer splitting one query's wall time among them.
//!
//! Three replays of the same stream, each on its own fresh state, stepped
//! in lockstep (see [`replay`]):
//!
//! * **ledger** — the assembled pipeline with a lap per layer (plus one
//!   read-only shadow rewrite per market-table region, timed apart);
//! * **plain** — the same request bytes through the real
//!   [`Serve::run_query_traced`] with metrics and events attached as the
//!   server attaches them; the yardstick the ledger's sum is held to;
//! * **bare** — plain with both recorders off, for their overhead.
//!
//! Nothing here edits the program: spans inside it are a later change.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use payless_core::build_market;
use payless_events::{EventJournal, EventKind, EventsConfig, Severity};
use payless_exec::{CallCoalescer, ExecConfig, Executor, QueryResult, RetryPolicy, SharedState};
use payless_geometry::QuerySpace;
use payless_json::FromJson;
use payless_market::{encode_rows, BillingReport, DataMarket};
use payless_metrics::{MetricsConfig, MetricsHub};
use payless_optimizer::cost::required_regions;
use payless_optimizer::{optimize, OptimizerConfig};
use payless_semantic::{
    rewrite, rewrite_cached, Consistency, RewriteConfig, SemanticStore, SharedSemanticStore,
    StoreConfig,
};
use payless_serve::{digest_row_slice, Serve, ServeConfig};
use payless_server::http::{read_request, write_response, Request};
use payless_server::persist::{DurableStore, PersistConfig};
use payless_sql::{analyze, parse, MapCatalog, SelectStmt, TableLocation};
use payless_stats::StatsRegistry;
use payless_storage::Database;
use payless_telemetry::{Recorder, SpanRecord, TelemetrySnapshot};
use payless_types::{Row, Value};
use payless_workload::{QueryWorkload, RealWorkload};

use crate::streams::{round_start, Draws, Instance, Sizing, Spec, PAGE_SIZE};

/// The layers one query's wall time is split among, in call order.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `http::read_request` on the request bytes.
    HttpRead,
    /// Body → JSON → template index and parameter values.
    JsonParse,
    /// Query start bookkeeping, `SelectStmt::bind`, `analyze`.
    BindAnalyze,
    /// `SharedSemanticStore::snapshot`, and dropping the copy.
    StoreSnapshot,
    /// `SharedState::stats_snapshot`, and dropping the copy.
    StatsSnapshot,
    /// `optimize`, and dropping the plan.
    Optimize,
    /// `Executor::shared(..).execute`, draining the recorder, query-done
    /// bookkeeping.
    Execute,
    /// `encode_rows`.
    EncodeRows,
    /// Spend headers and `http::write_response` into a `Vec`.
    HttpWrite,
}

const LAYERS: usize = 9;

/// Layers inside `Serve::run_query_traced` — what `serve.layer_sum_share`
/// sums and compares with the real call's time.
const SERVE_LAYERS: [Layer; 5] = [
    Layer::BindAnalyze,
    Layer::StoreSnapshot,
    Layer::StatsSnapshot,
    Layer::Optimize,
    Layer::Execute,
];

struct Lap(Instant);

impl Lap {
    /// Time since the previous split (or reset), restarting the lap.
    fn split(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.0;
        self.0 = now;
        lap
    }
}

/// Totals of the ledger replay's measured stream.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Measured queries.
    pub queries: u64,
    layer: [Duration; LAYERS],
    /// Per measured query, in stream order: Σ laps (the whole pipeline,
    /// shadow calls excluded) and Σ laps of [`SERVE_LAYERS`], ns.
    pub wall_ns: Vec<u64>,
    /// See `wall_ns`.
    pub serve_ns: Vec<u64>,
    /// Shadow `probe_rewrite` + `rewrite` per market-table region.
    pub rewrite: Duration,
    /// Self time of `exec.access` / `exec.join` / `exec.bind-join` spans.
    pub access: Duration,
    /// See `access`.
    pub join: Duration,
    /// See `access`.
    pub bind_join: Duration,
    /// `PlanCounters::plans_considered`, summed.
    pub plans_costed: u64,
    /// SQR classifications: full hits, and all probes.
    pub full_hits: u64,
    /// See `full_hits`.
    pub probes: u64,
    /// Market calls, records and pages billed during the measured stream.
    pub calls: u64,
    /// See `calls`.
    pub records: u64,
    /// See `calls`.
    pub pages: u64,
    /// Response bytes (head + body), summed.
    pub response_bytes: u64,
    /// Store shape at the end, summed over market tables.
    pub views: u64,
    /// See `views`.
    pub compactions: u64,
    /// See `views`.
    pub evictions: u64,
    /// Durable workloads only; all zero otherwise.
    pub persist: PersistTotals,
}

impl Ledger {
    /// Time attributed to `layer`.
    pub fn layer(&self, layer: Layer) -> Duration {
        self.layer[layer as usize]
    }
}

/// What the durability layer did during a ledger replay.
#[derive(Debug, Default)]
pub struct PersistTotals {
    /// Time inside `DurableStore::append` + `append_rows`.
    pub append: Duration,
    /// Calls of the two.
    pub appends: u64,
    /// Log bytes appended plus snapshot bytes written.
    pub bytes: u64,
    /// Time inside snapshots, and how many ran.
    pub snapshot: Duration,
    /// See `snapshot`.
    pub snapshots: u64,
    /// `DurableStore::open` on the finished directory.
    pub recover: Duration,
}

/// Per-query times of a plain or bare replay's measured stream, in
/// stream order — query `k` here and in the ledger replay is the same
/// instance against the same state, so the replays compare pairwise.
#[derive(Debug, Default)]
pub struct Plain {
    /// `Serve::run_query_traced` wall per measured query, ns.
    pub run_query_ns: Vec<u64>,
    /// Whole-pipeline wall per measured query, ns.
    pub wall_ns: Vec<u64>,
}

/// The replayed stream: the fill pass (hot workloads), then the measured
/// queries — client 0's draws, or one `scan_cold` round.
pub struct Stream {
    /// Pool indices in replay order.
    pub order: Vec<usize>,
    /// Leading entries that are the untimed fill pass.
    pub fill: usize,
}

/// Build the traced stream of `spec`.
pub fn stream(spec: &Spec, pool_len: usize, seed: u64, sizing: Sizing) -> Stream {
    if !spec.hot {
        let start = round_start(pool_len, seed);
        let order = (0..pool_len).map(|k| (start + k) % pool_len).collect();
        return Stream { order, fill: 0 };
    }
    let mut order: Vec<usize> = (0..pool_len).collect();
    let mut draws = Draws::new(spec, pool_len, seed, 0);
    order.extend((0..sizing.of(spec.traced_queries, 10)).map(|_| draws.next_index()));
    Stream {
        order,
        fill: pool_len,
    }
}

// ----------------------------------------------------------------------
// Durability wiring shared by all three replays
// ----------------------------------------------------------------------

/// A `DurableStore` on a fresh directory with timing closures around its
/// two append entry points, attached the way `Server::start` attaches it.
struct Durable {
    store: Arc<DurableStore>,
    dir: PathBuf,
    spaces: Vec<QuerySpace>,
    append_ns: Arc<AtomicU64>,
    appends: Arc<AtomicU64>,
    totals: PersistTotals,
}

impl Durable {
    /// A durable workload's store on a freshly wiped `dir`, with the empty
    /// coverage it recovered; otherwise no store.
    fn open(
        durable: bool,
        market: &DataMarket,
        dir: PathBuf,
    ) -> Result<(Option<Durable>, SemanticStore), String> {
        if !durable {
            return Ok((None, SemanticStore::new()));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let spaces: Vec<QuerySpace> = market
            .table_names()
            .iter()
            .map(|name| QuerySpace::of(market.schema(name).expect("listed table")))
            .collect();
        let (store, warm, _mirror) = DurableStore::open(&dir, PersistConfig::default(), &spaces)?;
        let durable = Durable {
            store: Arc::new(store),
            dir,
            spaces,
            append_ns: Arc::default(),
            appends: Arc::default(),
            totals: PersistTotals::default(),
        };
        Ok((Some(durable), warm))
    }

    fn attach(
        &self,
        shared: &SharedSemanticStore,
        attach_rows: impl FnOnce(Arc<payless_exec::RowObserver>),
    ) {
        let (d, ns, n) = (
            self.store.clone(),
            self.append_ns.clone(),
            self.appends.clone(),
        );
        shared.attach_observer(Arc::new(move |table, region, now, spend| {
            let t = Instant::now();
            d.append(table, region, now, spend);
            ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            n.fetch_add(1, Ordering::Relaxed);
        }));
        let (d, ns, n) = (
            self.store.clone(),
            self.append_ns.clone(),
            self.appends.clone(),
        );
        attach_rows(Arc::new(move |table: &str, rows: &[Row]| {
            let t = Instant::now();
            d.append_rows(table, rows);
            ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            n.fetch_add(1, Ordering::Relaxed);
        }));
    }

    fn log_bytes(&self) -> u64 {
        ["wal.log", "mirror.log"]
            .iter()
            .filter_map(|f| std::fs::metadata(self.dir.join(f)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// What the server's background snapshotter does on each poll, run
    /// after every query since this replay has one thread.
    fn poll_snapshot(
        &mut self,
        shared: &SharedSemanticStore,
        mirror_dump: &dyn Fn() -> Vec<(String, Vec<Row>)>,
    ) -> Result<(), String> {
        let logs = self.log_bytes();
        let t = Instant::now();
        if self.store.maybe_snapshot(shared, mirror_dump)? {
            self.totals.snapshot += t.elapsed();
            self.totals.snapshots += 1;
            let snapshot = std::fs::metadata(self.dir.join("snapshot.json"));
            self.totals.bytes += logs + snapshot.map(|m| m.len()).unwrap_or(0);
        }
        Ok(())
    }

    /// Close the books: recover the directory as a restarted server would
    /// and insist that the recovered ledger reconciles.
    fn finish(mut self) -> Result<PersistTotals, String> {
        self.totals.bytes += self.log_bytes();
        self.totals.append = Duration::from_nanos(self.append_ns.load(Ordering::Relaxed));
        self.totals.appends = self.appends.load(Ordering::Relaxed);
        let t = Instant::now();
        let (recovered, _, _) =
            DurableStore::open(&self.dir, PersistConfig::default(), &self.spaces)?;
        self.totals.recover = t.elapsed();
        if !recovered.status().reconciles() {
            return Err("recovered store does not reconcile".into());
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(self.totals)
    }
}

// ----------------------------------------------------------------------
// Request and response halves shared by the replays (server::run_query)
// ----------------------------------------------------------------------

fn read(request: &[u8]) -> Result<Request, String> {
    read_request(&mut &request[..])
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty request".to_string())
}

fn parse_body(req: &Request) -> Result<(usize, Vec<Value>), String> {
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    let j = payless_json::parse(text).map_err(|e| e.to_string())?;
    let template = j
        .get("template")
        .and_then(|v| v.as_u64())
        .map_err(|e| e.to_string())? as usize;
    let params = j
        .get("params")
        .and_then(Vec::<Value>::from_json)
        .map_err(|e| e.to_string())?;
    Ok((template, params))
}

fn respond(
    query_id: u64,
    result: &QueryResult,
    snap: &TelemetrySnapshot,
    body: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    };
    let headers: Vec<(String, String)> = [
        ("X-Payless-Query-Id", query_id.to_string()),
        ("X-Payless-Pages", snap.total_pages().to_string()),
        ("X-Payless-Wasted-Pages", snap.wasted_pages().to_string()),
        ("X-Payless-Records", snap.total_records().to_string()),
        ("X-Payless-Price", format!("{}", snap.total_price())),
        (
            "X-Payless-Coalesce-Waits",
            counter("coalesce.waits").to_string(),
        ),
        (
            "X-Payless-Saved-Pages",
            counter("coalesce.saved_pages").to_string(),
        ),
        ("X-Payless-Batch-Joins", counter("batch.joins").to_string()),
        (
            "X-Payless-Shared-Pages",
            counter("batch.shared_pages").to_string(),
        ),
        ("X-Payless-Rows", result.rows.len().to_string()),
        ("X-Payless-Columns", result.columns.join(",")),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    out.clear();
    write_response(
        out,
        200,
        "OK",
        &headers,
        "application/octet-stream",
        body,
        true,
    )
    .map_err(|e| e.to_string())
}

fn check(result: &QueryResult, inst: &Instance, want: u64) -> Result<(), String> {
    let got = digest_row_slice(&result.rows);
    if got == want {
        return Ok(());
    }
    Err(format!(
        "replay of template {} {:?}: digest {got:#x}, oracle {want:#x}",
        inst.template, inst.params
    ))
}

// ----------------------------------------------------------------------
// The ledger replay
// ----------------------------------------------------------------------

/// Buyer-side state assembled as `Server::start` + `Serve::with_store`
/// assemble it, with the parts public so each can be called on its own.
struct Engine {
    market: Arc<DataMarket>,
    catalog: MapCatalog,
    state: SharedState,
    coalescer: CallCoalescer,
    templates: Vec<SelectStmt>,
    hub: Arc<MetricsHub>,
    journal: Arc<EventJournal>,
    clock: u64,
}

impl Engine {
    fn new(
        market: Arc<DataMarket>,
        data: &RealWorkload,
        mut store: SemanticStore,
    ) -> Result<Engine, String> {
        let hub = Arc::new(MetricsHub::new(MetricsConfig::default()));
        let journal = EventJournal::from_config(&EventsConfig::default());
        let mut catalog = MapCatalog::new();
        let mut stats = StatsRegistry::new();
        let mut db = Database::new();
        store.set_config(StoreConfig::default());
        for name in market.table_names() {
            let schema = market.schema(&name).expect("listed table").clone();
            let cardinality = market.cardinality(&name).expect("listed table");
            catalog.add(schema.clone(), TableLocation::Market);
            stats.register(&schema, cardinality);
            store.register(QuerySpace::of(&schema));
        }
        for t in data.local_tables() {
            catalog.add(t.schema.clone(), TableLocation::Local);
            stats.register(&t.schema, t.len() as u64);
            db.register(t.clone());
        }
        let state = SharedState::new(db, SharedSemanticStore::new(store), stats);
        state.store().attach_metrics(Arc::clone(&hub));
        state.store().attach_events(Arc::clone(&journal));
        let templates = data
            .templates()
            .iter()
            .map(|sql| parse(sql))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("template: {e}"))?;
        Ok(Engine {
            market,
            catalog,
            state,
            coalescer: CallCoalescer::with_metrics(Arc::clone(&hub)),
            templates,
            hub,
            journal,
            clock: 0,
        })
    }

    fn mirror_dump(&self) -> Vec<(String, Vec<Row>)> {
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

    /// One query through every layer, a lap per layer. `acc` is `None`
    /// during the fill pass.
    fn query(
        &mut self,
        request: &[u8],
        out: &mut Vec<u8>,
        acc: Option<&mut Ledger>,
    ) -> Result<QueryResult, String> {
        let mut laps = [Duration::ZERO; LAYERS];
        let mut lap = Lap(Instant::now());
        let mut mark = |lap: &mut Lap, layer: Layer| laps[layer as usize] += lap.split();

        let req = read(request)?;
        mark(&mut lap, Layer::HttpRead);
        let (template, params) = parse_body(&req)?;
        mark(&mut lap, Layer::JsonParse);

        // Serve::run_query_traced, then run_query_inner.
        let started = Instant::now();
        self.clock += 1;
        let now = self.clock;
        self.journal
            .emit(Some(now), Severity::Info, || EventKind::QueryStart);
        let recorder = Recorder::enabled();
        let bound = self.templates[template]
            .bind(&params)
            .map_err(|e| e.to_string())?;
        let query = analyze(&bound, &self.catalog).map_err(|e| e.to_string())?;
        if query.unsatisfiable {
            return Err("pool instance is unsatisfiable".into());
        }
        let rewrite_cfg = RewriteConfig::exact();
        let exec_cfg = ExecConfig {
            sqr: true,
            rewrite: rewrite_cfg.clone(),
            consistency: Consistency::Weak,
            recorder: Some(recorder.clone()),
            retry: RetryPolicy::default(),
            synthesize_ledger: true,
            metrics: Some(Arc::clone(&self.hub)),
            events: Some(Arc::clone(&self.journal)),
        };
        let mut opt_cfg = OptimizerConfig::payless();
        opt_cfg.rewrite = rewrite_cfg.clone();
        mark(&mut lap, Layer::BindAnalyze);
        let store_snap = self.state.store().snapshot();
        mark(&mut lap, Layer::StoreSnapshot);
        let stats_snap = self.state.stats_snapshot();
        mark(&mut lap, Layer::StatsSnapshot);

        // Shadow: what the executor's rewrite is about to see, per
        // market-table region. Read-only, outside the laps.
        let mut shadow = Duration::ZERO;
        if acc.is_some() {
            let t = Instant::now();
            for table in query
                .tables
                .iter()
                .filter(|t| t.location == TableLocation::Market)
            {
                let space = QuerySpace::of(&table.schema);
                let (Ok(regions), Some(model)) = (
                    required_regions(&space, &table.access),
                    stats_snap.table(&table.name),
                ) else {
                    continue;
                };
                for region in &regions {
                    let (views, pieces) = self.state.store().probe_rewrite(
                        &table.name,
                        region,
                        Consistency::Weak,
                        now,
                    );
                    black_box(match &pieces {
                        Some(p) => rewrite_cached(model, PAGE_SIZE, region, p, &rewrite_cfg),
                        None => rewrite(model, PAGE_SIZE, region, &views, &rewrite_cfg),
                    });
                }
            }
            shadow = t.elapsed();
            lap.split();
        }

        let optimized = optimize(
            &query,
            &stats_snap,
            &store_snap,
            self.market.as_ref(),
            &opt_cfg,
            now,
        )
        .map_err(|e| e.to_string())?;
        mark(&mut lap, Layer::Optimize);
        let plans_costed = optimized.counters.plans_considered;
        let mut executor = Executor::shared(
            &query,
            &self.market,
            &self.state,
            &exec_cfg,
            now,
            Some(&self.coalescer),
        );
        let result = executor
            .execute(&optimized.plan)
            .map_err(|e| e.to_string())?;
        let snap = recorder.take();
        self.journal
            .emit(Some(now), Severity::Info, || EventKind::QueryDone {
                ok: true,
                pages: snap.total_pages(),
                wasted_pages: snap.wasted_pages(),
            });
        self.hub.serve_queries.inc(1);
        self.hub
            .serve_query_nanos
            .record(started.elapsed().as_nanos() as u64);
        self.hub.maybe_roll();
        drop(executor);
        mark(&mut lap, Layer::Execute);
        // `run_query_inner` frees its locals before it returns, so the
        // real call's time includes tearing down what each layer built.
        drop(optimized);
        mark(&mut lap, Layer::Optimize);
        drop(stats_snap);
        mark(&mut lap, Layer::StatsSnapshot);
        drop(store_snap);
        mark(&mut lap, Layer::StoreSnapshot);
        drop((query, bound, exec_cfg, opt_cfg, recorder));
        mark(&mut lap, Layer::BindAnalyze);

        // Back in server::run_query.
        let body = encode_rows(&result.rows);
        mark(&mut lap, Layer::EncodeRows);
        respond(now, &result, &snap, &body, out)?;
        mark(&mut lap, Layer::HttpWrite);

        if let Some(acc) = acc {
            acc.queries += 1;
            for (total, lap) in acc.layer.iter_mut().zip(laps) {
                *total += lap;
            }
            let ns = |d: Duration| d.as_nanos() as u64;
            acc.wall_ns.push(ns(laps.iter().sum()));
            acc.serve_ns
                .push(ns(SERVE_LAYERS.iter().map(|l| laps[*l as usize]).sum()));
            acc.rewrite += shadow;
            let (access, join, bind_join) = span_self_times(&snap.spans);
            acc.access += access;
            acc.join += join;
            acc.bind_join += bind_join;
            acc.plans_costed += plans_costed;
            acc.full_hits += snap.sqr.full_hits;
            acc.probes += snap.sqr.total();
            acc.response_bytes += out.len() as u64;
        }
        Ok(result)
    }
}

/// Self time of the executor's three span kinds: a span's duration minus
/// what its child spans cover. Spans nest by interval; `start_seq` is
/// opening order, so a stack of open spans finds each one's parent.
fn span_self_times(spans: &[SpanRecord]) -> (Duration, Duration, Duration) {
    let mut exec: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.label.starts_with("exec."))
        .collect();
    exec.sort_by_key(|s| s.start_seq);
    let mut self_ns: Vec<u64> = exec.iter().map(|s| s.nanos).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, span) in exec.iter().enumerate() {
        while let Some(&top) = open.last() {
            if exec[top].start_nanos + exec[top].nanos > span.start_nanos {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_ns[parent] = self_ns[parent].saturating_sub(span.nanos);
        }
        open.push(i);
    }
    let total = |label: &str| {
        Duration::from_nanos(
            exec.iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.label == label)
                .map(|(_, ns)| *ns)
                .sum(),
        )
    };
    (
        total("exec.access"),
        total("exec.join"),
        total("exec.bind-join"),
    )
}

/// The ledger replay's state.
struct LedgerRun {
    engine: Engine,
    durable: Option<Durable>,
    acc: Ledger,
    out: Vec<u8>,
    meter_after_fill: BillingReport,
}

impl LedgerRun {
    fn new(spec: &Spec, data: &RealWorkload, dir: PathBuf) -> Result<LedgerRun, String> {
        let market = Arc::new(build_market(data, PAGE_SIZE));
        let (durable, warm) = Durable::open(spec.durable, &market, dir)?;
        let engine = Engine::new(market, data, warm)?;
        if let Some(d) = &durable {
            d.attach(engine.state.store(), |rows| {
                engine.state.attach_row_observer(rows)
            });
        }
        Ok(LedgerRun {
            meter_after_fill: engine.market.bill(),
            engine,
            durable,
            acc: Ledger::default(),
            out: Vec::new(),
        })
    }

    /// The fill pass is over: what the meter reads now is not the
    /// measured stream's spend.
    fn fill_done(&mut self) {
        self.meter_after_fill = self.engine.market.bill();
    }

    fn step(&mut self, inst: &Instance, want: u64, measured: bool) -> Result<(), String> {
        let acc = measured.then_some(&mut self.acc);
        let result = self.engine.query(&inst.request, &mut self.out, acc)?;
        check(&result, inst, want)?;
        if let Some(d) = &mut self.durable {
            d.poll_snapshot(self.engine.state.store(), &|| self.engine.mirror_dump())?;
        }
        Ok(())
    }

    fn finish(self) -> Result<Ledger, String> {
        let LedgerRun {
            engine,
            durable,
            mut acc,
            meter_after_fill: before,
            ..
        } = self;
        let after = engine.market.bill();
        acc.calls = after.calls() - before.calls();
        acc.records = after.records() - before.records();
        acc.pages = after.transactions() - before.transactions();
        for name in engine.market.table_names() {
            acc.views += engine.state.store().view_count(&name) as u64;
            acc.compactions += engine.state.store().compactions(&name);
            acc.evictions += engine.state.store().evictions(&name);
        }
        drop(engine);
        if let Some(d) = durable {
            acc.persist = d.finish()?;
        }
        Ok(acc)
    }
}

/// A plain or bare replay's state: the real `Serve`, with metrics and
/// events attached as `Server::start` attaches them (`recording`) or
/// with neither.
struct PlainRun {
    serve: Serve,
    templates: Vec<SelectStmt>,
    durable: Option<Durable>,
    acc: Plain,
    out: Vec<u8>,
}

impl PlainRun {
    fn new(
        spec: &Spec,
        data: &RealWorkload,
        recording: bool,
        dir: PathBuf,
    ) -> Result<PlainRun, String> {
        let market = Arc::new(build_market(data, PAGE_SIZE));
        let (durable, warm) = Durable::open(spec.durable, &market, dir)?;
        let cfg = ServeConfig {
            metrics: recording.then(|| Arc::new(MetricsHub::new(MetricsConfig::default()))),
            events: recording.then(|| EventJournal::from_config(&EventsConfig::default())),
            ..ServeConfig::default()
        };
        let serve = Serve::with_store(market, data.local_tables(), cfg, warm);
        if let Some(d) = &durable {
            d.attach(serve.shared_store(), |rows| serve.attach_row_observer(rows));
        }
        let templates = data
            .templates()
            .iter()
            .map(|sql| serve.prepare(sql))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("template: {e}"))?;
        Ok(PlainRun {
            serve,
            templates,
            durable,
            acc: Plain::default(),
            out: Vec::new(),
        })
    }

    fn step(&mut self, inst: &Instance, want: u64, measured: bool) -> Result<(), String> {
        let began = Instant::now();
        let (template, params) = parse_body(&read(&inst.request)?)?;
        let calling = Instant::now();
        let (query_id, outcome) = self
            .serve
            .run_query_traced(&self.templates[template], &params);
        let in_serve = calling.elapsed();
        let (result, snap) = outcome.map_err(|e| e.to_string())?;
        let body = encode_rows(&result.rows);
        respond(query_id, &result, &snap, &body, &mut self.out)?;
        if measured {
            self.acc.wall_ns.push(began.elapsed().as_nanos() as u64);
            self.acc.run_query_ns.push(in_serve.as_nanos() as u64);
        }
        check(&result, inst, want)?;
        if let Some(d) = &mut self.durable {
            d.poll_snapshot(self.serve.shared_store(), &|| self.serve.mirror_dump())?;
        }
        Ok(())
    }

    fn finish(self) -> Plain {
        drop(self.serve);
        if let Some(d) = self.durable {
            let _ = std::fs::remove_dir_all(&d.dir);
        }
        self.acc
    }
}

/// What the three replays measured.
pub struct Replays {
    /// The lap-timed pipeline.
    pub ledger: Ledger,
    /// The real `Serve`, recording as the server records.
    pub plain: Plain,
    /// The real `Serve`, recording off.
    pub bare: Plain,
}

/// Run the three replays in lockstep: each keeps its own state, and query
/// `k` runs on all three back to back (in rotating order) before query
/// `k + 1` runs on any. Slow drift of the machine — which on a shared
/// 2-core sandbox is larger than the differences being measured — then
/// hits all three alike and cancels in the pairwise ratios.
pub fn replay(
    spec: &Spec,
    data: &RealWorkload,
    pool: &[Instance],
    digests: &[u64],
    stream: &Stream,
    scratch: &Path,
) -> Result<Replays, String> {
    let mut ledger = LedgerRun::new(spec, data, scratch.join("ledger-data"))?;
    let mut plain = PlainRun::new(spec, data, true, scratch.join("plain-data"))?;
    let mut bare = PlainRun::new(spec, data, false, scratch.join("bare-data"))?;
    for (n, &i) in stream.order.iter().enumerate() {
        if n == stream.fill {
            ledger.fill_done();
        }
        let (inst, want, measured) = (&pool[i], digests[i], n >= stream.fill);
        for turn in 0..3 {
            match (n + turn) % 3 {
                0 => ledger.step(inst, want, measured)?,
                1 => plain.step(inst, want, measured)?,
                _ => bare.step(inst, want, measured)?,
            }
        }
    }
    Ok(Replays {
        ledger: ledger.finish()?,
        plain: plain.finish(),
        bare: bare.finish(),
    })
}
