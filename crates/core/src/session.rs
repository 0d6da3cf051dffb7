//! The PayLess session: one buyer's installation over one market. It
//! parses and analyzes, maps its [`Mode`] to a pipeline configuration, and
//! hands the query to [`payless_exec::pipeline`] — the paper's Figure 3 —
//! then keeps the books: history, the query report, the journal bracket.

use std::sync::Arc;
use std::time::Instant;

use payless_exec::{
    pipeline, Env, ExecConfig, PipelineConfig, QueryResult, Ran, RetryPolicy, SharedState,
};
use payless_market::DataMarket;
use payless_metrics::MetricsHub;
use payless_optimizer::{OptimizerConfig, PlanCounters};
use payless_semantic::{Consistency, SemanticStore, StoreConfig};
use payless_sql::{analyze, parse, AnalyzedQuery, MapCatalog, SelectStmt, TableLocation};
use payless_stats::{StatsBackend, StatsRegistry};
use payless_storage::LocalTable;
use payless_telemetry::Recorder;
use payless_types::{Result, Value};
use payless_workload::QueryWorkload;

use crate::report::QueryReport;

/// Which system variant a session runs — the four lines of the paper's
/// Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full PayLess: theorems + semantic query rewriting.
    PayLess,
    /// PayLess with semantic query rewriting disabled.
    PayLessNoSqr,
    /// The calls-minimizing optimizer of prior work (bushy plans, no SQR).
    MinCalls,
    /// Download every referenced market table up front, answer locally.
    DownloadAll,
    /// Ablation for Figure 14: SQR off *and* search-space pruning off
    /// (exhaustive bushy enumeration).
    DisableAll,
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct PayLessConfig {
    /// System variant.
    pub mode: Mode,
    /// Store-freshness policy (Section 4.3's consistency levels).
    pub consistency: Consistency,
    /// Which updatable statistic backs cardinality estimation (the paper's
    /// "amenable for any updatable statistic" knob).
    pub stats_backend: StatsBackend,
    /// Retry/backoff/budget policy for market calls (the resilient call
    /// layer). The default retries transient failures a few times with
    /// millisecond backoff.
    pub retry: RetryPolicy,
    /// Semantic-store tuning: per-table view cap and compaction toggle.
    /// Coverage is a cache — the cap bounds memory, never answers.
    pub store: StoreConfig,
}

impl Default for PayLessConfig {
    fn default() -> Self {
        PayLessConfig {
            mode: Mode::PayLess,
            consistency: Consistency::Weak,
            stats_backend: StatsBackend::default(),
            retry: RetryPolicy::default(),
            store: StoreConfig::default(),
        }
    }
}

impl PayLessConfig {
    /// Configuration for a given mode with defaults elsewhere.
    pub fn mode(mode: Mode) -> Self {
        PayLessConfig {
            mode,
            ..Default::default()
        }
    }
}

/// Everything a query run reports besides its rows.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result relation.
    pub result: QueryResult,
    /// Rendered plan (`None` for unsatisfiable queries and Download All).
    pub plan: Option<String>,
    /// The optimizer's estimated cost (transactions or calls by mode).
    pub est_cost: f64,
    /// Search-effort counters for this query.
    pub counters: PlanCounters,
    /// Optimization wall time in nanoseconds.
    pub optimize_nanos: u64,
    /// Execution wall time in nanoseconds.
    pub execute_nanos: u64,
    /// Full query report — present when tracing is enabled
    /// ([`PayLess::enable_tracing`]).
    pub report: Option<QueryReport>,
}

/// One line of the session's query log.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// Logical time the query ran at.
    pub at: u64,
    /// The SQL (as rendered by the template; parameter-bound).
    pub summary: String,
    /// Rendered plan, if one was produced.
    pub plan: Option<String>,
    /// Estimated cost at optimization time.
    pub est_cost: f64,
    /// Actual transactions this query added to the bill.
    pub paid: u64,
    /// Rows returned.
    pub rows: usize,
}

/// A PayLess installation at one data buyer.
pub struct PayLess {
    market: Arc<DataMarket>,
    catalog: MapCatalog,
    /// The buyer side of Figure 3 — local DBMS, semantic store, statistics —
    /// in the same shape the serving layer shares between clients; here its
    /// locks are simply never contended.
    state: SharedState,
    cfg: PayLessConfig,
    /// Logical clock: advanced once per executed query; drives X-week
    /// consistency windows.
    now: u64,
    /// Per-query log (not persisted).
    history: Vec<HistoryEntry>,
    /// Telemetry sink shared by the store and the executor, whose call
    /// layer writes the spend ledger into it. Disabled by default;
    /// [`PayLess::enable_tracing`] turns it on.
    recorder: Arc<Recorder>,
    /// Live metrics hub, if one was attached ([`PayLess::attach_metrics`]).
    metrics: Option<Arc<MetricsHub>>,
    /// Flight recorder, if one was attached ([`PayLess::attach_events`]).
    events: Option<Arc<payless_events::EventJournal>>,
}

impl PayLess {
    /// Install PayLess over a market: registers every hosted table's schema,
    /// cardinality and query space (the "basic statistics" of Section 2.1).
    pub fn new(market: Arc<DataMarket>, cfg: PayLessConfig) -> Self {
        Self::with_store(market, cfg, SemanticStore::new())
    }

    /// As [`PayLess::new`], over a warm `store` replayed from a data
    /// directory (`payless_server::persist::recover`, behind the CLI's
    /// `--session`): its coverage is honoured, and the clock resumes after
    /// its newest view, so no view is dated in the future.
    pub fn with_store(
        market: Arc<DataMarket>,
        cfg: PayLessConfig,
        mut store: SemanticStore,
    ) -> Self {
        let recorder = Arc::new(Recorder::default());
        let now = store.newest_stored_at();
        store.set_config(cfg.store);
        store.attach_recorder(recorder.clone());
        let (catalog, state) = SharedState::for_market(
            &market,
            &[],
            store,
            StatsRegistry::new().with_backend(cfg.stats_backend),
        );
        PayLess {
            market,
            catalog,
            state,
            cfg,
            now,
            history: Vec::new(),
            recorder,
            metrics: None,
            events: None,
        }
    }

    /// Attach a live metrics hub: every market call this session makes
    /// reports latency, page, and retry metrics into it
    /// (`payless_market_*`), and its store reports hits, records and view
    /// gauges (`payless_store_*`). The CLI attaches one hub to the session
    /// and to any serve layer it starts, so `\metrics` shows both.
    pub fn attach_metrics(&mut self, hub: Arc<MetricsHub>) {
        self.state.store().attach_metrics(Arc::clone(&hub));
        self.metrics = Some(hub);
    }

    /// Attach a flight-recorder journal: every query this session runs
    /// journals its lifecycle, call attempts/faults/retries, and store
    /// events with the query's causal id (its logical-clock tick). The CLI
    /// attaches one under `--events-out`.
    pub fn attach_events(&mut self, journal: Arc<payless_events::EventJournal>) {
        self.state.store().attach_events(journal.clone());
        self.events = Some(journal);
    }

    /// Turn per-query tracing on or off. While on, every
    /// [`QueryOutcome`] carries a [`QueryReport`] with the spend ledger,
    /// SQR statistics, plan-search counters, and phase timings. While off,
    /// the telemetry path costs one atomic load per event and allocates
    /// nothing.
    pub fn enable_tracing(&mut self, on: bool) {
        self.recorder.set_enabled(on);
    }

    /// Is per-query tracing currently on?
    pub fn tracing_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// The session's telemetry recorder: the store, the optimizer and the
    /// executor report into it; the market never sees it.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Register a table in the buyer's local DBMS.
    pub fn register_local(&mut self, table: LocalTable) {
        self.catalog.add(table.schema.clone(), TableLocation::Local);
        self.state.register_local(table);
    }

    /// The market this session fronts.
    pub fn market(&self) -> &DataMarket {
        &self.market
    }

    /// Cumulative bill so far (the paper's headline metric).
    pub fn bill(&self) -> payless_market::BillingReport {
        self.market.bill()
    }

    /// The session's logical clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The buyer-side state: local mirror, semantic store and refined
    /// statistics (for tooling, experiments and recovery).
    pub fn state(&self) -> &SharedState {
        &self.state
    }

    /// The session's query log, oldest first.
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// Advance the logical clock by `ticks` (e.g. to simulate weeks passing
    /// for X-week consistency experiments).
    pub fn advance_clock(&mut self, ticks: u64) {
        self.now += ticks;
    }

    /// Parse a (possibly parameterized) statement into a reusable template.
    pub fn prepare(&self, sql: &str) -> Result<SelectStmt> {
        parse(sql)
    }

    /// Parse, optimize, and execute a parameter-free SQL string.
    pub fn query(&mut self, sql: &str) -> Result<QueryOutcome> {
        let stmt = self.prepare(sql)?;
        self.execute_template(&stmt, &[])
    }

    /// Optimize a parameter-free SQL string *without executing it*: returns
    /// the rendered plan and its estimated cost (transactions, or calls in
    /// MinCalls mode). Nothing is fetched and nothing is charged.
    pub fn explain(&self, sql: &str) -> Result<(String, f64)> {
        let stmt = self.prepare(sql)?;
        let bound = stmt.bind(&[])?;
        let query = analyze(&bound, &self.catalog)?;
        if query.unsatisfiable {
            return Ok(("<unsatisfiable: empty result, no plan needed>".into(), 0.0));
        }
        let optimized = pipeline::plan(
            &self.env(),
            &query,
            &self.optimizer_config(),
            Some(&self.recorder),
            self.now,
        )?;
        let names = |t: usize| query.tables[t].name.to_string();
        Ok((optimized.plan.render(&names), optimized.cost.primary))
    }

    /// What a session's queries run against: no coalescer and no batcher —
    /// one query at a time has nobody to share a purchase with.
    fn env(&self) -> Env<'_> {
        Env {
            market: &self.market,
            state: &self.state,
            coalescer: None,
            batcher: None,
        }
    }

    /// `EXPLAIN ANALYZE`: run `sql` with tracing forced on and return the
    /// outcome, whose report carries per-operator estimate-vs-actual traces
    /// ([`QueryReport::ops`]), q-error scores, and the spend rollup.
    ///
    /// Unlike [`PayLess::explain`] this *executes* the plan, so the market
    /// is called and money is spent — actuals cannot exist otherwise. The
    /// session's tracing flag is restored afterwards.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<QueryOutcome> {
        let was_on = self.recorder.is_enabled();
        self.recorder.set_enabled(true);
        let out = self.query(sql);
        self.recorder.set_enabled(was_on);
        out
    }

    /// The optimizer's estimate for `query` with semantic rewriting
    /// disabled: the counterfactual "what would this cost if the store's
    /// coverage didn't exist". Skipped (None) for modes that never rewrite.
    fn est_no_sqr_cost(&self, query: &AnalyzedQuery) -> Option<f64> {
        let mut cfg = self.optimizer_config();
        if !cfg.sqr {
            return None;
        }
        cfg.sqr = false;
        pipeline::plan(&self.env(), query, &cfg, Some(&self.recorder), self.now)
            .ok()
            .map(|o| o.cost.primary)
    }

    /// The ideal Download-All price for `query`: one full scan of every
    /// referenced market table at its page size (Eq. (1)), ignoring what the
    /// session has already downloaded.
    fn query_download_all_cost(&self, query: &AnalyzedQuery) -> Option<f64> {
        let mut total = 0u64;
        let mut any = false;
        for t in &query.tables {
            if t.location != TableLocation::Market {
                continue;
            }
            any = true;
            let cardinality = self.market.cardinality(&t.name)?;
            let page = self.market.page_size(&t.name)?;
            total += payless_optimizer::download_all_cost(cardinality, page);
        }
        any.then_some(total as f64)
    }

    /// Bind `params` into a template, then optimize and execute it.
    pub fn execute_template(
        &mut self,
        template: &SelectStmt,
        params: &[Value],
    ) -> Result<QueryOutcome> {
        let t_analyze = Instant::now();
        let bound = template.bind(params)?;
        let query = analyze(&bound, &self.catalog)?;
        let analyze_nanos = t_analyze.elapsed().as_nanos() as u64;
        let paid_before = self.market.bill().transactions();
        let mut out = self.run(&query)?;
        if let Some(report) = out.report.as_mut() {
            report.analyze_nanos = analyze_nanos;
        }
        self.history.push(HistoryEntry {
            at: self.now,
            summary: bound.to_string(),
            plan: out.plan.clone(),
            est_cost: out.est_cost,
            paid: self.market.bill().transactions() - paid_before,
            rows: out.result.rows.len(),
        });
        Ok(out)
    }

    fn run(&mut self, query: &AnalyzedQuery) -> Result<QueryOutcome> {
        self.now += 1;
        let qid = self.now;
        if let Some(j) = &self.events {
            j.emit(Some(qid), payless_events::Severity::Info, || {
                payless_events::EventKind::QueryStart
            });
        }
        let tracing = self.recorder.is_enabled();
        // Start a fresh per-query epoch *unconditionally*: a previous query
        // that failed mid-flight, or ran while tracing was toggled, must not
        // leak its ledger (wasted/delivered partition) into this one.
        self.recorder.begin_epoch();
        let paid_before = self.market.bill().transactions();
        let mut optimizer = self.optimizer_config();
        optimizer.introspect = tracing;
        let cfg = PipelineConfig {
            exec: ExecConfig {
                sqr: optimizer.sqr,
                consistency: self.cfg.consistency,
                recorder: Some(self.recorder.clone()),
                retry: self.cfg.retry.clone(),
                synthesize_ledger: true,
                metrics: self.metrics.clone(),
                events: self.events.clone(),
                ..ExecConfig::default()
            },
            optimizer,
            download_all: self.cfg.mode == Mode::DownloadAll,
            store_recorder: Some(self.recorder.clone()),
        };
        let (budget, ran) = pipeline::run_query(&self.env(), query, &cfg, qid);
        // Billed pages from the meter delta: a session attributes every
        // charge in this window to the one query it is running.
        let paid = self.market.bill().transactions() - paid_before;
        if let Some(j) = &self.events {
            let ok = ran.is_ok();
            let sev = if ok {
                payless_events::Severity::Info
            } else {
                payless_events::Severity::Warn
            };
            j.emit(Some(qid), sev, || payless_events::EventKind::QueryDone {
                ok,
                pages: paid,
                wasted_pages: budget.wasted_pages,
            });
        }
        Ok(self.outcome(query, ran?, tracing, paid))
    }

    /// Shape a pipeline run into the session's [`QueryOutcome`]; when
    /// tracing, drain the recorder into a [`QueryReport`] and price the two
    /// counterfactuals next to it.
    fn outcome(
        &self,
        query: &AnalyzedQuery,
        ran: Ran,
        tracing: bool,
        paid_transactions: u64,
    ) -> QueryOutcome {
        let names = |t: usize| query.tables[t].name.to_string();
        // An unsatisfiable query has no plan: no estimate, no search, no
        // operators — and no counterfactual to price.
        let (plan, est_cost, counters, mut ops) = match ran.optimized {
            Some(o) => (
                Some(o.plan.render(&names)),
                o.cost.primary,
                o.counters,
                o.ops,
            ),
            None => Default::default(),
        };
        let planned = plan.is_some();
        let report = tracing.then(|| {
            // Zip the optimizer's estimates with the executor's actuals:
            // both sides number operators in pre-order.
            for (trace, actual) in ops.iter_mut().zip(ran.actuals) {
                trace.actual = actual;
            }
            QueryReport {
                analyze_nanos: 0, // patched in by execute_template
                optimize_nanos: ran.optimize_nanos,
                execute_nanos: ran.execute_nanos,
                est_cost,
                paid_transactions,
                counters,
                telemetry: self.recorder.take(),
                ops,
                est_no_sqr_cost: planned.then(|| self.est_no_sqr_cost(query)).flatten(),
                download_all_cost: planned
                    .then(|| self.query_download_all_cost(query))
                    .flatten(),
            }
        });
        QueryOutcome {
            result: ran.result,
            plan,
            est_cost,
            counters,
            optimize_nanos: ran.optimize_nanos,
            execute_nanos: ran.execute_nanos,
            report,
        }
    }

    fn optimizer_config(&self) -> OptimizerConfig {
        let mut cfg = match self.cfg.mode {
            Mode::PayLess | Mode::DownloadAll => OptimizerConfig::payless(),
            Mode::PayLessNoSqr => OptimizerConfig::payless_no_sqr(),
            Mode::MinCalls => OptimizerConfig::min_calls(),
            Mode::DisableAll => OptimizerConfig::disable_all(),
        };
        cfg.consistency = self.cfg.consistency;
        cfg
    }
}

/// Bundle a workload's market tables into a single-dataset [`DataMarket`]
/// with the given page size `t` (tuples per transaction).
pub fn build_market(workload: &(dyn QueryWorkload + '_), page_size: u64) -> DataMarket {
    let mut dataset = payless_market::Dataset::new("market").with_page_size(page_size);
    for t in workload.market_tables() {
        dataset = dataset.with_table(t.clone());
    }
    DataMarket::new(vec![dataset])
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_workload::{RealWorkload, WhwConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session(mode: Mode) -> (Arc<DataMarket>, PayLess, RealWorkload) {
        let workload = RealWorkload::generate(&WhwConfig {
            stations: 48,
            countries: 4,
            cities_per_country: 3,
            days: 60,
            zips: 60,
            ranks: 100,
            seed: 3,
        });
        let market = Arc::new(build_market(&workload, 100));
        let mut pl = PayLess::new(market.clone(), PayLessConfig::mode(mode));
        for t in QueryWorkload::local_tables(&workload) {
            pl.register_local(t.clone());
        }
        (market, pl, workload)
    }

    #[test]
    fn simple_select_returns_rows_and_charges() {
        let (market, mut pl, _) = session(Mode::PayLess);
        let out = pl
            .query(
                "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
                 Weather.Date >= 5 AND Weather.Date <= 9",
            )
            .unwrap();
        // 12 stations per country x 5 days.
        assert_eq!(out.result.rows.len(), 60);
        assert!(market.bill().transactions() > 0);
        assert!(out.plan.is_some());
    }

    #[test]
    fn repeat_query_is_free_with_sqr() {
        let (market, mut pl, _) = session(Mode::PayLess);
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
                   Weather.Date >= 5 AND Weather.Date <= 9";
        let first = pl.query(sql).unwrap();
        let after_first = market.bill().transactions();
        let second = pl.query(sql).unwrap();
        assert_eq!(market.bill().transactions(), after_first);
        assert_eq!(first.result, second.result);
    }

    #[test]
    fn overlapping_query_fetches_only_remainder() {
        let (market, mut pl, _) = session(Mode::PayLess);
        pl.query(
            "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
             Weather.Date >= 10 AND Weather.Date <= 29",
        )
        .unwrap();
        let mid = market.bill();
        // Extend the window on both sides: only days 5-9 and 30-34 are new.
        let out = pl
            .query(
                "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
                 Weather.Date >= 5 AND Weather.Date <= 34",
            )
            .unwrap();
        assert_eq!(out.result.rows.len(), 12 * 30);
        let added_records = market.bill().records() - mid.records();
        assert_eq!(added_records, 12 * 10); // only the two remainder slices
    }

    #[test]
    fn no_sqr_mode_pays_again() {
        let (market, mut pl, _) = session(Mode::PayLessNoSqr);
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
                   Weather.Date >= 5 AND Weather.Date <= 9";
        pl.query(sql).unwrap();
        let after_first = market.bill().transactions();
        pl.query(sql).unwrap();
        assert_eq!(market.bill().transactions(), 2 * after_first);
    }

    #[test]
    fn download_all_pays_once_per_table() {
        let (market, mut pl, _) = session(Mode::DownloadAll);
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
                   Weather.Date >= 5 AND Weather.Date <= 9";
        let out = pl.query(sql).unwrap();
        assert_eq!(out.result.rows.len(), 60);
        let full = market.bill().transactions();
        // Whole Weather table: 48 stations x 60 days / page 100.
        assert_eq!(full, (48u64 * 60).div_ceil(100));
        pl.query(sql).unwrap();
        assert_eq!(market.bill().transactions(), full);
    }

    #[test]
    fn templates_and_params() {
        let (_, mut pl, workload) = session(Mode::PayLess);
        let mut rng = StdRng::seed_from_u64(1);
        for (i, tmpl) in workload.templates().iter().enumerate() {
            let stmt = pl.prepare(tmpl).unwrap();
            let params = workload.sample_params(i, &mut rng);
            let out = pl.execute_template(&stmt, &params).unwrap();
            assert!(
                !out.result.rows.is_empty(),
                "template {i} returned empty for {params:?}"
            );
        }
    }

    #[test]
    fn aggregate_query_shapes() {
        let (_, mut pl, _) = session(Mode::PayLess);
        let out = pl
            .query(
                "SELECT AVG(Temperature) FROM Station, Weather WHERE \
                 Station.Country = Weather.Country = 'Country2' AND \
                 Weather.Date >= 1 AND Weather.Date <= 10 AND \
                 Station.StationID = Weather.StationID GROUP BY City",
            )
            .unwrap();
        assert_eq!(out.result.columns, vec!["AVG(Temperature)".to_string()]);
        // Country2 has 3 cities.
        assert_eq!(out.result.rows.len(), 3);
    }

    #[test]
    fn unsatisfiable_query_is_free_and_empty() {
        let (market, mut pl, _) = session(Mode::PayLess);
        let out = pl
            .query("SELECT * FROM Station WHERE City = 'City0' AND City = 'City1'")
            .unwrap();
        assert!(out.result.rows.is_empty());
        assert!(out.plan.is_none());
        assert_eq!(market.bill().transactions(), 0);
    }

    #[test]
    fn min_calls_mode_runs_and_costs_more() {
        let (mc_market, mut mc, workload) = session(Mode::MinCalls);
        let (pl_market, mut pl, _) = session(Mode::PayLess);
        let mut rng = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        for (i, tmpl) in workload.templates().iter().enumerate() {
            let stmt = mc.prepare(tmpl).unwrap();
            for _ in 0..3 {
                let p1 = workload.sample_params(i, &mut rng);
                let p2 = workload.sample_params(i, &mut rng2);
                assert_eq!(p1, p2);
                let a = mc.execute_template(&stmt, &p1).unwrap();
                let b = pl.execute_template(&stmt, &p2).unwrap();
                // Same answers from both systems.
                let mut ra = a.result.rows.clone();
                let mut rb = b.result.rows.clone();
                ra.sort();
                rb.sort();
                assert_eq!(ra, rb, "template {i} result mismatch");
            }
        }
        assert!(
            pl_market.bill().transactions() <= mc_market.bill().transactions(),
            "PayLess {} should not exceed MinCalls {}",
            pl_market.bill().transactions(),
            mc_market.bill().transactions()
        );
    }

    #[test]
    fn strong_consistency_disables_reuse() {
        let workload = RealWorkload::generate(&WhwConfig {
            stations: 24,
            countries: 2,
            cities_per_country: 3,
            days: 30,
            zips: 40,
            ranks: 100,
            seed: 3,
        });
        let market = Arc::new(build_market(&workload, 100));
        let cfg = PayLessConfig {
            consistency: Consistency::Strong,
            ..Default::default()
        };
        let mut pl = PayLess::new(market.clone(), cfg);
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country0' AND \
                   Weather.Date >= 1 AND Weather.Date <= 5";
        pl.query(sql).unwrap();
        let first = market.bill().transactions();
        pl.query(sql).unwrap();
        assert_eq!(market.bill().transactions(), 2 * first);
    }

    #[test]
    fn explain_analyze_pairs_estimates_with_actuals() {
        let (market, mut pl, _) = session(Mode::PayLess);
        assert!(!pl.tracing_enabled());
        let out = pl
            .explain_analyze(
                "SELECT Temperature FROM Station, Weather WHERE \
                 Station.Country = 'Country1' AND \
                 Weather.Date >= 5 AND Weather.Date <= 9 AND \
                 Station.StationID = Weather.StationID",
            )
            .unwrap();
        // The flag is restored, the query really executed and paid.
        assert!(!pl.tracing_enabled());
        assert!(market.bill().transactions() > 0);
        let report = out.report.expect("explain analyze always traces");
        assert!(!report.ops.is_empty());
        // Every operator carries both sides; ids are pre-order.
        for (i, op) in report.ops.iter().enumerate() {
            assert_eq!(op.id, i);
            assert!(!op.label.is_empty());
        }
        // The plan bought pages, and they reconcile with the ledger.
        assert!(report.operator_pages() > 0);
        assert_eq!(report.operator_pages(), report.total_pages());
        assert_eq!(report.paid_transactions, report.total_pages());
        // Estimates were scored against actuals at the feedback chokepoint.
        assert!(!report.telemetry.qerrors.is_empty());
        for q in &report.telemetry.qerrors {
            assert!(q.q >= 1.0 && q.q.is_finite());
        }
        // Counterfactuals: SQR savings and the Download-All baseline.
        assert!(report.est_no_sqr_cost.is_some());
        let da = report.download_all_cost.expect("market tables referenced");
        assert!(da > 0.0);
        // Report JSON carries the new sections.
        let json = report.to_json();
        assert!(!json.get("operators").unwrap().as_arr().unwrap().is_empty());
        assert!(json.get("q_error").is_ok());
        assert!(json.get("rollup").is_ok());
    }

    #[test]
    fn sequential_queries_report_independent_ledgers() {
        // Satellite regression: the second query's report must not inherit
        // the first one's wasted/delivered partition.
        let (_, mut pl, _) = session(Mode::PayLess);
        pl.enable_tracing(true);
        let first = pl
            .query(
                "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
                 Weather.Date >= 5 AND Weather.Date <= 9",
            )
            .unwrap()
            .report
            .unwrap();
        let second = pl
            .query(
                "SELECT * FROM Weather WHERE Weather.Country = 'Country2' AND \
                 Weather.Date >= 5 AND Weather.Date <= 9",
            )
            .unwrap()
            .report
            .unwrap();
        assert!(first.total_pages() > 0);
        assert!(second.total_pages() > 0);
        // Each ledger holds only its own query's lines.
        assert_eq!(
            first.total_pages() + second.total_pages(),
            first.paid_transactions + second.paid_transactions
        );
        // The epoch reset restarts the ledger's sequence numbering.
        assert_eq!(second.telemetry.ledger[0].seq, 0);
    }

    /// A session reopened over a recovered store resumes its clock after
    /// the newest view, so Window consistency keeps ageing that view: once
    /// the window has passed, the query pays again.
    #[test]
    fn reopened_session_resumes_its_clock_for_window_consistency() {
        let (market, _, _) = session(Mode::PayLess);
        let cfg = PayLessConfig {
            consistency: Consistency::Window(3),
            ..Default::default()
        };
        let mut pl = PayLess::new(market.clone(), cfg.clone());
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country2' AND \
                   Weather.Date >= 1 AND Weather.Date <= 5";
        pl.query(sql).unwrap();
        pl.query(sql).unwrap();
        assert_eq!(pl.now(), 2);
        let mut reopened = PayLess::with_store(market.clone(), cfg, pl.state().store().snapshot());
        assert_eq!(reopened.now(), 1, "the only view was bought at tick 1");
        reopened.advance_clock(10);
        // The stored view is stale relative to the resumed clock; the query
        // must pay again.
        let before = market.bill().transactions();
        reopened.query(sql).unwrap();
        assert!(market.bill().transactions() > before);
    }

    #[test]
    fn window_consistency_expires_coverage() {
        let workload = RealWorkload::generate(&WhwConfig {
            stations: 24,
            countries: 2,
            cities_per_country: 3,
            days: 30,
            zips: 40,
            ranks: 100,
            seed: 3,
        });
        let market = Arc::new(build_market(&workload, 100));
        let cfg = PayLessConfig {
            consistency: Consistency::Window(5),
            ..Default::default()
        };
        let mut pl = PayLess::new(market.clone(), cfg);
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country0' AND \
                   Weather.Date >= 1 AND Weather.Date <= 5";
        pl.query(sql).unwrap();
        let first = market.bill().transactions();
        // Within the window: free.
        pl.query(sql).unwrap();
        assert_eq!(market.bill().transactions(), first);
        // After the window: refetch.
        pl.advance_clock(10);
        pl.query(sql).unwrap();
        assert_eq!(market.bill().transactions(), 2 * first);
    }
}
