//! The PayLess session: one buyer's installation over one market, as a
//! one-client [`Serve`]. It binds and analyzes against the serving layer's
//! catalog, runs every query through [`Serve::run`] in its [`Mode`] — the
//! path the in-process mix and the socket server take — and keeps the books
//! a REPL shows: the history, and per traced query the [`QueryReport`].

use std::sync::Arc;
use std::time::Instant;

use payless_exec::{QueryResult, Ran, SharedState};
use payless_market::DataMarket;
use payless_optimizer::PlanCounters;
use payless_serve::{Mode, Serve, ServeConfig};
use payless_sql::{parse, AnalyzedQuery, SelectStmt, TableLocation};
use payless_storage::LocalTable;
use payless_telemetry::{Recorder, TelemetrySnapshot};
use payless_types::{Result, Value};

use crate::report::QueryReport;

/// Everything a query run reports besides its rows.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result relation.
    pub result: QueryResult,
    /// Rendered plan (`None` for unsatisfiable queries).
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

/// A PayLess installation at one data buyer: a one-client [`Serve`] plus
/// the mode it runs, its history and whether it traces.
pub struct PayLess {
    serve: Serve,
    mode: Mode,
    /// Telemetry sink of the live store and of every query. Always on, so
    /// what each query spent is known (and journaled) whether or not it is
    /// traced.
    recorder: Arc<Recorder>,
    /// Introspect plans and build a [`QueryReport`] per query.
    tracing: bool,
    /// Per-query log (not persisted).
    history: Vec<HistoryEntry>,
}

impl PayLess {
    /// Install PayLess over a market: a one-client [`Serve`] at its
    /// defaults ([`ServeConfig::one_client`]), running `mode`.
    pub fn new(market: Arc<DataMarket>, mode: Mode) -> Self {
        Self::over(Serve::new(market, &[], ServeConfig::one_client()), mode)
    }

    /// A session running `mode` over `serve` — one built with a
    /// [`ServeConfig::one_client`] variant, or one recovered from a data
    /// directory (`payless_server::persist::recover`, behind the CLI's
    /// `--session`).
    pub fn over(serve: Serve, mode: Mode) -> Self {
        let recorder = Recorder::enabled();
        serve.state().store().attach_recorder(Arc::clone(&recorder));
        PayLess {
            serve,
            mode,
            recorder,
            tracing: false,
            history: Vec::new(),
        }
    }

    /// Turn per-query tracing on or off. While on, every [`QueryOutcome`]
    /// carries a [`QueryReport`] with the spend ledger, SQR statistics,
    /// plan-search counters, per-operator estimates and actuals, and phase
    /// timings.
    pub fn enable_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Is per-query tracing currently on?
    pub fn tracing_enabled(&self) -> bool {
        self.tracing
    }

    /// Register a table in the buyer's local DBMS.
    pub fn register_local(&mut self, table: LocalTable) {
        self.serve.register_local(table);
    }

    /// The market this session fronts.
    pub fn market(&self) -> &DataMarket {
        self.serve.market()
    }

    /// Cumulative bill so far (the paper's headline metric).
    pub fn bill(&self) -> payless_market::BillingReport {
        self.market().bill()
    }

    /// The session's logical clock.
    pub fn now(&self) -> u64 {
        self.serve.now()
    }

    /// The buyer-side state: local mirror, semantic store and refined
    /// statistics (for tooling and experiments).
    pub fn state(&self) -> &SharedState {
        self.serve.state()
    }

    /// The session's query log, oldest first.
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// Advance the logical clock by `ticks` (e.g. to simulate weeks passing
    /// for X-week consistency experiments).
    pub fn advance_clock(&self, ticks: u64) {
        self.serve.advance_clock(ticks);
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
        let query = self.serve.analyze(&self.prepare(sql)?.bind(&[])?)?;
        if query.unsatisfiable {
            return Ok(("<unsatisfiable: empty result, no plan needed>".into(), 0.0));
        }
        let optimized = self.serve.plan(&query, self.mode)?;
        let names = |t: usize| query.tables[t].name.to_string();
        Ok((optimized.plan.render(&names), optimized.cost.primary))
    }

    /// `EXPLAIN ANALYZE`: run `sql` with tracing forced on and return the
    /// outcome, whose report carries per-operator estimate-vs-actual traces
    /// ([`QueryReport::ops`]), q-error scores, and the spend rollup.
    ///
    /// Unlike [`PayLess::explain`] this *executes* the plan, so the market
    /// is called and money is spent — actuals cannot exist otherwise. The
    /// session's tracing flag is restored afterwards.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<QueryOutcome> {
        let was_on = std::mem::replace(&mut self.tracing, true);
        let out = self.query(sql);
        self.tracing = was_on;
        out
    }

    /// Bind `params` into a template, then run it through [`Serve::run`].
    pub fn execute_template(
        &mut self,
        template: &SelectStmt,
        params: &[Value],
    ) -> Result<QueryOutcome> {
        let t_analyze = Instant::now();
        let bound = template.bind(params)?;
        let query = self.serve.analyze(&bound)?;
        let analyze_nanos = t_analyze.elapsed().as_nanos() as u64;
        // Billed pages from the meter delta, which the report's ledger must
        // reconcile with: nothing else charges this session's market.
        let paid_before = self.bill().transactions();
        let (at, ran, telemetry) = self
            .serve
            .run(&query, self.mode, &self.recorder, self.tracing);
        let paid = self.bill().transactions() - paid_before;
        let out = self.outcome(&query, ran?, telemetry, paid, analyze_nanos);
        self.history.push(HistoryEntry {
            at,
            summary: bound.to_string(),
            plan: out.plan.clone(),
            est_cost: out.est_cost,
            paid,
            rows: out.result.rows.len(),
        });
        Ok(out)
    }

    /// Shape a run into the session's [`QueryOutcome`]; when tracing, wrap
    /// its telemetry in a [`QueryReport`] and price the two counterfactuals
    /// next to it.
    fn outcome(
        &self,
        query: &AnalyzedQuery,
        ran: Ran,
        telemetry: TelemetrySnapshot,
        paid_transactions: u64,
        analyze_nanos: u64,
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
        let report = self.tracing.then(|| {
            // Zip the optimizer's estimates with the executor's actuals:
            // both sides number operators in pre-order.
            for (trace, actual) in ops.iter_mut().zip(ran.actuals) {
                trace.actual = actual;
            }
            QueryReport {
                analyze_nanos,
                optimize_nanos: ran.optimize_nanos,
                execute_nanos: ran.execute_nanos,
                est_cost,
                paid_transactions,
                counters,
                telemetry,
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

    /// The optimizer's estimate for `query` with semantic rewriting
    /// disabled: the counterfactual "what would this cost if the store's
    /// coverage didn't exist". Skipped (None) for modes that never rewrite.
    fn est_no_sqr_cost(&self, query: &AnalyzedQuery) -> Option<f64> {
        if !self.mode.preset().0.sqr {
            return None;
        }
        self.serve
            .plan(query, Mode::PayLessNoSqr)
            .ok()
            .map(|o| o.cost.primary)
    }

    /// The ideal Download-All price for `query`: one full scan of every
    /// referenced market table at its page size (Eq. (1)), ignoring what the
    /// session has already downloaded.
    fn query_download_all_cost(&self, query: &AnalyzedQuery) -> Option<f64> {
        let market = self.market();
        let mut total = 0u64;
        let mut any = false;
        for t in &query.tables {
            if t.location != TableLocation::Market {
                continue;
            }
            any = true;
            let cardinality = market.cardinality(&t.name)?;
            let page = market.page_size(&t.name)?;
            total += payless_optimizer::download_all_cost(cardinality, page);
        }
        any.then_some(total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_semantic::Consistency;
    use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};
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
        let mut pl = PayLess::new(market.clone(), mode);
        for t in QueryWorkload::local_tables(&workload) {
            pl.register_local(t.clone());
        }
        (market, pl, workload)
    }

    /// A default-mode session over `market` at `consistency`.
    fn session_with(market: &Arc<DataMarket>, consistency: Consistency) -> PayLess {
        let cfg = ServeConfig {
            consistency,
            ..ServeConfig::one_client()
        };
        PayLess::over(Serve::new(Arc::clone(market), &[], cfg), Mode::PayLess)
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
        let mut pl = session_with(&market, Consistency::Strong);
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
        let mut pl = session_with(&market, Consistency::Window(3));
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country2' AND \
                   Weather.Date >= 1 AND Weather.Date <= 5";
        pl.query(sql).unwrap();
        pl.query(sql).unwrap();
        assert_eq!(pl.now(), 2);
        let cfg = ServeConfig {
            consistency: Consistency::Window(3),
            ..ServeConfig::one_client()
        };
        let warm = pl.state().store().snapshot();
        let reopened = Serve::with_store(market.clone(), &[], cfg.clone(), warm);
        let mut reopened = PayLess::over(reopened, Mode::PayLess);
        assert_eq!(reopened.now(), 1, "the only view was bought at tick 1");
        reopened.advance_clock(10);
        // The stored view is stale relative to the resumed clock; the query
        // must pay again.
        let before = market.bill().transactions();
        reopened.query(sql).unwrap();
        assert!(market.bill().transactions() > before);

        // A merge dates the merged view by its older half, so the clock
        // must resume after the last purchase, not after the newest
        // surviving view.
        let mut pl = session_with(&market, Consistency::Window(3));
        let later = "SELECT * FROM Weather WHERE Weather.Country = 'Country2' AND \
                     Weather.Date >= 6 AND Weather.Date <= 10";
        pl.query(sql).unwrap();
        pl.advance_clock(10);
        pl.query(later).unwrap();
        assert_eq!(pl.now(), 12);
        assert_eq!(
            pl.state().store().view_count("Weather"),
            1,
            "the views merged"
        );
        let warm = pl.state().store().snapshot();
        let mut reopened = PayLess::over(
            Serve::with_store(market.clone(), &[], cfg, warm),
            Mode::PayLess,
        );
        assert_eq!(reopened.now(), 12, "the last purchase was at tick 12");
        // Date 1-5 was bought 12 ticks ago: both sessions must pay again.
        let paid = |pl: &mut PayLess| {
            let before = market.bill().transactions();
            pl.query(sql).unwrap();
            market.bill().transactions() - before
        };
        assert_eq!((paid(&mut pl), paid(&mut reopened)), (1, 1));
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
        let mut pl = session_with(&market, Consistency::Window(5));
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
