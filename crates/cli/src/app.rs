//! The shell's command dispatcher (testable, no I/O).

use std::path::Path;
use std::sync::Arc;

use payless_core::{
    known_queries, render_provenance, ChromeTraceBuilder, DataMarket, EventJournal, EventsConfig,
    MetricsConfig, MetricsHub, PayLess, QueryReport, SpendCell,
};
use payless_json::{Json, ToJson};
use payless_serve::{run_mix, Serve, ServeConfig};
use payless_server::persist::{recover, PersistConfig};
use payless_workload::{
    build_market, serve_mix, Finance, FinanceConfig, QueryWorkload, RealWorkload, Tpch, TpchConfig,
    WhwConfig,
};

use crate::args::{CliArgs, WorkloadKind};
use crate::render::{render_explain, render_report, render_table};

/// What the shell should do with a command's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Print this text and continue.
    Text(String),
    /// Exit the loop.
    Quit,
}

/// One interactive session.
pub struct App {
    market: Arc<DataMarket>,
    session: PayLess,
    /// Report of the most recent traced query (for `\report`).
    last_report: Option<QueryReport>,
    /// Destination for the session's Chrome-trace document, if requested.
    trace_out: Option<String>,
    /// Destination for `\explain` JSON reports, if requested.
    explain_out: Option<String>,
    /// Accumulates every traced query's telemetry into one trace document.
    trace_builder: ChromeTraceBuilder,
    /// Session-wide dataset × call-kind spend cells, merged across queries.
    spend_cells: Vec<SpendCell>,
    /// Summed estimated pages SQR saved (vs the no-SQR counterfactual).
    sqr_savings_est: f64,
    /// Summed regret vs the ideal Download-All price (negative = we won).
    regret_da: f64,
    /// Live metrics hub (`\metrics`, `--metrics-out`).
    metrics: Arc<MetricsHub>,
    /// Destination for the metrics exposition on exit.
    metrics_out: Option<String>,
    /// Flight recorder (`None` unless `--events-out` asked for one).
    events: Option<Arc<EventJournal>>,
    /// Destination for the event journal's JSONL dump on exit.
    events_out: Option<String>,
}

/// Write an artifact file, creating missing parent directories and turning
/// I/O failures into a clean message instead of a panic. Every `--*-out`
/// flag funnels through here so they all behave the same way.
pub(crate) fn write_artifact(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating directory for `{path}`: {e}"))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("writing `{path}`: {e}"))
}

/// Build the flight recorder `--events-out` asks for: the flag's path is
/// both the exit dump and the black-box destination.
fn build_journal(events_out: &Option<String>) -> Option<Arc<EventJournal>> {
    events_out.as_ref().map(|path| {
        EventJournal::from_config(&EventsConfig {
            blackbox: Some(path.clone()),
            ..EventsConfig::default()
        })
    })
}

/// Write the exposition to `path`.
fn dump_metrics(hub: &MetricsHub, path: &str) -> Result<String, String> {
    write_artifact(path, &hub.exposition())?;
    Ok(format!("metrics -> {path}"))
}

impl App {
    /// Build a session from parsed arguments: generate the workload, stand
    /// up the market, and install PayLess — a one-client serving layer,
    /// recovered from its `--session` data directory when one is given.
    pub fn new(args: &CliArgs) -> Result<App, String> {
        let workload: Box<dyn QueryWorkload> = match args.workload {
            WorkloadKind::Whw => Box::new(RealWorkload::generate(&WhwConfig::scaled(args.scale))),
            WorkloadKind::Tpch => Box::new(Tpch::generate(&TpchConfig::uniform(args.scale))),
            WorkloadKind::TpchSkew => Box::new(Tpch::generate(&TpchConfig::skewed(args.scale))),
            WorkloadKind::Finance => Box::new(Finance::generate(&FinanceConfig::default())),
        };
        let market = Arc::new(build_market(&*workload, args.page_size));
        let locals = workload.local_tables();
        let metrics = Arc::new(MetricsHub::new(MetricsConfig::default()));
        let events = build_journal(&args.events_out);
        let cfg = ServeConfig {
            metrics: Some(Arc::clone(&metrics)),
            events: events.clone(),
            ..ServeConfig::one_client()
        };
        let serve = match &args.session_dir {
            Some(dir) => {
                let build = |store| Serve::with_store(Arc::clone(&market), locals, cfg, store);
                recover(Path::new(dir), PersistConfig::default(), &market, build)
                    .map_err(|e| format!("opening session `{dir}`: {e}"))?
                    .0
            }
            None => Serve::new(Arc::clone(&market), locals, cfg),
        };
        let mut session = PayLess::over(serve, args.mode);
        session.enable_tracing(args.trace);
        Ok(App {
            market,
            session,
            last_report: None,
            trace_out: args.trace_out.clone(),
            explain_out: args.explain_out.clone(),
            trace_builder: ChromeTraceBuilder::new(),
            spend_cells: Vec::new(),
            sqr_savings_est: 0.0,
            regret_da: 0.0,
            metrics,
            metrics_out: args.metrics_out.clone(),
            events,
            events_out: args.events_out.clone(),
        })
    }

    /// Fold one traced query into the session-wide trace and rollup.
    fn note_report(&mut self, name: &str, report: &QueryReport) {
        if self.trace_out.is_some() {
            self.trace_builder.add_query(name, &report.telemetry);
        }
        for cell in report.spend_rollup() {
            match self
                .spend_cells
                .iter_mut()
                .find(|c| c.dataset == cell.dataset && c.kind == cell.kind)
            {
                Some(c) => {
                    c.calls += cell.calls;
                    c.records += cell.records;
                    c.pages += cell.pages;
                    c.price += cell.price;
                }
                None => self.spend_cells.push(cell),
            }
        }
        self.sqr_savings_est += report.est_sqr_savings().unwrap_or(0.0);
        self.regret_da += report.regret_vs_download_all().unwrap_or(0.0);
    }

    /// Flush end-of-session artifacts (the `--trace-out` document, the
    /// `--metrics-out` exposition, and the `--events-out` event
    /// journal). Returns a message to print, if anything was written.
    pub fn finish(&mut self) -> Option<String> {
        let mut messages: Vec<String> = Vec::new();
        if let Some(path) = &self.metrics_out {
            messages.push(
                dump_metrics(&self.metrics, path).unwrap_or_else(|e| format!("warning: {e}")),
            );
        }
        if let (Some(journal), Some(path)) = (&self.events, &self.events_out) {
            messages.push(match write_artifact(path, &journal.dump_jsonl()) {
                Ok(()) => format!(
                    "events -> {path} ({} recorded, {} dropped by the ring)",
                    journal.recorded(),
                    journal.dropped()
                ),
                Err(e) => format!("warning: {e}"),
            });
        }
        match self.finish_trace() {
            Some(msg) => messages.push(msg),
            None => {
                if messages.is_empty() {
                    return None;
                }
            }
        }
        Some(messages.join("\n"))
    }

    fn finish_trace(&mut self) -> Option<String> {
        let path = self.trace_out.clone()?;
        if self.trace_builder.is_empty() {
            return Some(format!(
                "no traced queries — {path} not written (is --trace on?)"
            ));
        }
        let bill = self.market.bill();
        let other = Json::obj([
            ("queries", self.trace_builder.queries().to_json()),
            ("transactions", bill.transactions().to_json()),
            ("calls", bill.calls().to_json()),
            ("records", bill.records().to_json()),
            ("spend", self.spend_cells.to_json()),
            ("est_sqr_savings", self.sqr_savings_est.to_json()),
            ("regret_vs_download_all", self.regret_da.to_json()),
        ]);
        let doc = std::mem::take(&mut self.trace_builder).finish(other);
        match write_artifact(&path, &doc.to_string_pretty()) {
            Ok(()) => Some(format!(
                "trace written to {path} (open in chrome://tracing or ui.perfetto.dev)"
            )),
            Err(e) => Some(format!("warning: {e}")),
        }
    }

    /// Greeting shown when the shell starts.
    pub fn banner(&self) -> String {
        let mut s = String::from("PayLess shell — type SQL, or \\help for commands.\n\n");
        s.push_str(&self.tables_text());
        s
    }

    fn tables_text(&self) -> String {
        let mut s = String::from("Market tables:\n");
        for name in self.market.table_names() {
            s.push_str(&format!(
                "  {:<10} {:>9} rows   {}\n",
                name,
                self.market.cardinality(&name).unwrap_or(0),
                self.market
                    .schema(&name)
                    .map(|sc| sc.binding_pattern().to_string())
                    .unwrap_or_default(),
            ));
        }
        s
    }

    fn bill_text(&self) -> String {
        let bill = self.market.bill();
        let mut s = format!(
            "Total: {} transactions over {} calls ({} records)\n",
            bill.transactions(),
            bill.calls(),
            bill.records()
        );
        let mut names: Vec<_> = bill.by_table.keys().cloned().collect();
        names.sort();
        for n in names {
            let t = &bill.by_table[&n];
            s.push_str(&format!(
                "  {:<10} {:>8} txns  {:>6} calls  {:>9} records\n",
                n, t.transactions, t.calls, t.records
            ));
        }
        s
    }

    /// Handle one input line; `Reply::Quit` ends the loop.
    pub fn handle(&mut self, line: &str) -> Reply {
        let line = line.trim();
        if line.is_empty() {
            return Reply::Text(String::new());
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            let (head, rest) = match cmd.split_once(char::is_whitespace) {
                Some((h, r)) => (h, r.trim()),
                None => (cmd, ""),
            };
            return match head {
                "q" | "quit" | "exit" => Reply::Quit,
                "help" => Reply::Text(crate::args::USAGE.to_string()),
                "tables" => Reply::Text(self.tables_text()),
                "bill" => Reply::Text(self.bill_text()),
                "history" => {
                    let mut s = String::new();
                    for h in self.session.history().iter().rev().take(20) {
                        s.push_str(&format!(
                            "t{:<4} paid {:>5} (est {:>7.1}) rows {:>6}  {}\n",
                            h.at,
                            h.paid,
                            h.est_cost,
                            h.rows,
                            truncate(&h.summary, 70),
                        ));
                    }
                    if s.is_empty() {
                        s = "no queries yet\n".into();
                    }
                    Reply::Text(s)
                }
                "coverage" => {
                    let mut s = String::from("Semantic-store coverage:\n");
                    for name in self.market.table_names() {
                        s.push_str(&format!(
                            "  {:<10} {:>6.1}%  ({} stored view boxes)\n",
                            name,
                            self.session.state().store().coverage_fraction(&name) * 100.0,
                            self.session.state().store().view_count(&name),
                        ));
                    }
                    Reply::Text(s)
                }
                "explain" => {
                    if rest.is_empty() {
                        return Reply::Text("usage: \\explain <SQL>".into());
                    }
                    let before = self.market.bill().transactions();
                    match self.session.explain_analyze(rest) {
                        Ok(out) => {
                            let report = out.report.expect("explain analyze always traces");
                            let mut s = render_explain(&report);
                            s.push_str(&format!(
                                "paid {} transactions (estimated {:.1}); plan: {}\n",
                                self.market.bill().transactions() - before,
                                out.est_cost,
                                out.plan.as_deref().unwrap_or("-"),
                            ));
                            if let Some(path) = self.explain_out.clone() {
                                let json = report.to_json().to_string_pretty();
                                match write_artifact(&path, &json) {
                                    Ok(()) => {
                                        s.push_str(&format!("explain report written to {path}\n"))
                                    }
                                    Err(e) => s.push_str(&format!("warning: {e}\n")),
                                }
                            }
                            self.note_report(rest, &report);
                            self.last_report = Some(report);
                            Reply::Text(s)
                        }
                        Err(e) => Reply::Text(format!("error: {e}")),
                    }
                }
                "estimate" => {
                    if rest.is_empty() {
                        return Reply::Text("usage: \\estimate <SQL>".into());
                    }
                    match self.session.explain(rest) {
                        Ok((plan, cost)) => {
                            Reply::Text(format!("plan: {plan}\nestimated cost: {cost:.1}"))
                        }
                        Err(e) => Reply::Text(format!("error: {e}")),
                    }
                }
                "trace" => {
                    match rest {
                        "on" => self.session.enable_tracing(true),
                        "off" => self.session.enable_tracing(false),
                        "" => {
                            let on = !self.session.tracing_enabled();
                            self.session.enable_tracing(on);
                        }
                        other => {
                            return Reply::Text(format!("usage: \\trace [on|off] (got `{other}`)"))
                        }
                    }
                    Reply::Text(format!(
                        "tracing {}",
                        if self.session.tracing_enabled() {
                            "on"
                        } else {
                            "off"
                        }
                    ))
                }
                "metrics" => Reply::Text(self.metrics.exposition()),
                "why" => match &self.events {
                    Some(journal) => {
                        let events = journal.snapshot();
                        let query = if rest.is_empty() {
                            known_queries(&events).last().copied()
                        } else {
                            match rest.parse::<u64>() {
                                Ok(q) => Some(q),
                                Err(_) => {
                                    return Reply::Text(format!(
                                        "usage: \\why [query-id] (got `{rest}`)"
                                    ))
                                }
                            }
                        };
                        match query {
                            Some(q) => Reply::Text(render_provenance(&events, q)),
                            None => Reply::Text("no journaled queries yet".into()),
                        }
                    }
                    None => Reply::Text("the flight recorder is off; pass --events-out".into()),
                },
                "report" => match &self.last_report {
                    Some(r) => Reply::Text(r.to_json().to_string_pretty()),
                    None => Reply::Text("no traced query yet (enable with \\trace)".into()),
                },
                other => Reply::Text(format!("unknown command `\\{other}` (try \\help)")),
            };
        }
        // Plain SQL.
        let before = self.market.bill().transactions();
        match self.session.query(line) {
            Ok(out) => {
                let mut s = render_table(&out.result);
                let paid = self.market.bill().transactions() - before;
                s.push_str(&format!(
                    "paid {paid} transactions (estimated {:.1}); plan: {}\n",
                    out.est_cost,
                    out.plan.as_deref().unwrap_or("-")
                ));
                if let Some(report) = out.report {
                    s.push_str(&render_report(&report));
                    self.note_report(line, &report);
                    self.last_report = Some(report);
                }
                Reply::Text(s)
            }
            Err(e) => Reply::Text(format!("error: {e}")),
        }
    }
}

/// Clip a string for one-line display.
fn truncate(s: &str, max: usize) -> String {
    match s.char_indices().nth(max) {
        Some((cut, _)) => format!("{}…", &s[..cut]),
        None => s.to_string(),
    }
}

/// Run `--serve N`: replay a deterministic multi-client mix through the
/// concurrent serving layer ([`payless_serve::Serve`]), reconcile every
/// query's spend ledger against the billing meter, and render a summary.
/// Everything the flags do not set is [`ServeConfig::default`].
pub fn run_serve(args: &CliArgs) -> Result<String, String> {
    if args.workload != WorkloadKind::Whw {
        return Err("--serve currently supports --workload whw only".into());
    }
    let threads = args.serve_threads.unwrap_or(1) as usize;
    let clients = args.clients.unwrap_or(4) as usize;
    let queries = args.queries.unwrap_or(24) as usize;
    let seed = args.seed.unwrap_or(48879);

    let w = RealWorkload::generate(&WhwConfig::scaled(args.scale));
    let market = Arc::new(build_market(&w, args.page_size));
    let hub = Arc::new(MetricsHub::new(MetricsConfig::default()));
    let journal = build_journal(&args.events_out);
    let cfg = ServeConfig {
        threads,
        metrics: Some(Arc::clone(&hub)),
        events: journal.clone(),
        ..ServeConfig::default()
    };
    let layer = Serve::new(market, w.local_tables(), cfg);
    let templates = w
        .templates()
        .iter()
        .map(|sql| layer.prepare(sql))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("workload template: {e}"))?;
    // The two single-table WHW templates (see DESIGN.md on the serve mix).
    let mix = serve_mix(&w, &[0, 1], clients, queries, seed);
    let mut report = run_mix(&layer, &mix, &templates).map_err(|e| match &args.events_out {
        // run_mix dumps the journal's black box before surfacing the error.
        Some(path) => format!("serve: {e} (flight-recorder black box -> {path})"),
        None => format!("serve: {e}"),
    })?;
    report.seed = seed;
    report.clients = clients as u64;
    report.page_size = args.page_size;
    if let Some(path) = &args.serve_out {
        write_artifact(path, &report.to_json().to_string_pretty())?;
    }
    let metrics_note = match &args.metrics_out {
        Some(path) => Some(dump_metrics(&hub, path)?),
        None => None,
    };
    let events_note = match (&journal, &args.events_out) {
        (Some(journal), Some(path)) => {
            write_artifact(path, &journal.dump_jsonl())?;
            Some(format!(
                "events -> {path} ({} recorded, {} dropped by the ring)",
                journal.recorded(),
                journal.dropped()
            ))
        }
        _ => None,
    };

    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} queries x {} clients on {} thread(s), seed {}, coalesce={}",
        report.queries, report.clients, report.threads, report.seed, report.coalesce,
    );
    let _ = writeln!(
        out,
        "  spend: {} pages ({} wasted), {} records, ${:.4}",
        report.total_pages, report.wasted_pages, report.total_records, report.total_price
    );
    let _ = writeln!(
        out,
        "  coalescing: {} wait(s), ~{} page(s) saved",
        report.coalesce_waits, report.saved_pages
    );
    let _ = writeln!(
        out,
        "  reconciled: ledger == billing meter at {} transaction(s), {} call(s)",
        report.meter_transactions, report.meter_calls
    );
    let _ = writeln!(
        out,
        "  watchdog: {} mid-run sample(s), max drift {} page(s)",
        report.watchdog_samples, report.watchdog_max_drift_pages
    );
    for c in &report.per_client {
        let _ = writeln!(
            out,
            "  client {}: {} queries, {} pages, ${:.4}, p50/p95/p99 {:.1}/{:.1}/{:.1} ms",
            c.client,
            c.queries,
            c.pages,
            c.price,
            c.p50_nanos as f64 / 1e6,
            c.p95_nanos as f64 / 1e6,
            c.p99_nanos as f64 / 1e6,
        );
    }
    if let Some(path) = &args.serve_out {
        let _ = writeln!(out, "  report -> {path}");
    }
    if let Some(note) = metrics_note {
        let _ = writeln!(out, "  {note}");
    }
    if let Some(note) = events_note {
        let _ = writeln!(out, "  {note}");
    }
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> App {
        App::new(&CliArgs {
            scale: 0.01,
            ..CliArgs::default()
        })
        .unwrap()
    }

    #[test]
    fn truncate_cuts_at_a_character_boundary() {
        assert_eq!(truncate("abc", 3), "abc");
        assert_eq!(truncate("abcd", 3), "abc…");
        // The third character starts at byte 2 and ends at byte 4.
        assert_eq!(truncate("aüb", 2), "aü…");
        assert_eq!(truncate("aübc", 3), "aüb…");
        assert_eq!(truncate("üüüü", 4), "üüüü");
    }

    #[test]
    fn history_echoes_non_ascii_sql() {
        let mut a = app();
        // 73 characters; byte 70 falls inside a `ü`.
        let sql = "SELECT COUNT(*) FROM Station WHERE City = 'Zürich' AND Country = 'üüüüüü'";
        assert!(matches!(a.handle(sql), Reply::Text(_)));
        let cut: String = sql.chars().take(70).collect();
        match a.handle("\\history") {
            Reply::Text(s) => assert!(s.contains(&format!("  {cut}…\n")), "{s}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn banner_lists_tables() {
        let a = app();
        let b = a.banner();
        assert!(b.contains("Station"));
        assert!(b.contains("Weather"));
        assert!(b.contains("Pollution"));
    }

    #[test]
    fn sql_round_trip_and_bill() {
        let mut a = app();
        let r = a.handle("SELECT COUNT(*) FROM Station WHERE Country = 'Country0'");
        match r {
            Reply::Text(s) => {
                assert!(s.contains("COUNT(*)"), "{s}");
                assert!(s.contains("paid"), "{s}");
            }
            other => panic!("{other:?}"),
        }
        match a.handle("\\bill") {
            Reply::Text(s) => assert!(s.contains("transactions over"), "{s}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn estimate_does_not_charge() {
        let mut a = app();
        let before = a.market.bill().transactions();
        match a.handle("\\estimate SELECT * FROM Weather WHERE Weather.Country = 'Country0'") {
            Reply::Text(s) => assert!(s.contains("plan:"), "{s}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(a.market.bill().transactions(), before);
    }

    #[test]
    fn explain_analyze_executes_and_prints_the_tree() {
        let mut a = app();
        let before = a.market.bill().transactions();
        match a.handle(
            "\\explain SELECT Temperature FROM Station, Weather WHERE \
             Station.Country = 'Country0' AND Weather.Date >= 1 AND \
             Weather.Date <= 3 AND Station.StationID = Weather.StationID",
        ) {
            Reply::Text(s) => {
                assert!(s.contains("explain analyze"), "{s}");
                assert!(s.contains("est: rows"), "{s}");
                assert!(s.contains("act: rows"), "{s}");
                assert!(s.contains("totals:"), "{s}");
            }
            other => panic!("{other:?}"),
        }
        // EXPLAIN ANALYZE executes, so it charges.
        assert!(a.market.bill().transactions() > before);
        // The report is retained for `\report`, with operators populated.
        let report = a.last_report.as_ref().expect("report retained");
        assert!(!report.ops.is_empty());
        assert_eq!(report.operator_pages(), report.total_pages());
        // Tracing returns to its pre-\explain state (off by default).
        match a.handle("SELECT COUNT(*) FROM Station WHERE Country = 'Country0'") {
            Reply::Text(s) => assert!(!s.contains("query report"), "{s}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_out_writes_report_json() {
        let dir = std::env::temp_dir().join(format!("payless-explain-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("explain.json");
        let mut a = App::new(&CliArgs {
            scale: 0.01,
            explain_out: Some(path.to_str().unwrap().to_string()),
            ..CliArgs::default()
        })
        .unwrap();
        match a.handle(
            "\\explain SELECT * FROM Weather WHERE Weather.Country = 'Country0' \
             AND Weather.Date >= 1 AND Weather.Date <= 3",
        ) {
            Reply::Text(s) => assert!(s.contains("explain report written"), "{s}"),
            other => panic!("{other:?}"),
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let json = payless_json::parse(&text).unwrap();
        let operators = json.get("operators").unwrap().as_arr().unwrap();
        assert!(!operators.is_empty());
        for op in operators {
            assert!(op.get_opt("est").is_some(), "{op:?}");
            assert!(op.get_opt("actual").is_some(), "{op:?}");
        }
        assert!(json.get_opt("q_error").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_accumulates_and_finish_writes_the_document() {
        let dir = std::env::temp_dir().join(format!("payless-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let mut a = App::new(&CliArgs {
            scale: 0.01,
            trace: true,
            trace_out: Some(path.to_str().unwrap().to_string()),
            ..CliArgs::default()
        })
        .unwrap();
        a.handle(
            "SELECT * FROM Weather WHERE Weather.Country = 'Country0' \
             AND Weather.Date >= 1 AND Weather.Date <= 3",
        );
        a.handle("SELECT COUNT(*) FROM Station WHERE Country = 'Country1'");
        let msg = a.finish().expect("trace-out configured");
        assert!(msg.contains("trace written"), "{msg}");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = payless_json::parse(&text).unwrap();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let other = json.get("otherData").unwrap();
        assert_eq!(other.get("queries").unwrap().as_u64().unwrap(), 2);
        assert!(!other.get("spend").unwrap().as_arr().unwrap().is_empty());
        assert!(other.get_opt("est_sqr_savings").is_some());
        assert!(other.get_opt("regret_vs_download_all").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_command_prints_exposition() {
        let mut a = app();
        a.handle("SELECT COUNT(*) FROM Station WHERE Country = 'Country0'");
        match a.handle("\\metrics") {
            Reply::Text(s) => {
                assert!(
                    s.contains("# TYPE payless_market_calls_total counter"),
                    "{s}"
                );
                assert!(s.contains("payless_market_call_nanos_count"), "{s}");
                assert!(s.contains("payless_market_pages_billed_total"), "{s}");
                // The session's store reports into the same hub: the paid
                // query recorded its coverage.
                let records = s
                    .lines()
                    .find_map(|l| l.strip_prefix("payless_store_records_total "))
                    .expect("store counter exported");
                assert_ne!(records.trim(), "0", "{s}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn metrics_out_writes_exposition_and_series_on_finish() {
        // The hub keeps no time series: the exposition is the only file.
        let dir = std::env::temp_dir().join(format!("payless-metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.txt");
        let mut a = App::new(&CliArgs {
            scale: 0.01,
            metrics_out: Some(path.to_str().unwrap().to_string()),
            ..CliArgs::default()
        })
        .unwrap();
        a.handle("SELECT COUNT(*) FROM Station WHERE Country = 'Country0'");
        let msg = a.finish().expect("metrics-out configured");
        assert!(msg.contains("metrics ->"), "{msg}");
        let exposition = std::fs::read_to_string(&path).unwrap();
        assert!(exposition.contains("payless_market_calls_total"));
        assert!(
            !dir.join("metrics.txt.jsonl").exists(),
            "no series file is written"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_out_writes_journal_and_why_renders_provenance() {
        let dir = std::env::temp_dir().join(format!("payless-events-test-{}", std::process::id()));
        // Deliberately nested, uncreated path: write_artifact must mkdir -p.
        let path = dir.join("deep/nested/events.jsonl");
        let mut a = App::new(&CliArgs {
            scale: 0.01,
            events_out: Some(path.to_str().unwrap().to_string()),
            ..CliArgs::default()
        })
        .unwrap();
        a.handle(
            "SELECT * FROM Weather WHERE Weather.Country = 'Country0' \
             AND Weather.Date >= 1 AND Weather.Date <= 3",
        );
        match a.handle("\\why") {
            Reply::Text(s) => {
                assert!(s.contains("query"), "{s}");
                assert!(s.contains("billed"), "{s}");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            a.handle("\\why not-a-number"),
            Reply::Text(ref s) if s.contains("usage")
        ));
        let msg = a.finish().expect("events-out configured");
        assert!(msg.contains("events ->"), "{msg}");
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(!dump.trim().is_empty());
        let mut saw_query_start = false;
        let mut last_seq = None;
        for line in dump.lines() {
            let json = payless_json::parse(line).expect("every journal line is JSON");
            if json.get("kind").unwrap().as_str().unwrap() == "query_start" {
                saw_query_start = true;
            }
            let seq = json.get("seq").unwrap().as_u64().unwrap();
            assert!(last_seq < Some(seq), "seq must strictly increase: {line}");
            last_seq = Some(seq);
            json.get("at_nanos").unwrap().as_u64().unwrap();
            let severity = json.get("severity").unwrap().as_str().unwrap();
            assert!(
                matches!(severity, "debug" | "info" | "warn" | "error"),
                "{line}"
            );
        }
        assert!(saw_query_start, "journal covers the query lifecycle");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn why_without_recorder_points_at_the_knobs() {
        let mut a = app();
        match a.handle("\\why") {
            Reply::Text(s) => assert!(s.contains("--events-out"), "{s}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_artifact_reports_unwritable_paths_cleanly() {
        let dir =
            std::env::temp_dir().join(format!("payless-artifact-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A file where a directory is needed: create_dir_all must fail with
        // a message, not a panic.
        let file = dir.join("occupied");
        std::fs::write(&file, "x").unwrap();
        let target = file.join("child.json");
        let err = write_artifact(target.to_str().unwrap(), "{}").unwrap_err();
        assert!(err.contains("creating directory"), "{err}");
        // Bare filenames (no parent) write without touching mkdir.
        let plain = dir.join("plain.txt");
        write_artifact(plain.to_str().unwrap(), "ok").unwrap();
        assert_eq!(std::fs::read_to_string(&plain).unwrap(), "ok");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sql_errors_are_reported_not_fatal() {
        let mut a = app();
        match a.handle("SELEKT oops") {
            Reply::Text(s) => assert!(s.starts_with("error:"), "{s}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_command_and_quit() {
        let mut a = app();
        assert!(matches!(a.handle("\\frobnicate"), Reply::Text(_)));
        assert!(matches!(a.handle("\\quit"), Reply::Quit));
        assert!(matches!(a.handle("   "), Reply::Text(ref s) if s.is_empty()));
    }

    #[test]
    fn trace_flag_prints_report_and_report_dumps_json() {
        let mut a = App::new(&CliArgs {
            scale: 0.01,
            trace: true,
            ..CliArgs::default()
        })
        .unwrap();
        match a.handle(
            "SELECT * FROM Weather WHERE Weather.Country = 'Country0' \
             AND Weather.Date >= 1 AND Weather.Date <= 3",
        ) {
            Reply::Text(s) => {
                assert!(s.contains("query report"), "{s}");
                assert!(s.contains("SQR:"), "{s}");
                assert!(s.contains("plan search:"), "{s}");
                assert!(s.contains("spend:"), "{s}");
            }
            other => panic!("{other:?}"),
        }
        match a.handle("\\report") {
            Reply::Text(s) => {
                let json = payless_json::parse(&s).unwrap();
                assert!(json.get_opt("telemetry").is_some(), "{s}");
            }
            other => panic!("{other:?}"),
        }
        // Toggle off: no more reports.
        assert!(matches!(a.handle("\\trace off"), Reply::Text(ref s) if s.contains("off")));
        match a.handle("SELECT COUNT(*) FROM Station WHERE Country = 'Country0'") {
            Reply::Text(s) => assert!(!s.contains("query report"), "{s}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn session_dir_reopens_and_rebuys_nothing() {
        let dir = std::env::temp_dir().join(format!("payless-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = CliArgs {
            scale: 0.01,
            session_dir: Some(dir.to_str().unwrap().to_string()),
            ..CliArgs::default()
        };
        let sql = "SELECT * FROM Weather WHERE Weather.Country = 'Country0' \
                   AND Weather.Date >= 1 AND Weather.Date <= 3";
        let mut a = App::new(&args).unwrap();
        a.handle(sql);
        assert!(a.market.bill().transactions() > 0);
        assert_eq!(a.handle("\\quit"), Reply::Quit);
        drop(a);

        // Reopen: the purchase was logged as it happened, so the same query
        // is answered from the recovered store on a fresh market's meter.
        let mut b = App::new(&args).unwrap();
        b.handle(sql);
        assert_eq!(b.market.bill().transactions(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
