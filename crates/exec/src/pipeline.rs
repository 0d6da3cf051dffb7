//! The paper's Figure 3, written once: plan an analyzed query against
//! point-in-time snapshots of the semantic store and the statistics, then
//! execute the plan against the live [`SharedState`] — buying remainders,
//! storing what arrives, refining the statistics, answering locally.
//!
//! Its one serving caller is `payless_serve::Serve::run`, behind the REPL
//! session (a one-client `Serve`), the in-process mix and the socket
//! server; they differ only in the [`Mode`] preset and in whether the
//! [`Env`] carries a coalescer. [`plan`] is the same pipeline stopped
//! before execution (`EXPLAIN`, the no-SQR counterfactual): it charges
//! nothing.

use std::time::Instant;

use payless_market::DataMarket;
use payless_optimizer::{optimize, Optimized, OptimizerConfig};
use payless_sql::{AnalyzedQuery, TableLocation};
use payless_telemetry::OperatorActual;
use payless_types::Result;

use crate::coalesce::CallCoalescer;
use crate::download::ensure_downloaded;
use crate::engine::{ExecConfig, Executor, QueryResult};
use crate::state::SharedState;

/// What a query runs against: the market, the buyer-side state, and the
/// rendezvous point it shares with concurrently running queries.
pub struct Env<'a> {
    /// The market remainders are bought from.
    pub market: &'a DataMarket,
    /// Local mirror, semantic store and statistics.
    pub state: &'a SharedState,
    /// Single-flight coalescing of overlapping market calls; `None` for a
    /// single-tenant session (and under `PAYLESS_COALESCE=0`).
    pub coalescer: Option<&'a CallCoalescer>,
}

/// Which system variant a query runs — the four lines of the paper's
/// Figure 10, plus Figure 14's ablation.
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

impl Mode {
    /// The mode as a preset: its plan-search configuration, and whether it
    /// downloads every referenced market table before planning.
    pub fn preset(self) -> (OptimizerConfig, bool) {
        match self {
            Mode::PayLess => (OptimizerConfig::payless(), false),
            Mode::PayLessNoSqr => (OptimizerConfig::payless_no_sqr(), false),
            Mode::MinCalls => (OptimizerConfig::min_calls(), false),
            Mode::DownloadAll => (OptimizerConfig::payless(), true),
            Mode::DisableAll => (OptimizerConfig::disable_all(), false),
        }
    }
}

/// How one query is planned and executed.
#[derive(Debug)]
pub struct PipelineConfig {
    /// Plan-search configuration (a [`Mode`] preset).
    pub optimizer: OptimizerConfig,
    /// Execution-time configuration.
    pub exec: ExecConfig,
    /// The Download All baseline: make every referenced market table
    /// local-complete before planning; the optimizer then finds a
    /// zero-cost plan.
    pub download_all: bool,
}

/// What one run produced besides the money it spent.
#[derive(Debug)]
pub struct Ran {
    /// The result relation.
    pub result: QueryResult,
    /// The chosen plan with its estimates; `None` for an unsatisfiable
    /// query, which needs no plan.
    pub optimized: Option<Optimized>,
    /// Per-operator actuals in the plan's pre-order numbering
    /// ([`Executor::op_actuals`]).
    pub actuals: Vec<OperatorActual>,
    /// Wall time of [`plan`], store and statistics copies included.
    pub optimize_nanos: u64,
    /// Wall time of plan execution.
    pub execute_nanos: u64,
}

/// Plan `query` without executing it: against point-in-time snapshots of
/// the store and of the statistics. A snapshot shares each table's current
/// version — one `Arc` clone per table — so the search runs without holding
/// a lock, and the executor re-rewrites against live state anyway. Both snapshots are
/// dropped when this returns, before execution writes: a write copies a
/// table only while a snapshot still holds it.
pub fn plan(
    env: &Env<'_>,
    query: &AnalyzedQuery,
    cfg: &OptimizerConfig,
    now: u64,
) -> Result<Optimized> {
    let store = env.state.store().snapshot();
    let stats = env.state.stats_snapshot();
    optimize(query, &stats, &store, env.market, cfg, now)
}

/// Run `query` at logical time `now`. What it spent — delivered and
/// wasted, Download-All calls included — is in `cfg.exec.recorder`'s
/// ledger, on the error path too: a query that fails has usually spent
/// money first.
pub fn run_query(
    env: &Env<'_>,
    query: &AnalyzedQuery,
    cfg: &PipelineConfig,
    now: u64,
) -> Result<Ran> {
    let mut executor =
        Executor::shared(query, env.market, env.state, &cfg.exec, now, env.coalescer);
    // Unsatisfiable queries cost nothing and need no plan.
    if query.unsatisfiable {
        return Ok(Ran {
            result: executor.empty_result()?,
            optimized: None,
            actuals: Vec::new(),
            optimize_nanos: 0,
            execute_nanos: 0,
        });
    }
    if cfg.download_all {
        let _span = cfg
            .exec
            .recorder
            .as_ref()
            .map(|rec| rec.span("phase.download-all", || None));
        for t in &query.tables {
            if t.location == TableLocation::Market {
                ensure_downloaded(
                    &t.schema,
                    env.market,
                    env.state,
                    &cfg.exec,
                    now,
                    &mut executor.budget,
                )?;
            }
        }
    }
    let t0 = Instant::now();
    let optimized = plan(env, query, &cfg.optimizer, now)?;
    let optimize_nanos = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let result = executor.execute(&optimized.plan)?;
    Ok(Ran {
        result,
        actuals: executor.op_actuals().to_vec(),
        optimized: Some(optimized),
        optimize_nanos,
        execute_nanos: t1.elapsed().as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use payless_geometry::{Interval, Region};
    use payless_market::{Dataset, FaultInjector, FaultKind, FaultPlan, MarketTable};
    use payless_optimizer::plan::{AccessMethod, PlanNode};
    use payless_semantic::{Consistency, SemanticStore};
    use payless_sql::{analyze, parse, MapCatalog};
    use payless_stats::StatsRegistry;
    use payless_telemetry::Recorder;
    use payless_types::{row, Column, Domain, Schema};

    use crate::call::CallBudget;
    use crate::state::{Purchase, PurchaseLog};

    /// One market table `T(k, d, v)`, page size 2, skewed on its bound
    /// categorical `k` — x: 1 row, y: 4 rows, z: 1 row — so the uniform
    /// prior is wrong about every `k` slice until feedback repairs it.
    struct Fixture {
        market: DataMarket,
        state: SharedState,
        catalog: MapCatalog,
        schema: Schema,
    }

    const SLICES: [(&str, u64); 3] = [("x", 1), ("y", 4), ("z", 1)];

    fn fixture() -> Fixture {
        let schema = Schema::new(
            "T",
            vec![
                Column::bound("k", Domain::categorical(["x", "y", "z"])),
                Column::free("d", Domain::int(0, 9)),
                Column::output("v", Domain::int(0, 99)),
            ],
        );
        let rows = vec![
            row!("x", 0, 1),
            row!("y", 1, 2),
            row!("y", 2, 3),
            row!("y", 3, 4),
            row!("y", 4, 5),
            row!("z", 5, 6),
        ];
        let market = DataMarket::new(vec![Dataset::new("DS")
            .with_page_size(2)
            .with_table(MarketTable::new(schema.clone(), rows))]);
        let (catalog, state) =
            SharedState::for_market(&market, SemanticStore::new(), StatsRegistry::new());
        Fixture {
            market,
            state,
            catalog,
            schema,
        }
    }

    impl Fixture {
        fn env(&self) -> Env<'_> {
            Env {
                market: &self.market,
                state: &self.state,
                coalescer: None,
            }
        }

        fn analyzed(&self, sql: &str) -> AnalyzedQuery {
            analyze(&parse(sql).unwrap(), &self.catalog).unwrap()
        }

        /// The region `k = SLICES[i]`, any `d`.
        fn slice(&self, i: usize) -> Region {
            Region::new(vec![Interval::point(i as i64), Interval::new(0, 9)])
        }

        fn estimate(&self, region: &Region) -> f64 {
            self.state
                .with_table_stats("T", |ts| ts.estimate(region))
                .unwrap()
        }

        fn mirrored(&self) -> usize {
            self.state
                .with_db(|db| db.table("T").map_or(0, |t| t.len()))
        }
    }

    const Y_SLICE: &str = "SELECT v FROM T WHERE k = 'y'";

    /// What a durability layer's log saw of one landed delivery.
    #[derive(Debug, PartialEq)]
    struct Seen {
        region: Region,
        rows: u64,
        records: u64,
        coverage: bool,
    }

    #[derive(Debug)]
    struct SeenLog(Mutex<Vec<Seen>>);

    impl PurchaseLog for SeenLog {
        fn append_purchase(&self, p: &Purchase<'_>) {
            self.0.lock().unwrap().push(Seen {
                region: p.region.clone(),
                rows: p.rows.len() as u64,
                records: p.records,
                coverage: p.coverage,
            });
        }
    }

    /// Both entry points land each delivery the same way: rows, feedback
    /// scored against the planned estimate, one log frame, then coverage.
    #[test]
    fn every_entry_point_lands_rows_then_feedback_then_spend() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Entry {
            Fetch,
            Download,
        }
        for (entry, sqr) in [
            (Entry::Fetch, true),
            (Entry::Fetch, false),
            (Entry::Download, true),
            (Entry::Download, false),
        ] {
            let case = format!("{entry:?}, sqr {sqr}");
            let f = fixture();
            let log = Arc::new(SeenLog(Mutex::default()));
            f.state.attach_log(log.clone());
            assert!(
                (f.estimate(&f.slice(1)) - 4.0).abs() > 0.5,
                "the prior must be wrong for the feedback check to mean anything"
            );

            let recorder = Recorder::enabled();
            let cfg = ExecConfig {
                sqr,
                recorder: Some(Arc::clone(&recorder)),
                ..ExecConfig::default()
            };
            let query = f.analyzed(Y_SLICE);
            let fetch = PlanNode::access(0, AccessMethod::Fetch);
            // The slices each entry point is expected to buy, one call each.
            let bought: Vec<usize> = match entry {
                Entry::Fetch => {
                    Executor::shared(&query, &f.market, &f.state, &cfg, 1, None)
                        .execute(&fetch)
                        .unwrap();
                    vec![1]
                }
                Entry::Download => {
                    let mut budget = CallBudget::default();
                    ensure_downloaded(&f.schema, &f.market, &f.state, &cfg, 1, &mut budget)
                        .unwrap();
                    vec![0, 1, 2]
                }
            };

            // One frame per delivery, carrying its rows and its coverage
            // bit: coverage iff SQR, always for a download.
            let coverage = sqr || entry == Entry::Download;
            let expected: Vec<Seen> = bought
                .iter()
                .map(|&i| Seen {
                    region: f.slice(i),
                    rows: SLICES[i].1,
                    records: SLICES[i].1,
                    coverage,
                })
                .collect();
            assert_eq!(*log.0.lock().unwrap(), expected, "{case}");
            for &i in &bought {
                let covered = f
                    .state
                    .store()
                    .covers("T", &f.slice(i), Consistency::Weak, 1);
                assert_eq!(covered, coverage, "{case}");
            }
            // The estimate is scored against the actual before feedback
            // repairs it — the first purchase against the (wrong) uniform
            // prior; afterwards it is exact.
            let scored = recorder.take().qerrors;
            assert_eq!(scored.len(), bought.len(), "{case}");
            assert!(scored[0].q > 1.0, "{case}: scored after feedback");
            for (&i, q) in bought.iter().zip(&scored) {
                assert_eq!(q.actual, SLICES[i].1, "{case}");
                assert!(
                    (f.estimate(&f.slice(i)) - SLICES[i].1 as f64).abs() < 1e-9,
                    "{case}: statistics missed the feedback for slice {i}"
                );
            }
        }
    }

    /// Download All under `synthesize_ledger`: the per-query ledger the
    /// call layer writes must account for every page the meter billed.
    #[test]
    fn download_all_ledger_reconciles_with_the_meter() {
        for fault in [None, Some(FaultKind::Truncate)] {
            let f = fixture();
            if let Some(kind) = fault {
                // The second download piece (the 4-row `y` slice) is billed
                // in full but arrives short; the retry delivers it.
                f.market
                    .attach_fault_injector(FaultInjector::new(FaultPlan::none().at(1, kind)));
            }
            let recorder = Recorder::enabled();
            let cfg = PipelineConfig {
                optimizer: OptimizerConfig::payless(),
                exec: ExecConfig {
                    synthesize_ledger: true,
                    recorder: Some(Arc::clone(&recorder)),
                    ..ExecConfig::default()
                },
                download_all: true,
            };
            let ran = run_query(&f.env(), &f.analyzed(Y_SLICE), &cfg, 1);
            assert_eq!(ran.unwrap().result.rows.len(), 4);
            let ledger = recorder.take();
            let billed = f.market.bill().transactions();
            assert_eq!(billed, if fault.is_some() { 6 } else { 4 });
            assert_eq!(ledger.total_pages(), billed, "fault {fault:?}");
            assert_eq!(ledger.wasted_pages(), if fault.is_some() { 2 } else { 0 });
        }
    }

    #[test]
    fn unsatisfiable_query_touches_neither_market_nor_store() {
        let f = fixture();
        let query = f.analyzed("SELECT v FROM T WHERE k = 'y' AND d >= 9 AND d <= 2");
        assert!(query.unsatisfiable);
        let cfg = PipelineConfig {
            optimizer: OptimizerConfig::payless(),
            exec: ExecConfig::default(),
            // Even Download All buys nothing for a query with no answer.
            download_all: true,
        };
        let ran = run_query(&f.env(), &query, &cfg, 1).unwrap();
        assert_eq!(ran.result.columns, vec!["v".to_string()]);
        assert!(ran.result.rows.is_empty());
        assert!(ran.optimized.is_none());
        assert_eq!(f.market.bill().calls(), 0);
        assert_eq!(f.state.store().view_count("T"), 0);
        assert_eq!(f.mirrored(), 0);
    }

    #[test]
    fn plan_charges_nothing() {
        let f = fixture();
        let optimized = plan(
            &f.env(),
            &f.analyzed(Y_SLICE),
            &OptimizerConfig::payless(),
            1,
        )
        .unwrap();
        assert!(
            optimized.cost.primary > 0.0,
            "an empty store prices the fetch"
        );
        assert_eq!(f.market.bill().calls(), 0);
        assert_eq!(f.state.store().view_count("T"), 0);
        assert_eq!(f.mirrored(), 0);
    }
}
