//! Plan interpretation.

use std::collections::HashSet;
use std::sync::Arc;

use payless_events::{EventJournal, EventKind, EventScope, Severity};
use payless_geometry::{QuerySpace, Region};
use payless_market::{DataMarket, Request};
use payless_metrics::MetricsHub;
use payless_optimizer::cost::required_regions;
use payless_optimizer::plan::{AccessMethod, PlanNode};
use payless_semantic::{rewrite, Consistency, CoverClass, Rewrite, RewriteConfig};
use payless_sql::{AccessConstraint, AnalyzedQuery, OutputItem, ResidualPred, TableLocation};
use payless_storage::{aggregate, distinct, hash_join, project, sort_by, AggSpec};
use payless_telemetry::{CallKind, OperatorActual, Recorder, TransactionRecord};
use payless_types::{PaylessError, Result, Row, Schema, Value};

use crate::call::{resilient_get, CallBudget, CallOutcome, RetryPolicy};
use crate::coalesce::{CallCoalescer, Claim};
use crate::state::SharedState;

/// Execution-time configuration (mirrors the optimizer's).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Reuse stored results (semantic query rewriting)?
    pub sqr: bool,
    /// Algorithm 1 knobs for execution-time rewriting. Every program
    /// constructor leaves the default; the field stays only because
    /// `benchmark/src/ledger.rs` names it, and goes in ROADMAP item 3's
    /// benchmark PR.
    pub rewrite: RewriteConfig,
    /// Store-freshness policy.
    pub consistency: Consistency,
    /// Optional telemetry sink of this one query: operator spans, SQR
    /// hit/miss counts, and the spend ledger.
    pub recorder: Option<Arc<Recorder>>,
    /// Retry/backoff/budget policy for every market call the plan issues.
    pub retry: RetryPolicy,
    /// Have the call layer write each charge into the recorder's spend
    /// ledger (`book_charge`). It is the ledger's only writer, and every
    /// non-test constructor — session, serving layer, `benchmark/` — passes
    /// `true`; the field stays only because `benchmark/src/ledger.rs` names
    /// it, and goes in ROADMAP item 3's benchmark PR.
    pub synthesize_ledger: bool,
    /// Optional live metrics hub: market-call latency/spend counters and
    /// the double-buy-averted recompute counters. Unlike `recorder` (one
    /// per query), one hub aggregates across every query and client.
    pub metrics: Option<Arc<MetricsHub>>,
    /// Optional flight recorder: every call attempt, fault, retry and
    /// coalescer claim this executor produces is journaled with the
    /// query's causal id. `None` costs nothing.
    pub events: Option<Arc<EventJournal>>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            sqr: true,
            rewrite: RewriteConfig::default(),
            consistency: Consistency::Weak,
            recorder: None,
            retry: RetryPolicy::default(),
            synthesize_ledger: false,
            metrics: None,
            events: None,
        }
    }
}

/// A query result: column headers plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

/// Executes one plan for one analyzed query.
pub struct Executor<'a> {
    query: &'a AnalyzedQuery,
    market: &'a DataMarket,
    state: &'a SharedState,
    cfg: &'a ExecConfig,
    now: u64,
    /// Single-flight rendezvous shared with concurrently executing queries;
    /// `None` outside serve mode (and under `PAYLESS_COALESCE=0`).
    coalescer: Option<&'a CallCoalescer>,
    /// Per-query retry/waste accounting, shared by every call this query
    /// makes — the plan's and, before it, Download All's.
    pub(crate) budget: CallBudget,
    /// Per-operator actuals, indexed by the plan's pre-order operator id —
    /// the same numbering `introspect::annotate` uses for estimates.
    ops: Vec<OperatorActual>,
    /// Pre-order id of the operator whose market calls are in flight;
    /// `ensure_region` attributes pages/retries/waste to it.
    cur_op: usize,
}

impl<'a> Executor<'a> {
    /// Assemble an executor over the buyer's [`SharedState`]. The same
    /// state should be reused across queries — that accumulation is what
    /// makes PayLess pay less. Passing a [`CallCoalescer`] turns on
    /// single-flight coalescing of overlapping market calls; `None`
    /// disables it (a single-tenant session, and the `PAYLESS_COALESCE=0`
    /// escape hatch).
    pub fn shared(
        query: &'a AnalyzedQuery,
        market: &'a DataMarket,
        state: &'a SharedState,
        cfg: &'a ExecConfig,
        now: u64,
        coalescer: Option<&'a CallCoalescer>,
    ) -> Self {
        Executor {
            query,
            market,
            state,
            cfg,
            now,
            coalescer,
            budget: CallBudget::default(),
            ops: Vec::new(),
            cur_op: 0,
        }
    }

    /// Flight-recorder scope for this query: every event it emits carries
    /// the query's causal id. `None` when no journal is attached. Borrowed
    /// from the config (not `self`) so it can live across `&mut self` calls.
    fn scope(&self) -> Option<EventScope<'a>> {
        self.cfg
            .events
            .as_deref()
            .map(|j| EventScope::new(j, self.now))
    }

    /// Run the plan and produce the final result.
    pub fn execute(&mut self, plan: &PlanNode) -> Result<QueryResult> {
        self.ops = vec![OperatorActual::default(); plan.node_count()];
        let (rows, layout) = self.run(plan, 0)?;
        self.finish(rows, &layout)
    }

    /// Per-operator actuals in pre-order, matching the optimizer's
    /// `OperatorTrace` numbering. Wall time is inclusive of children
    /// (standard `EXPLAIN ANALYZE` semantics). Partially filled if the plan
    /// failed mid-flight — pages bought before the failure stay attributed.
    pub fn op_actuals(&self) -> &[OperatorActual] {
        &self.ops
    }

    /// The correct (empty) result of an unsatisfiable query, produced
    /// without touching the market.
    pub fn empty_result(&self) -> Result<QueryResult> {
        let layout: Vec<usize> = (0..self.query.tables.len()).collect();
        self.finish(Vec::new(), &layout)
    }

    // ------------------------------------------------------------------
    // Plan interpretation
    // ------------------------------------------------------------------

    /// Interpret `node`, attributing actuals to pre-order operator `op`:
    /// a node's own id comes first, then its left subtree, then its right —
    /// the same numbering `introspect::annotate` emits estimates in.
    fn run(&mut self, node: &PlanNode, op: usize) -> Result<(Vec<Row>, Vec<usize>)> {
        let started = std::time::Instant::now();
        let _span = self.cfg.recorder.as_ref().map(|rec| {
            let label = match node {
                PlanNode::Access { .. } => "exec.access",
                PlanNode::Join { .. } => "exec.join",
                PlanNode::BindJoin { .. } => "exec.bind-join",
            };
            rec.span(label, || match node {
                PlanNode::Access { table, method } => {
                    Some(format!("{} ({method:?})", self.query.tables[*table].name))
                }
                PlanNode::BindJoin { table, .. } => {
                    Some(self.query.tables[*table].name.to_string())
                }
                PlanNode::Join { .. } => None,
            })
        });
        let out = match node {
            PlanNode::Access { table, method } => {
                self.cur_op = op;
                self.run_access(*table, *method)
            }
            PlanNode::Join { left, right } => {
                let (lrows, llay) = self.run(left, op + 1)?;
                let (rrows, rlay) = self.run(right, op + 1 + left.node_count())?;
                let (lk, rk) = self.join_keys(&llay, &rlay);
                let rows = hash_join(&lrows, &rrows, &lk, &rk);
                let mut layout = llay;
                layout.extend(rlay);
                Ok((rows, layout))
            }
            PlanNode::BindJoin { left, table, binds } => {
                let (lrows, llay) = self.run(left, op + 1)?;
                // The bind join is one operator; its probes bill to `op`.
                self.cur_op = op;
                let rrows = self.run_bind_probe(*table, binds, &lrows, &llay)?;
                let rlay = vec![*table];
                let (lk, rk) = self.join_keys(&llay, &rlay);
                debug_assert!(!lk.is_empty(), "bind join without join keys");
                let rows = hash_join(&lrows, &rrows, &lk, &rk);
                let mut layout = llay;
                layout.push(*table);
                Ok((rows, layout))
            }
        };
        if let Some(slot) = self.ops.get_mut(op) {
            slot.nanos = started.elapsed().as_nanos() as u64;
            if let Ok((rows, _)) = &out {
                slot.rows = rows.len() as u64;
            }
        }
        out
    }

    fn run_access(&mut self, tid: usize, method: AccessMethod) -> Result<(Vec<Row>, Vec<usize>)> {
        let t = &self.query.tables[tid];
        match method {
            AccessMethod::Local => {
                debug_assert_eq!(t.location, TableLocation::Local);
                let rows = self
                    .state
                    .filtered_rows(&t.name, |r| satisfies_access(r, &t.access))?;
                Ok((rows, vec![tid]))
            }
            AccessMethod::Fetch => {
                let space = self.space_of(tid)?;
                let regions = required_regions(&space, &t.access)?;
                for region in &regions {
                    self.ensure_region(tid, &space, region, CallKind::Remainder)?;
                }
                let rows = self.mirror_rows_in(tid, &space, &regions);
                Ok((rows, vec![tid]))
            }
        }
    }

    /// Make `region` of table `tid` locally complete: rewrite against the
    /// store, issue the remainder calls (booked as `kind`), and do all
    /// bookkeeping.
    ///
    /// This is the one purchase path: rewrite, claim, re-rewrite under the
    /// guard, buy. With a coalescer attached, the region is **claimed**
    /// before buying: if another in-flight query is already purchasing an
    /// overlapping region, this query waits for that delivery, re-rewrites
    /// against the freshly grown store, and only buys what is still
    /// uncovered — and pays only for that. The claim is held (at most one
    /// per executor, never across a wait — so no deadlock) until the
    /// purchase and its store bookkeeping complete.
    fn ensure_region(
        &mut self,
        tid: usize,
        space: &QuerySpace,
        region: &Region,
        kind: CallKind,
    ) -> Result<()> {
        let t = &self.query.tables[tid];
        let page = self
            .market
            .page_size(&t.name)
            .ok_or_else(|| PaylessError::UnknownTable(t.name.clone()))?;
        let mut waits: u64 = 0;
        let mut initial_est: Option<f64> = None;
        loop {
            let mut final_est = 0.0;
            let remainders: Vec<Region> = if self.cfg.sqr {
                // Hit/miss classification and rewrite-shape counters are
                // scored once, on the pre-wait store — what this query saw
                // when it arrived — so serial and coalesced runs count SQR
                // hits identically.
                if waits == 0 {
                    if let Some(rec) = &self.cfg.recorder {
                        match self.state.store().classify(
                            &t.name,
                            region,
                            self.cfg.consistency,
                            self.now,
                        ) {
                            CoverClass::Full => rec.sqr_full_hit(),
                            CoverClass::Partial => rec.sqr_partial_hit(),
                            CoverClass::Miss => rec.sqr_miss(),
                        }
                    }
                }
                let (rw, candidate_views) = self.rewrite_live(tid, page, region)?;
                if waits == 0 {
                    if let Some(rec) = &self.cfg.recorder {
                        rec.count("sqr.cover_sets", rw.cover_sets);
                        rec.count("sqr.cover_chosen", rw.cover_chosen);
                        rec.record_size("sqr.candidate_views", candidate_views);
                    }
                    initial_est = Some(rw.est_transactions);
                }
                final_est = rw.est_transactions;
                rw.remainders
            } else {
                vec![region.clone()]
            };
            if remainders.is_empty() {
                // Fully covered — if we waited to get here, the entire
                // planned purchase was avoided.
                self.note_coalesce(waits, initial_est, 0.0);
                return Ok(());
            }
            // Claim the whole base region, not just the remainders: every
            // remainder is a subset of it, so the guard soundly covers
            // whatever the under-guard recompute below decides to buy.
            let guard = match self.coalescer {
                None => None,
                Some(c) => match c.claim(&t.name, region) {
                    Claim::Acquired(g) => {
                        if let Some(scope) = self.scope() {
                            scope.emit(Severity::Debug, || EventKind::FlightClaimed {
                                flight: g.flight_id(),
                                table: t.name.to_string(),
                            });
                        }
                        Some(g)
                    }
                    Claim::Contended { seen, satisfied } => {
                        waits += 1;
                        if let Some(rec) = &self.cfg.recorder {
                            rec.count("coalesce.waits", 1);
                        }
                        if let Some(scope) = self.scope() {
                            scope.emit(Severity::Debug, || EventKind::FlightWait {
                                table: t.name.to_string(),
                                satisfied,
                            });
                        }
                        c.wait_past(seen);
                        continue;
                    }
                },
            };
            // Re-validate under the flight guard: between this query's
            // rewrite and its claim another flight may have completed and
            // recorded coverage. While the guard is held no in-flight
            // purchase overlaps this region, so the recompute is the last
            // word — without it a racing pair could buy the same region
            // twice.
            let remainders = if guard.is_some() && self.cfg.sqr {
                let pre_guard_est = final_est;
                let (rw, _) = self.rewrite_live(tid, page, region)?;
                // A shrunken estimate means a flight landed between the
                // pre-wait rewrite and this claim: the recompute just
                // averted re-buying what that flight delivered.
                if rw.est_transactions < pre_guard_est {
                    if let Some(hub) = &self.cfg.metrics {
                        hub.coalesce_recomputes_averted.inc(1);
                        hub.coalesce_averted_pages
                            .inc((pre_guard_est - rw.est_transactions).round() as u64);
                    }
                    if let Some(scope) = self.scope() {
                        scope.emit(Severity::Info, || EventKind::FlightRecomputeAverted {
                            table: t.name.to_string(),
                            pages: (pre_guard_est - rw.est_transactions).round() as u64,
                        });
                    }
                }
                final_est = rw.est_transactions;
                rw.remainders
            } else {
                remainders
            };
            if remainders.is_empty() {
                self.note_coalesce(waits, initial_est, 0.0);
                drop(guard);
                return Ok(());
            }
            self.note_coalesce(waits, initial_est, final_est);
            let bought = self.buy_remainders(tid, space, remainders, kind);
            drop(guard);
            return bought;
        }
    }

    /// Rewrite `region` of table `tid` against the *live* store and
    /// statistics, returning the rewrite and how many candidate views
    /// shaped it. Only views overlapping the region can shape its rewrite,
    /// so the store's R-tree is probed instead of scanning every view.
    fn rewrite_live(&self, tid: usize, page: u64, region: &Region) -> Result<(Rewrite, u64)> {
        let t = &self.query.tables[tid];
        let views =
            self.state
                .store()
                .views_overlapping(&t.name, region, self.cfg.consistency, self.now);
        self.state
            .with_table_stats(&t.name, |ts| {
                let rw = rewrite(ts, page, region, &views, &self.cfg.rewrite);
                (rw, views.len() as u64)
            })
            .ok_or_else(|| PaylessError::Internal(format!("no stats for `{}`", t.name)))
    }

    /// Book the pages a coalescing wait avoided: the estimated cost of the
    /// purchase this query arrived wanting, minus what it still had to buy
    /// after waiting. Estimates, not actuals — the avoided calls were never
    /// made, so their exact size is unknowable.
    fn note_coalesce(&self, waits: u64, initial_est: Option<f64>, final_est: f64) {
        if waits == 0 {
            return;
        }
        if let Some(rec) = &self.cfg.recorder {
            let saved = initial_est.map_or(0.0, |e| (e - final_est).max(0.0));
            rec.count("coalesce.saved_pages", saved.round() as u64);
        }
    }

    /// Issue the market calls for `remainders`, booked as `kind`, and do
    /// all per-delivery bookkeeping: operator actuals, the local mirror,
    /// statistics feedback (q-error scored first), and store coverage.
    fn buy_remainders(
        &mut self,
        tid: usize,
        space: &QuerySpace,
        remainders: Vec<Region>,
        kind: CallKind,
    ) -> Result<()> {
        let t = &self.query.tables[tid];
        for rem in remainders {
            let req = request_for(&t.schema, space, &rem);
            // Resilient call: transient failures retry under the config's
            // policy, charged against this executor's per-query budget. Each
            // remainder is recorded in the store as soon as it is delivered,
            // so a query that ultimately fails still keeps what it paid for —
            // a re-run only buys the remainders that never arrived.
            let scope = self.scope();
            let outcome = resilient_get(
                self.market,
                &req,
                &self.cfg.retry,
                &mut self.budget,
                self.cfg.recorder.as_deref(),
                self.cfg.metrics.as_deref(),
                scope.as_ref(),
            );
            let slot = self.ops.get_mut(self.cur_op);
            book_charge(self.cfg, self.market, &t.name, kind, slot, &outcome);
            let resp = outcome.into_result()?;
            let recorder = self.cfg.recorder.as_deref();
            self.state
                .land_delivery(recorder, &t.schema, rem, resp, self.cfg.sqr, self.now);
        }
        Ok(())
    }

    /// Probe the market once per distinct binding combination and return the
    /// matching right-side rows.
    fn run_bind_probe(
        &mut self,
        tid: usize,
        binds: &[payless_optimizer::plan::BindPair],
        left_rows: &[Row],
        left_layout: &[usize],
    ) -> Result<Vec<Row>> {
        let t = &self.query.tables[tid];
        let space = self.space_of(tid)?;
        let base_regions = required_regions(&space, &t.access)?;
        let bind_dims: Vec<usize> = binds
            .iter()
            .map(|b| {
                space.dim_of_col(b.right_col).ok_or_else(|| {
                    PaylessError::Internal(format!(
                        "bind column {} of `{}` is not constrainable",
                        b.right_col, t.name
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let left_offsets: Vec<usize> = binds
            .iter()
            .map(|b| self.offset_of(left_layout, b.left.0, b.left.1))
            .collect::<Result<Vec<_>>>()?;

        // Distinct binding combinations, in first-seen order (determinism).
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let mut combos: Vec<Vec<Value>> = Vec::new();
        for row in left_rows {
            let combo: Vec<Value> = left_offsets.iter().map(|&o| row.get(o).clone()).collect();
            if seen.insert(combo.clone()) {
                combos.push(combo);
            }
        }
        if let Some(rec) = &self.cfg.recorder {
            rec.record_size("bind.distinct_combos", combos.len() as u64);
        }

        for combo in &combos {
            // Map the combo to coordinates; values outside the domain can
            // never match, so no call is issued for them.
            let mut coords = Vec::with_capacity(combo.len());
            let mut valid = true;
            for (v, &d) in combo.iter().zip(&bind_dims) {
                match coord_of(&space, d, v) {
                    Some(c) => coords.push(c),
                    None => {
                        valid = false;
                        break;
                    }
                }
            }
            if !valid {
                continue;
            }
            for base in &base_regions {
                let mut dims = base.dims().to_vec();
                let mut inside = true;
                for (&d, &c) in bind_dims.iter().zip(&coords) {
                    if !dims[d].contains_point(c) {
                        inside = false;
                        break;
                    }
                    dims[d] = payless_geometry::Interval::point(c);
                }
                if !inside {
                    continue;
                }
                let probe = Region::new(dims);
                self.ensure_region(tid, &space, &probe, CallKind::BindProbe)?;
            }
        }

        // Matching rows: inside a base region, bind values among the probed
        // combos.
        let bind_cols: Vec<usize> = binds.iter().map(|b| b.right_col).collect();
        let mut out = Vec::new();
        self.state
            .visit_rows_in(&t.name, &space, &base_regions, |row| {
                let combo: Vec<Value> = bind_cols.iter().map(|&c| row.get(c).clone()).collect();
                if seen.contains(&combo) {
                    out.push(row.clone());
                }
            });
        Ok(out)
    }

    /// Rows of the table mirror inside any of `regions`.
    fn mirror_rows_in(&self, tid: usize, space: &QuerySpace, regions: &[Region]) -> Vec<Row> {
        let mut out = Vec::new();
        self.state
            .visit_rows_in(&self.query.tables[tid].name, space, regions, |row| {
                out.push(row.clone())
            });
        out
    }

    fn space_of(&self, tid: usize) -> Result<QuerySpace> {
        let t = &self.query.tables[tid];
        self.state
            .with_table_stats(&t.name, |s| s.space().clone())
            .ok_or_else(|| PaylessError::Internal(format!("no stats for `{}`", t.name)))
    }

    /// All equi-join keys between two layouts.
    fn join_keys(&self, left: &[usize], right: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        for e in &self.query.joins {
            let (l, r) = if left.contains(&e.left.0) && right.contains(&e.right.0) {
                (e.left, e.right)
            } else if left.contains(&e.right.0) && right.contains(&e.left.0) {
                (e.right, e.left)
            } else {
                continue;
            };
            lk.push(
                self.offset_of(left, l.0, l.1)
                    .expect("layout contains table"),
            );
            rk.push(
                self.offset_of(right, r.0, r.1)
                    .expect("layout contains table"),
            );
        }
        (lk, rk)
    }

    /// Offset of `(tid, col)` within a concatenated-row layout.
    fn offset_of(&self, layout: &[usize], tid: usize, col: usize) -> Result<usize> {
        let mut off = 0;
        for &t in layout {
            if t == tid {
                return Ok(off + col);
            }
            off += self.query.tables[t].schema.arity();
        }
        Err(PaylessError::Internal(format!(
            "table {tid} not in layout {layout:?}"
        )))
    }

    // ------------------------------------------------------------------
    // Output shaping
    // ------------------------------------------------------------------

    fn finish(&self, rows: Vec<Row>, layout: &[usize]) -> Result<QueryResult> {
        // Residual predicates.
        let mut rows = rows;
        for p in &self.query.residuals {
            match p {
                ResidualPred::CmpValue {
                    table,
                    col,
                    op,
                    value,
                } => {
                    let off = self.offset_of(layout, *table, *col)?;
                    rows.retain(|r| op.eval(r.get(off), value));
                }
                ResidualPred::CmpCols {
                    table,
                    left,
                    op,
                    right,
                } => {
                    let lo = self.offset_of(layout, *table, *left)?;
                    let ro = self.offset_of(layout, *table, *right)?;
                    rows.retain(|r| op.eval(r.get(lo), r.get(ro)));
                }
            }
        }

        let columns = self.column_names();
        let grouped = !self.query.group_by.is_empty() || self.query.has_aggregates();
        let mut out_rows;
        if grouped {
            let keys: Vec<usize> = self
                .query
                .group_by
                .iter()
                .map(|&(t, c)| self.offset_of(layout, t, c))
                .collect::<Result<Vec<_>>>()?;
            let mut aggs = Vec::new();
            for item in &self.query.output {
                if let OutputItem::Agg { func, arg } = item {
                    let col = match arg {
                        Some((t, c)) => Some(self.offset_of(layout, *t, *c)?),
                        None => None,
                    };
                    aggs.push(AggSpec { func: *func, col });
                }
            }
            let mut agg_rows = aggregate(&rows, &keys, &aggs);
            // ORDER BY must reference grouped columns.
            if !self.query.order_by.is_empty() {
                let order_keys: Vec<usize> = self
                    .query
                    .order_by
                    .iter()
                    .map(|tc| {
                        self.query
                            .group_by
                            .iter()
                            .position(|g| g == tc)
                            .ok_or_else(|| {
                                PaylessError::Unsupported(
                                    "ORDER BY on a non-grouped column alongside aggregates".into(),
                                )
                            })
                    })
                    .collect::<Result<Vec<_>>>()?;
                sort_by(&mut agg_rows, &order_keys);
            }
            // Project output items from the `keys ++ aggs` shape.
            let mut positions = Vec::with_capacity(self.query.output.len());
            let mut agg_idx = 0usize;
            for item in &self.query.output {
                match item {
                    OutputItem::Column { table, col } => {
                        let pos = self
                            .query
                            .group_by
                            .iter()
                            .position(|g| g == &(*table, *col))
                            .expect("analyzer enforced grouping");
                        positions.push(pos);
                    }
                    OutputItem::Agg { .. } => {
                        positions.push(keys.len() + agg_idx);
                        agg_idx += 1;
                    }
                }
            }
            out_rows = project(&agg_rows, &positions);
        } else {
            if !self.query.order_by.is_empty() {
                let order: Vec<usize> = self
                    .query
                    .order_by
                    .iter()
                    .map(|&(t, c)| self.offset_of(layout, t, c))
                    .collect::<Result<Vec<_>>>()?;
                sort_by(&mut rows, &order);
            }
            let positions: Vec<usize> = self
                .query
                .output
                .iter()
                .map(|item| match item {
                    OutputItem::Column { table, col } => self.offset_of(layout, *table, *col),
                    OutputItem::Agg { .. } => unreachable!("grouped path handles aggregates"),
                })
                .collect::<Result<Vec<_>>>()?;
            out_rows = project(&rows, &positions);
        }
        if self.query.distinct {
            out_rows = distinct(&out_rows);
        }
        Ok(QueryResult {
            columns,
            rows: out_rows,
        })
    }

    fn column_names(&self) -> Vec<String> {
        self.query
            .output
            .iter()
            .map(|item| match item {
                OutputItem::Column { table, col } => self.query.tables[*table].schema.columns[*col]
                    .name
                    .to_string(),
                OutputItem::Agg { func, arg } => match arg {
                    Some((t, c)) => format!(
                        "{}({})",
                        func.name(),
                        self.query.tables[*t].schema.columns[*c].name
                    ),
                    None => format!("{}(*)", func.name()),
                },
            })
            .collect()
    }
}

/// The market request for `region` of `schema`'s table: one constraint per
/// dimension the region narrows.
pub(crate) fn request_for(schema: &Schema, space: &QuerySpace, region: &Region) -> Request {
    space
        .constraints_of(region)
        .into_iter()
        .fold(Request::to(schema.table.clone()), |req, (col, c)| {
            req.with(schema.columns[col].name.clone(), c)
        })
}

/// Book one resilient call's charge against `table` as a call of `kind`
/// (remainder fetch, bind probe or Download All piece): into `slot`, the
/// plan operator it ran under (Download All has none), and into the spend
/// ledger, which has no other writer. The ledger gets one `wasted` entry when billed attempts produced
/// no usable payload and one clean entry for the `(pages, records)`
/// delivered. Pages and price always reconcile with the billing meter;
/// wasted entries carry zero records (the meter counts a truncated
/// attempt's full pre-truncation records, which the buyer never saw).
// `clippy.toml` bans `Recorder::transaction` everywhere but here.
#[allow(clippy::disallowed_methods)]
pub(crate) fn book_charge(
    cfg: &ExecConfig,
    market: &DataMarket,
    table: &Arc<str>,
    kind: CallKind,
    slot: Option<&mut OperatorActual>,
    outcome: &CallOutcome,
) {
    let delivered = outcome.delivered();
    let wasted_pages = outcome.wasted_pages();
    let (pages, records) = delivered.unwrap_or_default();
    if let Some(slot) = slot {
        slot.calls += 1;
        slot.retries += outcome.retries();
        slot.pages += pages;
        slot.wasted_pages += wasted_pages;
        slot.records += records;
    }
    if !cfg.synthesize_ledger {
        return;
    }
    let (Some(rec), Some(ds)) = (&cfg.recorder, market.dataset_of(table)) else {
        return;
    };
    let ledger_entry = |pages, records, wasted| TransactionRecord {
        seq: 0, // assigned by the recorder
        dataset: ds.name.clone(),
        table: table.clone(),
        kind,
        records,
        page_size: ds.page_size,
        pages,
        price: ds.price.total(pages),
        wasted,
        at_nanos: 0, // stamped by the recorder
    };
    if wasted_pages > 0 {
        rec.transaction(|| ledger_entry(wasted_pages, 0, true));
    }
    if delivered.is_some() {
        rec.transaction(|| ledger_entry(pages, records, false));
    }
}

/// Does a row satisfy a table's access constraints?
fn satisfies_access(row: &Row, access: &payless_sql::TableAccess) -> bool {
    access.constraints.iter().all(|(col, ac)| match ac {
        AccessConstraint::One(c) => c.matches(row.get(*col)),
        AccessConstraint::AnyOf(values) => values.contains(row.get(*col)),
    })
}

/// Allocation-free check: does a full-width mirror row fall inside `region`
/// of the table's query space?
pub(crate) fn row_in_region(space: &QuerySpace, row: &Row, region: &Region) -> bool {
    space.dims().iter().enumerate().all(|(i, dim)| {
        let iv = region.dim(i);
        match row.get(dim.col) {
            Value::Int(x) => !dim.is_categorical() && iv.contains_point(*x),
            Value::Str(s) => match dim.cat_index(s) {
                Some(c) => iv.contains_point(c),
                None => false,
            },
            Value::Float(_) => false,
        }
    })
}

/// Map a binding value to a coordinate on dimension `d`, if in-domain.
fn coord_of(space: &QuerySpace, d: usize, v: &Value) -> Option<i64> {
    let dim = &space.dims()[d];
    match v {
        Value::Int(x) => {
            if dim.is_categorical() {
                None
            } else {
                dim.full().contains_point(*x).then_some(*x)
            }
        }
        Value::Str(s) => dim.cat_index(s),
        Value::Float(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_market::{Dataset, MarketTable};
    use payless_optimizer::plan::BindPair;
    use payless_semantic::SemanticStore;
    use payless_sql::{analyze, parse, MapCatalog};
    use payless_stats::StatsRegistry;
    use payless_storage::LocalTable;
    use payless_types::{row, Column, Domain, Schema};

    /// A two-table market: Users (local) and Events (market, page 10).
    struct Fixture {
        market: DataMarket,
        state: SharedState,
        catalog: MapCatalog,
    }

    fn fixture() -> Fixture {
        let users_schema = Schema::new(
            "Users",
            vec![
                Column::free("uid", Domain::int(1, 20)),
                Column::free("city", Domain::categorical(["A", "B"])),
            ],
        );
        let events_schema = Schema::new(
            "Events",
            vec![
                Column::free("uid", Domain::int(1, 20)),
                Column::free("day", Domain::int(1, 10)),
                Column::output("amount", Domain::int(0, 1000)),
            ],
        );
        let users: Vec<Row> = (1..=20)
            .map(|u| row!(u as i64, if u % 2 == 0 { "A" } else { "B" }))
            .collect();
        let mut events = Vec::new();
        for u in 1..=20i64 {
            for d in 1..=10i64 {
                events.push(row!(u, d, u * 10 + d));
            }
        }
        let market = DataMarket::new(vec![Dataset::new("DS")
            .with_page_size(10)
            .with_table(MarketTable::new(events_schema, events))]);
        let (mut catalog, state) =
            SharedState::for_market(&market, SemanticStore::new(), StatsRegistry::new());
        catalog.add(users_schema.clone(), TableLocation::Local);
        state.register_local(LocalTable::with_rows(users_schema, users));
        Fixture {
            market,
            state,
            catalog,
        }
    }

    fn analyzed(f: &Fixture, sql: &str) -> AnalyzedQuery {
        analyze(&parse(sql).unwrap(), &f.catalog).unwrap()
    }

    fn exec(f: &Fixture, query: &AnalyzedQuery, plan: &PlanNode, sqr: bool) -> QueryResult {
        let cfg = ExecConfig {
            sqr,
            ..Default::default()
        };
        Executor::shared(query, &f.market, &f.state, &cfg, 1, None)
            .execute(plan)
            .unwrap()
    }

    fn mirrored(f: &Fixture, table: &str) -> usize {
        f.state.with_db(|db| db.table(table).unwrap().len())
    }

    #[test]
    fn local_access_applies_constraints() {
        let f = fixture();
        let q = analyzed(&f, "SELECT uid FROM Users WHERE city = 'A'");
        let plan = PlanNode::access(0, AccessMethod::Local);
        let out = exec(&f, &q, &plan, true);
        assert_eq!(out.rows.len(), 10);
        assert_eq!(f.market.bill().calls(), 0);
    }

    #[test]
    fn fetch_pulls_remainder_and_mirrors() {
        let f = fixture();
        let q = analyzed(&f, "SELECT * FROM Events WHERE day >= 3 AND day <= 4");
        let plan = PlanNode::access(0, AccessMethod::Fetch);
        let out = exec(&f, &q, &plan, true);
        assert_eq!(out.rows.len(), 40);
        // Mirrored and covered.
        assert_eq!(mirrored(&f, "Events"), 40);
        assert_eq!(f.market.bill().records(), 40);
        // A second executor run over the same region issues no new calls.
        let calls_before = f.market.bill().calls();
        let out2 = exec(&f, &q, &plan, true);
        assert_eq!(out2.rows.len(), 40);
        assert_eq!(f.market.bill().calls(), calls_before);
    }

    #[test]
    fn fetch_without_sqr_refetches() {
        let f = fixture();
        let q = analyzed(&f, "SELECT * FROM Events WHERE day >= 3 AND day <= 4");
        let plan = PlanNode::access(0, AccessMethod::Fetch);
        exec(&f, &q, &plan, false);
        exec(&f, &q, &plan, false);
        assert_eq!(f.market.bill().calls(), 2);
        assert_eq!(f.market.bill().records(), 80);
        // The mirror deduplicates, though.
        assert_eq!(mirrored(&f, "Events"), 40);
    }

    #[test]
    fn bind_join_probes_distinct_values_only() {
        let f = fixture();
        let q = analyzed(
            &f,
            "SELECT * FROM Users, Events WHERE city = 'A' AND \
             Users.uid = Events.uid AND day >= 1 AND day <= 2",
        );
        let plan = PlanNode::bind_join(
            PlanNode::access(0, AccessMethod::Local),
            1,
            vec![BindPair {
                left: (0, 0),
                right_col: 0,
            }],
        );
        let out = exec(&f, &q, &plan, true);
        // 10 even uids x 2 days.
        assert_eq!(out.rows.len(), 20);
        // One probe per distinct uid.
        assert_eq!(f.market.bill().calls(), 10);
        assert_eq!(f.market.bill().records(), 20);
    }

    #[test]
    fn bind_join_skips_out_of_domain_values() {
        let mut f = fixture();
        // A local table with uids beyond Events' domain.
        let wide_schema = Schema::new("Wide", vec![Column::free("uid", Domain::int(1, 100))]);
        f.catalog.add(wide_schema.clone(), TableLocation::Local);
        f.state.register_local(LocalTable::with_rows(
            wide_schema,
            vec![row!(5), row!(50), row!(99)],
        ));
        let q = analyzed(
            &f,
            "SELECT * FROM Wide, Events WHERE Wide.uid = Events.uid AND day >= 1 AND day <= 1",
        );
        let plan = PlanNode::bind_join(
            PlanNode::access(0, AccessMethod::Local),
            1,
            vec![BindPair {
                left: (0, 0),
                right_col: 0,
            }],
        );
        let out = exec(&f, &q, &plan, true);
        // Only uid 5 matches; uids 50 and 99 are outside Events' domain and
        // must not generate calls.
        assert_eq!(out.rows.len(), 1);
        assert_eq!(f.market.bill().calls(), 1);
    }

    #[test]
    fn bind_join_probes_covered_regions_for_free() {
        let f = fixture();
        // Cover all of Events first.
        let full_q = analyzed(&f, "SELECT * FROM Events");
        exec(&f, &full_q, &PlanNode::access(0, AccessMethod::Fetch), true);
        let calls_after_download = f.market.bill().calls();
        let q = analyzed(
            &f,
            "SELECT * FROM Users, Events WHERE city = 'B' AND \
             Users.uid = Events.uid",
        );
        let plan = PlanNode::bind_join(
            PlanNode::access(0, AccessMethod::Local),
            1,
            vec![BindPair {
                left: (0, 0),
                right_col: 0,
            }],
        );
        let out = exec(&f, &q, &plan, true);
        assert_eq!(out.rows.len(), 10 * 10);
        assert_eq!(f.market.bill().calls(), calls_after_download);
    }

    #[test]
    fn cross_join_plan_when_no_edges() {
        let f = fixture();
        let q = analyzed(
            &f,
            "SELECT * FROM Users, Events WHERE city = 'A' AND day >= 1 AND day <= 1 AND uid >= 1 AND uid <= 2",
        );
        // NOTE: bare `uid` applies to BOTH tables (dialect rule), so this is
        // uids {1,2} on both sides with no join edge -> Cartesian product.
        let plan = PlanNode::join(
            PlanNode::access(0, AccessMethod::Local),
            PlanNode::access(1, AccessMethod::Fetch),
        );
        let out = exec(&f, &q, &plan, true);
        // Users: uid in {1,2} and city A -> uid 2 only. Events: uids {1,2},
        // day 1 -> 2 rows. Cross product: 2.
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn empty_result_shapes_columns() {
        let f = fixture();
        let q = analyzed(
            &f,
            "SELECT COUNT(*) FROM Events WHERE day >= 9 AND day <= 2",
        );
        assert!(q.unsatisfiable);
        let cfg = ExecConfig::default();
        let ex = Executor::shared(&q, &f.market, &f.state, &cfg, 1, None);
        let out = ex.empty_result().unwrap();
        assert_eq!(out.columns, vec!["COUNT(*)".to_string()]);
        // Global COUNT over the empty set is 0.
        assert_eq!(out.rows, vec![row!(0)]);
    }

    #[test]
    fn order_by_sorts_output() {
        let f = fixture();
        let q = analyzed(
            &f,
            "SELECT uid, day FROM Events WHERE day >= 1 AND day <= 2 ORDER BY day, uid",
        );
        let plan = PlanNode::access(0, AccessMethod::Fetch);
        let out = exec(&f, &q, &plan, true);
        assert_eq!(out.rows.len(), 40);
        assert_eq!(out.rows[0], row!(1, 1));
        assert_eq!(out.rows[19], row!(20, 1));
        assert_eq!(out.rows[20], row!(1, 2));
        assert_eq!(out.rows[39], row!(20, 2));
    }

    #[test]
    fn op_actuals_attribute_pages_in_preorder() {
        let f = fixture();
        let q = analyzed(
            &f,
            "SELECT * FROM Users, Events WHERE city = 'A' AND \
             Users.uid = Events.uid AND day >= 1 AND day <= 2",
        );
        let plan = PlanNode::bind_join(
            PlanNode::access(0, AccessMethod::Local),
            1,
            vec![BindPair {
                left: (0, 0),
                right_col: 0,
            }],
        );
        let cfg = ExecConfig::default();
        let mut ex = Executor::shared(&q, &f.market, &f.state, &cfg, 1, None);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.rows.len(), 20);
        let ops = ex.op_actuals();
        assert_eq!(ops.len(), 2, "bind join is one operator plus its left");
        // ops[0] is the bind join: every probe bills to it.
        assert_eq!(ops[0].calls, 10);
        assert_eq!(ops[0].records, 20);
        assert_eq!(ops[0].rows, 20);
        // ops[1] is the local scan: free, but row-counted and timed.
        assert_eq!(ops[1].pages, 0);
        assert_eq!(ops[1].rows, 10);
        // Per-operator billed pages reconcile with the market's meter.
        let billed: u64 = ops.iter().map(|o| o.billed_pages()).sum();
        assert_eq!(billed, f.market.bill().transactions());
    }

    #[test]
    fn residual_on_output_column_filters_locally() {
        let f = fixture();
        let q = analyzed(
            &f,
            "SELECT * FROM Events WHERE day >= 1 AND day <= 1 AND amount >= 100",
        );
        let plan = PlanNode::access(0, AccessMethod::Fetch);
        let out = exec(&f, &q, &plan, true);
        // amount = uid*10 + day; day 1 -> uid >= 10.
        assert_eq!(out.rows.len(), 11);
        // But the market returned the full day slice (residuals are local).
        assert_eq!(f.market.bill().records(), 20);
    }
}
