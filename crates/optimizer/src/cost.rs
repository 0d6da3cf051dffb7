//! Cost estimation: the money a plan is expected to cost, then the local
//! work it causes.
//!
//! [`Cost`] is compared lexicographically on three keys:
//! 1. the paper's metric — estimated data-market transactions (Eq. (1));
//! 2. estimated retrieved records;
//! 3. estimated local work, C_out: the sum of the estimated rows of every
//!    prefix of the left-deep spine ([`CostCtx::est_join_rows`]), the
//!    zero-price prefix included.
//!
//! Money decides first; C_out only orders plans that pay the same, which
//! is every order of the Theorem-2 prefix and of equally priced fetches.
//! The left-deep engine emits the zero-price prefix itself in a connected
//! greedy order (smallest table first, then the linked table that keeps
//! the prefix smallest). The same machinery also evaluates the
//! "Minimizing Calls" model of the Florescu-et-al. baseline by swapping the
//! primary to RESTful-call count; the bushy engine leaves C_out at 0.

use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::sync::Arc;

use payless_geometry::Region;
use payless_semantic::rewrite::est_transactions;
use payless_semantic::{rewrite, Consistency, RewriteConfig, SemanticStore};
use payless_sql::{AccessConstraint, AnalyzedQuery, TableLocation};
use payless_stats::StatsRegistry;
use payless_types::{Constraint, PaylessError, Result};

use crate::plan::BindPair;

/// What the optimizer minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Data-market transactions (PayLess).
    Transactions,
    /// Number of RESTful calls (the prior-work baseline).
    Calls,
}

/// Page-size metadata the optimizer needs about the market.
pub trait MarketMeta {
    /// Tuples per transaction for `table`, if it is a market table.
    fn page_size(&self, table: &str) -> Option<u64>;
}

impl MarketMeta for payless_market::DataMarket {
    fn page_size(&self, table: &str) -> Option<u64> {
        payless_market::DataMarket::page_size(self, table)
    }
}

impl MarketMeta for HashMap<String, u64> {
    fn page_size(&self, table: &str) -> Option<u64> {
        self.get(table).copied()
    }
}

/// Search-effort counters (Figures 14 and 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Candidate (sub)plans costed during the search.
    pub plans_considered: u64,
    /// Bounding boxes enumerated by Algorithm 1 before pruning.
    pub boxes_enumerated: u64,
    /// Bounding boxes surviving both pruning rules.
    pub boxes_kept: u64,
    /// Zero-price relations hoisted into the leftmost prefix (Theorem 2),
    /// and so removed from the DP enumeration entirely.
    pub theorem2_hoisted: u64,
    /// Subproblems composed from join-disconnected components (Theorem 3)
    /// instead of being enumerated as full left-deep extensions.
    pub theorem3_composed: u64,
}

impl std::ops::AddAssign for PlanCounters {
    fn add_assign(&mut self, o: Self) {
        self.plans_considered += o.plans_considered;
        self.boxes_enumerated += o.boxes_enumerated;
        self.boxes_kept += o.boxes_kept;
        self.theorem2_hoisted += o.theorem2_hoisted;
        self.theorem3_composed += o.theorem3_composed;
    }
}

/// A plan cost: the primary objective, a records tiebreak, and the local
/// work tiebreak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Transactions or calls, depending on the model.
    pub primary: f64,
    /// Estimated retrieved records (first tiebreak).
    pub secondary: f64,
    /// Estimated local work (second tiebreak): C_out, the summed estimated
    /// rows of every prefix of the left-deep spine. 0 in the bushy engine.
    pub local: f64,
}

impl Cost {
    /// The free plan.
    pub const ZERO: Cost = Cost {
        primary: 0.0,
        secondary: 0.0,
        local: 0.0,
    };

    /// Component-wise sum.
    pub fn plus(self, o: Cost) -> Cost {
        Cost {
            primary: self.primary + o.primary,
            secondary: self.secondary + o.secondary,
            local: self.local + o.local,
        }
    }

    /// Strictly better: smaller primary; or equal primary and smaller
    /// secondary; or both equal and smaller local work. Equality is within
    /// an epsilon so float noise cannot flip decisions — absolute on the
    /// money keys, relative on C_out, whose intermediate row counts reach
    /// billions.
    pub fn better_than(&self, o: &Cost) -> bool {
        const EPS: f64 = 1e-9;
        if self.primary < o.primary - EPS {
            return true;
        }
        if self.primary > o.primary + EPS {
            return false;
        }
        if self.secondary < o.secondary - EPS {
            return true;
        }
        if self.secondary > o.secondary + EPS {
            return false;
        }
        self.local < o.local - EPS * o.local.abs().max(1.0)
    }
}

/// A per-operator cost estimate in physical units, independent of the cost
/// model's packing into [`Cost`]: billable transactions (pages), market
/// calls, and retrieved records. Used by `EXPLAIN` introspection, where the
/// tree must always show pages/calls regardless of the optimization
/// objective.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EstBreakdown {
    /// Estimated billable transactions (pages).
    pub transactions: f64,
    /// Estimated market calls.
    pub calls: f64,
    /// Estimated records retrieved.
    pub records: f64,
}

/// Everything cost estimation needs, prepared once per query.
pub struct CostCtx<'a> {
    /// The analyzed query.
    pub query: &'a AnalyzedQuery,
    stats: &'a StatsRegistry,
    store: &'a SemanticStore,
    consistency: Consistency,
    now: u64,
    /// Semantic query rewriting enabled?
    pub sqr: bool,
    rewrite_cfg: RewriteConfig,
    /// The cost model in force.
    pub model: CostModel,
    pages: Vec<u64>,
    /// Required regions per table (one per `AnyOf` alternative combination;
    /// empty for unconstrained... never: at least the full region).
    regions: Vec<Vec<Region>>,
    /// A `Cell` so counting works through the `&CostCtx` the DP hands to
    /// every cost call.
    counters: Cell<PlanCounters>,
    /// Per-table cache of the uncovered fraction of the required regions
    /// (the SQR adjustment in `bind_cost`); computing it involves region
    /// subtraction against every stored view, so it must not run once per
    /// DP candidate. `OnceCell` so it fills through `&self`.
    uncovered_frac: Vec<OnceCell<f64>>,
    /// Per-table cache of [`CostCtx::table_rows`]: one histogram estimate
    /// per required region, read by every join-size and bind estimate.
    rows: Vec<OnceCell<f64>>,
}

/// Cap on `AnyOf` alternative combinations per table.
const MAX_DISJUNCTS: usize = 64;

impl<'a> CostCtx<'a> {
    /// Prepare a context. Every referenced table must be registered in
    /// `stats` (which also carries its query space).
    #[allow(clippy::too_many_arguments)] // one-shot constructor mirroring Algorithm 2's inputs
    pub fn new(
        query: &'a AnalyzedQuery,
        stats: &'a StatsRegistry,
        store: &'a SemanticStore,
        meta: &dyn MarketMeta,
        consistency: Consistency,
        now: u64,
        sqr: bool,
        rewrite_cfg: RewriteConfig,
        model: CostModel,
    ) -> Result<Self> {
        let mut pages = Vec::with_capacity(query.tables.len());
        let mut regions = Vec::with_capacity(query.tables.len());
        for t in &query.tables {
            let page = match t.location {
                TableLocation::Local => 1,
                TableLocation::Market => meta.page_size(&t.name).ok_or_else(|| {
                    PaylessError::Internal(format!("no page size for market table `{}`", t.name))
                })?,
            };
            pages.push(page);
            let ts = stats.table(&t.name).ok_or_else(|| {
                PaylessError::Internal(format!("table `{}` missing from statistics", t.name))
            })?;
            regions.push(required_regions(ts.space(), &t.access)?);
        }
        let n = query.tables.len();
        Ok(CostCtx {
            query,
            stats,
            store,
            consistency,
            now,
            sqr,
            rewrite_cfg,
            model,
            pages,
            regions,
            counters: Cell::default(),
            uncovered_frac: std::iter::repeat_with(OnceCell::new).take(n).collect(),
            rows: std::iter::repeat_with(OnceCell::new).take(n).collect(),
        })
    }

    /// Page size for table `tid`.
    pub fn page(&self, tid: usize) -> u64 {
        self.pages[tid]
    }

    /// Update the counters through `&self`.
    fn bump(&self, f: impl FnOnce(&mut PlanCounters)) {
        let mut c = self.counters.get();
        f(&mut c);
        self.counters.set(c);
    }

    /// Count one candidate plan.
    pub fn count_plan(&self) {
        self.bump(|c| c.plans_considered += 1);
    }

    /// Count relations the Theorem 2 prefix removed from the enumeration.
    pub fn count_theorem2_hoisted(&self, n: u64) {
        self.bump(|c| c.theorem2_hoisted += n);
    }

    /// Count one subproblem composed via Theorem 3.
    pub fn count_theorem3_composed(&self) {
        self.bump(|c| c.theorem3_composed += 1);
    }

    /// The counters so far.
    pub fn counters(&self) -> PlanCounters {
        self.counters.get()
    }

    /// Usable stored views of table `tid` overlapping `region`, served from
    /// the store's R-tree. Non-overlapping views cannot affect a region's
    /// rewrite or remainder, so this is what the per-region cost paths use.
    pub fn views_over(&self, tid: usize, region: &Region) -> Vec<Arc<Region>> {
        if !self.sqr {
            return Vec::new();
        }
        self.store.views_overlapping(
            &self.query.tables[tid].name,
            region,
            self.consistency,
            self.now,
        )
    }

    /// Estimated tuples of table `tid` within its required regions, cached
    /// per table.
    pub fn table_rows(&self, tid: usize) -> f64 {
        *self.rows[tid].get_or_init(|| {
            let ts = self
                .stats
                .table(&self.query.tables[tid].name)
                .expect("validated in new()");
            self.regions[tid].iter().map(|r| ts.estimate(r)).sum()
        })
    }

    /// Estimated distinct values of column `col` of table `tid` within its
    /// required regions.
    pub fn col_distinct(&self, tid: usize, col: usize) -> f64 {
        let t = &self.query.tables[tid];
        let ts = self.stats.table(&t.name).expect("validated in new()");
        let rows = self.table_rows(tid);
        match ts.space().dim_of_col(col) {
            Some(d) => {
                let width: f64 = self.regions[tid]
                    .iter()
                    .map(|r| r.dim(d).width() as f64)
                    .sum();
                width.min(rows).max(0.0)
            }
            None => {
                let dom = t.schema.columns[col].domain.size() as f64;
                dom.min(rows).max(0.0)
            }
        }
    }

    /// Estimated join-result rows of a set of tables, using per-edge
    /// `1/max(d_left, d_right)` selectivities.
    pub fn est_join_rows(&self, tables: &[usize]) -> f64 {
        if tables.is_empty() {
            return 1.0;
        }
        let mut rows: f64 = tables.iter().map(|&t| self.table_rows(t)).product();
        for e in &self.query.joins {
            if tables.contains(&e.left.0) && tables.contains(&e.right.0) {
                let dl = self.col_distinct(e.left.0, e.left.1).max(1.0);
                let dr = self.col_distinct(e.right.0, e.right.1).max(1.0);
                rows /= dl.max(dr);
            }
        }
        rows.max(0.0)
    }

    /// `true` when accessing `tid` costs nothing: a local table, or (with
    /// SQR) a market table whose required regions the store fully covers
    /// (Theorem 2's zero-price relations).
    pub fn zero_price(&self, tid: usize) -> bool {
        let t = &self.query.tables[tid];
        if t.location == TableLocation::Local {
            return true;
        }
        if !self.sqr {
            return false;
        }
        self.regions[tid].iter().all(|r| {
            self.store
                .covers(&self.query.tables[tid].name, r, self.consistency, self.now)
        })
    }

    /// `true` when table `tid` can be fetched directly: every mandatory
    /// (bound) attribute is constrained in all of its required regions.
    pub fn fetch_feasible(&self, tid: usize) -> bool {
        let t = &self.query.tables[tid];
        if t.location == TableLocation::Local {
            return true;
        }
        let ts = self.stats.table(&t.name).expect("validated in new()");
        let space = ts.space();
        for col in t.schema.mandatory_bindings() {
            let d = space.dim_of_col(col).expect("bound columns have dims");
            let full = space.dims()[d].full();
            for r in &self.regions[tid] {
                let iv = r.dim(d);
                if iv == full && full.width() > 1 {
                    return false;
                }
            }
        }
        true
    }

    /// Cost of fetching `tid`'s required regions (semantic rewriting applied
    /// when enabled). `None` when a direct fetch is infeasible.
    pub fn fetch_cost(&self, tid: usize) -> Option<Cost> {
        self.fetch_breakdown(tid)
            .map(|b| self.pack(b.transactions, b.calls, b.records))
    }

    /// The raw per-operator estimate behind [`CostCtx::fetch_cost`], kept in
    /// physical units (transactions / calls / records) regardless of the
    /// cost model, for `EXPLAIN` introspection.
    pub fn fetch_breakdown(&self, tid: usize) -> Option<EstBreakdown> {
        let t = &self.query.tables[tid];
        if t.location == TableLocation::Local {
            return Some(EstBreakdown::default());
        }
        if !self.fetch_feasible(tid) {
            return None;
        }
        let ts = self.stats.table(&t.name).expect("validated in new()");
        let page = self.pages[tid];
        let mut tx = 0.0;
        let mut calls = 0.0;
        let mut records = 0.0;
        for region in &self.regions[tid] {
            if self.sqr {
                let views = self.views_over(tid, region);
                let rw = rewrite(ts, page, region, &views, &self.rewrite_cfg);
                self.bump(|c| {
                    c.boxes_enumerated += rw.boxes_enumerated;
                    c.boxes_kept += rw.boxes_kept;
                });
                tx += rw.est_transactions;
                calls += rw.remainders.len() as f64;
                records += rw.remainders.iter().map(|r| ts.estimate(r)).sum::<f64>();
            } else {
                let est = ts.estimate(region);
                tx += est_transactions(est, page);
                calls += 1.0;
                records += est;
            }
        }
        Some(EstBreakdown {
            transactions: tx,
            calls,
            records,
        })
    }

    /// The bind pairs available for `tid` given `left_tables` on the left,
    /// with feasibility checked (every mandatory attribute either constrained
    /// or bound). `None` when no binding applies or feasibility fails.
    pub fn bind_pairs(&self, tid: usize, left_tables: &[usize]) -> Option<Vec<BindPair>> {
        let t = &self.query.tables[tid];
        if t.location == TableLocation::Local {
            return None; // local tables never need market bindings
        }
        let ts = self.stats.table(&t.name).expect("validated in new()");
        let space = ts.space();
        let mut binds: Vec<BindPair> = Vec::new();
        for e in &self.query.joins {
            let (this_end, other_end) = if e.left.0 == tid {
                (e.left, e.right)
            } else if e.right.0 == tid {
                (e.right, e.left)
            } else {
                continue;
            };
            if !left_tables.contains(&other_end.0) {
                continue;
            }
            if space.dim_of_col(this_end.1).is_none() {
                continue; // output-only column: cannot bind at the market
            }
            if binds.iter().any(|b| b.right_col == this_end.1) {
                continue;
            }
            binds.push(BindPair {
                left: other_end,
                right_col: this_end.1,
            });
        }
        if binds.is_empty() {
            return None;
        }
        // Mandatory attributes must be constrained or bound.
        for col in t.schema.mandatory_bindings() {
            let d = space.dim_of_col(col).expect("bound columns have dims");
            let full = space.dims()[d].full();
            let constrained = self.regions[tid]
                .iter()
                .all(|r| r.dim(d) != full || full.width() == 1);
            if !constrained && !binds.iter().any(|b| b.right_col == col) {
                return None;
            }
        }
        Some(binds)
    }

    /// All useful binding-column combinations for `tid` given `left_tables`:
    /// every subset of the available bind pairs that still covers the
    /// mandatory attributes. Binding more columns makes each probe more
    /// selective but multiplies the number of probes, so neither extreme
    /// dominates — the DP costs each option (the paper's per-call "binding
    /// choices").
    pub fn bind_options(&self, tid: usize, left_tables: &[usize]) -> Vec<Vec<BindPair>> {
        let Some(all) = self.bind_pairs(tid, left_tables) else {
            return Vec::new();
        };
        let t = &self.query.tables[tid];
        let ts = self.stats.table(&t.name).expect("validated in new()");
        let space = ts.space();
        // Columns that MUST be bound (mandatory and not constrained).
        let mut required: Vec<BindPair> = Vec::new();
        let mut optional: Vec<BindPair> = Vec::new();
        for b in all {
            let col = b.right_col;
            let is_required = t.schema.columns[col].binding.mandatory() && {
                let d = space.dim_of_col(col).expect("bound columns have dims");
                let full = space.dims()[d].full();
                !self.regions[tid]
                    .iter()
                    .all(|r| r.dim(d) != full || full.width() == 1)
            };
            if is_required {
                required.push(b);
            } else {
                optional.push(b);
            }
        }
        // Enumerate subsets of the optional columns (capped to keep the DP
        // polynomial; beyond the cap, take all-or-nothing).
        const MAX_OPTIONAL: usize = 4;
        let mut options = Vec::new();
        if optional.len() > MAX_OPTIONAL {
            let mut with_all = required.clone();
            with_all.extend(optional.iter().copied());
            options.push(with_all);
            if !required.is_empty() {
                options.push(required);
            }
        } else {
            for mask in 0..(1usize << optional.len()) {
                let mut combo = required.clone();
                for (i, b) in optional.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        combo.push(*b);
                    }
                }
                if !combo.is_empty() {
                    options.push(combo);
                }
            }
        }
        options
    }

    /// Cost of bind-joining `tid` with binding values flowing from a left
    /// side estimated at `left_rows` rows over `left_tables`.
    pub fn bind_cost(&self, tid: usize, binds: &[BindPair], left_rows: f64) -> Cost {
        let b = self.bind_breakdown(tid, binds, left_rows);
        self.pack(b.transactions, b.calls, b.records)
    }

    /// The raw per-operator estimate behind [`CostCtx::bind_cost`], in
    /// physical units for `EXPLAIN` introspection.
    pub fn bind_breakdown(&self, tid: usize, binds: &[BindPair], left_rows: f64) -> EstBreakdown {
        let page = self.pages[tid];
        // Distinct binding combinations the left side emits.
        let d_left: f64 = binds
            .iter()
            .map(|b| self.col_distinct(b.left.0, b.left.1).max(1.0))
            .product();
        let calls = left_rows
            .min(d_left)
            .ceil()
            .max(if left_rows > 0.0 { 1.0 } else { 0.0 });
        // Of those, how many can match tuples of tid's region.
        let d_right: f64 = binds
            .iter()
            .map(|b| self.col_distinct(tid, b.right_col).max(1.0))
            .product();
        let paying = calls.min(d_right);
        let total_rows = self.table_rows(tid);
        let mut matched = if d_right > 0.0 {
            (total_rows * paying / d_right).min(total_rows)
        } else {
            0.0
        };
        // Semantic rewriting: probes into covered parts of the region are
        // free. Scale the expected retrieval by the uncovered fraction.
        if self.sqr && matched > 0.0 {
            matched *= self.uncovered_fraction(tid);
        }
        let per_call = if paying > 0.0 { matched / paying } else { 0.0 };
        let tx = if matched <= 0.0 {
            0.0
        } else if per_call < 1.0 {
            // Sparse bindings: only ~`matched` probes return anything, one
            // transaction each.
            paying.min(matched.ceil())
        } else {
            paying * est_transactions(per_call, page)
        };
        EstBreakdown {
            transactions: tx,
            calls,
            records: matched,
        }
    }

    /// Fraction of `tid`'s required regions the store does *not* cover —
    /// the SQR-coverage assumption behind the operator's estimate. `1.0`
    /// when SQR is off or nothing usable is stored.
    pub fn est_uncovered_fraction(&self, tid: usize) -> f64 {
        if !self.sqr {
            return 1.0;
        }
        self.uncovered_fraction(tid)
    }

    /// Fraction of `tid`'s required regions not covered by stored views
    /// (1.0 when nothing is stored), cached per table.
    fn uncovered_fraction(&self, tid: usize) -> f64 {
        *self.uncovered_frac[tid].get_or_init(|| {
            let total_rows = self.table_rows(tid);
            if total_rows <= 0.0 {
                return 1.0;
            }
            let ts = self
                .stats
                .table(&self.query.tables[tid].name)
                .expect("validated in new()");
            let mut any_views = false;
            let mut uncovered = 0.0;
            for r in &self.regions[tid] {
                let views = self.views_over(tid, r);
                any_views |= !views.is_empty();
                uncovered += r
                    .subtract_all(&views)
                    .iter()
                    .map(|piece| ts.estimate(piece))
                    .sum::<f64>();
            }
            if !any_views {
                return 1.0;
            }
            (uncovered / total_rows).clamp(0.0, 1.0)
        })
    }

    fn pack(&self, tx: f64, calls: f64, records: f64) -> Cost {
        match self.model {
            CostModel::Transactions => Cost {
                primary: tx,
                secondary: records,
                local: 0.0,
            },
            // The calls-minimizing baseline is *indifferent* to retrieved
            // volume — that blindness is exactly the paper's critique of
            // prior work. No volume tiebreak: among equal-call plans the
            // first enumerated (the regular-join shape) wins.
            CostModel::Calls => Cost {
                primary: calls,
                secondary: 0.0,
                local: 0.0,
            },
        }
    }
}

/// Expand a table's access constraints into required regions (one per
/// combination of `AnyOf` alternatives).
pub fn required_regions(
    space: &payless_geometry::QuerySpace,
    access: &payless_sql::TableAccess,
) -> Result<Vec<Region>> {
    let mut combos: Vec<Vec<(usize, Constraint)>> = vec![Vec::new()];
    for (col, ac) in &access.constraints {
        match ac {
            AccessConstraint::One(c) => {
                for combo in &mut combos {
                    combo.push((*col, c.clone()));
                }
            }
            AccessConstraint::AnyOf(values) => {
                let mut next = Vec::with_capacity(combos.len() * values.len());
                for combo in &combos {
                    for v in values {
                        let mut c = combo.clone();
                        let constraint = match v {
                            payless_types::Value::Int(x) => Constraint::range(*x, *x),
                            other => Constraint::Eq(other.clone()),
                        };
                        c.push((*col, constraint));
                        next.push(c);
                    }
                }
                combos = next;
                if combos.len() > MAX_DISJUNCTS {
                    return Err(PaylessError::Unsupported(format!(
                        "more than {MAX_DISJUNCTS} disjunctive alternatives on one table"
                    )));
                }
            }
        }
    }
    let mut regions = Vec::with_capacity(combos.len());
    for combo in combos {
        if let Some(r) = space.region_of(&combo) {
            regions.push(r);
        }
    }
    if regions.is_empty() {
        // All alternatives empty: the analyzer normally catches this, but an
        // empty region list would make downstream code divide by zero; treat
        // as the (never-matching) full region with zero estimate handled by
        // unsatisfiability upstream.
        return Err(PaylessError::Internal(
            "no valid required region for table access".into(),
        ));
    }
    Ok(regions)
}
