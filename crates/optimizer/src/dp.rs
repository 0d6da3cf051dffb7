//! The dynamic-programming plan search (Algorithm 2 of the paper).
//!
//! Two engines share the cost machinery:
//!
//! * [`SearchStrategy::LeftDeep`] — PayLess proper. Zero-price relations are
//!   joined first in one leftmost prefix (Theorem 2); only left-deep
//!   extensions are enumerated (Theorem 1); join-disconnected subsets are
//!   composed from their components' best plans (Theorem 3). Among plans
//!   that pay the same, the smallest estimated local work (C_out, see
//!   [`crate::cost`]) wins, and the prefix is emitted in a connected order.
//! * [`SearchStrategy::Bushy`] — the exhaustive engine: every subset split,
//!   bushy shapes included. Used for the paper's "Disable All" ablation and
//!   (with [`CostModel::Calls`]) for the "Minimizing Calls" baseline.

use std::sync::Arc;

use payless_semantic::{Consistency, RewriteConfig, SemanticStore};
use payless_sql::AnalyzedQuery;
use payless_stats::StatsRegistry;
use payless_types::{PaylessError, Result};

use crate::cost::{Cost, CostCtx, CostModel, MarketMeta, PlanCounters};
use crate::plan::{AccessMethod, BindPair, PlanNode};

/// Which plan space to search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Left-deep with Theorems 1–3 (PayLess).
    LeftDeep,
    /// Exhaustive bushy enumeration (baselines / ablations).
    Bushy,
}

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Semantic query rewriting on?
    pub sqr: bool,
    /// Plan-space strategy.
    pub strategy: SearchStrategy,
    /// Objective.
    pub model: CostModel,
    /// Algorithm 1 knobs. Every program caller leaves the default; the
    /// field stays only because `benchmark/src/ledger.rs` names it, and
    /// goes in ROADMAP item 3's benchmark PR.
    pub rewrite: RewriteConfig,
    /// Store-freshness policy.
    pub consistency: Consistency,
    /// Theorem 2 ablation: join zero-price relations first. Only affects
    /// the left-deep engine.
    pub zero_price_first: bool,
    /// Theorem 3 ablation: compose join-disconnected subsets from their
    /// components. Only affects the left-deep engine.
    pub partition_pruning: bool,
    /// Produce per-operator estimate annotations ([`Optimized::ops`]) for
    /// `EXPLAIN ANALYZE`. Off by default: the annotation walk re-costs the
    /// chosen plan, which is wasted work when nobody introspects (it runs
    /// on a fresh context, so search counters are never perturbed either
    /// way).
    pub introspect: bool,
}

impl OptimizerConfig {
    /// Full PayLess: SQR + Theorems 1–3, minimizing transactions.
    pub fn payless() -> Self {
        OptimizerConfig {
            sqr: true,
            strategy: SearchStrategy::LeftDeep,
            model: CostModel::Transactions,
            rewrite: RewriteConfig::default(),
            consistency: Consistency::Weak,
            zero_price_first: true,
            partition_pruning: true,
            introspect: false,
        }
    }

    /// "PayLess w/o SQR" (Figure 10): theorems on, rewriting off.
    pub fn payless_no_sqr() -> Self {
        OptimizerConfig {
            sqr: false,
            ..Self::payless()
        }
    }

    /// "Disable All" (Figure 14): rewriting off and full bushy enumeration.
    pub fn disable_all() -> Self {
        OptimizerConfig {
            sqr: false,
            strategy: SearchStrategy::Bushy,
            ..Self::payless()
        }
    }

    /// The "Minimizing Calls" baseline of Florescu et al.: bushy plans,
    /// objective = RESTful calls, no rewriting.
    pub fn min_calls() -> Self {
        OptimizerConfig {
            sqr: false,
            strategy: SearchStrategy::Bushy,
            model: CostModel::Calls,
            ..Self::payless()
        }
    }
}

/// The optimizer's result.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen plan.
    pub plan: PlanNode,
    /// Its estimated cost.
    pub cost: Cost,
    /// Search-effort counters (Figures 14–15).
    pub counters: PlanCounters,
    /// Per-operator estimate annotations in pre-order, with zeroed actuals
    /// for the executor to fill in. Empty unless
    /// [`OptimizerConfig::introspect`] is set.
    pub ops: Vec<payless_telemetry::OperatorTrace>,
}

/// Optimize an analyzed query.
///
/// The caller must short-circuit [`AnalyzedQuery::unsatisfiable`] queries —
/// they need no plan at all.
pub fn optimize(
    query: &AnalyzedQuery,
    stats: &StatsRegistry,
    store: &SemanticStore,
    meta: &dyn MarketMeta,
    cfg: &OptimizerConfig,
    now: u64,
) -> Result<Optimized> {
    if query.unsatisfiable {
        return Err(PaylessError::Infeasible(
            "query is unsatisfiable; no plan needed".into(),
        ));
    }
    if query.tables.is_empty() {
        return Err(PaylessError::Unsupported("query with no tables".into()));
    }
    let ctx = CostCtx::new(
        query,
        stats,
        store,
        meta,
        cfg.consistency,
        now,
        cfg.sqr,
        cfg.rewrite.clone(),
        cfg.model,
    )?;
    let mut out = match cfg.strategy {
        SearchStrategy::LeftDeep => left_deep(&ctx, cfg),
        SearchStrategy::Bushy => bushy(&ctx),
    }?;
    if cfg.introspect {
        // A fresh context, so re-costing the winner cannot disturb the
        // search counters the ablation figures (and their tests) compare.
        let actx = CostCtx::new(
            query,
            stats,
            store,
            meta,
            cfg.consistency,
            now,
            cfg.sqr,
            cfg.rewrite.clone(),
            cfg.model,
        )?;
        out.ops = crate::introspect::annotate(&actx, cfg, &out.plan);
    }
    Ok(out)
}

/// One step of a left-deep spine.
#[derive(Debug, Clone)]
enum Step {
    Fetch(usize),
    Bind(usize, Vec<BindPair>),
}

impl Step {
    /// The table this step joins.
    fn table(&self) -> usize {
        match self {
            Step::Fetch(t) | Step::Bind(t, _) => *t,
        }
    }
}

/// A persistent (shared-tail) list of steps, newest first. The 2^m DP
/// entries mostly share spine prefixes, so extending a spine is one `Arc`
/// allocation instead of cloning the whole step vector per candidate.
#[derive(Debug)]
struct StepNode {
    step: Step,
    prev: StepChain,
}

type StepChain = Option<Arc<StepNode>>;

fn chain_push(prev: &StepChain, step: Step) -> StepChain {
    Some(Arc::new(StepNode {
        step,
        prev: prev.clone(),
    }))
}

/// Flatten a chain back into build order (oldest step first).
fn chain_steps(chain: &StepChain) -> Vec<Step> {
    let mut out = Vec::new();
    let mut cur = chain;
    while let Some(node) = cur {
        out.push(node.step.clone());
        cur = &node.prev;
    }
    out.reverse();
    out
}

#[derive(Debug, Clone)]
struct LdEntry {
    cost: Cost,
    steps: StepChain,
}

fn left_deep(ctx: &CostCtx<'_>, cfg: &OptimizerConfig) -> Result<Optimized> {
    let n = ctx.query.tables.len();
    // Theorem 2: zero-price relations form the leftmost prefix (the
    // `zero_price_first` flag exists for ablation benchmarks).
    let zero: Vec<usize> = if cfg.zero_price_first {
        (0..n).filter(|&t| ctx.zero_price(t)).collect()
    } else {
        Vec::new()
    };
    ctx.count_theorem2_hoisted(zero.len() as u64);
    // The DP treats the prefix as a set (`zero`, index order); only the
    // plan tree and the C_out key see the order it is joined in.
    let prefix = prefix_order(ctx, &zero);
    let market: Vec<usize> = (0..n).filter(|t| !zero.contains(t)).collect();
    let m = market.len();

    // Pre-memoize per-table fetch costs (one SemanticRewrite per table, as
    // in Algorithm 2's size-1 loop).
    let fetch_costs: Vec<Option<Cost>> = market
        .iter()
        .map(|&t| {
            ctx.count_plan();
            ctx.fetch_cost(t)
        })
        .collect();

    let mut best: Vec<Option<LdEntry>> = vec![None; 1usize << m];
    best[0] = Some(LdEntry {
        cost: Cost {
            local: c_out(ctx, &[], prefix.iter().copied()),
            ..Cost::ZERO
        },
        steps: None,
    });

    // Ascending mask order: a mask only reads proper sub-masks (its
    // one-table-removed predecessors and Theorem 3's component masks), and
    // every proper sub-mask is numerically smaller, so it is already solved.
    for mask in 1usize..(1 << m) {
        best[mask] = ld_entry(ctx, cfg, &zero, &market, &fetch_costs, &best, mask);
    }

    let full = (1usize << m) - 1;
    let entry = best[full].take().ok_or_else(|| {
        PaylessError::Infeasible("some bound attribute can never be supplied".into())
    })?;
    let plan = materialize(ctx, &prefix, &chain_steps(&entry.steps))?;
    Ok(Optimized {
        plan,
        cost: entry.cost,
        counters: ctx.counters(),
        ops: Vec::new(),
    })
}

/// Score one subset mask against the already-solved smaller subsets.
/// Pure except for the search counters.
fn ld_entry(
    ctx: &CostCtx<'_>,
    cfg: &OptimizerConfig,
    zero: &[usize],
    market: &[usize],
    fetch_costs: &[Option<Cost>],
    best: &[Option<LdEntry>],
    mask: usize,
) -> Option<LdEntry> {
    let m = market.len();
    let subset: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();

    // Theorem 3: compose join-disconnected components.
    if cfg.partition_pruning && subset.len() > 1 {
        if let Some(groups) = disconnected_groups(ctx, zero, market, &subset) {
            ctx.count_plan();
            ctx.count_theorem3_composed();
            let mut cost = Cost::ZERO;
            let mut steps: Vec<Step> = Vec::new();
            for g in &groups {
                let gmask: usize = g.iter().map(|i| 1usize << i).sum();
                let e = best[gmask].as_ref()?;
                cost = cost.plus(e.cost);
                steps.extend(chain_steps(&e.steps));
            }
            // Money adds up across components, local work does not: every
            // step after the first component joins a larger left side (a
            // Cartesian one), so C_out is that of the concatenated spine.
            let prefix_local = best[0].as_ref().map_or(0.0, |e| e.cost.local);
            cost.local = prefix_local + c_out(ctx, zero, steps.iter().map(Step::table));
            let chain = steps.into_iter().fold(None, |acc, s| chain_push(&acc, s));
            return Some(LdEntry { cost, steps: chain });
        }
    }

    // Cross-product avoidance: when the subset (with the zero-price
    // prefix as glue) is join-connected, a build order whose every
    // prefix stays connected exists (spanning-tree order), so
    // extensions that would force a Cartesian product can be skipped
    // without losing the optimum — and without materializing the giant
    // intermediates those plans imply.
    let mut set_tables: Vec<usize> = zero.to_vec();
    set_tables.extend(subset.iter().map(|&i| market[i]));
    let connected = tables_connected(ctx, &set_tables);
    // Every extension of this mask builds the same set, so it adds the same
    // intermediate rows to C_out.
    let rows = ctx.est_join_rows(&set_tables);
    let extend = |left: &Cost, step: Cost| Cost {
        local: left.local + rows,
        ..left.plus(step)
    };

    let mut entry: Option<LdEntry> = None;
    for &i in &subset {
        let rest = mask & !(1usize << i);
        let Some(left) = best[rest].as_ref() else {
            continue;
        };
        let t = market[i];
        // Tables available on the left for bindings: the zero prefix
        // plus the rest of the subset.
        let mut left_tables = zero.to_vec();
        left_tables.extend((0..m).filter(|j| rest & (1 << j) != 0).map(|j| market[j]));
        if connected && !left_tables.is_empty() && !has_edge(ctx, &[t], &left_tables) {
            continue;
        }

        // Option A: direct fetch (the "regular join" of Algorithm 2).
        if let Some(fc) = fetch_costs[i] {
            ctx.count_plan();
            let cost = extend(&left.cost, fc);
            if entry.as_ref().is_none_or(|e| cost.better_than(&e.cost)) {
                entry = Some(LdEntry {
                    cost,
                    steps: chain_push(&left.steps, Step::Fetch(t)),
                });
            }
        }
        // Option B: bind joins from the left side, one candidate per
        // binding-column combination.
        let options = ctx.bind_options(t, &left_tables);
        if !options.is_empty() {
            let lrows = ctx.est_join_rows(&left_tables);
            for binds in options {
                ctx.count_plan();
                let cost = extend(&left.cost, ctx.bind_cost(t, &binds, lrows));
                if entry.as_ref().is_none_or(|e| cost.better_than(&e.cost)) {
                    entry = Some(LdEntry {
                        cost,
                        steps: chain_push(&left.steps, Step::Bind(t, binds)),
                    });
                }
            }
        }
    }
    entry
}

/// C_out of joining `order` one table at a time onto `base`: the estimated
/// rows of each successive left side, summed.
fn c_out(ctx: &CostCtx<'_>, base: &[usize], order: impl IntoIterator<Item = usize>) -> f64 {
    let mut set = base.to_vec();
    order
        .into_iter()
        .map(|t| {
            set.push(t);
            ctx.est_join_rows(&set)
        })
        .sum()
}

/// The order the zero-price prefix is joined in: the table with the fewest
/// estimated rows first, then repeatedly the table with a join edge into
/// the prefix that keeps it smallest, or — when none has an edge — the
/// smallest remaining table. Ties go to the lower table index. Every order
/// of the prefix pays nothing, so this only decides local work.
fn prefix_order(ctx: &CostCtx<'_>, zero: &[usize]) -> Vec<usize> {
    let mut rest = zero.to_vec();
    let mut order = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        let linked = rest.iter().any(|&t| has_edge(ctx, &[t], &order));
        let mut pick = None::<(usize, f64)>;
        for (i, &t) in rest.iter().enumerate() {
            let rows = if !linked {
                ctx.table_rows(t)
            } else if has_edge(ctx, &[t], &order) {
                let mut set = order.clone();
                set.push(t);
                ctx.est_join_rows(&set)
            } else {
                continue;
            };
            if pick.is_none_or(|(_, best)| rows < best) {
                pick = Some((i, rows));
            }
        }
        let (i, _) = pick.expect("rest is non-empty");
        order.push(rest.remove(i));
    }
    order
}

/// Build the plan tree: zero-price prefix first (in `prefix` order), then
/// the steps, left-deep.
fn materialize(ctx: &CostCtx<'_>, prefix: &[usize], steps: &[Step]) -> Result<PlanNode> {
    let mut node: Option<PlanNode> = None;
    for &t in prefix {
        let method = if ctx.query.tables[t].location == payless_sql::TableLocation::Local {
            AccessMethod::Local
        } else {
            AccessMethod::Fetch // fully covered: rewriting finds nothing to fetch
        };
        let leaf = PlanNode::access(t, method);
        node = Some(match node {
            None => leaf,
            Some(acc) => PlanNode::join(acc, leaf),
        });
    }
    for step in steps {
        node = Some(match step {
            Step::Fetch(t) => {
                let leaf = PlanNode::access(*t, AccessMethod::Fetch);
                match node {
                    None => leaf,
                    Some(acc) => PlanNode::join(acc, leaf),
                }
            }
            Step::Bind(t, binds) => {
                let left = node.ok_or_else(|| {
                    PaylessError::Internal("bind join with empty left side".into())
                })?;
                PlanNode::bind_join(left, *t, binds.clone())
            }
        });
    }
    node.ok_or_else(|| PaylessError::Internal("empty plan".into()))
}

/// Theorem 3's partition test: split `subset` (indices into `market`) into
/// groups that cannot join with each other, where connectivity may run
/// through the zero-price prefix. Returns `None` when the subset is a single
/// group.
fn disconnected_groups(
    ctx: &CostCtx<'_>,
    zero: &[usize],
    market: &[usize],
    subset: &[usize],
) -> Option<Vec<Vec<usize>>> {
    // Union-find over table ids within zero ∪ subset-tables.
    let mut members: Vec<usize> = zero.to_vec();
    members.extend(subset.iter().map(|&i| market[i]));
    let mut parent: Vec<usize> = (0..members.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let index_of = |t: usize| members.iter().position(|&x| x == t);
    for e in &ctx.query.joins {
        if let (Some(a), Some(b)) = (index_of(e.left.0), index_of(e.right.0)) {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    // Group subset indices by component root.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for &i in subset {
        let pos = index_of(market[i]).expect("member");
        let root = find(&mut parent, pos);
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, g)) => g.push(i),
            None => groups.push((root, vec![i])),
        }
    }
    if groups.len() <= 1 {
        return None;
    }
    Some(groups.into_iter().map(|(_, g)| g).collect())
}

/// Any equi-join edge between the two table sets?
fn has_edge(ctx: &CostCtx<'_>, a: &[usize], b: &[usize]) -> bool {
    ctx.query.joins.iter().any(|e| {
        (a.contains(&e.left.0) && b.contains(&e.right.0))
            || (a.contains(&e.right.0) && b.contains(&e.left.0))
    })
}

/// Is the induced join graph over `tables` connected?
fn tables_connected(ctx: &CostCtx<'_>, tables: &[usize]) -> bool {
    if tables.len() <= 1 {
        return true;
    }
    let mut parent: Vec<usize> = (0..tables.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for e in &ctx.query.joins {
        let a = tables.iter().position(|&t| t == e.left.0);
        let b = tables.iter().position(|&t| t == e.right.0);
        if let (Some(a), Some(b)) = (a, b) {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    let root = find(&mut parent, 0);
    (1..tables.len()).all(|i| find(&mut parent, i) == root)
}

/// How a bushy subset's best plan is built — a decision table entry rather
/// than a materialized `PlanNode`, so candidate evaluation never clones
/// whole subtrees. The winning tree is rebuilt once at the end.
#[derive(Debug, Clone)]
enum BushyChoice {
    /// Access one table directly.
    Leaf(usize, AccessMethod),
    /// Local join of the best plans of two sub-masks.
    Join(usize, usize),
    /// Bind join: left sub-mask's best plan feeding bindings into a table.
    Bind(usize, usize, Vec<BindPair>),
}

#[derive(Debug, Clone)]
struct BushyEntry {
    cost: Cost,
    choice: BushyChoice,
}

fn bushy(ctx: &CostCtx<'_>) -> Result<Optimized> {
    let n = ctx.query.tables.len();
    let mut best: Vec<Option<BushyEntry>> = vec![None; 1usize << n];
    // Connectivity memo per mask (for Cartesian-product avoidance: every
    // cut of a connected join graph has a crossing edge, so edge-less
    // splits of connected masks are never needed).
    let connected: Vec<bool> = (0..1usize << n)
        .map(|mask| tables_connected(ctx, &tables_of(mask, n)))
        .collect();

    for t in 0..n {
        ctx.count_plan();
        let method = if ctx.query.tables[t].location == payless_sql::TableLocation::Local {
            AccessMethod::Local
        } else {
            AccessMethod::Fetch
        };
        if let Some(cost) = ctx.fetch_cost(t) {
            best[1 << t] = Some(BushyEntry {
                cost,
                choice: BushyChoice::Leaf(t, method),
            });
        }
    }

    // Ascending mask order, as in the left-deep engine: both sides of every
    // split are proper sub-masks, hence smaller and already solved. Single
    // tables keep the leaf entries seeded above.
    for mask in 1usize..(1 << n) {
        if mask.count_ones() >= 2 {
            best[mask] = bushy_entry(ctx, &connected, &best, n, mask);
        }
    }

    let full = (1usize << n) - 1;
    let entry = best[full].clone().ok_or_else(|| {
        PaylessError::Infeasible("some bound attribute can never be supplied".into())
    })?;
    Ok(Optimized {
        plan: materialize_bushy(&best, full)?,
        cost: entry.cost,
        counters: ctx.counters(),
        ops: Vec::new(),
    })
}

/// Tables of a mask, ascending.
fn tables_of(mask: usize, n: usize) -> Vec<usize> {
    (0..n).filter(|i| mask & (1 << i) != 0).collect()
}

/// Score one bushy mask against the already-solved smaller masks.
fn bushy_entry(
    ctx: &CostCtx<'_>,
    connected: &[bool],
    best: &[Option<BushyEntry>],
    n: usize,
    mask: usize,
) -> Option<BushyEntry> {
    let mut entry: Option<BushyEntry> = None;
    // Enumerate proper non-empty splits (left = sub, right = rest).
    let mut sub = (mask - 1) & mask;
    while sub != 0 {
        let rest = mask & !sub;
        let crossing = has_edge(ctx, &tables_of(sub, n), &tables_of(rest, n));
        if (crossing || !connected[mask]) && best[sub].is_some() && best[rest].is_some() {
            let (l, r) = (best[sub].as_ref().unwrap(), best[rest].as_ref().unwrap());
            // Local join of the two sides.
            ctx.count_plan();
            let cost = l.cost.plus(r.cost);
            if entry.as_ref().is_none_or(|e| cost.better_than(&e.cost)) {
                entry = Some(BushyEntry {
                    cost,
                    choice: BushyChoice::Join(sub, rest),
                });
            }
        }
        // Bind join: right side must be a single table.
        if rest.count_ones() == 1 {
            if let Some(l) = &best[sub] {
                let t = rest.trailing_zeros() as usize;
                let left_tables = tables_of(sub, n);
                let options = ctx.bind_options(t, &left_tables);
                if !options.is_empty() {
                    let lrows = ctx.est_join_rows(&left_tables);
                    for binds in options {
                        ctx.count_plan();
                        let cost = l.cost.plus(ctx.bind_cost(t, &binds, lrows));
                        if entry.as_ref().is_none_or(|e| cost.better_than(&e.cost)) {
                            entry = Some(BushyEntry {
                                cost,
                                choice: BushyChoice::Bind(sub, t, binds),
                            });
                        }
                    }
                }
            }
        }
        sub = (sub - 1) & mask;
    }
    entry
}

/// Rebuild the winning bushy tree from the decision table.
fn materialize_bushy(best: &[Option<BushyEntry>], mask: usize) -> Result<PlanNode> {
    let entry = best[mask]
        .as_ref()
        .ok_or_else(|| PaylessError::Internal("bushy decision table has a hole".into()))?;
    match &entry.choice {
        BushyChoice::Leaf(t, method) => Ok(PlanNode::access(*t, *method)),
        BushyChoice::Join(sub, rest) => Ok(PlanNode::join(
            materialize_bushy(best, *sub)?,
            materialize_bushy(best, *rest)?,
        )),
        BushyChoice::Bind(sub, t, binds) => Ok(PlanNode::bind_join(
            materialize_bushy(best, *sub)?,
            *t,
            binds.clone(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::QuerySpace;
    use payless_sql::{analyze, parse, Catalog, MapCatalog, TableLocation};
    use payless_types::{Column, Domain, Schema, Value};
    use std::collections::HashMap;

    /// Figure 1's WHW setting: Station (3,962 rows; 788 US stations) and
    /// Weather (one row per station per day), plus Table 1's Pollution
    /// (44,210 zip codes) and the local ZipMap for Q5.
    struct Fixture {
        catalog: MapCatalog,
        stats: StatsRegistry,
        store: SemanticStore,
        meta: HashMap<String, u64>,
    }

    fn whw_fixture() -> Fixture {
        let countries = Domain::categorical(["United States", "Canada"]);
        let cities: Vec<String> = (0..100).map(|i| format!("City{i}")).collect();
        let station = Schema::new(
            "Station",
            vec![
                Column::free("Country", countries.clone()),
                Column::free("StationID", Domain::int(1, 4000)),
                Column::free("City", Domain::categorical(cities.clone())),
            ],
        );
        let weather = Schema::new(
            "Weather",
            vec![
                Column::free("Country", countries),
                Column::free("StationID", Domain::int(1, 4000)),
                Column::free("Date", Domain::int(20140601, 20140630)),
                Column::output("Temperature", Domain::int(-60, 60)),
            ],
        );
        let zips = Domain::int(10_000, 54_209);
        let pollution = Schema::new(
            "Pollution",
            vec![
                Column::free("ZipCode", zips.clone()),
                Column::free("Rank", Domain::int(1, 100)),
                Column::output("Latitude", Domain::int(-90, 90)),
            ],
        );
        let zipmap = Schema::new(
            "ZipMap",
            vec![
                Column::free("ZipCode", zips),
                Column::free("City", Domain::categorical(cities)),
            ],
        );
        let catalog = MapCatalog::new()
            .with(station.clone(), TableLocation::Market)
            .with(weather.clone(), TableLocation::Market)
            .with(pollution.clone(), TableLocation::Market)
            .with(zipmap.clone(), TableLocation::Local);
        let mut stats = StatsRegistry::new();
        stats.register(&station, 3962);
        stats.register(&weather, 3962 * 30);
        stats.register(&pollution, 44_210);
        stats.register(&zipmap, 44_210);
        let mut store = SemanticStore::new();
        store.register(QuerySpace::of(&station));
        store.register(QuerySpace::of(&weather));
        store.register(QuerySpace::of(&pollution));
        let mut meta = HashMap::new();
        meta.insert("Station".to_string(), 100u64);
        meta.insert("Weather".to_string(), 100u64);
        meta.insert("Pollution".to_string(), 100u64);
        Fixture {
            catalog,
            stats,
            store,
            meta,
        }
    }

    fn q1(f: &Fixture) -> AnalyzedQuery {
        let stmt = parse(
            "SELECT Temperature FROM Station, Weather \
             WHERE City = 'City7' AND Country = 'United States' AND \
             Date >= 20140601 AND Date <= 20140630 AND \
             Station.StationID = Weather.StationID",
        )
        .unwrap();
        analyze(&stmt, &f.catalog).unwrap()
    }

    /// Table 1's Q5: four tables, ZipMap local, joined in a chain
    /// Pollution – ZipMap – Station – Weather.
    fn q5(f: &Fixture) -> AnalyzedQuery {
        let stmt = parse(
            "SELECT * FROM Pollution, Station, Weather, ZipMap WHERE \
             Station.Country = Weather.Country = 'United States' AND \
             Weather.Date >= 20140601 AND Weather.Date <= 20140610 AND \
             Pollution.Rank >= 40 AND Pollution.Rank <= 45 AND \
             Pollution.ZipCode = ZipMap.ZipCode AND ZipMap.City = Station.City AND \
             Station.StationID = Weather.StationID",
        )
        .unwrap();
        analyze(&stmt, &f.catalog).unwrap()
    }

    /// Every join of a left-deep spine either has a join edge into its left
    /// side or is a bind join (whose bindings name the attributes joined):
    /// no join multiplies two unrelated inputs.
    fn assert_spine_connected(q: &AnalyzedQuery, plan: &PlanNode) {
        let edge = |a: &[usize], b: &[usize]| {
            q.joins.iter().any(|e| {
                (a.contains(&e.left.0) && b.contains(&e.right.0))
                    || (a.contains(&e.right.0) && b.contains(&e.left.0))
            })
        };
        match plan {
            PlanNode::Access { .. } => {}
            PlanNode::Join { left, right } => {
                assert!(
                    edge(&left.tables(), &right.tables()),
                    "cross product in {plan}"
                );
                assert_spine_connected(q, left);
            }
            PlanNode::BindJoin { left, binds, .. } => {
                assert!(!binds.is_empty(), "bind join without bindings in {plan}");
                assert_spine_connected(q, left);
            }
        }
    }

    #[test]
    fn q5_buying_plan_joins_only_related_tables() {
        let f = whw_fixture();
        let q = q5(&f);
        let out = optimize(
            &q,
            &f.stats,
            &f.store,
            &f.meta,
            &OptimizerConfig::payless(),
            0,
        )
        .unwrap();
        assert!(out.plan.is_left_deep());
        assert_spine_connected(&q, &out.plan);
        // Local work only breaks ties: the plan is estimated to pay what
        // the first-enumerated order paid, bit for bit (pinned from commit
        // 3c7f612).
        let bits = (out.cost.primary.to_bits(), out.cost.secondary.to_bits());
        assert_eq!(bits, (0x406e_c000_0000_0000, 0x40d7_dee6_6666_6666));
    }

    #[test]
    fn q5_covered_plan_joins_only_related_tables() {
        let f = whw_fixture();
        let mut store = f.store.clone();
        for table in ["Station", "Weather", "Pollution"] {
            let space = store.space(table).unwrap().clone();
            store.record(table, space.full_region(), 0);
        }
        let q = q5(&f);
        let out = optimize(
            &q,
            &f.stats,
            &store,
            &f.meta,
            &OptimizerConfig::payless(),
            1,
        )
        .unwrap();
        assert_eq!(out.counters.theorem2_hoisted, 4, "every table is free");
        assert!(out.plan.is_left_deep());
        assert_spine_connected(&q, &out.plan);
        assert_eq!(
            (out.cost.primary.to_bits(), out.cost.secondary.to_bits()),
            (0, 0)
        );
    }

    #[test]
    fn figure1_bind_join_wins_when_stations_are_many() {
        // 3962 stations over 2 countries, ~1981 in the US, ~20 per city:
        // fetching all US June weather is ~594 transactions, bind-joining
        // ~20 stations x 30 days is ~20. PayLess must pick plan P2.
        let f = whw_fixture();
        let q = q1(&f);
        let out = optimize(
            &q,
            &f.stats,
            &f.store,
            &f.meta,
            &OptimizerConfig::payless(),
            0,
        )
        .unwrap();
        let weather = q.table_index("Weather").unwrap();
        assert!(
            matches!(&out.plan, PlanNode::BindJoin { table, .. } if *table == weather),
            "expected bind join on Weather, got {}",
            out.plan
        );
        assert!(out.plan.is_left_deep());
        assert!(out.cost.primary < 100.0, "cost {:?}", out.cost);
    }

    #[test]
    fn introspection_annotates_every_operator_in_preorder() {
        let f = whw_fixture();
        let q = q1(&f);
        let base = optimize(
            &q,
            &f.stats,
            &f.store,
            &f.meta,
            &OptimizerConfig::payless(),
            0,
        )
        .unwrap();
        assert!(base.ops.is_empty(), "annotations are opt-in");
        let cfg = OptimizerConfig {
            introspect: true,
            ..OptimizerConfig::payless()
        };
        let out = optimize(&q, &f.stats, &f.store, &f.meta, &cfg, 0).unwrap();
        // Introspection must not change the search outcome or its effort.
        assert_eq!(out.plan, base.plan);
        assert_eq!(out.cost.primary.to_bits(), base.cost.primary.to_bits());
        assert_eq!(
            out.counters.plans_considered,
            base.counters.plans_considered
        );
        assert_eq!(
            out.counters.boxes_enumerated,
            base.counters.boxes_enumerated
        );

        assert_eq!(out.ops.len(), out.plan.node_count());
        for (i, op) in out.ops.iter().enumerate() {
            assert_eq!(op.id, i, "ids are the pre-order index");
        }
        let root = &out.ops[0];
        assert!(root.parent.is_none());
        assert!(root.label.contains("bind-join"), "{}", root.label);
        assert!(root.est.pages > 0.0);
        assert_eq!(root.est.uncovered_fraction, Some(1.0), "empty store");
        for op in &out.ops[1..] {
            assert!(op.parent.expect("non-root has parent") < op.id);
        }
        // The per-operator page estimates decompose the plan's cost.
        let sum: f64 = out.ops.iter().map(|o| o.est.pages).sum();
        assert!(
            (sum - out.cost.primary).abs() < 1e-6,
            "{sum} vs {:?}",
            out.cost
        );
    }

    #[test]
    fn figure1_fetch_wins_when_stations_are_few() {
        // Shrink the world: 20 stations total. Downloading US June weather
        // costs ~ceil(10*30/100) = 3-ish transactions; a bind join would pay
        // one call per city station. Fetch should win (the paper's P1 case).
        let countries = Domain::categorical(["United States", "Canada"]);
        let station = Schema::new(
            "Station",
            vec![
                Column::free("Country", countries.clone()),
                Column::free("StationID", Domain::int(1, 20)),
                Column::free("City", Domain::categorical(["Seattle", "Boston"])),
            ],
        );
        let weather = Schema::new(
            "Weather",
            vec![
                Column::free("Country", countries),
                Column::free("StationID", Domain::int(1, 20)),
                Column::free("Date", Domain::int(20140601, 20140630)),
                Column::output("Temperature", Domain::int(-60, 60)),
            ],
        );
        let catalog = MapCatalog::new()
            .with(station.clone(), TableLocation::Market)
            .with(weather.clone(), TableLocation::Market);
        let mut stats = StatsRegistry::new();
        stats.register(&station, 20);
        stats.register(&weather, 600);
        let mut store = SemanticStore::new();
        store.register(QuerySpace::of(&station));
        store.register(QuerySpace::of(&weather));
        let mut meta = HashMap::new();
        meta.insert("Station".to_string(), 100u64);
        meta.insert("Weather".to_string(), 100u64);

        let stmt = parse(
            "SELECT Temperature FROM Station, Weather \
             WHERE City = 'Seattle' AND Country = 'United States' AND \
             Station.StationID = Weather.StationID",
        )
        .unwrap();
        let q = analyze(&stmt, &catalog).unwrap();
        let out = optimize(&q, &stats, &store, &meta, &OptimizerConfig::payless(), 0).unwrap();
        // Weather must be fetched directly (plan P1): no bind join anywhere.
        match &out.plan {
            PlanNode::Join { left, right } => {
                assert!(matches!(**left, PlanNode::Access { .. }));
                assert!(matches!(**right, PlanNode::Access { .. }));
            }
            other => panic!("expected plain join plan, got {other}"),
        }
    }

    /// The Theorem-1 example: U(xᶠ,yᶠ), R(yᵇ,zᶠ), S(tᶠ,wᶠ), T(wᵇ,zᶠ).
    fn bound_fixture() -> (
        MapCatalog,
        StatsRegistry,
        SemanticStore,
        HashMap<String, u64>,
    ) {
        let u = Schema::new(
            "U",
            vec![
                Column::free("x", Domain::int(0, 99)),
                Column::free("y", Domain::int(0, 99)),
            ],
        );
        let r = Schema::new(
            "R",
            vec![
                Column::bound("y", Domain::int(0, 99)),
                Column::free("z", Domain::int(0, 99)),
            ],
        );
        let s = Schema::new(
            "S",
            vec![
                Column::free("t", Domain::int(0, 99)),
                Column::free("w", Domain::int(0, 99)),
            ],
        );
        let t = Schema::new(
            "T",
            vec![
                Column::bound("w", Domain::int(0, 99)),
                Column::free("z", Domain::int(0, 99)),
            ],
        );
        let catalog = MapCatalog::new()
            .with(u.clone(), TableLocation::Market)
            .with(r.clone(), TableLocation::Market)
            .with(s.clone(), TableLocation::Market)
            .with(t.clone(), TableLocation::Market);
        let mut stats = StatsRegistry::new();
        for schema in [&u, &r, &s, &t] {
            stats.register(schema, 1000);
        }
        let mut store = SemanticStore::new();
        for schema in [&u, &r, &s, &t] {
            store.register(QuerySpace::of(schema));
        }
        let mut meta = HashMap::new();
        for name in ["U", "R", "S", "T"] {
            meta.insert(name.to_string(), 100u64);
        }
        (catalog, stats, store, meta)
    }

    #[test]
    fn bound_attributes_force_bind_joins() {
        let (catalog, stats, store, meta) = bound_fixture();
        let stmt = parse(
            "SELECT * FROM U, R, S, T \
             WHERE U.y = R.y AND S.w = T.w AND R.z = T.z",
        )
        .unwrap();
        let q = analyze(&stmt, &catalog).unwrap();
        let out = optimize(&q, &stats, &store, &meta, &OptimizerConfig::payless(), 0).unwrap();
        assert!(out.plan.is_left_deep());
        assert_eq!(out.plan.leaf_count(), 4);
        // R and T can only be reached through bind joins.
        let plan_str = out.plan.to_string();
        assert!(plan_str.contains("⋈→"), "plan: {plan_str}");
    }

    #[test]
    fn infeasible_when_bound_attribute_unreachable() {
        let (catalog, stats, store, meta) = bound_fixture();
        // Query R alone: its bound attribute y is never supplied.
        let stmt = parse("SELECT * FROM R WHERE z >= 5 AND z <= 10").unwrap();
        let q = analyze(&stmt, &catalog).unwrap();
        let err = optimize(&q, &stats, &store, &meta, &OptimizerConfig::payless(), 0);
        assert!(matches!(err, Err(PaylessError::Infeasible(_))));
    }

    #[test]
    fn bound_attribute_with_explicit_value_is_fetchable() {
        let (catalog, stats, store, meta) = bound_fixture();
        let stmt = parse("SELECT * FROM R WHERE y = 7").unwrap();
        let q = analyze(&stmt, &catalog).unwrap();
        let out = optimize(&q, &stats, &store, &meta, &OptimizerConfig::payless(), 0).unwrap();
        assert_eq!(out.plan, PlanNode::access(0, AccessMethod::Fetch));
    }

    #[test]
    fn theorem_toggles_are_lossless_and_monotone() {
        // Chain query with two covered (zero-price) tables: disabling
        // Theorem 2 and/or Theorem 3 must not change the optimal cost, and
        // must not shrink the number of candidates considered.
        let f = whw_fixture();
        let mut store = f.store.clone();
        let sspace = store.space("Station").unwrap().clone();
        store.record("Station", sspace.full_region(), 0);
        let q = q1(&f);
        let variants = [
            OptimizerConfig::payless(),
            OptimizerConfig {
                zero_price_first: false,
                ..OptimizerConfig::payless()
            },
            OptimizerConfig {
                partition_pruning: false,
                ..OptimizerConfig::payless()
            },
            OptimizerConfig {
                zero_price_first: false,
                partition_pruning: false,
                ..OptimizerConfig::payless()
            },
        ];
        let outs: Vec<_> = variants
            .iter()
            .map(|cfg| optimize(&q, &f.stats, &store, &f.meta, cfg, 1).unwrap())
            .collect();
        for o in &outs {
            assert!(
                (o.cost.primary - outs[0].cost.primary).abs() < 1e-6,
                "cost changed under ablation: {} vs {}",
                o.cost.primary,
                outs[0].cost.primary
            );
        }
        // Full PayLess considers the fewest candidates.
        for o in &outs[1..] {
            assert!(outs[0].counters.plans_considered <= o.counters.plans_considered);
        }
    }

    #[test]
    fn theorem3_reduces_candidates_vs_bushy() {
        let (catalog, stats, store, meta) = bound_fixture();
        // U-R connected; S-T connected; the two pairs are disconnected.
        let stmt = parse("SELECT * FROM U, R, S, T WHERE U.y = R.y AND S.w = T.w").unwrap();
        let q = analyze(&stmt, &catalog).unwrap();
        let ld = optimize(
            &q,
            &stats,
            &store,
            &meta,
            &OptimizerConfig::payless_no_sqr(),
            0,
        )
        .unwrap();
        let bu = optimize(
            &q,
            &stats,
            &store,
            &meta,
            &OptimizerConfig::disable_all(),
            0,
        )
        .unwrap();
        assert!(
            ld.counters.plans_considered < bu.counters.plans_considered,
            "left-deep {} !< bushy {}",
            ld.counters.plans_considered,
            bu.counters.plans_considered
        );
        // And the reduced search space does not lose the optimum.
        assert!(ld.cost.primary <= bu.cost.primary + 1e-9);
    }

    #[test]
    fn zero_price_tables_lead_the_plan() {
        let f = whw_fixture();
        let mut store = f.store.clone();
        // Cover Station's whole space: it becomes zero-price.
        let station_space = store.space("Station").unwrap().clone();
        store.record("Station", station_space.full_region(), 0);
        let q = q1(&f);
        let out = optimize(
            &q,
            &f.stats,
            &store,
            &f.meta,
            &OptimizerConfig::payless(),
            1,
        )
        .unwrap();
        let tables = out.plan.tables();
        assert_eq!(tables[0], q.table_index("Station").unwrap());
    }

    #[test]
    fn min_calls_prefers_single_fetch_over_bind_join() {
        // The paper's Section 1 observation: a calls-minimizing optimizer
        // picks P1 (2 calls) over P2 (1 + #stations calls) even though P2 is
        // far cheaper in transactions.
        let f = whw_fixture();
        let q = q1(&f);
        let mc = optimize(
            &q,
            &f.stats,
            &f.store,
            &f.meta,
            &OptimizerConfig::min_calls(),
            0,
        )
        .unwrap();
        let weather = q.table_index("Weather").unwrap();
        fn has_bind(p: &PlanNode, t: usize) -> bool {
            match p {
                PlanNode::Access { .. } => false,
                PlanNode::Join { left, right } => has_bind(left, t) || has_bind(right, t),
                PlanNode::BindJoin { left, table, .. } => *table == t || has_bind(left, t),
            }
        }
        assert!(!has_bind(&mc.plan, weather), "MinCalls chose a bind join");
        // While PayLess does bind-join and pays less (estimated).
        let pl = optimize(
            &q,
            &f.stats,
            &f.store,
            &f.meta,
            &OptimizerConfig::payless_no_sqr(),
            0,
        )
        .unwrap();
        assert!(pl.cost.primary < mc_transactions(&f, &q, &mc.plan) + 1e-9);
    }

    /// Estimate a plan's transaction cost (for cross-model comparisons).
    fn mc_transactions(f: &Fixture, q: &AnalyzedQuery, plan: &PlanNode) -> f64 {
        let ctx = CostCtx::new(
            q,
            &f.stats,
            &f.store,
            &f.meta,
            Consistency::Weak,
            0,
            false,
            RewriteConfig::default(),
            CostModel::Transactions,
        )
        .unwrap();
        fn walk(ctx: &CostCtx<'_>, p: &PlanNode) -> f64 {
            match p {
                PlanNode::Access { table, .. } => ctx
                    .fetch_cost(*table)
                    .map(|c| c.primary)
                    .unwrap_or(f64::INFINITY),
                PlanNode::Join { left, right } => walk(ctx, left) + walk(ctx, right),
                PlanNode::BindJoin { left, table, binds } => {
                    let lt = left.tables();
                    let lrows = ctx.est_join_rows(&lt);
                    walk(ctx, left) + ctx.bind_cost(*table, binds, lrows).primary
                }
            }
        }
        walk(&ctx, plan)
    }

    #[test]
    fn unsatisfiable_query_is_rejected() {
        let f = whw_fixture();
        let stmt = parse("SELECT * FROM Station WHERE City = 'City1' AND City = 'City2'").unwrap();
        let q = analyze(&stmt, &f.catalog).unwrap();
        assert!(q.unsatisfiable);
        assert!(matches!(
            optimize(
                &q,
                &f.stats,
                &f.store,
                &f.meta,
                &OptimizerConfig::payless(),
                0
            ),
            Err(PaylessError::Infeasible(_))
        ));
    }

    #[test]
    fn sqr_lowers_estimated_cost_after_coverage() {
        let f = whw_fixture();
        let q = q1(&f);
        let before = optimize(
            &q,
            &f.stats,
            &f.store,
            &f.meta,
            &OptimizerConfig::payless(),
            0,
        )
        .unwrap();
        // Cover all of Weather: the whole query should now cost ~0.
        let mut store = f.store.clone();
        let wspace = store.space("Weather").unwrap().clone();
        store.record("Weather", wspace.full_region(), 0);
        let sspace = store.space("Station").unwrap().clone();
        store.record("Station", sspace.full_region(), 0);
        let after = optimize(
            &q,
            &f.stats,
            &store,
            &f.meta,
            &OptimizerConfig::payless(),
            1,
        )
        .unwrap();
        assert!(after.cost.primary <= 1e-9);
        assert!(before.cost.primary > 0.0);
    }

    #[test]
    fn catalog_is_object_safe_for_optimizer_flow() {
        // Regression guard: the whole flow works through trait objects.
        let f = whw_fixture();
        let cat: &dyn Catalog = &f.catalog;
        let stmt = parse("SELECT * FROM Station WHERE Country = 'Canada'").unwrap();
        let q = analyze(&stmt, cat).unwrap();
        let out = optimize(
            &q,
            &f.stats,
            &f.store,
            &f.meta,
            &OptimizerConfig::payless(),
            0,
        )
        .unwrap();
        assert_eq!(out.plan.leaf_count(), 1);
        assert_eq!(
            q.tables[0].access.on(0),
            Some(&payless_sql::AccessConstraint::One(
                payless_types::Constraint::Eq(Value::str("Canada"))
            ))
        );
    }

    /// An n-table chain query (C0 ⋈ C1 ⋈ ... on b = a) with trained
    /// per-table histograms.
    fn chain_fixture(
        n: usize,
    ) -> (
        AnalyzedQuery,
        StatsRegistry,
        SemanticStore,
        HashMap<String, u64>,
    ) {
        let mut catalog = MapCatalog::new();
        let mut stats = StatsRegistry::new();
        let mut store = SemanticStore::new();
        let mut meta = HashMap::new();
        for i in 0..n {
            let schema = Schema::new(
                format!("C{i}"),
                vec![
                    Column::free("a", Domain::int(0, 999)),
                    Column::free("b", Domain::int(0, 999)),
                ],
            );
            catalog = catalog.with(schema.clone(), TableLocation::Market);
            stats.register(&schema, 10_000);
            for k in 0..24i64 {
                let lo0 = (k * 53) % 900;
                let lo1 = (k * 97) % 900;
                stats.feedback(
                    &schema.table,
                    &payless_geometry::region![(lo0, lo0 + 24), (lo1, lo1 + 24)],
                    40,
                );
            }
            store.register(QuerySpace::of(&schema));
            meta.insert(schema.table.to_string(), 100u64);
        }
        let tables: Vec<String> = (0..n).map(|i| format!("C{i}")).collect();
        let joins: Vec<String> = (0..n - 1)
            .map(|i| format!("C{i}.b = C{}.a", i + 1))
            .collect();
        let sql = format!(
            "SELECT * FROM {} WHERE {}",
            tables.join(", "),
            joins.join(" AND ")
        );
        let q = analyze(&parse(&sql).unwrap(), &catalog).unwrap();
        (q, stats, store, meta)
    }

    /// Plans, cost bits and search effort pinned from commit bd3e241 (the
    /// popcount-level DP). A reordering of the mask walk that changes a plan,
    /// flips a tie-break or costs a different number of candidates fails
    /// here. Every table of the chain costs the same money, and every
    /// connected order builds intermediates of the same estimated size, so
    /// C_out rules out only the orders through a Cartesian product (e.g. a
    /// Theorem-3 composition of two chain pieces); among the connected
    /// orders left, the first enumerated wins.
    #[test]
    fn golden_plans_are_unchanged() {
        // (tables, config, plan, (primary, secondary) cost bits, plans considered)
        type Row = (usize, &'static str, &'static str, (u64, u64), u64);
        const PLAN_6: &str = "(((((T5 ⋈ T4) ⋈ T3) ⋈ T2) ⋈ T1) ⋈ T0)";
        const PLAN_8: &str = "(((((((T7 ⋈ T6) ⋈ T5) ⋈ T4) ⋈ T3) ⋈ T2) ⋈ T1) ⋈ T0)";
        const COST_6: (u64, u64) = (0x4082_c000_0000_0000, 0x40ed_4c00_0000_0000);
        const COST_8: (u64, u64) = (0x4089_0000_0000_0000, 0x40f3_8800_0000_0000);
        const GOLDEN: &[Row] = &[
            (6, "payless", PLAN_6, COST_6, 194),
            (6, "payless_no_sqr", PLAN_6, COST_6, 194),
            (6, "disable_all", PLAN_6, COST_6, 800),
            (8, "payless", PLAN_8, COST_8, 571),
            (8, "payless_no_sqr", PLAN_8, COST_8, 571),
            (8, "disable_all", PLAN_8, COST_8, 7146),
        ];
        for &(n, name, plan, cost, plans_considered) in GOLDEN {
            let cfg = match name {
                "payless" => OptimizerConfig::payless(),
                "payless_no_sqr" => OptimizerConfig::payless_no_sqr(),
                _ => OptimizerConfig::disable_all(),
            };
            let (q, stats, store, meta) = chain_fixture(n);
            let out = optimize(&q, &stats, &store, &meta, &cfg, 0).unwrap();
            let got = (out.cost.primary.to_bits(), out.cost.secondary.to_bits());
            assert_eq!(out.plan.to_string(), plan, "{n} tables, {name}");
            assert_eq!(got, cost, "{n} tables, {name}");
            assert_eq!(
                out.counters.plans_considered, plans_considered,
                "{n} tables, {name}"
            );
        }
    }
}
