//! Unit tests for the cost machinery (`CostCtx`): feasibility rules, bind
//! options, region expansion, and the Cost ordering.

use std::collections::HashMap;

use payless_geometry::QuerySpace;
use payless_semantic::{Consistency, RewriteConfig, SemanticStore};
use payless_sql::{analyze, parse, MapCatalog, TableLocation};
use payless_stats::StatsRegistry;
use payless_types::{Column, Domain, Schema};

use crate::cost::{required_regions, Cost, CostCtx, CostModel};

struct Rig {
    catalog: MapCatalog,
    stats: StatsRegistry,
    store: SemanticStore,
    meta: HashMap<String, u64>,
}

fn rig() -> Rig {
    let a = Schema::new(
        "A",
        vec![
            Column::free("k", Domain::int(0, 99)),
            Column::free("c", Domain::categorical(["x", "y", "z"])),
        ],
    );
    let b = Schema::new(
        "B",
        vec![
            Column::bound("k", Domain::int(0, 99)),
            Column::free("v", Domain::int(0, 999)),
        ],
    );
    let l = Schema::new("L", vec![Column::free("k", Domain::int(0, 99))]);
    let mut catalog = MapCatalog::new();
    let mut stats = StatsRegistry::new();
    let mut store = SemanticStore::new();
    let mut meta = HashMap::new();
    for (s, loc) in [
        (&a, TableLocation::Market),
        (&b, TableLocation::Market),
        (&l, TableLocation::Local),
    ] {
        catalog.add(s.clone(), loc);
        stats.register(s, 1000);
        store.register(QuerySpace::of(s));
        meta.insert(s.table.to_string(), 100u64);
    }
    Rig {
        catalog,
        stats,
        store,
        meta,
    }
}

fn ctx<'a>(r: &'a Rig, q: &'a payless_sql::AnalyzedQuery, sqr: bool) -> CostCtx<'a> {
    CostCtx::new(
        q,
        &r.stats,
        &r.store,
        &r.meta,
        Consistency::Weak,
        0,
        sqr,
        RewriteConfig::default(),
        CostModel::Transactions,
    )
    .unwrap()
}

#[test]
fn cost_ordering_lexicographic() {
    let cost = |primary: f64, secondary: f64, local: f64| Cost {
        primary,
        secondary,
        local,
    };
    let a = cost(1.0, 100.0, 0.0);
    let b = cost(2.0, 1.0, 0.0);
    assert!(a.better_than(&b));
    assert!(!b.better_than(&a));
    let c = cost(1.0, 50.0, 0.0);
    assert!(c.better_than(&a));
    assert!(!a.better_than(&c));
    // Epsilon: float noise on primary does not flip a secondary win.
    let d = cost(1.0 + 1e-12, 50.0, 0.0);
    assert!(d.better_than(&a));
    assert_eq!(Cost::ZERO.plus(a).primary, 1.0);
    // Local work is consulted only when both money keys tie.
    let lean = cost(1.0, 50.0, 10.0);
    let heavy = cost(1.0, 50.0, 1e9);
    assert!(lean.better_than(&heavy));
    assert!(!heavy.better_than(&lean));
    assert!(cost(1.0, 49.0, 1e9).better_than(&lean));
    assert!(cost(0.5, 99.0, 1e9).better_than(&lean));
    // Relative epsilon: rounding noise on a large C_out is a tie.
    let big = cost(1.0, 50.0, 3e9);
    assert!(!cost(1.0, 50.0, 3e9 - 1e-3).better_than(&big));
    assert!(cost(1.0, 50.0, 3e9 - 10.0).better_than(&big));
    assert_eq!(lean.plus(heavy).local, 1e9 + 10.0);
}

#[test]
fn local_tables_are_zero_price_and_fetchable() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM L WHERE k >= 5 AND k <= 10").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    assert!(c.zero_price(0));
    assert!(c.fetch_feasible(0));
    assert_eq!(c.fetch_cost(0), Some(Cost::ZERO));
}

#[test]
fn bound_table_infeasible_without_binding() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM B WHERE v >= 1 AND v <= 10").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    assert!(!c.fetch_feasible(0));
    assert_eq!(c.fetch_cost(0), None);
    assert!(c.bind_options(0, &[]).is_empty());
}

#[test]
fn bound_table_feasible_with_range() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM B WHERE k >= 5 AND k <= 20").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    assert!(c.fetch_feasible(0));
    let cost = c.fetch_cost(0).unwrap();
    // 16% of 1000 tuples = 160 -> 2 transactions at page 100.
    assert_eq!(cost.primary, 2.0);
}

#[test]
fn bind_options_cover_mandatory_and_subsets() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM A, B WHERE A.k = B.k AND B.v >= 0 AND B.v <= 99").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    let b_tid = q.table_index("B").unwrap();
    let a_tid = q.table_index("A").unwrap();
    let options = c.bind_options(b_tid, &[a_tid]);
    // k is mandatory-and-unconstrained: every option must include it, and
    // with no optional columns there is exactly one option.
    assert_eq!(options.len(), 1);
    assert_eq!(options[0].len(), 1);
    assert_eq!(options[0][0].right_col, 0);
    // No options when the left side lacks the join column's table.
    assert!(c.bind_options(b_tid, &[]).is_empty());
}

#[test]
fn bind_options_enumerate_optional_subsets() {
    // Two optional binding columns -> 3 non-empty subsets.
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM L, A WHERE L.k = A.k").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    let a_tid = q.table_index("A").unwrap();
    let l_tid = q.table_index("L").unwrap();
    let options = c.bind_options(a_tid, &[l_tid]);
    // One optional column (k on A) -> exactly one non-empty subset.
    assert_eq!(options.len(), 1);
}

#[test]
fn zero_price_after_full_coverage() {
    let mut r = rig();
    let space = r.store.space("A").unwrap().clone();
    r.store.record("A", space.full_region(), 0);
    let q = analyze(&parse("SELECT * FROM A").unwrap(), &r.catalog).unwrap();
    let c = ctx(&r, &q, true);
    assert!(c.zero_price(0));
    // …but not with SQR disabled.
    let c2 = ctx(&r, &q, false);
    assert!(!c2.zero_price(0));
}

#[test]
fn required_regions_expand_disjunctions() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM A WHERE (c = 'x' OR c = 'z') AND k >= 0 AND k <= 49").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let space = r.stats.table("A").unwrap().space();
    let regions = required_regions(space, &q.tables[0].access).unwrap();
    assert_eq!(regions.len(), 2);
    for region in &regions {
        assert_eq!(region.dim(0), payless_geometry::Interval::new(0, 49));
        assert_eq!(region.dim(1).width(), 1);
    }
}

#[test]
fn estimates_follow_uniformity_before_feedback() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM A WHERE k >= 0 AND k <= 9").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    // 10% of the k-domain, all categories: 100 of 1000 tuples.
    assert!((c.table_rows(0) - 100.0).abs() < 1e-6);
    // Distinct k values in the region: min(10, 100) = 10.
    assert!((c.col_distinct(0, 0) - 10.0).abs() < 1e-6);
    // Distinct categories: min(3, 100) = 3.
    assert!((c.col_distinct(0, 1) - 3.0).abs() < 1e-6);
}

#[test]
fn join_rows_use_edge_selectivity() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM L, A WHERE L.k = A.k").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    let rows = c.est_join_rows(&[0, 1]);
    // 1000 x 1000 / max(100 distinct, 100 distinct) = 10_000.
    assert!((rows - 10_000.0).abs() < 1e-6);
    // Without the edge (single tables), it is just the cardinalities.
    assert!((c.est_join_rows(&[0]) - 1000.0).abs() < 1e-6);
    assert!((c.est_join_rows(&[]) - 1.0).abs() < 1e-6);
}

#[test]
fn bind_cost_zero_when_region_fully_covered() {
    let mut r = rig();
    let space = r.store.space("A").unwrap().clone();
    r.store.record("A", space.full_region(), 0);
    let q = analyze(
        &parse("SELECT * FROM L, A WHERE L.k = A.k").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = ctx(&r, &q, true);
    let a_tid = q.table_index("A").unwrap();
    let l_tid = q.table_index("L").unwrap();
    let binds = c.bind_options(a_tid, &[l_tid]).remove(0);
    let cost = c.bind_cost(a_tid, &binds, 1000.0);
    assert_eq!(cost.primary, 0.0);
}

#[test]
fn calls_model_counts_calls_not_transactions() {
    let r = rig();
    let q = analyze(
        &parse("SELECT * FROM A WHERE (c = 'x' OR c = 'y')").unwrap(),
        &r.catalog,
    )
    .unwrap();
    let c = CostCtx::new(
        &q,
        &r.stats,
        &r.store,
        &r.meta,
        Consistency::Weak,
        0,
        false,
        RewriteConfig::default(),
        CostModel::Calls,
    )
    .unwrap();
    let cost = c.fetch_cost(0).unwrap();
    // Two disjuncts -> two calls, regardless of record volume.
    assert_eq!(cost.primary, 2.0);
}
