//! Oracle equivalence: every system variant must return exactly the rows a
//! direct evaluation over the raw seller-side data returns.
//!
//! The oracle below re-implements query evaluation from the analyzed query
//! alone — full tables, left-fold joins, residuals, aggregation — sharing
//! only the low-level relational operators with the engine under test.

use std::collections::HashMap;
use std::sync::Arc;

use payless_core::{Mode, PayLess};
use payless_sql::{
    analyze, AccessConstraint, AnalyzedQuery, MapCatalog, OutputItem, ResidualPred, TableLocation,
};
use payless_storage::{aggregate, cross_join, distinct, hash_join, project, sort_by, AggSpec};
use payless_types::{Row, Value};
use payless_workload::{
    build_market, Finance, FinanceConfig, QueryWorkload, RealWorkload, Tpch, TpchConfig, WhwConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Direct evaluation of an analyzed query over full tables.
fn oracle(query: &AnalyzedQuery, tables: &HashMap<String, Vec<Row>>) -> Vec<Row> {
    // Filter each table by its access constraints.
    let filtered: Vec<Vec<Row>> = query
        .tables
        .iter()
        .map(|t| {
            tables[&t.name.to_string()]
                .iter()
                .filter(|r| {
                    t.access.constraints.iter().all(|(col, ac)| match ac {
                        AccessConstraint::One(c) => c.matches(r.get(*col)),
                        AccessConstraint::AnyOf(vs) => vs.contains(r.get(*col)),
                    })
                })
                .cloned()
                .collect()
        })
        .collect();
    if query.unsatisfiable {
        return Vec::new();
    }

    // Left-fold joins in FROM order.
    let mut layout: Vec<usize> = vec![0];
    let mut rows = filtered[0].clone();
    let offset = |layout: &[usize], tid: usize, col: usize| -> usize {
        let mut off = 0;
        for &t in layout {
            if t == tid {
                return off + col;
            }
            off += query.tables[t].schema.arity();
        }
        unreachable!("table {tid} not in layout");
    };
    #[allow(clippy::needless_range_loop)] // tid doubles as the table id, not just an index
    for tid in 1..query.tables.len() {
        let mut lk = Vec::new();
        let mut rk = Vec::new();
        for e in &query.joins {
            let (l, r) = if layout.contains(&e.left.0) && e.right.0 == tid {
                (e.left, e.right)
            } else if layout.contains(&e.right.0) && e.left.0 == tid {
                (e.right, e.left)
            } else {
                continue;
            };
            lk.push(offset(&layout, l.0, l.1));
            rk.push(r.1);
        }
        rows = if lk.is_empty() {
            cross_join(&rows, &filtered[tid])
        } else {
            hash_join(&rows, &filtered[tid], &lk, &rk)
        };
        layout.push(tid);
    }

    // Residuals.
    for p in &query.residuals {
        match p {
            ResidualPred::CmpValue {
                table,
                col,
                op,
                value,
            } => {
                let o = offset(&layout, *table, *col);
                rows.retain(|r| op.eval(r.get(o), value));
            }
            ResidualPred::CmpCols {
                table,
                left,
                op,
                right,
            } => {
                let lo = offset(&layout, *table, *left);
                let ro = offset(&layout, *table, *right);
                rows.retain(|r| op.eval(r.get(lo), r.get(ro)));
            }
        }
    }

    // Output shaping.
    let grouped = !query.group_by.is_empty() || query.has_aggregates();
    let mut out;
    if grouped {
        let keys: Vec<usize> = query
            .group_by
            .iter()
            .map(|&(t, c)| offset(&layout, t, c))
            .collect();
        let mut aggs = Vec::new();
        for item in &query.output {
            if let OutputItem::Agg { func, arg } = item {
                aggs.push(AggSpec {
                    func: *func,
                    col: arg.map(|(t, c)| offset(&layout, t, c)),
                });
            }
        }
        let agg_rows = aggregate(&rows, &keys, &aggs);
        let mut positions = Vec::new();
        let mut ai = 0;
        for item in &query.output {
            match item {
                OutputItem::Column { table, col } => positions.push(
                    query
                        .group_by
                        .iter()
                        .position(|g| g == &(*table, *col))
                        .unwrap(),
                ),
                OutputItem::Agg { .. } => {
                    positions.push(keys.len() + ai);
                    ai += 1;
                }
            }
        }
        out = project(&agg_rows, &positions);
    } else {
        let positions: Vec<usize> = query
            .output
            .iter()
            .map(|item| match item {
                OutputItem::Column { table, col } => offset(&layout, *table, *col),
                OutputItem::Agg { .. } => unreachable!(),
            })
            .collect();
        out = project(&rows, &positions);
    }
    if query.distinct {
        out = distinct(&out);
    }
    let arity = out.first().map_or(0, Row::arity);
    sort_by(&mut out, &(0..arity).collect::<Vec<_>>());
    out
}

/// Run `n_instances` random instances of every template through `mode` and
/// compare each answer against the oracle.
fn check_workload<W: QueryWorkload>(workload: &W, mode: Mode, seed: u64, n_instances: usize) {
    // Raw data + catalog for the oracle.
    let mut raw: HashMap<String, Vec<Row>> = HashMap::new();
    let mut catalog = MapCatalog::new();
    for t in workload.market_tables() {
        raw.insert(t.schema.table.to_string(), t.rows().to_vec());
        catalog.add(t.schema.clone(), TableLocation::Market);
    }
    for t in workload.local_tables() {
        raw.insert(t.schema.table.to_string(), t.rows().to_vec());
        catalog.add(t.schema.clone(), TableLocation::Local);
    }

    let market = Arc::new(build_market(workload, 100));
    let mut pl = PayLess::new(market.clone(), mode);
    for t in workload.local_tables() {
        pl.register_local(t.clone());
    }

    let mut rng = StdRng::seed_from_u64(seed);
    for (i, tmpl) in workload.templates().iter().enumerate() {
        let stmt = pl.prepare(tmpl).unwrap();
        for k in 0..n_instances {
            let params = workload.sample_params(i, &mut rng);
            let bound = stmt.bind(&params).unwrap();
            let analyzed = analyze(&bound, &catalog).unwrap();
            let expected = oracle(&analyzed, &raw);
            let out = pl
                .execute_template(&stmt, &params)
                .unwrap_or_else(|e| panic!("template {i} instance {k}: {e}"));
            let mut got = out.result.rows;
            got.sort();
            assert_eq!(
                got, expected,
                "mode {mode:?} template {i} instance {k} params {params:?}"
            );
        }
    }
}

fn whw() -> RealWorkload {
    RealWorkload::generate(&WhwConfig {
        stations: 36,
        countries: 3,
        cities_per_country: 3,
        days: 40,
        zips: 50,
        ranks: 100,
        seed: 8,
    })
}

#[test]
fn payless_matches_oracle_on_real_workload() {
    check_workload(&whw(), Mode::PayLess, 101, 3);
}

#[test]
fn payless_no_sqr_matches_oracle_on_real_workload() {
    check_workload(&whw(), Mode::PayLessNoSqr, 102, 2);
}

#[test]
fn min_calls_matches_oracle_on_real_workload() {
    check_workload(&whw(), Mode::MinCalls, 103, 2);
}

#[test]
fn download_all_matches_oracle_on_real_workload() {
    check_workload(&whw(), Mode::DownloadAll, 104, 2);
}

#[test]
fn all_modes_match_oracle_on_finance_bound_patterns() {
    // The bound `Symbol` attribute forces bind joins; every variant must
    // still produce exact answers.
    let f = Finance::generate(&FinanceConfig {
        symbols: 16,
        sectors: 4,
        days: 25,
        watchlist: 5,
        seed: 4,
    });
    check_workload(&f, Mode::PayLess, 301, 3);
    check_workload(&f, Mode::PayLessNoSqr, 302, 2);
    check_workload(&f, Mode::MinCalls, 303, 2);
    check_workload(&f, Mode::DownloadAll, 304, 2);
}

#[test]
fn payless_matches_oracle_on_tpch() {
    check_workload(
        &Tpch::generate(&TpchConfig::uniform(0.0004)),
        Mode::PayLess,
        105,
        2,
    );
}

#[test]
fn payless_matches_oracle_on_tpch_skew() {
    check_workload(
        &Tpch::generate(&TpchConfig::skewed(0.0004)),
        Mode::PayLess,
        106,
        2,
    );
}

#[test]
fn handcrafted_edge_queries_match_oracle() {
    let workload = whw();
    let mut raw: HashMap<String, Vec<Row>> = HashMap::new();
    let mut catalog = MapCatalog::new();
    for t in workload.market_tables() {
        raw.insert(t.schema.table.to_string(), t.rows().to_vec());
        catalog.add(t.schema.clone(), TableLocation::Market);
    }
    for t in workload.local_tables() {
        raw.insert(t.schema.table.to_string(), t.rows().to_vec());
        catalog.add(t.schema.clone(), TableLocation::Local);
    }
    let market = Arc::new(build_market(&workload, 100));
    let mut pl = PayLess::new(market.clone(), Mode::PayLess);
    for t in workload.local_tables() {
        pl.register_local(t.clone());
    }
    let cases = [
        // Whole-table download through the optimizer path.
        "SELECT * FROM Station",
        // Disjunction.
        "SELECT * FROM Station WHERE Country = 'Country0' OR Country = 'Country2'",
        // IN-list sugar for the same decomposition.
        "SELECT * FROM Station WHERE Country IN ('Country0', 'Country2')",
        // Mixed IN over integers with a range.
        "SELECT * FROM Pollution WHERE Rank IN (5, 17, 60) AND ZipCode >= 10000 AND ZipCode <= 10030",
        // DISTINCT projection.
        "SELECT DISTINCT City FROM Station WHERE Country = 'Country1'",
        // Global aggregate without grouping.
        "SELECT COUNT(*), MIN(Rank), MAX(Rank) FROM Pollution WHERE Rank >= 5 AND Rank <= 60",
        // Residual on an output column.
        "SELECT * FROM Weather WHERE Weather.Country = 'Country0' AND \
         Weather.Date >= 1 AND Weather.Date <= 3 AND Temperature >= 0",
        // ORDER BY on plain columns.
        "SELECT ZipCode, Rank FROM Pollution WHERE Rank >= 90 AND Rank <= 100 \
         ORDER BY Rank, ZipCode",
        // Local-table-only query.
        "SELECT * FROM ZipMap WHERE City = 'City0'",
        // Unsatisfiable.
        "SELECT * FROM Pollution WHERE Rank >= 60 AND Rank <= 50",
    ];
    for sql in cases {
        let stmt = pl.prepare(sql).unwrap();
        let bound = stmt.bind(&[]).unwrap();
        let analyzed = analyze(&bound, &catalog).unwrap();
        let expected = oracle(&analyzed, &raw);
        let out = pl.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut got = out.result.rows;
        if analyzed.order_by.is_empty() {
            got.sort();
        } else {
            // Oracle sorts everything; re-sort both for comparison.
            got.sort();
        }
        let mut exp = expected;
        exp.sort();
        assert_eq!(got, exp, "query: {sql}");
    }
}

#[test]
fn oracle_smoke_self_test() {
    // Guard the oracle itself on a query small enough to verify by hand.
    let workload = whw();
    let mut raw: HashMap<String, Vec<Row>> = HashMap::new();
    let mut catalog = MapCatalog::new();
    for t in workload.market_tables() {
        raw.insert(t.schema.table.to_string(), t.rows().to_vec());
        catalog.add(t.schema.clone(), TableLocation::Market);
    }
    let stmt =
        payless_sql::parse("SELECT COUNT(*) FROM Station WHERE Country = 'Country0'").unwrap();
    let analyzed = analyze(&stmt, &catalog).unwrap();
    let expected = oracle(&analyzed, &raw);
    // 36 stations over 3 countries -> 12.
    assert_eq!(expected, vec![Row::new(vec![Value::int(12)])]);
}
