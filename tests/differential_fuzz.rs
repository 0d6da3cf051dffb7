//! Differential fuzzing: random markets, random conjunctive queries, every
//! system variant — all four modes must agree with each other and with a
//! brute-force evaluation, and the semantic store must never corrupt results
//! across a randomized query sequence.

use std::sync::Arc;

use payless_core::{DataMarket, Dataset, Mode, PayLess};
use payless_market::MarketTable;
use payless_types::{Column, Domain, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A randomly generated two-table market joined on `k`, plus raw rows for
/// brute-force checking.
struct FuzzWorld {
    market: Arc<DataMarket>,
    dim_rows: Vec<Row>,
    fact_rows: Vec<Row>,
    n_keys: i64,
    n_cats: usize,
    v_max: i64,
}

fn gen_world(seed: u64) -> FuzzWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_keys = rng.random_range(5..40i64);
    let n_cats = rng.random_range(2..6usize);
    let v_max = rng.random_range(20..200i64);
    let cats: Vec<String> = (0..n_cats).map(|i| format!("cat{i}")).collect();

    // Dim(k, cat): one row per key, random category.
    let dim_schema = Schema::new(
        "Dim",
        vec![
            Column::free("k", Domain::int(1, n_keys)),
            Column::free("cat", Domain::categorical(cats.clone())),
        ],
    );
    let dim_rows: Vec<Row> = (1..=n_keys)
        .map(|k| {
            Row::new(vec![
                Value::int(k),
                Value::str(cats[rng.random_range(0..n_cats)].as_str()),
            ])
        })
        .collect();

    // Fact(k, v, payload): several rows per key; `payload` is output-only.
    let fact_schema = Schema::new(
        "Fact",
        vec![
            Column::free("k", Domain::int(1, n_keys)),
            Column::free("v", Domain::int(0, v_max)),
            Column::output("payload", Domain::int(0, 1_000_000)),
        ],
    );
    let mut fact_rows = Vec::new();
    let mut payload = 0i64;
    for k in 1..=n_keys {
        for _ in 0..rng.random_range(0..6usize) {
            payload += 1;
            fact_rows.push(Row::new(vec![
                Value::int(k),
                Value::int(rng.random_range(0..=v_max)),
                Value::int(payload),
            ]));
        }
    }

    let market = Arc::new(DataMarket::new(vec![Dataset::new("DS")
        .with_page_size(rng.random_range(1..20u64) * 5)
        .with_table(MarketTable::new(dim_schema, dim_rows.clone()))
        .with_table(MarketTable::new(fact_schema, fact_rows.clone()))]));
    FuzzWorld {
        market,
        dim_rows,
        fact_rows,
        n_keys,
        n_cats,
        v_max,
    }
}

/// A random query over the world, returned with its brute-force answer
/// (a sorted multiset of `payload` values).
fn gen_query(w: &FuzzWorld, rng: &mut StdRng) -> (String, Vec<i64>) {
    let k_lo = rng.random_range(1..=w.n_keys);
    let k_hi = rng.random_range(k_lo..=w.n_keys);
    let v_lo = rng.random_range(0..=w.v_max);
    let v_hi = rng.random_range(v_lo..=w.v_max);
    let with_cat = rng.random_bool(0.5);
    let cat = format!("cat{}", rng.random_range(0..w.n_cats));

    let mut sql = format!(
        "SELECT payload FROM Dim, Fact WHERE Dim.k = Fact.k AND \
         Fact.k >= {k_lo} AND Fact.k <= {k_hi} AND v >= {v_lo} AND v <= {v_hi}"
    );
    if with_cat {
        sql.push_str(&format!(" AND cat = '{cat}'"));
    }

    // Brute force. NOTE the dialect rule: the bare `k` range constrains both
    // tables — irrelevant here because the join equates them anyway.
    let mut expected = Vec::new();
    for f in &w.fact_rows {
        let k = f.get(0).as_int().unwrap();
        let v = f.get(1).as_int().unwrap();
        if !(k_lo <= k && k <= k_hi && v_lo <= v && v <= v_hi) {
            continue;
        }
        for d in &w.dim_rows {
            if d.get(0).as_int().unwrap() != k {
                continue;
            }
            if with_cat && d.get(1).as_str() != Some(cat.as_str()) {
                continue;
            }
            expected.push(f.get(2).as_int().unwrap());
        }
    }
    expected.sort_unstable();
    (sql, expected)
}

fn run_world(seed: u64) {
    let w = gen_world(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let queries: Vec<(String, Vec<i64>)> = (0..12).map(|_| gen_query(&w, &mut rng)).collect();

    for mode in [
        Mode::PayLess,
        Mode::PayLessNoSqr,
        Mode::MinCalls,
        Mode::DownloadAll,
    ] {
        // Fresh billing per mode: rebuild the market clone-free by reusing
        // the shared one (billing accumulates, which is fine — we only check
        // answers here).
        let mut pl = PayLess::new(w.market.clone(), mode);
        for (sql, expected) in &queries {
            let out = pl
                .query(sql)
                .unwrap_or_else(|e| panic!("seed {seed} mode {mode:?}: {e}\n{sql}"));
            let mut got: Vec<i64> = out
                .result
                .rows
                .iter()
                .map(|r| r.get(0).as_int().unwrap())
                .collect();
            got.sort_unstable();
            assert_eq!(
                &got, expected,
                "seed {seed} mode {mode:?} wrong answer for\n{sql}"
            );
        }
    }
}

#[test]
fn differential_fuzz_20_worlds() {
    for seed in 0..20 {
        run_world(seed);
    }
}

#[test]
fn differential_fuzz_more_worlds() {
    for seed in 100..115 {
        run_world(seed);
    }
}
