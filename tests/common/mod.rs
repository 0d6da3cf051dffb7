//! Fixtures shared by the serving-layer suites.

#![allow(dead_code)] // each suite uses a subset

use std::sync::Arc;

use payless_market::DataMarket;
use payless_serve::{Serve, ServeReport};
use payless_sql::SelectStmt;
use payless_workload::{QueryWorkload, RealWorkload, WhwConfig};

/// A WHW instance small enough that a whole mix replays in milliseconds.
pub fn tiny_workload(seed: u64) -> RealWorkload {
    RealWorkload::generate(&WhwConfig {
        stations: 24,
        countries: 4,
        cities_per_country: 3,
        days: 20,
        zips: 40,
        ranks: 100,
        seed,
    })
}

/// A fresh market over `w`. At `page_size = 1` pages == records for every
/// delivery, so no per-call rounding blurs a spend comparison.
pub fn build_market(w: &RealWorkload, page_size: u64) -> Arc<DataMarket> {
    Arc::new(payless_workload::build_market(w, page_size))
}

/// The workload's templates, parsed once for every client of `serve`.
pub fn prepared(serve: &Serve, w: &RealWorkload) -> Vec<SelectStmt> {
    QueryWorkload::templates(w)
        .iter()
        .map(|sql| serve.prepare(sql).expect("workload templates parse"))
        .collect()
}

/// Answers must match the oracle elementwise; structural fields of each
/// row (client, template) must too, since submission order is shared.
pub fn assert_same_answers(run: &ServeReport, oracle: &ServeReport) {
    assert_eq!(run.per_query.len(), oracle.per_query.len());
    for (i, (p, s)) in run.per_query.iter().zip(&oracle.per_query).enumerate() {
        assert_eq!(p.client, s.client, "query {i}: client mismatch");
        assert_eq!(p.template, s.template, "query {i}: template mismatch");
        assert_eq!(
            p.digest, s.digest,
            "query {i}: result digest diverged from the oracle"
        );
        assert_eq!(p.rows, s.rows, "query {i}: row count mismatch");
    }
    assert_eq!(run.total_rows, oracle.total_rows);
}
