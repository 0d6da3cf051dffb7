//! The "Download All" baseline: fetch whole tables up front, answer locally.

use payless_events::EventScope;
use payless_geometry::{Interval, QuerySpace, Region};
use payless_market::DataMarket;
use payless_semantic::Consistency;
use payless_telemetry::CallKind;
use payless_types::{Constraint, PaylessError, Result, Schema};

use crate::call::{resilient_get, CallBudget};
use crate::engine::{book_charge, request_for, ExecConfig};
use crate::state::SharedState;

/// Ensure `table` is fully downloaded into the local mirror.
///
/// Tables without mandatory bound attributes are fetched with one
/// unconstrained call. Tables with bound attributes cannot be downloaded in
/// one call: the downloader enumerates the bound attribute's domain, one
/// call per value (the only way the access interface permits).
///
/// Idempotent *and resumable*: a table whose full region the store already
/// covers is skipped outright, and a multi-piece download that previously
/// failed partway resumes from the first piece the store does not cover —
/// pieces paid for before the failure are never bought again.
///
/// Retries and billed waste are charged to `budget`, the calling query's.
/// Of `cfg`, everything but `sqr`, `rewrite` and `consistency` applies: a
/// download always records its coverage.
pub(crate) fn ensure_downloaded(
    table: &Schema,
    market: &DataMarket,
    state: &SharedState,
    cfg: &ExecConfig,
    now: u64,
    budget: &mut CallBudget,
) -> Result<()> {
    let name = &table.table;
    let space = state
        .with_table_stats(name, |s| s.space().clone())
        .ok_or_else(|| PaylessError::Internal(format!("no stats for `{name}`")))?;
    let full = space.full_region();
    if state.store().covers(name, &full, Consistency::Weak, now) {
        return Ok(()); // already complete
    }

    let recorder = cfg.recorder.as_deref();
    let scope = cfg.events.as_deref().map(|j| EventScope::new(j, now));
    // One call per combination of mandatory-bound attribute values.
    let mandatory: Vec<usize> = table.mandatory_bindings().collect();
    for piece in enumerate_bound(&space, &full, &mandatory)? {
        // Resume support: pieces bought by an earlier, partially-failed
        // download are already covered — skip them instead of re-buying.
        if state.store().covers(name, &piece, Consistency::Weak, now) {
            continue;
        }
        let mut req = request_for(table, &space, &piece);
        // A numeric bound attribute spanning its whole domain still needs an
        // explicit range constraint — the binding pattern demands a value.
        for &col in &mandatory {
            let attr = &table.columns[col].name;
            if req.constraint_on(attr).is_none() {
                let d = space.dim_of_col(col).expect("bound column has a dim");
                let iv = piece.dim(d);
                req = req.with(attr.clone(), Constraint::range(iv.lo, iv.hi));
            }
        }
        let outcome = resilient_get(
            market,
            &req,
            &cfg.retry,
            budget,
            recorder,
            cfg.metrics.as_deref(),
            scope.as_ref(),
        );
        book_charge(cfg, market, name, CallKind::Download, None, &outcome);
        state.land_delivery(recorder, table, piece, outcome.into_result()?, true, now);
    }
    Ok(())
}

/// Split the full region along mandatory dims, one point per value.
///
/// The access interface accepts a *range* for a numeric bound attribute, so
/// numeric mandatory dims are satisfied by their full range in one piece;
/// only categorical bound attributes force per-value calls.
fn enumerate_bound(
    space: &QuerySpace,
    full: &Region,
    mandatory_cols: &[usize],
) -> Result<Vec<Region>> {
    let mut pieces = vec![full.clone()];
    for &col in mandatory_cols {
        let d = space
            .dim_of_col(col)
            .ok_or_else(|| PaylessError::Internal("bound column without dim".into()))?;
        if !space.dims()[d].is_categorical() {
            // A numeric bound attribute can be bound with its whole range in
            // a single call; nothing to split.
            continue;
        }
        let mut next = Vec::new();
        for piece in pieces {
            let iv = piece.dim(d);
            for v in iv.lo..=iv.hi {
                let mut dims = piece.dims().to_vec();
                dims[d] = Interval::point(v);
                next.push(Region::new(dims));
            }
        }
        pieces = next;
        if pieces.len() > 100_000 {
            return Err(PaylessError::Unsupported(
                "bound-attribute domain too large to enumerate for Download All".into(),
            ));
        }
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::RetryPolicy;
    use payless_market::{Dataset, MarketTable};
    use payless_semantic::SemanticStore;
    use payless_stats::StatsRegistry;
    use payless_types::{row, Column, Domain};

    fn setup() -> (DataMarket, SharedState, Schema, Schema) {
        let free_schema = Schema::new(
            "Free",
            vec![
                Column::free("a", Domain::int(0, 9)),
                Column::output("v", Domain::int(0, 99)),
            ],
        );
        let bound_schema = Schema::new(
            "Bound",
            vec![
                Column::bound("k", Domain::categorical(["x", "y", "z"])),
                Column::output("v", Domain::int(0, 99)),
            ],
        );
        let market = DataMarket::new(vec![Dataset::new("DS")
            .with_page_size(10)
            .with_table(MarketTable::new(
                free_schema.clone(),
                (0..30).map(|i| row!(i % 10, i)).collect(),
            ))
            .with_table(MarketTable::new(
                bound_schema.clone(),
                vec![row!("x", 1), row!("y", 2), row!("y", 3), row!("z", 4)],
            ))]);
        let (_, state) =
            SharedState::for_market(&market, SemanticStore::new(), StatsRegistry::new());
        (market, state, free_schema, bound_schema)
    }

    fn download(
        schema: &Schema,
        market: &DataMarket,
        state: &SharedState,
        now: u64,
        retry: RetryPolicy,
    ) -> Result<()> {
        let cfg = ExecConfig {
            retry,
            ..Default::default()
        };
        ensure_downloaded(schema, market, state, &cfg, now, &mut CallBudget::default())
    }

    fn mirrored(state: &SharedState, table: &str) -> usize {
        state.with_db(|db| db.table(table).unwrap().len())
    }

    fn fully_covered(state: &SharedState, table: &str) -> bool {
        let full = state.store().space(table).unwrap().full_region();
        state.store().covers(table, &full, Consistency::Weak, 1)
    }

    #[test]
    fn downloads_free_table_in_one_call() {
        let (market, state, free, _) = setup();
        download(&free, &market, &state, 0, RetryPolicy::default()).unwrap();
        let bill = market.bill();
        assert_eq!(bill.calls(), 1);
        assert_eq!(bill.transactions(), 3); // 30 rows / page 10
        assert_eq!(mirrored(&state, "Free"), 30);
    }

    #[test]
    fn download_is_idempotent() {
        let (market, state, free, _) = setup();
        for t in 0..3 {
            download(&free, &market, &state, t, RetryPolicy::default()).unwrap();
        }
        assert_eq!(market.bill().calls(), 1);
    }

    #[test]
    fn bound_categorical_table_downloads_per_value() {
        let (market, state, _, bound) = setup();
        download(&bound, &market, &state, 0, RetryPolicy::default()).unwrap();
        let bill = market.bill();
        assert_eq!(bill.calls(), 3); // one per category
        assert_eq!(mirrored(&state, "Bound"), 4);
        // Store records full coverage.
        assert!(fully_covered(&state, "Bound"));
    }

    #[test]
    fn failed_download_resumes_from_first_uncovered_piece() {
        use payless_market::{FaultInjector, FaultKind, FaultPlan};

        let (market, state, _, bound) = setup();
        // Kill the second piece ("y") with no retries: the download fails
        // after paying for piece "x".
        market.attach_fault_injector(FaultInjector::new(
            FaultPlan::none().at(1, FaultKind::Unavailable),
        ));
        let err = download(&bound, &market, &state, 0, RetryPolicy::no_retries());
        assert!(err.is_err());
        assert_eq!(market.bill().calls(), 1); // "x" bought, "y" failed free
        assert_eq!(mirrored(&state, "Bound"), 1);

        // The retry must resume at "y": pieces already covered are skipped,
        // so the whole table costs exactly one call per category overall.
        download(&bound, &market, &state, 0, RetryPolicy::no_retries()).unwrap();
        assert_eq!(market.bill().calls(), 3);
        assert_eq!(mirrored(&state, "Bound"), 4);
        assert!(fully_covered(&state, "Bound"));
    }
}
