//! The deterministic fault matrix: every injected fault kind crossed with
//! every engine path (PayLess remainder fetches + bind joins, no-SQR,
//! Download All).
//!
//! Invariants checked throughout:
//!
//! * with retries, a faulted session produces **bit-identical answers** to a
//!   clean twin, and its bill is exactly the clean bill plus the injector's
//!   wasted pages (a retried call re-buys the identical request);
//! * the telemetry ledger partitions into delivered + wasted pages and
//!   reconciles with the billing meter (Eq. (1) per successful delivery);
//! * without retries a faulted query fails *cleanly*: everything paid for
//!   before the failure is kept in the semantic store, so a re-run buys only
//!   what never arrived;
//! * an attached injector with an empty plan is invisible: outputs and
//!   billing are byte-identical to a session with no injector at all.
//!
//! Where two sessions must end in the same *state*, both run durable and
//! their `wal.log` files are compared byte for byte: coverage, mirror and
//! refined statistics are functions of that one log.
//!
//! The pinned chaos seed can be overridden with `PAYLESS_FAULT_SEED`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use payless_core::{
    DataMarket, FaultInjector, FaultKind, FaultPlan, Mode, PayLess, RetryPolicy, Serve, ServeConfig,
};
use payless_server::persist::{recover, PersistConfig};
use payless_types::{PaylessError, Row};
use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};

/// Three queries exercising the three market-call paths: a plain remainder
/// fetch, an overlapping fetch (SQR remainders), and a bind join.
const QUERIES: [&str; 3] = [
    "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
     Weather.Date >= 5 AND Weather.Date <= 9",
    "SELECT * FROM Weather WHERE Weather.Country = 'Country1' AND \
     Weather.Date >= 5 AND Weather.Date <= 20",
    "SELECT * FROM Station, Weather WHERE Station.Country = Weather.Country = \
     'Country2' AND Station.StationID = Weather.StationID AND \
     Weather.Date >= 1 AND Weather.Date <= 10",
];

fn session(mode: Mode, retry: RetryPolicy) -> (Arc<DataMarket>, PayLess) {
    session_in(None, mode, retry)
}

/// [`session`], kept in the data directory `dir` when one is given.
fn session_in(dir: Option<&Path>, mode: Mode, retry: RetryPolicy) -> (Arc<DataMarket>, PayLess) {
    let workload = RealWorkload::generate(&WhwConfig {
        stations: 48,
        countries: 4,
        cities_per_country: 3,
        days: 60,
        zips: 60,
        ranks: 100,
        seed: 3,
    });
    let market = Arc::new(build_market(&workload, 100));
    let cfg = ServeConfig {
        retry,
        ..ServeConfig::one_client()
    };
    let locals = QueryWorkload::local_tables(&workload);
    let serve = match dir {
        Some(dir) => {
            let build = |store| Serve::with_store(market.clone(), locals, cfg, store);
            let opened = recover(dir, PersistConfig::default(), &market, build);
            opened.expect("session directory opens").0
        }
        None => Serve::new(market.clone(), locals, cfg),
    };
    let mut pl = PayLess::over(serve, mode);
    pl.enable_tracing(true);
    (market, pl)
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh data directory for one durable session.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "payless-fault-matrix-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable session's whole state: its log, byte for byte.
fn logs(dir: &Path) -> Vec<u8> {
    let state = std::fs::read(dir.join("wal.log")).expect("log exists");
    assert!(
        !state.is_empty(),
        "the session bought nothing, so comparing its log proves nothing"
    );
    state
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Run the query set on a clean twin and on a faulted session; assert
/// identical answers and exact billing reconciliation.
fn assert_fault_transparent(mode: Mode, plan: FaultPlan) {
    // Clean oracle.
    let (clean_market, mut clean) = session(mode, RetryPolicy::default());
    let oracle: Vec<Vec<Row>> = QUERIES
        .iter()
        .map(|sql| sorted(clean.query(sql).unwrap().result.rows))
        .collect();

    // Faulted run with enough retries to always recover.
    let (market, mut pl) = session(mode, RetryPolicy::unlimited());
    let injector = FaultInjector::new(plan);
    market.attach_fault_injector(injector.clone());
    for (i, sql) in QUERIES.iter().enumerate() {
        let before = market.bill().transactions();
        let out = pl.query(sql).unwrap();
        let delta = market.bill().transactions() - before;
        assert_eq!(
            sorted(out.result.rows.clone()),
            oracle[i],
            "{mode:?} answer diverged under faults for query {i}"
        );
        // The per-query ledger is the audit trail: its pages equal the meter
        // delta, and partition into delivered + wasted.
        let report = out.report.expect("tracing is on");
        assert_eq!(report.telemetry.total_pages(), delta, "{mode:?} query {i}");
        assert_eq!(
            report.telemetry.delivered_pages() + report.telemetry.wasted_pages(),
            delta,
            "{mode:?} query {i}"
        );
    }
    // Session-level reconciliation: everything beyond the clean bill is
    // exactly the waste the injector accounted.
    assert_eq!(
        market.bill().transactions(),
        clean_market.bill().transactions() + injector.wasted_pages(),
        "{mode:?}: faulted bill must be clean bill + injector waste"
    );
    // When nothing was wasted, delivered records match exactly too: no
    // tuple was lost or double-delivered. (With waste the meter's record
    // total also counts the discarded payloads, so only pages reconcile.)
    if injector.wasted_pages() == 0 {
        assert_eq!(
            market.bill().records(),
            clean_market.bill().records(),
            "{mode:?}: delivered records diverged"
        );
    }
}

const MODES: [Mode; 3] = [Mode::PayLess, Mode::PayLessNoSqr, Mode::DownloadAll];

#[test]
fn unavailable_faults_are_transparent_and_free() {
    for mode in MODES {
        // Unbilled transient failures at the first and a mid-plan call.
        let plan = FaultPlan::none()
            .at(0, FaultKind::Unavailable)
            .at(4, FaultKind::Unavailable)
            .at(5, FaultKind::Unavailable);
        let (clean_market, mut clean) = session(mode, RetryPolicy::default());
        for sql in QUERIES {
            clean.query(sql).unwrap();
        }
        let (market, mut pl) = session(mode, RetryPolicy::unlimited());
        let injector = FaultInjector::new(plan);
        market.attach_fault_injector(injector.clone());
        for sql in QUERIES {
            pl.query(sql).unwrap();
        }
        // Nothing was ever billed for an unavailable call.
        assert_eq!(injector.wasted_pages(), 0);
        assert_eq!(
            market.bill().transactions(),
            clean_market.bill().transactions(),
            "{mode:?}"
        );
        assert_eq!(market.bill().records(), clean_market.bill().records());
        assert!(
            injector.injections_total() > 0,
            "{mode:?}: plan never fired"
        );
    }
}

#[test]
fn stall_faults_change_nothing_but_latency() {
    for mode in MODES {
        assert_fault_transparent(
            mode,
            FaultPlan::none()
                .at(0, FaultKind::Stall { millis: 1 })
                .at(3, FaultKind::Stall { millis: 1 }),
        );
    }
}

#[test]
fn truncate_faults_are_rebought_exactly_once() {
    for mode in MODES {
        let plan = FaultPlan::none().at(0, FaultKind::Truncate);
        let (clean_market, mut clean) = session(mode, RetryPolicy::default());
        let oracle: Vec<Vec<Row>> = QUERIES
            .iter()
            .map(|sql| sorted(clean.query(sql).unwrap().result.rows))
            .collect();
        let (market, mut pl) = session(mode, RetryPolicy::unlimited());
        let injector = FaultInjector::new(plan);
        market.attach_fault_injector(injector.clone());
        for (i, sql) in QUERIES.iter().enumerate() {
            let out = pl.query(sql).unwrap();
            assert_eq!(sorted(out.result.rows), oracle[i], "{mode:?} query {i}");
        }
        assert!(
            injector.wasted_pages() > 0,
            "{mode:?}: truncate never billed"
        );
        assert_eq!(
            market.bill().transactions(),
            clean_market.bill().transactions() + injector.wasted_pages(),
            "{mode:?}"
        );
        assert_eq!(injector.injections(), vec![("truncate", 1)]);
    }
}

#[test]
fn corrupt_faults_are_detected_and_rebought() {
    for mode in MODES {
        let plan = FaultPlan::none().at(0, FaultKind::Corrupt);
        let (clean_market, mut clean) = session(mode, RetryPolicy::default());
        let oracle: Vec<Vec<Row>> = QUERIES
            .iter()
            .map(|sql| sorted(clean.query(sql).unwrap().result.rows))
            .collect();
        let (market, mut pl) = session(mode, RetryPolicy::unlimited());
        let injector = FaultInjector::new(plan);
        market.attach_fault_injector(injector.clone());
        for (i, sql) in QUERIES.iter().enumerate() {
            let out = pl.query(sql).unwrap();
            assert_eq!(sorted(out.result.rows), oracle[i], "{mode:?} query {i}");
            let report = out.report.expect("tracing is on");
            if i == 0 {
                // The corrupt call left a WASTED ledger entry and a retry.
                assert_eq!(report.telemetry.wasted_calls(), 1, "{mode:?}");
                let retries = report
                    .telemetry
                    .counters
                    .iter()
                    .find(|(n, _)| *n == "resilience.retries")
                    .map(|(_, v)| *v);
                assert_eq!(retries, Some(1), "{mode:?}");
            }
        }
        assert!(injector.wasted_pages() > 0, "{mode:?}");
        assert_eq!(
            market.bill().transactions(),
            clean_market.bill().transactions() + injector.wasted_pages(),
            "{mode:?}"
        );
    }
}

// ----------------------------------------------------------------------
// Fail-cleanly: no retries
// ----------------------------------------------------------------------

#[test]
fn without_retries_queries_fail_cleanly_and_rerun_pays_only_the_missing_part() {
    // Fault the *second* market call so the first remainder is paid for
    // before the query dies.
    let (market, mut pl) = session(Mode::PayLess, RetryPolicy::no_retries());
    market.attach_fault_injector(FaultInjector::new(
        FaultPlan::none().at(1, FaultKind::Unavailable),
    ));
    // The overlap query issues two remainder calls (days 5..9 after a primer
    // would be one; use the two-sided extension directly).
    let primer = QUERIES[0]; // one call: days 5..9, paid in full
    pl.query(primer).unwrap();
    let after_primer = market.bill().records();

    let err = pl.query(QUERIES[1]).unwrap_err();
    assert!(
        matches!(err, PaylessError::Unavailable { .. }),
        "expected the injected fault to surface, got {err}"
    );
    // The failed query bought nothing new (its first call was the faulted
    // one because SQR already covers days 5..9)... or bought some prefix of
    // its remainders. Either way nothing is lost: re-running completes the
    // region and the two runs together paid for each tuple exactly once.
    let clean = {
        let (m, mut s) = session(Mode::PayLess, RetryPolicy::default());
        s.query(primer).unwrap();
        s.query(QUERIES[1]).unwrap();
        m.bill().records()
    };
    pl.query(QUERIES[1]).unwrap();
    assert_eq!(
        market.bill().records(),
        clean,
        "re-run after a clean failure must not re-buy paid tuples"
    );
    assert!(market.bill().records() > after_primer);
    // And now everything is covered: asking again is free.
    let before = market.bill().transactions();
    pl.query(QUERIES[1]).unwrap();
    assert_eq!(market.bill().transactions(), before);
}

#[test]
fn billed_failure_without_retries_reports_the_spend() {
    let (market, mut pl) = session(Mode::PayLess, RetryPolicy::no_retries());
    let injector = FaultInjector::new(FaultPlan::none().at(0, FaultKind::Corrupt));
    market.attach_fault_injector(injector.clone());
    let err = pl.query(QUERIES[0]).unwrap_err();
    match err {
        PaylessError::BilledFailure { pages, .. } => {
            assert_eq!(pages, injector.wasted_pages());
            assert!(pages > 0);
        }
        other => panic!("expected BilledFailure, got {other}"),
    }
    // The money is on the meter even though no data arrived.
    assert_eq!(market.bill().transactions(), injector.wasted_pages());
    // A re-run with the fault passed re-buys the region (the wasted call
    // delivered nothing reusable).
    let out = pl.query(QUERIES[0]).unwrap();
    assert!(!out.result.rows.is_empty());
}

// ----------------------------------------------------------------------
// Budgets
// ----------------------------------------------------------------------

#[test]
fn waste_budget_turns_persistent_corruption_into_budget_exhausted() {
    let policy = RetryPolicy {
        waste_budget_pages: Some(0),
        max_attempts: u32::MAX,
        backoff_base_millis: 0,
        ..RetryPolicy::default()
    };
    let (market, mut pl) = session(Mode::PayLess, policy);
    market.attach_fault_injector(FaultInjector::new(FaultPlan::seeded(7).with_corrupt(1.0)));
    let err = pl.query(QUERIES[0]).unwrap_err();
    assert!(
        matches!(err, PaylessError::BudgetExhausted { .. }),
        "expected BudgetExhausted, got {err}"
    );
}

#[test]
fn retry_budget_caps_free_retries() {
    let policy = RetryPolicy {
        retry_budget: Some(3),
        max_attempts: u32::MAX,
        backoff_base_millis: 0,
        ..RetryPolicy::default()
    };
    let (market, mut pl) = session(Mode::PayLess, policy);
    market.attach_fault_injector(FaultInjector::new(
        FaultPlan::seeded(7).with_unavailable(1.0),
    ));
    let err = pl.query(QUERIES[0]).unwrap_err();
    match err {
        PaylessError::BudgetExhausted {
            retries,
            wasted_pages,
            ..
        } => {
            assert_eq!(retries, 3);
            assert_eq!(wasted_pages, 0); // unavailability is never billed
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
    assert_eq!(market.bill().transactions(), 0);
}

// ----------------------------------------------------------------------
// Determinism: faults disabled
// ----------------------------------------------------------------------

#[test]
fn empty_fault_plan_is_bit_identical_to_no_injector() {
    let (plain_dir, injected_dir) = (tmpdir("plain"), tmpdir("injected"));
    let (plain_market, mut plain) =
        session_in(Some(&plain_dir), Mode::PayLess, RetryPolicy::default());
    let (injected_market, mut injected) =
        session_in(Some(&injected_dir), Mode::PayLess, RetryPolicy::default());
    injected_market.attach_fault_injector(FaultInjector::new(FaultPlan::none()));
    for sql in QUERIES {
        let a = plain.query(sql).unwrap();
        let b = injected.query(sql).unwrap();
        assert_eq!(a.result, b.result);
    }
    assert_eq!(plain_market.bill(), injected_market.bill());
    // Entire session state (mirror, store coverage, refined stats) is
    // byte-identical.
    assert_eq!(logs(&plain_dir), logs(&injected_dir));
    assert_eq!(
        injected_market.fault_injector().unwrap().injections_total(),
        0
    );
    for dir in [plain_dir, injected_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ----------------------------------------------------------------------
// Seeded chaos run (seed from PAYLESS_FAULT_SEED, default 0xBEEF)
// ----------------------------------------------------------------------

// A test seed is not configuration of the program under test.
#[allow(clippy::disallowed_methods)]
fn fault_seed() -> u64 {
    std::env::var("PAYLESS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBEEF)
}

#[test]
fn seeded_chaos_run_reconciles_answers_and_billing() {
    let seed = fault_seed();
    let (clean_market, mut clean) = session(Mode::PayLess, RetryPolicy::default());
    let oracle: Vec<Vec<Row>> = QUERIES
        .iter()
        .map(|sql| sorted(clean.query(sql).unwrap().result.rows))
        .collect();

    let (market, mut pl) = session(Mode::PayLess, RetryPolicy::unlimited());
    let injector = FaultInjector::new(FaultPlan::chaos(seed));
    market.attach_fault_injector(injector.clone());
    for (i, sql) in QUERIES.iter().enumerate() {
        let out = pl.query(sql).unwrap();
        assert_eq!(
            sorted(out.result.rows),
            oracle[i],
            "seed {seed}: answer diverged for query {i}"
        );
    }
    assert_eq!(
        market.bill().transactions(),
        clean_market.bill().transactions() + injector.wasted_pages(),
        "seed {seed}: bill must reconcile to clean + waste \
         (calls seen: {}, injections: {:?})",
        injector.calls_seen(),
        injector.injections(),
    );
    // After the chaos run everything is covered: a re-run is free even with
    // the injector still attached (covered queries issue no market calls).
    let before = market.bill().transactions();
    for sql in QUERIES {
        pl.query(sql).unwrap();
    }
    assert_eq!(market.bill().transactions(), before, "seed {seed}");
}

// ----------------------------------------------------------------------
// Property: fault transparency of the semantic store
// ----------------------------------------------------------------------

mod property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For any fault seed, a session with unlimited retries ends in
        /// *exactly* the state a fault-free session reaches: the same spend
        /// records and the same purchased rows, so the same store coverage
        /// and the same refined statistics — SQR is fault-transparent.
        #[test]
        fn chaos_session_state_equals_clean_session_state(seed in any::<u64>()) {
            let (clean_dir, chaos_dir) = (tmpdir("clean"), tmpdir("chaos"));
            let (_, mut clean) = session_in(Some(&clean_dir), Mode::PayLess, RetryPolicy::default());
            for sql in QUERIES {
                clean.query(sql).unwrap();
            }
            let (market, mut pl) =
                session_in(Some(&chaos_dir), Mode::PayLess, RetryPolicy::unlimited());
            market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(seed)));
            for sql in QUERIES {
                pl.query(sql).unwrap();
            }
            prop_assert_eq!(logs(&clean_dir), logs(&chaos_dir));
            for dir in [clean_dir, chaos_dir] {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}
