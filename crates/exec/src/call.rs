//! The resilient market-call layer.
//!
//! Every market round-trip the engine makes — remainder fetches, bind-join
//! probes, Download-All pieces — goes through [`resilient_get`], which
//! wraps `DataMarket::get` with:
//!
//! * **bounded retries** with deterministic exponential backoff;
//! * **truncation detection**: a response whose billed pages exceed
//!   `ceil(records / t)` (Eq. (1)) is a billed-but-undelivered call, its
//!   rows are discarded and the call retried;
//! * **per-query budgets** on retries and wasted pages, enforced across
//!   calls via a shared [`CallBudget`];
//! * a [`CallOutcome`] that distinguishes billed-and-failed from unbilled
//!   failures, so callers (and the spend ledger) can account wasted money
//!   separately from delivered pages.

use std::time::{Duration, Instant};

use payless_events::{CallId, EventKind, EventScope, Severity};
use payless_market::{DataMarket, Request, Response};
use payless_metrics::MetricsHub;
use payless_telemetry::Recorder;
use payless_types::{transactions, PaylessError, Result};

/// Retry/backoff/budget knobs for the resilient call layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per market call, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base << (k - 1)` milliseconds,
    /// capped below; 0 disables sleeping entirely (simulator-friendly).
    pub backoff_base_millis: u64,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap_millis: u64,
    /// Per-query cap on total retries across all calls (`None` = unlimited).
    pub retry_budget: Option<u64>,
    /// Per-query cap on pages billed without delivery (`None` = unlimited).
    pub waste_budget_pages: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_millis: 1,
            backoff_cap_millis: 50,
            retry_budget: None,
            waste_budget_pages: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the first failure is final).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A policy that retries (effectively) forever without sleeping, for
    /// fault-transparency tests that must always recover.
    pub fn unlimited() -> Self {
        RetryPolicy {
            max_attempts: u32::MAX,
            backoff_base_millis: 0,
            ..RetryPolicy::default()
        }
    }

    /// Deterministic backoff before the `attempt`-th retry (1-based).
    pub fn backoff_millis(&self, attempt: u32) -> u64 {
        if self.backoff_base_millis == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1).min(16);
        (self.backoff_base_millis << shift).min(self.backoff_cap_millis)
    }
}

/// Mutable per-query accounting shared by every resilient call the query
/// makes; the policy's `retry_budget` / `waste_budget_pages` are enforced
/// against it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallBudget {
    /// Retries consumed so far.
    pub retries: u64,
    /// Pages billed without a usable delivery so far.
    pub wasted_pages: u64,
}

/// What one resilient market call produced.
#[derive(Debug)]
pub enum CallOutcome {
    /// A verified response, possibly after retries that wasted money.
    Delivered {
        /// The clean response.
        response: Response,
        /// Attempts made, including the successful one.
        attempts: u32,
        /// Pages billed to failed attempts of *this* call.
        wasted_pages: u64,
    },
    /// Gave up after at least one attempt was billed; the money is spent.
    BilledAndFailed {
        /// The final error.
        error: PaylessError,
        /// Attempts made.
        attempts: u32,
        /// Pages billed without delivery across this call's attempts.
        wasted_pages: u64,
    },
    /// Gave up without ever being billed (e.g. persistent `Unavailable`).
    FailedFree {
        /// The final error.
        error: PaylessError,
        /// Attempts made.
        attempts: u32,
    },
}

impl CallOutcome {
    /// Collapse into a plain `Result` for callers that only need the rows.
    pub fn into_result(self) -> Result<Response> {
        match self {
            CallOutcome::Delivered { response, .. } => Ok(response),
            CallOutcome::BilledAndFailed { error, .. } | CallOutcome::FailedFree { error, .. } => {
                Err(error)
            }
        }
    }

    /// Pages billed without delivery by this call.
    pub fn wasted_pages(&self) -> u64 {
        match self {
            CallOutcome::Delivered { wasted_pages, .. }
            | CallOutcome::BilledAndFailed { wasted_pages, .. } => *wasted_pages,
            CallOutcome::FailedFree { .. } => 0,
        }
    }

    /// `(pages, records)` of the clean delivery, if there was one.
    pub fn delivered(&self) -> Option<(u64, u64)> {
        match self {
            CallOutcome::Delivered { response, .. } => {
                Some((response.transactions, response.records()))
            }
            CallOutcome::BilledAndFailed { .. } | CallOutcome::FailedFree { .. } => None,
        }
    }

    /// Attempts made beyond the first.
    pub fn retries(&self) -> u64 {
        match self {
            CallOutcome::Delivered { attempts, .. }
            | CallOutcome::BilledAndFailed { attempts, .. }
            | CallOutcome::FailedFree { attempts, .. } => u64::from(attempts.saturating_sub(1)),
        }
    }
}

/// Issue `req` against `market`, retrying transient failures under
/// `policy` and charging retries/waste against `budget`.
///
/// Truncated deliveries (billed pages exceeding what the returned records
/// justify under Eq. (1)) are treated as billed failures: the partial rows
/// are discarded — accepting them would poison the mirror and the semantic
/// store with an incomplete region — and the call is retried.
///
/// When a [`MetricsHub`] is attached, the whole call — stalls, backoff
/// sleeps, and retries included — is timed into `payless_market_call_nanos`,
/// and its billed/wasted/delivered pages feed the live spend counters, so
/// `payless_market_pages_billed_total` advances in lockstep with the
/// market's billing meter.
///
/// When an [`EventScope`] is attached, the whole attempt loop is journaled
/// into the flight recorder under a fresh [`CallId`]: one `call_attempt`
/// per wire hit, `call_truncated` / `call_fault` for billed or free
/// failures, `call_retry` before each backoff, and a final
/// `call_delivered` / `call_failed` whose page totals mirror the
/// [`CallOutcome`] exactly — the links spend provenance walks.
pub fn resilient_get(
    market: &DataMarket,
    req: &Request,
    policy: &RetryPolicy,
    budget: &mut CallBudget,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsHub>,
    events: Option<&EventScope>,
) -> CallOutcome {
    let started = metrics.map(|_| Instant::now());
    let call = events.map(|_| CallId::next());
    let out = attempt_loop(market, req, policy, budget, recorder, metrics, events, call);
    if let (Some(scope), Some(CallId(call))) = (events, call) {
        match &out {
            CallOutcome::Delivered {
                response,
                attempts,
                wasted_pages,
            } => scope.emit(Severity::Info, || EventKind::CallDelivered {
                call,
                table: req.table.to_string(),
                pages: response.transactions,
                wasted_pages: *wasted_pages,
                records: response.records(),
                attempts: u64::from(*attempts),
            }),
            CallOutcome::BilledAndFailed {
                error, attempts, ..
            }
            | CallOutcome::FailedFree { error, attempts } => {
                scope.emit(Severity::Error, || EventKind::CallFailed {
                    call,
                    table: req.table.to_string(),
                    wasted_pages: out.wasted_pages(),
                    attempts: u64::from(*attempts),
                    billed: matches!(out, CallOutcome::BilledAndFailed { .. }),
                    error: error.to_string(),
                })
            }
        }
    }
    if let (Some(hub), Some(t0)) = (metrics, started) {
        hub.market_calls.inc(1);
        hub.market_call_nanos.record(t0.elapsed().as_nanos() as u64);
        let (pages, records) = out.delivered().unwrap_or_default();
        hub.market_retries.inc(out.retries());
        hub.pages_billed.inc(pages + out.wasted_pages());
        hub.pages_wasted.inc(out.wasted_pages());
        hub.records_delivered.inc(records);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn attempt_loop(
    market: &DataMarket,
    req: &Request,
    policy: &RetryPolicy,
    budget: &mut CallBudget,
    recorder: Option<&Recorder>,
    metrics: Option<&MetricsHub>,
    events: Option<&EventScope>,
    call: Option<CallId>,
) -> CallOutcome {
    let page = market.page_size(&req.table).unwrap_or(1);
    let call = call.map(|c| c.0).unwrap_or(0);
    let mut attempts: u32 = 0;
    let mut wasted: u64 = 0;
    loop {
        attempts += 1;
        if let Some(scope) = events {
            scope.emit(Severity::Debug, || EventKind::CallAttempt {
                call,
                table: req.table.to_string(),
                attempt: u64::from(attempts),
            });
        }
        let err = match market.get(req) {
            Ok(response) => {
                if response.transactions <= transactions(response.records(), page) {
                    return CallOutcome::Delivered {
                        response,
                        attempts,
                        wasted_pages: wasted,
                    };
                }
                // Billed more pages than the payload fills: truncated
                // delivery. Discard the rows and book the spend as wasted.
                wasted += response.transactions;
                budget.wasted_pages += response.transactions;
                if let Some(rec) = recorder {
                    rec.count("resilience.truncated_deliveries", 1);
                }
                if let Some(hub) = metrics {
                    hub.market_truncated.inc(1);
                }
                if let Some(scope) = events {
                    scope.emit(Severity::Warn, || EventKind::CallTruncated {
                        call,
                        table: req.table.to_string(),
                        wasted_pages: response.transactions,
                    });
                }
                PaylessError::BilledFailure {
                    table: req.table.clone(),
                    pages: response.transactions,
                    records: response.records(),
                    detail: format!(
                        "truncated delivery: {} records cannot fill {} billed pages (t = {page})",
                        response.records(),
                        response.transactions,
                    ),
                }
            }
            Err(e) => {
                let mut billed_pages = 0;
                if let PaylessError::BilledFailure { pages, .. } = &e {
                    wasted += *pages;
                    budget.wasted_pages += *pages;
                    billed_pages = *pages;
                }
                if let Some(scope) = events {
                    scope.emit(Severity::Warn, || EventKind::CallFault {
                        call,
                        table: req.table.to_string(),
                        billed_pages,
                        error: e.to_string(),
                    });
                }
                if !e.is_transient() {
                    // Caller bug or terminal market error: no retry.
                    return bail(e, attempts, wasted);
                }
                e
            }
        };
        if attempts >= policy.max_attempts {
            return bail(err, attempts, wasted);
        }
        if let Some(cap) = policy.retry_budget {
            if budget.retries >= cap {
                return bail(budget_error(req, budget, &err), attempts, wasted);
            }
        }
        if let Some(cap) = policy.waste_budget_pages {
            if budget.wasted_pages > cap {
                return bail(budget_error(req, budget, &err), attempts, wasted);
            }
        }
        budget.retries += 1;
        if let Some(rec) = recorder {
            rec.count("resilience.retries", 1);
        }
        let millis = policy.backoff_millis(attempts);
        if let Some(scope) = events {
            scope.emit(Severity::Info, || EventKind::CallRetry {
                call,
                table: req.table.to_string(),
                next_attempt: u64::from(attempts) + 1,
                backoff_ms: millis,
            });
        }
        if millis > 0 {
            std::thread::sleep(Duration::from_millis(millis));
        }
    }
}

fn bail(error: PaylessError, attempts: u32, wasted_pages: u64) -> CallOutcome {
    if wasted_pages > 0 {
        CallOutcome::BilledAndFailed {
            error,
            attempts,
            wasted_pages,
        }
    } else {
        CallOutcome::FailedFree { error, attempts }
    }
}

fn budget_error(req: &Request, budget: &CallBudget, last: &PaylessError) -> PaylessError {
    PaylessError::BudgetExhausted {
        table: req.table.clone(),
        retries: budget.retries,
        wasted_pages: budget.wasted_pages,
        detail: last.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_market::{Dataset, FaultInjector, FaultKind, FaultPlan, MarketTable};
    use payless_types::{row, Column, Constraint, Domain, Schema};

    fn market() -> DataMarket {
        let schema = Schema::new(
            "T",
            vec![
                Column::free("k", Domain::int(0, 9)),
                Column::output("v", Domain::int(0, 999)),
            ],
        );
        DataMarket::new(vec![Dataset::new("DS").with_page_size(10).with_table(
            MarketTable::new(schema, (0..30).map(|i| row!(i % 10, i)).collect()),
        )])
    }

    fn req() -> Request {
        Request::to("T").with("k", Constraint::range(0, 9))
    }

    fn quick() -> RetryPolicy {
        RetryPolicy {
            backoff_base_millis: 0,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn clean_market_delivers_first_attempt() {
        let m = market();
        let mut budget = CallBudget::default();
        match resilient_get(&m, &req(), &quick(), &mut budget, None, None, None) {
            CallOutcome::Delivered {
                response,
                attempts,
                wasted_pages,
            } => {
                assert_eq!(response.records(), 30);
                assert_eq!(attempts, 1);
                assert_eq!(wasted_pages, 0);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(budget, CallBudget::default());
    }

    #[test]
    fn unavailable_is_retried_for_free() {
        let m = market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::none()
                .at(0, FaultKind::Unavailable)
                .at(1, FaultKind::Unavailable),
        ));
        let mut budget = CallBudget::default();
        let out = resilient_get(&m, &req(), &quick(), &mut budget, None, None, None);
        let resp = out.into_result().unwrap();
        assert_eq!(resp.records(), 30);
        assert_eq!(budget.retries, 2);
        assert_eq!(budget.wasted_pages, 0);
        assert_eq!(m.bill().transactions(), 3); // only the clean delivery
    }

    #[test]
    fn truncated_delivery_is_discarded_and_rebought() {
        let m = market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::none().at(0, FaultKind::Truncate),
        ));
        let mut budget = CallBudget::default();
        match resilient_get(&m, &req(), &quick(), &mut budget, None, None, None) {
            CallOutcome::Delivered {
                response,
                attempts,
                wasted_pages,
            } => {
                assert_eq!(response.records(), 30); // the clean re-buy
                assert_eq!(attempts, 2);
                assert_eq!(wasted_pages, 3);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // Meter: 3 wasted + 3 delivered; reconciles with the outcome.
        assert_eq!(m.bill().transactions(), 6);
        assert_eq!(budget.wasted_pages, 3);
    }

    #[test]
    fn corrupt_payloads_exhaust_attempts_into_billed_failure() {
        let m = market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::seeded(0).with_corrupt(1.0), // every call corrupt
        ));
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base_millis: 0,
            ..RetryPolicy::default()
        };
        let mut budget = CallBudget::default();
        match resilient_get(&m, &req(), &policy, &mut budget, None, None, None) {
            CallOutcome::BilledAndFailed {
                error,
                attempts,
                wasted_pages,
            } => {
                assert!(matches!(error, PaylessError::BilledFailure { .. }));
                assert_eq!(attempts, 3);
                assert_eq!(wasted_pages, 9); // 3 pages billed x 3 attempts
            }
            other => panic!("expected billed failure, got {other:?}"),
        }
        assert_eq!(m.bill().transactions(), 9);
    }

    #[test]
    fn non_transient_errors_never_retry() {
        let m = market();
        let mut budget = CallBudget::default();
        let bad = Request::download("Nope");
        match resilient_get(&m, &bad, &quick(), &mut budget, None, None, None) {
            CallOutcome::FailedFree { error, attempts } => {
                assert!(matches!(error, PaylessError::UnknownTable(_)));
                assert_eq!(attempts, 1);
            }
            other => panic!("expected free failure, got {other:?}"),
        }
        assert_eq!(budget.retries, 0);
    }

    #[test]
    fn retry_budget_is_enforced_across_calls() {
        let m = market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::seeded(0).with_unavailable(1.0),
        ));
        let policy = RetryPolicy {
            retry_budget: Some(2),
            backoff_base_millis: 0,
            max_attempts: u32::MAX,
            ..RetryPolicy::default()
        };
        let mut budget = CallBudget::default();
        let out = resilient_get(&m, &req(), &policy, &mut budget, None, None, None);
        match out.into_result() {
            Err(PaylessError::BudgetExhausted { retries, .. }) => assert_eq!(retries, 2),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        assert_eq!(m.bill().transactions(), 0);
    }

    #[test]
    fn waste_budget_stops_rebuying() {
        let m = market();
        m.attach_fault_injector(FaultInjector::new(FaultPlan::seeded(0).with_corrupt(1.0)));
        let policy = RetryPolicy {
            waste_budget_pages: Some(3),
            backoff_base_millis: 0,
            max_attempts: u32::MAX,
            ..RetryPolicy::default()
        };
        let mut budget = CallBudget::default();
        let out = resilient_get(&m, &req(), &policy, &mut budget, None, None, None);
        match out {
            CallOutcome::BilledAndFailed {
                error: PaylessError::BudgetExhausted { wasted_pages, .. },
                ..
            } => assert!(wasted_pages > 3),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy {
            backoff_base_millis: 2,
            backoff_cap_millis: 10,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_millis(1), 2);
        assert_eq!(p.backoff_millis(2), 4);
        assert_eq!(p.backoff_millis(3), 8);
        assert_eq!(p.backoff_millis(4), 10); // capped
        assert_eq!(p.backoff_millis(60), 10); // shift clamped, no overflow
        assert_eq!(RetryPolicy::unlimited().backoff_millis(5), 0);
    }
}
