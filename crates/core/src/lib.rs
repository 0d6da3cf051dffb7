//! # PayLess — pay-less query optimization over cloud data markets
//!
//! A complete implementation of the system described in *Query Optimization
//! over Cloud Data Market* (Li, Lo, Yiu, Xu — EDBT 2015).
//!
//! A [`PayLess`] session fronts a [`payless_market::DataMarket`] with a SQL
//! interface; it is a one-client [`payless_serve::Serve`], the front end
//! the in-process mix and the socket server run through too. Queries may mix local tables with market tables; PayLess
//! optimizes each query to minimize the **money paid to data sellers**
//! (market *transactions*, not calls or latency), by combining:
//!
//! * a cost-based dynamic-programming optimizer restricted (losslessly) to
//!   left-deep plans with bind joins as an access path;
//! * a *semantic store* retaining every retrieved result, so later queries
//!   are rewritten to fetch only the missing *remainder* regions;
//! * feedback-driven statistics that refine with every retrieval.
//!
//! ```
//! use payless_core::{Mode, PayLess};
//! use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};
//! use std::sync::Arc;
//!
//! // A synthetic weather data market (the paper's running example).
//! let workload = RealWorkload::generate(&WhwConfig::scaled(0.01));
//! let market = Arc::new(build_market(&workload, 100));
//! let mut payless = PayLess::new(market.clone(), Mode::PayLess);
//! for t in workload.local_tables() {
//!     payless.register_local(t.clone());
//! }
//!
//! let out = payless
//!     .query("SELECT * FROM Weather WHERE Weather.Country = 'Country0' \
//!             AND Weather.Date >= 10 AND Weather.Date <= 12")
//!     .unwrap();
//! assert!(!out.result.rows.is_empty());
//! // Asking again is free: the semantic store already covers the region.
//! let before = market.bill().transactions();
//! payless.query("SELECT * FROM Weather WHERE Weather.Country = 'Country0' \
//!                AND Weather.Date >= 10 AND Weather.Date <= 12").unwrap();
//! assert_eq!(market.bill().transactions(), before);
//! ```

#![warn(missing_docs)]

pub mod report;
pub mod session;

pub use payless_events::{
    known_queries, provenance, render_provenance, Event, EventJournal, EventKind, EventsConfig,
    Provenance, Severity,
};
pub use payless_exec::{
    CallBudget, CallCoalescer, CallOutcome, QueryResult, RetryPolicy, SharedState,
};
pub use payless_market::{BillingReport, DataMarket, Dataset, FaultInjector, FaultKind, FaultPlan};
pub use payless_metrics::{MetricsConfig, MetricsHub};
pub use payless_optimizer::PlanCounters;
pub use payless_semantic::{Consistency, SharedSemanticStore};
pub use payless_serve::{Mode, Serve, ServeConfig};
pub use payless_sql::SelectStmt;
pub use payless_stats::{q_error, QErrorAccumulator, QErrorSummary};
pub use payless_telemetry::{
    CallKind, ChromeTraceBuilder, DatasetSpend, OperatorActual, OperatorEstimate, OperatorTrace,
    QErrorRecord, Recorder, SpendCell, SqrStats, TelemetrySnapshot, TransactionRecord,
};
pub use report::QueryReport;
pub use session::{HistoryEntry, PayLess, QueryOutcome};

/// Re-exported from [`payless_workload`]. It stays here only for
/// `benchmark/src/{socket,ledger}.rs`, which import it from this crate.
pub use payless_workload::build_market;
