//! # PayLess — pay-less query optimization over cloud data markets
//!
//! A complete implementation of the system described in *Query Optimization
//! over Cloud Data Market* (Li, Lo, Yiu, Xu — EDBT 2015).
//!
//! A [`PayLess`] session fronts a [`payless_market::DataMarket`] with a SQL
//! interface. Queries may mix local tables with market tables; PayLess
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
//! use payless_core::{PayLess, PayLessConfig};
//! use payless_workload::{QueryWorkload, RealWorkload, WhwConfig};
//! use std::sync::Arc;
//!
//! // A synthetic weather data market (the paper's running example).
//! let workload = RealWorkload::generate(&WhwConfig::scaled(0.01));
//! let market = Arc::new(payless_core::build_market(&workload, 100));
//! let mut payless = PayLess::new(market.clone(), PayLessConfig::default());
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
pub use payless_semantic::{Consistency, SharedSemanticStore, StoreConfig};
pub use payless_sql::SelectStmt;
pub use payless_stats::StatsBackend;
pub use payless_stats::{q_error, QErrorAccumulator, QErrorSummary};
pub use payless_telemetry::{
    CallKind, ChromeTraceBuilder, DatasetSpend, OperatorActual, OperatorEstimate, OperatorTrace,
    QErrorRecord, Recorder, SpendCell, SqrStats, TelemetrySnapshot, TransactionRecord,
};
pub use report::QueryReport;
pub use session::{
    build_market, HistoryEntry, Mode, PayLess, PayLessConfig, QueryOutcome, SessionSnapshot,
};
