//! The PayLess execution engine (steps 4–9 of the paper's architecture).
//!
//! The engine interprets a [`payless_optimizer::PlanNode`]:
//!
//! * **Fetch** leaves re-run semantic rewriting against the *current* store
//!   state, issue the remainder RESTful calls, mirror every retrieved tuple
//!   into the local DBMS, mark the retrieved regions in the semantic store
//!   (step 5.3), and feed actual cardinalities back to the statistics (step
//!   5.4);
//! * **bind-join** nodes probe the market once per distinct binding
//!   combination flowing from the left subplan, with each probe itself
//!   semantically rewritten (a probe into covered territory is free);
//! * **joins**, residual predicates, grouping, aggregation, `DISTINCT` and
//!   `ORDER BY` are evaluated locally on the buyer's engine
//!   ([`payless_storage`]), because "joins cannot be done at the data
//!   market".
//!
//! [`pipeline`] is the one path a query takes to get there — copy the store
//! and the statistics, plan, execute — and the only caller of the optimizer
//! and of [`Executor`]; it also runs the **Download All** baseline (fetch
//! whole tables up front, then answer everything locally) when asked to.
//!
//! Everything runs against one [`SharedState`] — local mirror, semantic
//! store and statistics behind locks — whoever the caller is: the REPL
//! session (a one-client serving layer: uncontended, no coalescer), the
//! in-process mix or the socket server. [`state`] states the lock
//! discipline.

#![warn(missing_docs)]

pub mod call;
pub mod coalesce;
mod download;
pub mod engine;
pub mod pipeline;
pub mod state;

pub use call::{resilient_get, CallBudget, CallOutcome, RetryPolicy};
pub use coalesce::{CallCoalescer, Claim, FlightGuard};
pub use engine::{ExecConfig, Executor, QueryResult};
pub use pipeline::{Env, Mode, PipelineConfig, Ran};
pub use state::{Purchase, PurchaseLog, RowObserver, SharedState};
