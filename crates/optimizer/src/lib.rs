//! PayLess's query optimizer (Section 4 of the paper).
//!
//! A bottom-up, cost-based dynamic-programming optimizer whose objective is
//! **money**: the estimated number of data-market transactions a plan incurs.
//! Three theorems shrink its search space without losing the optimum:
//!
//! * **Theorem 1** — only left-deep plans need enumeration (any plan can be
//!   rotated left-deep without increasing its price);
//! * **Theorem 2** — *zero-price* relations (local tables, and market tables
//!   whose required region the semantic store already covers) are joined
//!   first, in one leftmost prefix;
//! * **Theorem 3** — a subset of relations that splits into join-disconnected
//!   components is best planned per component and glued with (costless)
//!   Cartesian products.
//!
//! Access paths per relation: a **fetch** (RESTful range/point calls for the
//! required region, semantically rewritten against the store), or a **bind
//! join** (one call per distinct binding value flowing from the plan's left
//! side). For comparison with prior work the crate also ships a **bushy**
//! DP engine (used when the theorems are disabled, and by the
//! "Minimizing Calls" baseline of Florescu et al., which optimizes the number
//! of RESTful calls instead of transactions) and the **Download All**
//! baseline.

#![warn(missing_docs)]

pub mod baselines;
pub mod cost;
pub mod dp;
mod introspect;
pub mod plan;

#[cfg(test)]
mod tests_cost;

pub use baselines::download_all_cost;
pub use cost::{CostCtx, CostModel, EstBreakdown, MarketMeta, PlanCounters};
pub use dp::{optimize, Optimized, OptimizerConfig, SearchStrategy};
pub use plan::{AccessMethod, BindPair, PlanNode};
