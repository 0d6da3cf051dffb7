//! Semantic store and semantic query rewriting (Section 4.2 of the paper).
//!
//! PayLess "stores all RESTful queries issued to the data market and their
//! corresponding results in the semantic store" and answers later queries
//! from those results where possible. What cannot be answered locally is
//! fetched through **remainder queries**, generated by:
//!
//! 1. decomposing the uncovered space `V̄ = Q ∖ ⋃Vᵢ` into elementary boxes
//!    (in [`payless_geometry`]);
//! 2. enumerating candidate bounding boxes over the separator sets with two
//!    pruning rules — *minimality* and *cheaper-than-its-parts* —
//!    (**Algorithm 1**, [`rewrite`]);
//! 3. picking the cheapest feasible subset via Chvátal's greedy **weighted
//!    set cover** ([`cover`]).
//!
//! The store itself ([`SemanticStore`]) tracks, per table, which regions of
//! the query space have been retrieved and when — timestamps drive the
//! weak / X-week / strong consistency levels discussed in Section 4.3.

#![warn(missing_docs)]

pub mod cover;
pub mod rewrite;
pub mod shared;
pub mod store;

pub use cover::{greedy_cover, CoverSet};
pub use rewrite::{rewrite, rewrite_cached, Rewrite, RewriteConfig};
pub use shared::{SharedSemanticStore, SpendObserver};
pub use store::{Consistency, CoverClass, RewriteProbe, SemanticStore, StoreConfig};
