//! Integer hyper-rectangle algebra for PayLess.
//!
//! Semantic query rewriting (Section 4.2 of the paper) reduces to geometry
//! over the *query space* of a table: each constrainable attribute is one
//! dimension, a RESTful call covers an axis-aligned box, and the data still
//! missing from the semantic store is the query box minus the union of stored
//! boxes.
//!
//! Everything here works on **closed integer intervals**. Categorical
//! attributes are mapped by the caller (the semantic crate) onto `0..k-1`
//! index ranges, which makes a single category a point interval and the whole
//! domain the full range; the "a valid remainder query spans one category or
//! the whole domain" rule of the paper is then a *validity filter* applied
//! during candidate enumeration, not a special case of the algebra.
//!
//! The three building blocks the paper's Algorithm 1 needs:
//!
//! 1. [`Region::subtract_all`] / [`decompose`] — decompose `Q ∖ ⋃Vᵢ` into
//!    disjoint **elementary boxes** ([`Decomposition`]), together with the
//!    per-dimension **separator sets** `Sᵢ` collected from box corners;
//! 2. [`BoundingBoxes`] — exhaustive enumeration of candidate bounding boxes
//!    whose extents come from the separator sets;
//! 3. containment/volume predicates used by the two pruning rules.

#![warn(missing_docs)]

pub mod decompose;
pub mod enumerate;
pub mod interval;
pub mod region;
pub mod rtree;
pub mod space;

pub use decompose::{decompose, decompose_pieces, Decomposition, ElementaryBox};
pub use enumerate::BoundingBoxes;
pub use interval::Interval;
pub use region::{union_volume, Region};
pub use rtree::RTree;
pub use space::{DimKind, QuerySpace, SpaceDim};
