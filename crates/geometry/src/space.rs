//! The *query space* of a table: the mapping between attribute constraints
//! and integer boxes.
//!
//! Each constrainable attribute of a table contributes one dimension:
//!
//! * integer attributes map verbatim (`Date ∈ [20140601, 20140630]` is the
//!   interval `[20140601, 20140630]`);
//! * categorical attributes map onto their domain's enumeration indices
//!   (`Country = 'Canada'` becomes the point interval `[1, 1]` if Canada is
//!   the second category). A *valid* RESTful call covers either a single
//!   category or the whole categorical domain — the paper's Figure 8 rule —
//!   which [`QuerySpace::region_is_expressible`] checks.
//!
//! Everything downstream (semantic store, statistics, optimizer) works on
//! [`Region`]s in this space and converts back to [`Constraint`]s only when a
//! RESTful call is actually issued.

use std::sync::Arc;

use payless_types::{Constraint, Domain, Schema, Value};

use crate::interval::Interval;
use crate::region::Region;

/// One dimension of a query space.
#[derive(Debug, Clone)]
pub struct SpaceDim {
    /// Index of the column in the table schema.
    pub col: usize,
    /// Column name (for rendering requests).
    pub name: Arc<str>,
    /// Kind and domain of the dimension.
    pub kind: DimKind,
    /// Lazily built value→index map for categorical dimensions (built on
    /// first use; not part of the logical state).
    cat_lookup: std::sync::OnceLock<std::collections::HashMap<Arc<str>, i64>>,
}

/// The kind of a dimension.
#[derive(Debug, Clone)]
pub enum DimKind {
    /// Integer attribute with inclusive domain bounds.
    Int {
        /// Domain lower bound.
        lo: i64,
        /// Domain upper bound.
        hi: i64,
    },
    /// Categorical attribute; interval coordinates are indices into `values`.
    Cat {
        /// Domain values in canonical order.
        values: Arc<[Arc<str>]>,
    },
}

impl SpaceDim {
    /// The dimension's full extent.
    pub fn full(&self) -> Interval {
        match &self.kind {
            DimKind::Int { lo, hi } => Interval::new(*lo, *hi),
            DimKind::Cat { values } => Interval::new(0, values.len() as i64 - 1),
        }
    }

    /// `true` for categorical dimensions.
    pub fn is_categorical(&self) -> bool {
        matches!(self.kind, DimKind::Cat { .. })
    }

    /// Index of a categorical value, if this is a categorical dimension and
    /// the value is in its domain. O(1) after the first call.
    pub fn cat_index(&self, v: &str) -> Option<i64> {
        match &self.kind {
            DimKind::Cat { values } => self
                .cat_lookup
                .get_or_init(|| {
                    values
                        .iter()
                        .enumerate()
                        .map(|(i, x)| (x.clone(), i as i64))
                        .collect()
                })
                .get(v)
                .copied(),
            DimKind::Int { .. } => None,
        }
    }

    /// The categorical value at `idx` (panics when out of range or numeric).
    pub fn cat_value(&self, idx: i64) -> Arc<str> {
        match &self.kind {
            DimKind::Cat { values } => values[idx as usize].clone(),
            DimKind::Int { .. } => panic!("cat_value on integer dimension"),
        }
    }
}

/// The query space of one table.
#[derive(Debug, Clone)]
pub struct QuerySpace {
    /// Table name.
    pub table: Arc<str>,
    dims: Vec<SpaceDim>,
}

impl QuerySpace {
    /// Build the space from a schema: one dimension per constrainable column,
    /// in schema order.
    pub fn of(schema: &Schema) -> QuerySpace {
        let dims = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.binding.constrainable())
            .map(|(col, c)| SpaceDim {
                col,
                name: c.name.clone(),
                kind: match &c.domain {
                    Domain::Int { lo, hi } => DimKind::Int { lo: *lo, hi: *hi },
                    Domain::Categorical(values) => DimKind::Cat {
                        values: values.clone(),
                    },
                },
                cat_lookup: std::sync::OnceLock::new(),
            })
            .collect();
        QuerySpace {
            table: schema.table.clone(),
            dims,
        }
    }

    /// The dimensions.
    pub fn dims(&self) -> &[SpaceDim] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// The region covering the entire space (an unconstrained call).
    pub fn full_region(&self) -> Region {
        Region::new(self.dims.iter().map(SpaceDim::full).collect())
    }

    /// Dimension index of a schema column, if that column is constrainable.
    pub fn dim_of_col(&self, col: usize) -> Option<usize> {
        self.dims.iter().position(|d| d.col == col)
    }

    /// Map per-column constraints to a region.
    ///
    /// Columns without a constraint span their full extent. Returns `None`
    /// when a constraint is empty in this space (e.g. an equality on a value
    /// outside the categorical domain, or a range disjoint from the integer
    /// domain) — the query matches nothing.
    pub fn region_of(&self, constraints: &[(usize, Constraint)]) -> Option<Region> {
        let mut dims: Vec<Interval> = self.dims.iter().map(SpaceDim::full).collect();
        for (col, c) in constraints {
            let d = self
                .dim_of_col(*col)
                .expect("constraint on non-constrainable column");
            let iv = self.constraint_interval(d, c)?;
            dims[d] = dims[d].intersect(&iv)?;
        }
        Some(Region::new(dims))
    }

    /// The interval a single constraint covers on dimension `d`, or `None`
    /// if empty.
    pub fn constraint_interval(&self, d: usize, c: &Constraint) -> Option<Interval> {
        match (c, &self.dims[d].kind) {
            (Constraint::Eq(Value::Int(v)), DimKind::Int { lo, hi }) => {
                (lo <= v && v <= hi).then(|| Interval::point(*v))
            }
            (Constraint::IntRange { lo, hi }, DimKind::Int { lo: dlo, hi: dhi }) => {
                let lo = (*lo).max(*dlo);
                let hi = (*hi).min(*dhi);
                (lo <= hi).then(|| Interval::new(lo, hi))
            }
            (Constraint::Eq(Value::Str(s)), DimKind::Cat { .. }) => {
                self.dims[d].cat_index(s).map(Interval::point)
            }
            _ => None,
        }
    }

    /// `true` iff a region can be expressed as one RESTful call: every
    /// categorical dimension spans a single value or the whole domain
    /// (Figure 8's validity rule).
    pub fn region_is_expressible(&self, region: &Region) -> bool {
        debug_assert_eq!(region.arity(), self.arity());
        self.dims.iter().enumerate().all(|(i, d)| {
            if !d.is_categorical() {
                return true;
            }
            let iv = region.dim(i);
            iv.width() == 1 || iv == d.full()
        })
    }

    /// Convert a region back to per-column constraints for a RESTful call.
    ///
    /// Dimensions spanning their full extent produce no constraint. Panics
    /// (debug) if the region is not expressible — callers must check
    /// [`Self::region_is_expressible`] or only pass boxes generated per that
    /// rule.
    pub fn constraints_of(&self, region: &Region) -> Vec<(usize, Constraint)> {
        debug_assert!(self.region_is_expressible(region));
        let mut out = Vec::new();
        for (i, d) in self.dims.iter().enumerate() {
            let iv = region.dim(i);
            if iv == d.full() {
                continue;
            }
            let constraint = match &d.kind {
                DimKind::Int { .. } => Constraint::range(iv.lo, iv.hi),
                DimKind::Cat { .. } => Constraint::Eq(Value::Str(d.cat_value(iv.lo))),
            };
            out.push((d.col, constraint));
        }
        out
    }

    /// Split a region into expressible sub-regions: each categorical
    /// dimension spanning a strict subset of 2+ categories is decomposed
    /// per category. Used when a bounding box is cheap but spans several
    /// categorical values (the call interface forces one call per value).
    pub fn expressible_cover(&self, region: &Region) -> Vec<Region> {
        let mut out = vec![region.clone()];
        for (i, d) in self.dims.iter().enumerate() {
            if !d.is_categorical() {
                continue;
            }
            let full = d.full();
            let mut next = Vec::with_capacity(out.len());
            for r in out {
                let iv = r.dim(i);
                if iv.width() == 1 || iv == full {
                    next.push(r);
                } else {
                    for v in iv.lo..=iv.hi {
                        let mut dims = r.dims().to_vec();
                        dims[i] = Interval::point(v);
                        next.push(Region::new(dims));
                    }
                }
            }
            out = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_types::{BindingKind, Column};

    fn weather_schema() -> Schema {
        Schema::new(
            "Weather",
            vec![
                Column::free("Country", Domain::categorical(["US", "CA", "DE"])),
                Column::free("StationID", Domain::int(1, 100)),
                Column::new("Date", Domain::int(1, 30), BindingKind::Free),
                Column::output("Temp", Domain::int(-50, 60)),
            ],
        )
    }

    fn space() -> QuerySpace {
        QuerySpace::of(&weather_schema())
    }

    #[test]
    fn dims_skip_output_columns() {
        let s = space();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.dims()[0].col, 0);
        assert_eq!(s.dims()[2].col, 2);
        assert_eq!(s.dim_of_col(3), None);
        assert_eq!(s.dim_of_col(1), Some(1));
    }

    #[test]
    fn full_region_spans_domains() {
        let s = space();
        let full = s.full_region();
        assert_eq!(full.dim(0), Interval::new(0, 2)); // 3 countries
        assert_eq!(full.dim(1), Interval::new(1, 100));
        assert_eq!(full.dim(2), Interval::new(1, 30));
    }

    #[test]
    fn region_of_constraints_round_trip() {
        let s = space();
        let region = s
            .region_of(&[(0, Constraint::eq("CA")), (2, Constraint::range(5, 10))])
            .unwrap();
        assert_eq!(region.dim(0), Interval::point(1));
        assert_eq!(region.dim(1), Interval::new(1, 100));
        assert_eq!(region.dim(2), Interval::new(5, 10));
        let back = s.constraints_of(&region);
        assert_eq!(
            back,
            vec![(0, Constraint::eq("CA")), (2, Constraint::range(5, 10))]
        );
    }

    #[test]
    fn out_of_domain_constraints_are_empty() {
        let s = space();
        assert!(s.region_of(&[(0, Constraint::eq("FR"))]).is_none());
        assert!(s.region_of(&[(2, Constraint::range(31, 40))]).is_none());
        assert!(s
            .region_of(&[(1, Constraint::Eq(Value::int(500)))])
            .is_none());
    }

    #[test]
    fn range_clipped_to_domain() {
        let s = space();
        let r = s.region_of(&[(2, Constraint::range(25, 99))]).unwrap();
        assert_eq!(r.dim(2), Interval::new(25, 30));
    }

    #[test]
    fn expressibility_rule_for_categoricals() {
        let s = space();
        let full = s.full_region();
        assert!(s.region_is_expressible(&full));
        let mut dims = full.dims().to_vec();
        dims[0] = Interval::point(1);
        assert!(s.region_is_expressible(&Region::new(dims.clone())));
        dims[0] = Interval::new(0, 1); // two of three categories
        assert!(!s.region_is_expressible(&Region::new(dims)));
    }

    #[test]
    fn expressible_cover_splits_partial_categorical_spans() {
        let s = space();
        let mut dims = s.full_region().dims().to_vec();
        dims[0] = Interval::new(0, 1);
        dims[2] = Interval::new(5, 10);
        let covered = s.expressible_cover(&Region::new(dims));
        assert_eq!(covered.len(), 2);
        assert!(covered.iter().all(|r| s.region_is_expressible(r)));
        assert_eq!(covered[0].dim(0), Interval::point(0));
        assert_eq!(covered[1].dim(0), Interval::point(1));
        // Non-categorical dims untouched.
        assert!(covered.iter().all(|r| r.dim(2) == Interval::new(5, 10)));
    }

    #[test]
    fn constraints_of_full_region_is_empty() {
        let s = space();
        assert!(s.constraints_of(&s.full_region()).is_empty());
    }

    #[test]
    fn cat_helpers() {
        let s = space();
        let d = &s.dims()[0];
        assert!(d.is_categorical());
        assert_eq!(d.cat_index("US"), Some(0));
        assert_eq!(d.cat_index("XX"), None);
        assert_eq!(&*d.cat_value(2), "DE");
        assert!(!s.dims()[1].is_categorical());
        assert_eq!(s.dims()[1].cat_index("US"), None);
    }
}
