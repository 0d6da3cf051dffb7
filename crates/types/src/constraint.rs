//! The restricted predicate language accepted by a data market.
//!
//! Per Section 2.1: "For numeric attributes, the input can be bound with a
//! single value or a range"; categorical attributes can only be bound with a
//! single value. Disjunctions are *not* supported by the access interface —
//! a query with `Country = 'Canada' OR Country = 'Germany'` must be
//! decomposed into two calls (Section 1).

use std::fmt;
use std::sync::Arc;

use crate::domain::Domain;
use crate::value::Value;

/// A constraint on a single attribute, expressible at the market interface.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// `A = v` for a categorical (or integer) attribute.
    Eq(Value),
    /// `lo <= A <= hi` for an integer attribute (inclusive bounds).
    IntRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

impl Constraint {
    /// An equality constraint.
    pub fn eq(v: impl Into<Value>) -> Self {
        Constraint::Eq(v.into())
    }

    /// An inclusive integer-range constraint. Panics if `lo > hi`.
    pub fn range(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty range constraint [{lo}, {hi}]");
        Constraint::IntRange { lo, hi }
    }

    /// Whether `value` satisfies the constraint.
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            Constraint::Eq(v) => v == value,
            Constraint::IntRange { lo, hi } => match value {
                Value::Int(x) => lo <= x && x <= hi,
                _ => false,
            },
        }
    }

    /// `true` when the constraint is type-compatible with the domain.
    pub fn compatible_with(&self, domain: &Domain) -> bool {
        matches!(
            (self, domain),
            (Constraint::Eq(Value::Int(_)), Domain::Int { .. })
                | (Constraint::Eq(Value::Str(_)), Domain::Categorical(_))
                | (Constraint::IntRange { .. }, Domain::Int { .. })
        )
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Eq(v) => write!(f, "= {v}"),
            Constraint::IntRange { lo, hi } => write!(f, "in [{lo}, {hi}]"),
        }
    }
}

/// A named constraint: attribute name plus [`Constraint`].
///
/// This is the unit a RESTful request carries for each constrained attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrConstraint {
    /// Attribute (column) name.
    pub attr: Arc<str>,
    /// The constraint itself.
    pub constraint: Constraint,
}

impl AttrConstraint {
    /// Construct from an attribute name and a constraint.
    pub fn new(attr: impl Into<Arc<str>>, constraint: Constraint) -> Self {
        AttrConstraint {
            attr: attr.into(),
            constraint,
        }
    }
}

impl fmt::Display for AttrConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.attr, self.constraint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_matches_same_value_only() {
        let c = Constraint::eq("US");
        assert!(c.matches(&Value::str("US")));
        assert!(!c.matches(&Value::str("CA")));
        assert!(!c.matches(&Value::int(0)));
    }

    #[test]
    fn range_matches_inclusive_bounds() {
        let c = Constraint::range(10, 20);
        assert!(c.matches(&Value::int(10)));
        assert!(c.matches(&Value::int(20)));
        assert!(!c.matches(&Value::int(9)));
        assert!(!c.matches(&Value::int(21)));
        assert!(!c.matches(&Value::str("15")));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_panics() {
        let _ = Constraint::range(5, 4);
    }

    #[test]
    fn compatibility() {
        let ints = Domain::int(0, 9);
        let cats = Domain::categorical(["a", "b"]);
        assert!(Constraint::eq(3).compatible_with(&ints));
        assert!(Constraint::range(0, 3).compatible_with(&ints));
        assert!(Constraint::eq("a").compatible_with(&cats));
        assert!(!Constraint::eq("a").compatible_with(&ints));
        assert!(!Constraint::range(0, 3).compatible_with(&cats));
        assert!(!Constraint::eq(3).compatible_with(&cats));
    }

    #[test]
    fn display_renders() {
        assert_eq!(Constraint::eq("US").to_string(), "= 'US'");
        assert_eq!(Constraint::range(1, 2).to_string(), "in [1, 2]");
        let ac = AttrConstraint::new("Country", Constraint::eq("US"));
        assert_eq!(ac.to_string(), "Country = 'US'");
    }
}
