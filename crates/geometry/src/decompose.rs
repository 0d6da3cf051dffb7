//! Elementary-box decomposition of the uncovered query space (Section 4.2).
//!
//! Given a query box `Q` and the stored-view boxes `V = {V₁, …}`, the
//! *remainder space* is `Q ∖ ⋃Vᵢ`. PayLess decomposes it into a union of
//! disjoint **elementary boxes** and collects a per-dimension **separator
//! set** `Sᵢ` from their corners (Figure 7c of the paper). Candidate
//! remainder queries (bounding boxes) are then enumerated with extents drawn
//! from the separator sets.
//!
//! The decomposition here guarantees the property Algorithm 1 relies on:
//! every bounding box whose extents come from the separator sets contains
//! each elementary box either **entirely or not at all** — so "the set of
//! elementary boxes inside B" is well defined for pruning and set cover.
//! This holds because the elementary boxes are re-gridded along the separator
//! coordinates after the subtraction sweep.

use crate::interval::Interval;
use crate::region::Region;

/// One elementary box of the uncovered space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementaryBox {
    /// The box itself.
    pub region: Region,
}

/// The result of decomposing `Q ∖ ⋃Vᵢ`.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Per-dimension sorted separator coordinates, in *boundary* convention:
    /// a value `s ∈ Sᵢ` is the coordinate where a cell starts; an extent is
    /// formed from two boundaries `a < b` as the closed interval `[a, b-1]`.
    /// Always contains at least the extremes of the uncovered space.
    /// Empty per-dimension sets iff the query is fully covered.
    pub separators: Vec<Vec<i64>>,
    /// Disjoint, separator-aligned boxes exactly tiling `Q ∖ ⋃Vᵢ`.
    pub elementary: Vec<ElementaryBox>,
}

impl Decomposition {
    /// `true` when the stored views already cover the whole query box —
    /// the query is answerable for free (a *zero-price relation* in the sense
    /// of Theorem 2).
    pub fn fully_covered(&self) -> bool {
        self.elementary.is_empty()
    }

    /// Total number of uncovered lattice points.
    pub fn uncovered_volume(&self) -> u128 {
        self.elementary.iter().map(|e| e.region.volume()).sum()
    }

    /// Number of candidate bounding boxes an exhaustive enumeration over the
    /// separator sets would produce: `Π C(|Sᵢ|, 2)`, saturating.
    pub fn enumeration_size(&self) -> u128 {
        self.separators.iter().fold(1u128, |acc, s| {
            let n = s.len() as u128;
            acc.saturating_mul(n * (n.saturating_sub(1)) / 2)
        })
    }
}

/// Decompose `q ∖ ⋃views` into separator-aligned elementary boxes.
///
/// Views that do not overlap `q` are ignored; overlapping views are clipped
/// to `q` first, so callers may pass the raw stored regions — by value or as
/// `Arc<Region>` handles straight out of the semantic store's index.
pub fn decompose<V: std::borrow::Borrow<Region>>(q: &Region, views: &[V]) -> Decomposition {
    let clipped: Vec<Region> = views
        .iter()
        .filter_map(|v| v.borrow().intersect(q))
        .collect();
    decompose_pieces(q.arity(), q.subtract_all(&clipped))
}

/// Decompose an already-computed remainder (a set of disjoint boxes tiling
/// `Q ∖ ⋃Vᵢ`) into separator-aligned elementary boxes.
///
/// The rewriter calls this on the fresh subtraction `Q ∖ ⋃Vᵢ`. The
/// separator/re-grid guarantees are identical to [`decompose`]: any box
/// whose extents come from the separator sets contains each elementary box
/// entirely or not at all.
pub fn decompose_pieces(arity: usize, remainder: Vec<Region>) -> Decomposition {
    if remainder.is_empty() {
        return Decomposition {
            separators: vec![Vec::new(); arity],
            elementary: Vec::new(),
        };
    }
    // Separator sets from the corners of the remainder boxes.
    let mut separators: Vec<Vec<i64>> = vec![Vec::new(); arity];
    for r in &remainder {
        for (i, iv) in r.dims().iter().enumerate() {
            separators[i].push(iv.lo);
            // hi + 1 cannot overflow for realistic domains; saturate to be safe.
            separators[i].push(iv.hi.saturating_add(1));
        }
    }
    for s in &mut separators {
        s.sort_unstable();
        s.dedup();
    }

    // Re-grid each remainder box along the separators so that every box from
    // the separator lattice contains each elementary box fully or not at all.
    let mut elementary = Vec::with_capacity(remainder.len());
    for r in &remainder {
        split_along(r, &separators, 0, &mut elementary);
    }

    Decomposition {
        separators,
        elementary,
    }
}

/// Recursively split `r` at every separator strictly inside it, dimension by
/// dimension, pushing the resulting aligned cells.
fn split_along(r: &Region, separators: &[Vec<i64>], dim: usize, out: &mut Vec<ElementaryBox>) {
    if dim == r.arity() {
        out.push(ElementaryBox { region: r.clone() });
        return;
    }
    let iv = r.dim(dim);
    // Cut points strictly inside (iv.lo, iv.hi].
    let cuts: Vec<i64> = separators[dim]
        .iter()
        .copied()
        .filter(|&s| s > iv.lo && s <= iv.hi)
        .collect();
    let mut lo = iv.lo;
    for cut in cuts.iter().copied().chain(std::iter::once(iv.hi + 1)) {
        let piece = Interval::new(lo, cut - 1);
        let mut dims = r.dims().to_vec();
        dims[dim] = piece;
        split_along(&Region::new(dims), separators, dim + 1, out);
        lo = cut;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region;
    use proptest::prelude::*;

    #[test]
    fn no_views_single_elementary_box() {
        let q = region![(0, 100)];
        let d = decompose::<Region>(&q, &[]);
        assert!(!d.fully_covered());
        assert_eq!(d.elementary.len(), 1);
        assert_eq!(d.elementary[0].region, q);
        assert_eq!(d.separators, vec![vec![0, 101]]);
        assert_eq!(d.uncovered_volume(), 101);
        assert_eq!(d.enumeration_size(), 1);
    }

    #[test]
    fn fully_covered_query() {
        let q = region![(10, 20)];
        let d = decompose(&q, &[region![(0, 100)]]);
        assert!(d.fully_covered());
        assert_eq!(d.uncovered_volume(), 0);
        assert_eq!(d.enumeration_size(), 0);
    }

    #[test]
    fn paper_figure6_one_dim() {
        // Q = A[0,100], V1 = [10,19], V2 = [30,59] (closed-interval encoding
        // of the paper's [10,20) and [30,60)).
        let q = region![(0, 100)];
        let d = decompose(&q, &[region![(10, 19)], region![(30, 59)]]);
        let boxes: Vec<_> = d.elementary.iter().map(|e| e.region.clone()).collect();
        assert_eq!(
            boxes,
            vec![region![(0, 9)], region![(20, 29)], region![(60, 100)]]
        );
        assert_eq!(d.separators, vec![vec![0, 10, 20, 30, 60, 101]]);
    }

    #[test]
    fn views_outside_query_are_ignored() {
        let q = region![(0, 10), (0, 10)];
        let d = decompose(&q, &[region![(20, 30), (0, 10)]]);
        assert_eq!(d.elementary.len(), 1);
        assert_eq!(d.elementary[0].region, q);
    }

    #[test]
    fn elementary_boxes_are_separator_aligned() {
        let q = region![(0, 9), (0, 9)];
        let views = [region![(0, 4), (0, 4)], region![(2, 7), (6, 9)]];
        let d = decompose(&q, &views);
        for e in &d.elementary {
            for (i, iv) in e.region.dims().iter().enumerate() {
                assert!(
                    d.separators[i].binary_search(&iv.lo).is_ok(),
                    "lo {} of {} not a separator",
                    iv.lo,
                    e.region
                );
                assert!(
                    d.separators[i].binary_search(&(iv.hi + 1)).is_ok(),
                    "hi+1 {} of {} not a separator",
                    iv.hi + 1,
                    e.region
                );
            }
        }
    }

    fn arb_box(span: i64) -> impl Strategy<Value = Region> {
        proptest::collection::vec((0..span).prop_flat_map(move |lo| (Just(lo), lo..span)), 2)
            .prop_map(|dims| {
                Region::new(dims.into_iter().map(|(l, h)| Interval::new(l, h)).collect())
            })
    }

    proptest! {
        /// Elementary boxes exactly tile the uncovered space (pointwise).
        #[test]
        fn decomposition_tiles_uncovered_space(
            q in arb_box(8),
            views in proptest::collection::vec(arb_box(8), 0..4),
        ) {
            let d = decompose(&q, &views);
            for x in q.dim(0).lo..=q.dim(0).hi {
                for y in q.dim(1).lo..=q.dim(1).hi {
                    let p = [x, y];
                    let in_view = views.iter().any(|v| v.contains_point(&p));
                    let hits = d.elementary.iter()
                        .filter(|e| e.region.contains_point(&p)).count();
                    prop_assert_eq!(hits, usize::from(!in_view));
                }
            }
        }

        /// Any box whose extents are drawn from the separator sets contains
        /// each elementary box fully or not at all.
        #[test]
        fn separator_boxes_never_split_elementary_boxes(
            q in arb_box(8),
            views in proptest::collection::vec(arb_box(8), 1..4),
            pick in proptest::collection::vec((0usize..8, 0usize..8), 2),
        ) {
            let d = decompose(&q, &views);
            if d.fully_covered() { return Ok(()); }
            // Build a box from separator picks (modulo lengths).
            let mut dims = Vec::new();
            for (i, (a, b)) in pick.iter().enumerate() {
                let s = &d.separators[i];
                let (mut a, mut b) = (a % s.len(), b % s.len());
                if a == b { return Ok(()); }
                if a > b { std::mem::swap(&mut a, &mut b); }
                dims.push(Interval::new(s[a], s[b] - 1));
            }
            let bbox = Region::new(dims);
            for e in &d.elementary {
                let inside = bbox.contains(&e.region);
                let outside = !bbox.overlaps(&e.region);
                prop_assert!(inside || outside,
                    "box {} splits elementary {}", bbox, e.region);
            }
        }
    }
}
