//! Remainder-query generation — Algorithm 1 of the paper plus the weighted
//! set-cover selection step.
//!
//! Given a query region `Q`, the usable stored views `V`, and the table's
//! statistics, [`rewrite`] returns the set of remainder queries to send to
//! the market. Candidates are bounding boxes whose extents are drawn from
//! the separator sets of the elementary-box decomposition; two pruning rules
//! discard non-minimal boxes and boxes costlier than their parts; Chvátal's
//! greedy picks the cheapest feasible cover. Remainder queries may
//! deliberately **overlap** stored views when the transaction arithmetic
//! makes that cheaper (the paper's `Q₄ᴿᵉᵐ` example).
//!
//! Categorical dimensions follow Figure 8's validity rule: a remainder query
//! spans either a single category or the whole categorical domain. Cells are
//! split per category where needed so that every candidate box contains each
//! cell entirely or not at all.

use std::borrow::Borrow;

use payless_geometry::{decompose_pieces, Interval, QuerySpace, Region};
use payless_stats::TableStats;

use crate::cover::{greedy_cover, CoverSet};

/// Tuning knobs of the rewriter (the defaults match the paper's setup; the
/// flags exist for the Figure 15 ablation).
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// Pruning rule 1: keep only minimum bounding boxes.
    pub minimal_pruning: bool,
    /// Pruning rule 2: drop boxes at least as expensive as their parts.
    pub price_pruning: bool,
    /// Cap on the candidate enumeration; beyond it the rewriter falls back
    /// to per-cell boxes plus the remainder hull.
    pub max_candidates: u64,
    /// Cap on elementary cells, counted before and after categorical
    /// splitting. A remainder with more cells skips Algorithm 1 and issues
    /// the raw subtraction pieces, or the whole query in one call when that
    /// is estimated no dearer (correct, possibly suboptimal) — keeping
    /// rewriting linear in the fragmentation.
    pub max_cells: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            minimal_pruning: true,
            price_pruning: true,
            max_candidates: 2_048,
            max_cells: 256,
        }
    }
}

impl RewriteConfig {
    /// Both pruning rules off (the "No Pruning" line of Figure 15).
    pub fn no_pruning() -> Self {
        RewriteConfig {
            minimal_pruning: false,
            price_pruning: false,
            ..Self::default()
        }
    }

    /// The default configuration under its former exact-mode name. No
    /// program caller (`clippy.toml` forbids one); it stays only because
    /// `benchmark/src/ledger.rs` names it, and goes with the benchmark PR.
    pub fn exact() -> Self {
        Self::default()
    }
}

/// The rewriter's outcome for one table access.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// Remainder queries to send to the market (each expressible as one
    /// RESTful call). Empty iff the stored views already cover the query.
    pub remainders: Vec<Region>,
    /// Estimated transactions the remainders will cost.
    pub est_transactions: f64,
    /// `true` when the query is fully answerable from the store.
    pub fully_covered: bool,
    /// Candidate boxes enumerated before pruning (Figure 15's "No Pruning").
    pub boxes_enumerated: u64,
    /// Candidate boxes surviving both pruning rules (Figure 15's "PayLess").
    pub boxes_kept: u64,
    /// Sets handed to the weighted set-cover solver (0 when the fast paths
    /// bypassed it).
    pub cover_sets: u64,
    /// Sets the greedy cover actually chose.
    pub cover_chosen: u64,
}

/// Estimated transactions for a call expected to return `est` tuples.
pub fn est_transactions(est: f64, page_size: u64) -> f64 {
    if est <= 0.0 {
        0.0
    } else {
        (est / page_size as f64).ceil().max(1.0)
    }
}

/// Generate the cheapest estimated set of remainder queries for `query`
/// given stored `views`.
///
/// Views may be passed by value or as `Arc<Region>` handles straight out of
/// the semantic store's index.
pub fn rewrite<V: Borrow<Region>>(
    stats: &TableStats,
    page_size: u64,
    query: &Region,
    views: &[V],
    cfg: &RewriteConfig,
) -> Rewrite {
    let clipped: Vec<Region> = views
        .iter()
        .filter_map(|v| v.borrow().intersect(query))
        .collect();
    rewrite_cached(stats, page_size, query, &query.subtract_all(&clipped), cfg)
}

/// The back half of [`rewrite`]: Algorithm 1 over the remainder `Q ∖ ⋃Vᵢ`
/// already subtracted. `pieces` must be disjoint boxes inside `query`
/// exactly tiling the uncovered space. Every program rewrite goes through
/// [`rewrite`]; this stays public because `benchmark/src/ledger.rs`
/// imports it.
pub fn rewrite_cached(
    stats: &TableStats,
    page_size: u64,
    query: &Region,
    pieces: &[Region],
    cfg: &RewriteConfig,
) -> Rewrite {
    let space = stats.space();
    if pieces.is_empty() {
        return Rewrite {
            remainders: Vec::new(),
            est_transactions: 0.0,
            fully_covered: true,
            boxes_enumerated: 0,
            boxes_kept: 0,
            cover_sets: 0,
            cover_chosen: 0,
        };
    }

    // --- Fragmentation fast path -----------------------------------------
    // A store shattered into very many uncovered pieces would make the
    // candidate x cell containment work quadratic. Issue the raw
    // subtraction pieces directly (split per category where the interface
    // demands it); the cover is exact, just not cost-minimized. Every piece
    // yields at least one elementary cell, so a piece count over the cap
    // skips the re-grid entirely — it could only confirm the overflow.
    let d = if pieces.len() > cfg.max_cells {
        None
    } else {
        Some(decompose_pieces(query.arity(), pieces.to_vec()))
    };
    let fragmented = d
        .as_ref()
        .is_none_or(|d| d.elementary.len() > cfg.max_cells);
    if fragmented {
        return capped_rewrite(stats, page_size, query, pieces);
    }

    // --- Cells, with categorical dimensions split to expressible widths ---
    let d = d.expect("non-fragmented path always decomposed");
    let mut cells: Vec<Region> = d.elementary.iter().map(|e| e.region.clone()).collect();
    let mut extent_lists: Vec<Vec<Interval>> = Vec::with_capacity(space.arity());
    for (i, dim) in space.dims().iter().enumerate() {
        if !dim.is_categorical() {
            // Integer dimension: all separator pairs.
            let seps = &d.separators[i];
            let mut extents = Vec::with_capacity(seps.len() * (seps.len() - 1) / 2);
            for (a_idx, &a) in seps.iter().enumerate() {
                for &b in &seps[a_idx + 1..] {
                    extents.push(Interval::new(a, b - 1));
                }
            }
            extent_lists.push(extents);
            continue;
        }
        // Categorical dimension: unit-split cells whose span is a strict
        // multi-category subset, then allow point extents plus (optionally)
        // the full domain.
        let full = dim.full();
        let needs_split = cells
            .iter()
            .any(|c| c.dim(i).width() > 1 && c.dim(i) != full);
        // Even full-span cells must be split if any sibling is: a point
        // extent cannot contain a full-span cell, so widths must agree.
        let mixed_widths = {
            let mut has_point = false;
            let mut has_full = false;
            for c in &cells {
                if c.dim(i).width() == 1 {
                    has_point = true;
                } else {
                    has_full = true;
                }
            }
            has_point && has_full
        };
        if needs_split || mixed_widths {
            let mut split = Vec::with_capacity(cells.len());
            for c in cells {
                let iv = c.dim(i);
                if iv.width() == 1 {
                    split.push(c);
                } else {
                    for v in iv.lo..=iv.hi {
                        let mut dims = c.dims().to_vec();
                        dims[i] = Interval::point(v);
                        split.push(Region::new(dims));
                    }
                }
            }
            cells = split;
        }
        // Extent list: distinct cell extents on this dimension, plus the
        // full domain when the query itself spans it (Figure 8's B3-style
        // whole-domain remainder).
        let mut extents: Vec<Interval> = Vec::new();
        for c in &cells {
            let iv = c.dim(i);
            if !extents.contains(&iv) {
                extents.push(iv);
            }
        }
        if query.dim(i) == full && !extents.contains(&full) {
            extents.push(full);
        }
        extents.sort();
        extent_lists.push(extents);
    }

    // Category splitting may have re-inflated the cell count past the cap:
    // the same exit as a fragmented remainder.
    if cells.len() > cfg.max_cells {
        return capped_rewrite(stats, page_size, query, pieces);
    }

    // --- Enumeration size and fallback ---
    let enumerated: u64 = extent_lists
        .iter()
        .fold(1u64, |acc, l| acc.saturating_mul(l.len() as u64));
    let candidates: Vec<Region> = if enumerated > cfg.max_candidates {
        // Fallback: each cell individually, plus the hull widened to
        // expressibility when possible.
        let mut c: Vec<Region> = cells.clone();
        if let Some(hull) = Region::hull(cells.iter()) {
            if let Some(h) = widen_to_expressible(space, &hull, query) {
                if !c.contains(&h) {
                    c.push(h);
                }
            }
        }
        c
    } else {
        cartesian(&extent_lists)
    };

    // --- Pruning (Algorithm 1) ---
    // Rule 1 (minimality) is pure geometry — no statistics probe — so it
    // runs *before* scoring: only rule-1 survivors are ever priced. Rule 2
    // compares a box's price against the sum of its parts, so it
    // necessarily runs after scoring.
    let mut survivors: Vec<(Region, Vec<usize>)> = Vec::new();
    for b in candidates {
        let mut contained = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            if b.contains(cell) {
                contained.push(ci);
            } else {
                debug_assert!(!b.overlaps(cell), "candidate {b} splits cell {cell}");
            }
        }
        if contained.is_empty() {
            continue;
        }
        // Pruning rule 1: minimum bounding boxes only. A box is minimal when
        // each extent is the smallest *expressible* extent covering its
        // cells.
        if cfg.minimal_pruning && !is_minimal(space, &b, &contained, &cells) {
            continue;
        }
        survivors.push((b, contained));
    }

    // Price scoring: one statistics probe per cell and per surviving
    // candidate — the rewriter's dominant cost at high view counts.
    let price_of = |r: &Region| est_transactions(stats.estimate(r), page_size);
    let cell_prices: Vec<f64> = cells.iter().map(price_of).collect();

    let mut sets: Vec<CoverSet> = Vec::new();
    let mut regions: Vec<Region> = Vec::new();
    for (b, contained) in survivors {
        let price = price_of(&b);
        // Pruning rule 2: a multi-cell box must beat the sum of its parts.
        // Per-cell boxes are always kept so the cover stays feasible.
        if cfg.price_pruning && contained.len() > 1 {
            let parts: f64 = contained.iter().map(|&ci| cell_prices[ci]).sum();
            if price >= parts {
                continue;
            }
        }
        sets.push(CoverSet::new(price, contained));
        regions.push(b);
    }
    let boxes_kept = sets.len() as u64;

    // --- Weighted set cover ---
    let chosen =
        greedy_cover(cells.len(), &sets).expect("per-cell candidates guarantee feasibility");
    let est: f64 = chosen.iter().map(|&i| sets[i].cost).sum();
    let cover_chosen = chosen.len() as u64;
    let remainders: Vec<Region> = chosen.into_iter().map(|i| regions[i].clone()).collect();
    debug_assert!(remainders.iter().all(|r| space.region_is_expressible(r)));

    Rewrite {
        remainders,
        est_transactions: est,
        fully_covered: false,
        boxes_enumerated: enumerated,
        boxes_kept,
        cover_sets: boxes_kept,
        cover_chosen,
    }
}

/// The exit for a remainder with more cells than `RewriteConfig::max_cells`,
/// before or after categorical splitting: issue the raw subtraction pieces
/// (split per category where the interface demands it) — exact, just not
/// cost-minimized — or the whole query as one call when that is estimated
/// no dearer. The whole query region is always a valid remainder (overlap
/// with stored views is allowed); when coverage has fragmented into a storm
/// of slivers, one consolidated call is often cheaper in both transactions
/// (ceil-per-call) and calls, and recording it heals the fragmentation.
fn capped_rewrite(
    stats: &TableStats,
    page_size: u64,
    query: &Region,
    pieces: &[Region],
) -> Rewrite {
    let space = stats.space();
    let cost = |rs: &[Region]| -> f64 {
        rs.iter()
            .map(|r| est_transactions(stats.estimate(r), page_size))
            .sum()
    };
    let remainders: Vec<Region> = pieces
        .iter()
        .flat_map(|piece| space.expressible_cover(piece))
        .collect();
    let pieces_cost = cost(&remainders);
    let whole = space.expressible_cover(query);
    let whole_cost = cost(&whole);
    let n = remainders.len() as u64;
    let (remainders, est_transactions, boxes_kept) =
        if whole_cost <= pieces_cost || remainders.len() > 512 {
            (whole, whole_cost, 1)
        } else {
            (remainders, pieces_cost, n)
        };
    Rewrite {
        remainders,
        est_transactions,
        fully_covered: false,
        boxes_enumerated: n,
        boxes_kept,
        cover_sets: 0,
        cover_chosen: 0,
    }
}

/// Minimality check of pruning rule 1, expressibility-aware.
fn is_minimal(space: &QuerySpace, b: &Region, contained: &[usize], cells: &[Region]) -> bool {
    let hull =
        Region::hull(contained.iter().map(|&ci| &cells[ci])).expect("contained is non-empty");
    for (i, dim) in space.dims().iter().enumerate() {
        let extent = b.dim(i);
        let span = hull.dim(i);
        if dim.is_categorical() {
            let minimal = if span.width() == 1 { span } else { dim.full() };
            if extent != minimal {
                return false;
            }
        } else if extent != span {
            return false;
        }
    }
    true
}

/// Widen a hull to an expressible box (categorical dims spanning several
/// values become the full domain), provided the query itself allows it.
fn widen_to_expressible(space: &QuerySpace, hull: &Region, query: &Region) -> Option<Region> {
    let mut dims = hull.dims().to_vec();
    for (i, dim) in space.dims().iter().enumerate() {
        if dim.is_categorical() && dims[i].width() > 1 && dims[i] != dim.full() {
            if query.dim(i) == dim.full() {
                dims[i] = dim.full();
            } else {
                return None;
            }
        }
    }
    Some(Region::new(dims))
}

/// Cartesian product of per-dimension extent lists.
fn cartesian(extent_lists: &[Vec<Interval>]) -> Vec<Region> {
    let mut out: Vec<Vec<Interval>> = vec![Vec::new()];
    for list in extent_lists {
        let mut next = Vec::with_capacity(out.len() * list.len());
        for prefix in &out {
            for &iv in list {
                let mut p = prefix.clone();
                p.push(iv);
                next.push(p);
            }
        }
        out = next;
    }
    out.into_iter().map(Region::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::region;
    use payless_types::{Column, Domain, Schema};

    /// 1-D table over [0,100] with the paper's Figure 6 cardinalities.
    fn figure6_stats() -> TableStats {
        let schema = Schema::new("R", vec![Column::free("A", Domain::int(0, 100))]);
        let mut s = TableStats::new(QuerySpace::of(&schema), 298);
        // Teach the model the paper's segment counts:
        // [0,10) = 21, [10,20) = 28, [20,30) = 34, [30,60) = 91, [60,100] = 123.
        s.feedback(&region![(0, 9)], 21);
        s.feedback(&region![(10, 19)], 28);
        s.feedback(&region![(20, 29)], 34);
        s.feedback(&region![(30, 59)], 91);
        s.feedback(&region![(60, 100)], 123);
        s
    }

    #[test]
    fn figure6_prefers_overlapping_remainder() {
        // Stored: V1 = [10,20) and V2 = [30,60). Query: [0,100].
        // Best plan (the paper's Rem2): [0,30) for 1 txn + [60,100] for 2,
        // total 3 — beating the disjoint Rem1 at 4.
        let stats = figure6_stats();
        let views = [region![(10, 19)], region![(30, 59)]];
        let out = rewrite(
            &stats,
            100,
            &region![(0, 100)],
            &views,
            &RewriteConfig::default(),
        );
        assert!(!out.fully_covered);
        assert_eq!(out.est_transactions, 3.0);
        assert_eq!(out.remainders.len(), 2);
        assert!(out.remainders.contains(&region![(0, 29)]));
        assert!(out.remainders.contains(&region![(60, 100)]));
    }

    #[test]
    fn fully_covered_query_needs_no_calls() {
        let stats = figure6_stats();
        let out = rewrite(
            &stats,
            100,
            &region![(12, 18)],
            &[region![(10, 19)]],
            &RewriteConfig::default(),
        );
        assert!(out.fully_covered);
        assert!(out.remainders.is_empty());
        assert_eq!(out.est_transactions, 0.0);
    }

    #[test]
    fn no_views_yields_single_remainder() {
        let stats = figure6_stats();
        let out = rewrite(
            &stats,
            100,
            &region![(0, 100)],
            &[] as &[Region],
            &RewriteConfig::default(),
        );
        assert_eq!(out.remainders, vec![region![(0, 100)]]);
        // 298 tuples at page 100 -> 3 transactions.
        assert_eq!(out.est_transactions, 3.0);
    }

    #[test]
    fn pruning_reduces_boxes_but_preserves_cost() {
        let stats = figure6_stats();
        let views = [region![(10, 19)], region![(30, 59)]];
        let q = region![(0, 100)];
        let pruned = rewrite(&stats, 100, &q, &views, &RewriteConfig::default());
        let raw = rewrite(&stats, 100, &q, &views, &RewriteConfig::no_pruning());
        assert!(pruned.boxes_kept <= raw.boxes_kept);
        assert_eq!(pruned.boxes_enumerated, raw.boxes_enumerated);
        // Pruning may only remove dominated candidates: the chosen cover
        // cost must not degrade.
        assert!(pruned.est_transactions <= raw.est_transactions + 1e-9);
    }

    #[test]
    fn remainders_cover_all_missing_data() {
        let stats = figure6_stats();
        let views = [region![(5, 24)], region![(40, 79)]];
        let q = region![(0, 100)];
        let out = rewrite(&stats, 100, &q, &views, &RewriteConfig::default());
        // Every uncovered point must lie in some remainder.
        let mut all_views = views.to_vec();
        all_views.extend(out.remainders.iter().cloned());
        assert!(q.subtract_all(&all_views).is_empty());
    }

    /// 2-D space with one categorical dimension (Figure 8's setting).
    fn cat_stats() -> TableStats {
        let schema = Schema::new(
            "R",
            vec![
                Column::free("A1", Domain::int(0, 89)),
                Column::free(
                    "A2",
                    Domain::categorical(["b1", "b2", "b3", "b4", "b5", "b6"]),
                ),
            ],
        );
        TableStats::new(QuerySpace::of(&schema), 5400)
    }

    #[test]
    fn categorical_remainders_are_expressible() {
        let stats = cat_stats();
        let space = stats.space().clone();
        // Query: A1 in [30,80], all categories. Views cover scattered parts.
        let q = region![(30, 80), (0, 5)];
        let views = [
            region![(30, 49), (0, 0)],
            region![(30, 59), (2, 2)],
            region![(50, 80), (4, 4)],
        ];
        let out = rewrite(&stats, 100, &q, &views, &RewriteConfig::default());
        assert!(!out.fully_covered);
        for r in &out.remainders {
            assert!(space.region_is_expressible(r), "{r} not expressible");
        }
        // Coverage check.
        let mut all = views.to_vec();
        all.extend(out.remainders.iter().cloned());
        assert!(q.subtract_all(&all).is_empty());
    }

    /// A remainder whose categorical split overflows `max_cells` takes the
    /// same exit as one fragmented before the split: the raw pieces or the
    /// whole query in one call, whichever is estimated cheaper — never one
    /// call per split cell, which prices every sliver at a full page.
    #[test]
    fn overflow_after_category_split_weighs_the_whole_query() {
        let stats = cat_stats();
        let q = region![(0, 89), (0, 5)];
        // Coverage on half the categories of a middle band: the remainder
        // is 5 cells, 15 once the 3-category extents are split to points.
        let views = [region![(30, 59), (0, 2)]];
        let cfg = RewriteConfig {
            max_cells: 8,
            ..RewriteConfig::default()
        };
        // 5400 tuples over 90 x 6 points: one call for the whole query is
        // 6 pages of 1000; the 15 split cells would be 15 calls of 300.
        let out = rewrite(&stats, 1000, &q, &views, &cfg);
        assert_eq!(out.remainders, vec![q.clone()]);
        assert_eq!(out.est_transactions, 6.0);
        // Below the cap Algorithm 1 runs and finds no dearer cover.
        let full = rewrite(&stats, 1000, &q, &views, &RewriteConfig::default());
        assert!(full.est_transactions <= out.est_transactions);
    }

    #[test]
    fn whole_domain_candidate_wins_when_cheap() {
        // 6 categories each missing a sliver; one whole-domain call can be
        // cheaper than 6 per-category calls when each sliver rounds up to a
        // full transaction.
        let mut stats = cat_stats();
        // Teach: the band A1 in [30,39] x each category holds 30 tuples.
        for c in 0..6 {
            stats.feedback(&region![(30, 39), (c, c)], 30);
        }
        let q = region![(30, 39), (0, 5)];
        let out = rewrite(&stats, 100, &q, &[] as &[Region], &RewriteConfig::default());
        // Whole-domain box: 180 tuples -> 2 txns; per-category: 6 x 1 = 6.
        assert_eq!(out.remainders.len(), 1);
        assert_eq!(out.remainders[0], region![(30, 39), (0, 5)]);
        assert_eq!(out.est_transactions, 2.0);
    }

    #[test]
    fn point_categorical_query_stays_point() {
        let stats = cat_stats();
        let q = region![(0, 89), (3, 3)];
        let out = rewrite(&stats, 100, &q, &[] as &[Region], &RewriteConfig::default());
        assert_eq!(out.remainders, vec![q.clone()]);
    }

    #[test]
    fn fallback_on_combinatorial_blowup_still_covers() {
        let schema = Schema::new("R", vec![Column::free("A", Domain::int(0, 1000))]);
        let mut stats = TableStats::new(QuerySpace::of(&schema), 10_000);
        // Many scattered views -> many separators.
        let mut views = Vec::new();
        for i in 0..20 {
            let lo = i * 40;
            views.push(region![(lo, lo + 9)]);
            stats.feedback(&region![(lo, lo + 9)], 100);
        }
        let q = region![(0, 1000)];
        let cfg = RewriteConfig {
            max_candidates: 10, // force fallback
            ..Default::default()
        };
        let out = rewrite(&stats, 100, &q, &views, &cfg);
        let mut all = views.clone();
        all.extend(out.remainders.iter().cloned());
        assert!(q.subtract_all(&all).is_empty());
        assert!(out.boxes_enumerated > 10);
    }

    #[test]
    fn figure7_two_dimensional_rewrite() {
        // The paper's Figure 7: Q = R(A1[30,80], A2[0,50]) with ten stored
        // views scattered around it. We reproduce the geometry (closed
        // intervals) and check that (a) the remainders plus views cover Q,
        // (b) pruning discards most of the enumeration, and (c) merged
        // boxes that overlap stored views are allowed to win.
        let schema = Schema::new(
            "R",
            vec![
                Column::free("A1", Domain::int(0, 89)),
                Column::free("A2", Domain::int(0, 59)),
            ],
        );
        let mut stats = TableStats::new(QuerySpace::of(&schema), 2000);
        let views = [
            region![(0, 19), (0, 9)],    // V1-ish
            region![(10, 29), (10, 29)], // V2-ish
            region![(30, 49), (0, 9)],   // V5-ish
            region![(30, 49), (10, 29)], // V6-ish
            region![(50, 69), (0, 9)],   // V8-ish
            region![(70, 89), (0, 4)],   // V10-ish
            region![(30, 39), (30, 49)], // V7-ish
            region![(60, 89), (50, 59)], // V4-ish
            region![(0, 9), (30, 59)],   // V3-ish
            region![(80, 89), (5, 29)],  // V9-ish
        ];
        for v in &views {
            stats.feedback(v, (v.volume() / 4) as u64);
        }
        let q = region![(30, 80), (0, 50)];
        let out = rewrite(&stats, 100, &q, &views, &RewriteConfig::default());
        assert!(!out.fully_covered);
        // Coverage.
        let mut all = views.to_vec();
        all.extend(out.remainders.iter().cloned());
        assert!(q.subtract_all(&all).is_empty());
        // Pruning bites.
        assert!(out.boxes_kept < out.boxes_enumerated);
        // The cover is no worse than fetching every elementary box alone.
        let d = payless_geometry::decompose(&q, &views);
        let naive: f64 = d
            .elementary
            .iter()
            .map(|e| est_transactions(stats.estimate(&e.region), 100))
            .sum();
        assert!(out.est_transactions <= naive + 1e-9);
    }

    #[test]
    fn cell_cap_fast_path_still_covers_and_is_expressible() {
        let schema = Schema::new(
            "R",
            vec![
                Column::free("A", Domain::int(0, 500)),
                Column::free("C", Domain::categorical(["a", "b", "c"])),
            ],
        );
        let stats = TableStats::new(QuerySpace::of(&schema), 10_000);
        let space = stats.space().clone();
        // Fragment the store with many scattered views.
        let views: Vec<Region> = (0..40)
            .map(|i| {
                let lo = i * 12;
                region![(lo, lo + 5), (i % 3, i % 3)]
            })
            .collect();
        let q = region![(0, 500), (0, 2)];
        let cfg = RewriteConfig {
            max_cells: 8, // force the fast path
            ..Default::default()
        };
        let out = rewrite(&stats, 100, &q, &views, &cfg);
        assert!(!out.fully_covered);
        // Either the raw pieces or the consolidated whole-region call.
        assert!(out.boxes_kept == out.boxes_enumerated || out.boxes_kept == 1);
        for r in &out.remainders {
            assert!(space.region_is_expressible(r), "{r} not expressible");
        }
        let mut all = views.clone();
        all.extend(out.remainders.iter().cloned());
        assert!(q.subtract_all(&all).is_empty());
    }

    #[test]
    fn est_transactions_rounding() {
        assert_eq!(est_transactions(0.0, 100), 0.0);
        assert_eq!(est_transactions(0.4, 100), 1.0);
        assert_eq!(est_transactions(100.0, 100), 1.0);
        assert_eq!(est_transactions(101.0, 100), 2.0);
        assert_eq!(est_transactions(250.0, 50), 5.0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        fn arb_iv() -> impl Strategy<Value = (i64, i64)> {
            (0i64..100).prop_flat_map(|lo| (Just(lo), lo..100))
        }

        proptest! {
            /// The chosen remainders plus the views always cover the query.
            #[test]
            fn remainders_always_feasible(
                views in proptest::collection::vec(arb_iv(), 0..6),
                (qlo, qhi) in arb_iv(),
            ) {
                let stats = figure6_stats();
                let views: Vec<Region> =
                    views.into_iter().map(|(l, h)| region![(l, h)]).collect();
                let q = region![(qlo, qhi)];
                let out = rewrite(&stats, 100, &q, &views, &RewriteConfig::default());
                let mut all = views.clone();
                all.extend(out.remainders.iter().cloned());
                prop_assert!(q.subtract_all(&all).is_empty());
                if out.fully_covered {
                    prop_assert!(out.remainders.is_empty());
                }
            }

            /// Pruning never makes the selected cover more expensive.
            #[test]
            fn pruning_preserves_cover_quality(
                views in proptest::collection::vec(arb_iv(), 0..5),
                (qlo, qhi) in arb_iv(),
            ) {
                let stats = figure6_stats();
                let views: Vec<Region> =
                    views.into_iter().map(|(l, h)| region![(l, h)]).collect();
                let q = region![(qlo, qhi)];
                let with = rewrite(&stats, 100, &q, &views, &RewriteConfig::default());
                let without = rewrite(&stats, 100, &q, &views, &RewriteConfig::no_pruning());
                prop_assert!(with.boxes_kept <= without.boxes_kept);
            }
        }
    }

    /// Algorithm 1's output on a 225-view store (15x15 disjoint views,
    /// query window 6x6), pinned from commit bd3e241. Greedy-cover order is
    /// price- and index-sensitive, so a scoring or tie-break change shows up
    /// as a reordered or different remainder list. The histogram is trained
    /// to 256 buckets: 4096 take over a minute to train in a debug build.
    #[test]
    fn golden_rewrite_is_unchanged() {
        use crate::{Consistency, SemanticStore};
        const GOLDEN_EST_BITS: u64 = 0x40b7_9900_0000_0000;
        const GOLDEN_BOXES: (u64, u64, u64) = (6084, 534, 108);
        const GOLDEN_REMAINDERS: &str = "\
            ⟨[0, 99] × [500, 799]⟩ ⟨[0, 99] × [900, 1199]⟩ ⟨[0, 99] × [1300, 1599]⟩ \
            ⟨[0, 99] × [1700, 1999]⟩ ⟨[0, 99] × [2100, 2399]⟩ ⟨[100, 399] × [0, 99]⟩ \
            ⟨[100, 399] × [800, 899]⟩ ⟨[100, 399] × [1200, 1299]⟩ ⟨[100, 399] × [1600, 1699]⟩ \
            ⟨[100, 399] × [2000, 2099]⟩ ⟨[400, 499] × [100, 399]⟩ ⟨[400, 499] × [1300, 1599]⟩ \
            ⟨[400, 499] × [1700, 1999]⟩ ⟨[400, 499] × [2100, 2399]⟩ ⟨[500, 799] × [1600, 1699]⟩ \
            ⟨[500, 799] × [2000, 2099]⟩ ⟨[800, 899] × [100, 399]⟩ ⟨[800, 899] × [900, 1199]⟩ \
            ⟨[800, 899] × [1700, 1999]⟩ ⟨[800, 899] × [2100, 2399]⟩ ⟨[900, 1199] × [0, 99]⟩ \
            ⟨[900, 1199] × [400, 499]⟩ ⟨[900, 1199] × [1200, 1299]⟩ ⟨[1200, 1299] × [100, 399]⟩ \
            ⟨[1200, 1299] × [500, 799]⟩ ⟨[1200, 1299] × [1700, 1999]⟩ ⟨[1300, 1599] × [0, 99]⟩ \
            ⟨[1300, 1599] × [400, 499]⟩ ⟨[1300, 1599] × [800, 899]⟩ ⟨[1300, 1599] × [1200, 1299]⟩ \
            ⟨[1300, 1599] × [2000, 2099]⟩ ⟨[1600, 1699] × [100, 399]⟩ ⟨[1600, 1699] × [500, 799]⟩ \
            ⟨[1600, 1699] × [900, 1199]⟩ ⟨[1600, 1699] × [1300, 1599]⟩ ⟨[1700, 1999] × [0, 99]⟩ \
            ⟨[1700, 1999] × [400, 499]⟩ ⟨[1700, 1999] × [800, 899]⟩ ⟨[1700, 1999] × [1200, 1299]⟩ \
            ⟨[1700, 1999] × [1600, 1699]⟩ ⟨[2000, 2099] × [100, 399]⟩ ⟨[2000, 2099] × [500, 799]⟩ \
            ⟨[2000, 2099] × [900, 1199]⟩ ⟨[2000, 2099] × [1300, 1599]⟩ ⟨[2000, 2099] × [1700, 1999]⟩ \
            ⟨[2000, 2099] × [2100, 2399]⟩ ⟨[2100, 2399] × [0, 99]⟩ ⟨[2100, 2399] × [400, 499]⟩ \
            ⟨[2100, 2399] × [800, 899]⟩ ⟨[2100, 2399] × [1200, 1299]⟩ ⟨[2100, 2399] × [1600, 1699]⟩ \
            ⟨[2100, 2399] × [2000, 2099]⟩ ⟨[400, 499] × [900, 1199]⟩ ⟨[500, 799] × [400, 499]⟩ \
            ⟨[500, 799] × [800, 899]⟩ ⟨[1200, 1299] × [900, 1199]⟩ ⟨[1200, 1299] × [1300, 1599]⟩ \
            ⟨[1600, 1699] × [2100, 2399]⟩ ⟨[1700, 1999] × [2000, 2099]⟩ ⟨[0, 99] × [100, 399]⟩ \
            ⟨[400, 499] × [500, 799]⟩ ⟨[500, 799] × [0, 99]⟩ ⟨[800, 899] × [500, 799]⟩ \
            ⟨[900, 1199] × [800, 899]⟩ ⟨[900, 1199] × [1600, 1699]⟩ ⟨[900, 1199] × [2000, 2099]⟩ \
            ⟨[1300, 1599] × [1600, 1699]⟩ ⟨[1600, 1699] × [1700, 1999]⟩ ⟨[100, 399] × [400, 499]⟩ \
            ⟨[500, 799] × [1200, 1299]⟩ ⟨[800, 899] × [1300, 1599]⟩ ⟨[1200, 1299] × [2100, 2399]⟩ \
            ⟨[100, 399] × [900, 1199]⟩ ⟨[100, 399] × [1300, 1599]⟩ ⟨[100, 399] × [1700, 1999]⟩ \
            ⟨[100, 399] × [2100, 2399]⟩ ⟨[500, 799] × [500, 799]⟩ ⟨[500, 799] × [1700, 1999]⟩ \
            ⟨[500, 799] × [2100, 2399]⟩ ⟨[900, 1199] × [100, 399]⟩ ⟨[900, 1199] × [1300, 1599]⟩ \
            ⟨[1300, 1599] × [100, 399]⟩ ⟨[1300, 1599] × [500, 799]⟩ ⟨[1300, 1599] × [900, 1199]⟩ \
            ⟨[1700, 1999] × [100, 399]⟩ ⟨[1700, 1999] × [500, 799]⟩ ⟨[1700, 1999] × [900, 1199]⟩ \
            ⟨[1700, 1999] × [1300, 1599]⟩ ⟨[1700, 1999] × [1700, 1999]⟩ ⟨[2100, 2399] × [100, 399]⟩ \
            ⟨[2100, 2399] × [500, 799]⟩ ⟨[2100, 2399] × [900, 1199]⟩ ⟨[2100, 2399] × [1300, 1599]⟩ \
            ⟨[2100, 2399] × [1700, 1999]⟩ ⟨[2100, 2399] × [2100, 2399]⟩ ⟨[900, 1199] × [2100, 2399]⟩ \
            ⟨[1300, 1599] × [2100, 2399]⟩ ⟨[500, 799] × [1300, 1599]⟩ ⟨[900, 1199] × [500, 799]⟩ \
            ⟨[100, 399] × [100, 399]⟩ ⟨[100, 399] × [500, 799]⟩ ⟨[1300, 1599] × [1300, 1599]⟩ \
            ⟨[1300, 1599] × [1700, 1999]⟩ ⟨[500, 799] × [900, 1199]⟩ ⟨[900, 1199] × [900, 1199]⟩ \
            ⟨[500, 799] × [100, 399]⟩ ⟨[900, 1199] × [1700, 1999]⟩ ⟨[1700, 1999] × [2100, 2399]⟩";

        const SPACING: i64 = 400;
        let hi = 15 * SPACING - 1;
        let schema = Schema::new(
            "R",
            vec![
                Column::free("A1", Domain::int(0, hi)),
                Column::free("A2", Domain::int(0, hi)),
            ],
        );
        let mut stats = TableStats::new(QuerySpace::of(&schema), 4_000_000).with_max_buckets(256);
        for k in 0..240i64 {
            let lo0 = (k * 53) % (hi - 60);
            let lo1 = (k * 97) % (hi - 60);
            stats.feedback(&region![(lo0, lo0 + 59), (lo1, lo1 + 59)], 600);
        }
        let mut store = SemanticStore::new();
        store.register(QuerySpace::of(&schema));
        for gx in 0..15 {
            for gy in 0..15 {
                let (x, y) = (gx * SPACING, gy * SPACING);
                store.record("R", region![(x, x + 99), (y, y + 99)], 0);
            }
        }
        let q = region![(0, 6 * SPACING - 1), (0, 6 * SPACING - 1)];
        let cfg = RewriteConfig {
            max_candidates: 8192,
            ..RewriteConfig::default()
        };

        let views = store.views_overlapping("R", &q, Consistency::Weak, 0);
        let out = rewrite(&stats, 100, &q, &views, &cfg);
        let remainders: Vec<String> = out.remainders.iter().map(Region::to_string).collect();
        assert_eq!(remainders.join(" "), GOLDEN_REMAINDERS);
        assert_eq!(out.est_transactions.to_bits(), GOLDEN_EST_BITS);
        assert_eq!(
            (out.boxes_enumerated, out.boxes_kept, out.cover_chosen),
            GOLDEN_BOXES
        );
    }
}
