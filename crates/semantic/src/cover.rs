//! Chvátal's greedy algorithm for weighted set cover.
//!
//! The paper (Section 4.2) reduces remainder-query selection to weighted set
//! cover — elements are elementary boxes, sets are candidate bounding boxes,
//! cost is a box's estimated transactions — and solves it with "the greedy
//! algorithm in [Chvátal 1979] that runs in `O(|B|·|E|)` time with
//! `1 + ln|B|` approximation ratio".

/// One candidate set: a cost and the element indices it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverSet {
    /// Cost of choosing this set (estimated transactions; may be zero).
    pub cost: f64,
    /// Indices of covered elements, in `0..n_elements`.
    pub elements: Vec<usize>,
}

impl CoverSet {
    /// Convenience constructor.
    pub fn new(cost: f64, elements: Vec<usize>) -> Self {
        CoverSet { cost, elements }
    }
}

/// Greedy weighted set cover.
///
/// Returns the indices of chosen sets covering all of `0..n_elements`, or
/// `None` if the union of all sets does not cover every element. Ties and
/// zero costs are handled by preferring the smallest cost-per-newly-covered
/// ratio (zero-cost sets are effectively free and picked first).
pub fn greedy_cover(n_elements: usize, sets: &[CoverSet]) -> Option<Vec<usize>> {
    if n_elements == 0 {
        return Some(Vec::new());
    }
    let mut covered = vec![false; n_elements];
    let mut n_covered = 0usize;
    let mut chosen = Vec::new();

    // Lazy greedy: a set's cost-per-newly-covered ratio only worsens as
    // elements get covered, so a priority queue with stale keys pops in
    // exact greedy order once an entry's key is re-verified — turning the
    // naive O(|B|·|E|·picks) scan into near-linear behaviour.
    #[derive(PartialEq)]
    struct Entry {
        ratio: f64,
        new: usize,
        set: usize,
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-ratio first (BinaryHeap is a max-heap, so reverse);
            // ties prefer larger coverage, then smaller index (stability).
            other
                .ratio
                .total_cmp(&self.ratio)
                .then(self.new.cmp(&other.new))
                .then(other.set.cmp(&self.set))
        }
    }

    let fresh_new = |covered: &[bool], s: &CoverSet| {
        s.elements
            .iter()
            .filter(|&&e| e < n_elements && !covered[e])
            .count()
    };

    // The heap's total order (ratio, then coverage, then set index) fully
    // determines pop order, so heap-internal layout cannot change which sets
    // get chosen.
    let mut heap: std::collections::BinaryHeap<Entry> = sets
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let new = fresh_new(&covered, s);
            (new > 0).then(|| Entry {
                ratio: s.cost / new as f64,
                new,
                set: i,
            })
        })
        .collect();

    while n_covered < n_elements {
        let top = heap.pop()?;
        let new = fresh_new(&covered, &sets[top.set]);
        if new == 0 {
            continue;
        }
        let ratio = sets[top.set].cost / new as f64;
        if new != top.new {
            // Stale key: re-verify against the next candidate.
            let still_best = heap.peek().is_none_or(|next| {
                ratio < next.ratio - 1e-12
                    || ((ratio - next.ratio).abs() <= 1e-12 && new >= next.new)
            });
            if !still_best {
                heap.push(Entry {
                    ratio,
                    new,
                    set: top.set,
                });
                continue;
            }
        }
        chosen.push(top.set);
        for &e in &sets[top.set].elements {
            if e < n_elements && !covered[e] {
                covered[e] = true;
                n_covered += 1;
            }
        }
    }
    Some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_cost(sets: &[CoverSet], chosen: &[usize]) -> f64 {
        chosen.iter().map(|&i| sets[i].cost).sum()
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(greedy_cover(0, &[]), Some(vec![]));
        assert_eq!(greedy_cover(1, &[]), None);
        let sets = [CoverSet::new(1.0, vec![0])];
        assert_eq!(greedy_cover(1, &sets), Some(vec![0]));
    }

    #[test]
    fn infeasible_when_element_uncoverable() {
        let sets = [CoverSet::new(1.0, vec![0]), CoverSet::new(1.0, vec![1])];
        assert_eq!(greedy_cover(3, &sets), None);
    }

    #[test]
    fn prefers_cheap_big_sets() {
        // One set covers everything for 3; singletons cost 2 each (total 6).
        let sets = [
            CoverSet::new(2.0, vec![0]),
            CoverSet::new(2.0, vec![1]),
            CoverSet::new(2.0, vec![2]),
            CoverSet::new(3.0, vec![0, 1, 2]),
        ];
        let chosen = greedy_cover(3, &sets).unwrap();
        assert_eq!(chosen, vec![3]);
        assert_eq!(total_cost(&sets, &chosen), 3.0);
    }

    #[test]
    fn mixes_sets_when_beneficial() {
        // The paper's Figure 6 economics: Rem2 = {[0,30) for 1, [60,100] for
        // 2} beats Rem1 = three boxes costing 1+1+2.
        // Elements: 0 = [0,10), 1 = [20,30), 2 = [60,100].
        let sets = [
            CoverSet::new(1.0, vec![0]),    // QRem1
            CoverSet::new(1.0, vec![1]),    // QRem2
            CoverSet::new(2.0, vec![2]),    // QRem3
            CoverSet::new(1.0, vec![0, 1]), // QRem4 (overlaps V1, still 1 txn)
        ];
        let chosen = greedy_cover(3, &sets).unwrap();
        let cost = total_cost(&sets, &chosen);
        assert_eq!(cost, 3.0);
        assert!(chosen.contains(&3));
        assert!(chosen.contains(&2));
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn zero_cost_sets_picked_first() {
        let sets = [
            CoverSet::new(5.0, vec![0, 1]),
            CoverSet::new(0.0, vec![0]),
            CoverSet::new(0.0, vec![1]),
        ];
        let chosen = greedy_cover(2, &sets).unwrap();
        assert_eq!(total_cost(&sets, &chosen), 0.0);
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn ignores_out_of_range_elements() {
        let sets = [CoverSet::new(1.0, vec![0, 7, 9])];
        assert_eq!(greedy_cover(1, &sets), Some(vec![0]));
    }

    #[test]
    fn greedy_ratio_tie_prefers_larger_set() {
        // Both have ratio 1.0; the bigger one should win, covering all in one.
        let sets = [
            CoverSet::new(1.0, vec![0]),
            CoverSet::new(3.0, vec![0, 1, 2]),
        ];
        let chosen = greedy_cover(3, &sets).unwrap();
        assert_eq!(chosen, vec![1]);
    }

    #[test]
    fn chosen_sets_do_cover() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(
                &(
                    1usize..8,
                    proptest::collection::vec(
                        (0.0f64..10.0, proptest::collection::vec(0usize..8, 1..5)),
                        1..12,
                    ),
                ),
                |(n, raw)| {
                    let sets: Vec<CoverSet> =
                        raw.into_iter().map(|(c, e)| CoverSet::new(c, e)).collect();
                    if let Some(chosen) = greedy_cover(n, &sets) {
                        let mut covered = vec![false; n];
                        for &i in &chosen {
                            for &e in &sets[i].elements {
                                if e < n {
                                    covered[e] = true;
                                }
                            }
                        }
                        prop_assert!(covered.iter().all(|&c| c));
                        // No duplicate picks.
                        let mut sorted = chosen.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        prop_assert_eq!(sorted.len(), chosen.len());
                    } else {
                        // Infeasible: some element is in no set.
                        let coverable =
                            (0..n).all(|e| sets.iter().any(|s| s.elements.contains(&e)));
                        prop_assert!(!coverable);
                    }
                    Ok(())
                },
            )
            .unwrap();
    }
}
