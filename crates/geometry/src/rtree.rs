//! A deterministic R-tree over [`Region`] bounding boxes.
//!
//! The semantic store and the statistics model both answer the same hot
//! question — *which of these n boxes overlap this probe box?* — for every
//! candidate plan the optimizer costs. A dim-0 grid only narrows the scan
//! along one axis; this tree narrows it along all of them, which is what
//! makes 10k-view stores probeable in microseconds.
//!
//! Determinism is a hard requirement (serve-layer spend must reproduce
//! across interleavings), so every choice the tree makes is a pure function
//! of the insertion sequence: choose-subtree ties break on (enlargement, volume,
//! child position), splits sort by center along the node's widest dimension
//! with the entry's arena order as the final tie-break, and queries return
//! item ids **sorted ascending** so callers iterate payloads in exactly the
//! order a linear scan would.

use crate::interval::Interval;
use crate::region::Region;

/// Maximum entries per node before it splits.
const MAX_ENTRIES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Child {
    /// A stored item (leaf level).
    Item(u32),
    /// An arena index of a child node (inner level).
    Node(u32),
}

#[derive(Debug, Clone)]
struct Entry {
    bbox: Region,
    child: Child,
}

#[derive(Debug, Clone)]
struct Node {
    leaf: bool,
    entries: Vec<Entry>,
}

impl Node {
    fn bbox(&self) -> Option<Region> {
        Region::hull(self.entries.iter().map(|e| &e.bbox))
    }
}

/// A deterministic R-tree mapping `u32` item ids to their bounding boxes.
///
/// Ids are chosen by the caller (slot positions, bucket positions); the tree
/// never invents or reorders them. `query` returns ids sorted ascending.
#[derive(Debug, Clone, Default)]
pub struct RTree {
    nodes: Vec<Node>,
    /// Arena index of the root, or `None` when empty.
    root: Option<u32>,
    /// Free arena slots from removed nodes, reused LIFO.
    free: Vec<u32>,
    len: usize,
}

impl RTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every item.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = None;
        self.len = 0;
    }

    fn alloc(&mut self, node: Node) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Insert `id` with bounding box `bbox`. The caller must not insert the
    /// same id twice (remove it first).
    pub fn insert(&mut self, bbox: Region, id: u32) {
        self.len += 1;
        let Some(root) = self.root else {
            let r = self.alloc(Node {
                leaf: true,
                entries: vec![Entry {
                    bbox,
                    child: Child::Item(id),
                }],
            });
            self.root = Some(r);
            return;
        };
        if let Some((left_bbox, right)) = self.insert_at(root, bbox, id) {
            // Root split: grow the tree by one level.
            let right_bbox = self.nodes[right as usize]
                .bbox()
                .expect("split produces non-empty nodes");
            let new_root = self.alloc(Node {
                leaf: false,
                entries: vec![
                    Entry {
                        bbox: left_bbox,
                        child: Child::Node(root),
                    },
                    Entry {
                        bbox: right_bbox,
                        child: Child::Node(right),
                    },
                ],
            });
            self.root = Some(new_root);
        }
    }

    /// Insert below node `at`; on split, returns the (possibly shrunk) bbox
    /// of `at` and the arena index of the freshly split-off sibling.
    fn insert_at(&mut self, at: u32, bbox: Region, id: u32) -> Option<(Region, u32)> {
        if self.nodes[at as usize].leaf {
            self.nodes[at as usize].entries.push(Entry {
                bbox,
                child: Child::Item(id),
            });
            return self.maybe_split(at);
        }
        let pick = self.choose_subtree(at, &bbox);
        let child = match self.nodes[at as usize].entries[pick].child {
            Child::Node(n) => n,
            Child::Item(_) => unreachable!("inner nodes hold only node children"),
        };
        match self.insert_at(child, bbox, id) {
            None => {
                // No split below: refresh the descended entry's bbox.
                let nb = self.nodes[child as usize].bbox().expect("non-empty child");
                self.nodes[at as usize].entries[pick].bbox = nb;
            }
            Some((shrunk, sibling)) => {
                let sb = self.nodes[sibling as usize]
                    .bbox()
                    .expect("split produces non-empty nodes");
                let node = &mut self.nodes[at as usize];
                node.entries[pick].bbox = shrunk;
                node.entries.push(Entry {
                    bbox: sb,
                    child: Child::Node(sibling),
                });
            }
        }
        self.maybe_split(at)
    }

    /// The entry of inner node `at` whose bbox needs the least enlargement
    /// to include `bbox` (ties: smaller volume, then lower position).
    fn choose_subtree(&self, at: u32, bbox: &Region) -> usize {
        let node = &self.nodes[at as usize];
        let mut best = 0usize;
        let mut best_key = (u128::MAX, u128::MAX);
        for (i, e) in node.entries.iter().enumerate() {
            let vol = e.bbox.volume();
            let grown = hull2(&e.bbox, bbox).volume();
            let key = (grown.saturating_sub(vol), vol);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Split `at` in half when over capacity; returns `(bbox of at, new
    /// sibling)`.
    fn maybe_split(&mut self, at: u32) -> Option<(Region, u32)> {
        if self.nodes[at as usize].entries.len() <= MAX_ENTRIES {
            return None;
        }
        let leaf = self.nodes[at as usize].leaf;
        let mut entries = std::mem::take(&mut self.nodes[at as usize].entries);
        // Deterministic linear split: order by center along the dimension
        // where the node's bbox is widest (stable sort keeps arena order as
        // the tie-break), then cut in half.
        let bbox = Region::hull(entries.iter().map(|e| &e.bbox)).expect("over-full node");
        let dim = widest_dim(&bbox);
        entries.sort_by_key(|e| {
            let iv = e.bbox.dim(dim);
            // Center * 2 avoids fractional arithmetic; i128 avoids overflow.
            iv.lo as i128 + iv.hi as i128
        });
        let right_half = entries.split_off(entries.len() / 2);
        self.nodes[at as usize].entries = entries;
        let left_bbox = self.nodes[at as usize].bbox().expect("non-empty half");
        let sibling = self.alloc(Node {
            leaf,
            entries: right_half,
        });
        Some((left_bbox, sibling))
    }

    /// Remove item `id` whose bounding box is `bbox`. Returns `true` when
    /// the item was found. Nodes are pruned when emptied but never
    /// rebalanced — deletions here are rare (compaction/eviction), and an
    /// under-full node only costs a little probe selectivity.
    pub fn remove(&mut self, bbox: &Region, id: u32) -> bool {
        let Some(root) = self.root else {
            return false;
        };
        let removed = self.remove_at(root, bbox, id);
        if removed {
            self.len -= 1;
            if self.nodes[root as usize].entries.is_empty() {
                self.free.push(root);
                self.root = None;
            } else if !self.nodes[root as usize].leaf
                && self.nodes[root as usize].entries.len() == 1
            {
                // Collapse a single-child root to keep the height honest.
                let only = match self.nodes[root as usize].entries[0].child {
                    Child::Node(n) => n,
                    Child::Item(_) => unreachable!("inner root holds node children"),
                };
                self.free.push(root);
                self.root = Some(only);
            }
        }
        removed
    }

    fn remove_at(&mut self, at: u32, bbox: &Region, id: u32) -> bool {
        if self.nodes[at as usize].leaf {
            let entries = &mut self.nodes[at as usize].entries;
            if let Some(pos) = entries.iter().position(|e| e.child == Child::Item(id)) {
                entries.swap_remove(pos);
                return true;
            }
            return false;
        }
        for i in 0..self.nodes[at as usize].entries.len() {
            let (child, covers) = {
                let e = &self.nodes[at as usize].entries[i];
                let c = match e.child {
                    Child::Node(n) => n,
                    Child::Item(_) => unreachable!(),
                };
                (c, e.bbox.contains(bbox))
            };
            if !covers {
                continue;
            }
            if self.remove_at(child, bbox, id) {
                if self.nodes[child as usize].entries.is_empty() {
                    self.free.push(child);
                    self.nodes[at as usize].entries.swap_remove(i);
                } else {
                    let nb = self.nodes[child as usize].bbox().expect("non-empty child");
                    self.nodes[at as usize].entries[i].bbox = nb;
                }
                return true;
            }
        }
        false
    }

    /// The ids of all items whose bounding box overlaps `probe`, sorted
    /// ascending — callers iterating payloads by id reproduce the order of a
    /// linear scan exactly.
    pub fn query(&self, probe: &Region) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(probe, &mut out);
        out
    }

    /// As [`RTree::query`], reusing the caller's buffer (cleared first).
    pub fn query_into(&self, probe: &Region, out: &mut Vec<u32>) {
        out.clear();
        if let Some(root) = self.root {
            self.collect(root, probe, out);
        }
        out.sort_unstable();
    }

    fn collect(&self, at: u32, probe: &Region, out: &mut Vec<u32>) {
        for e in &self.nodes[at as usize].entries {
            if !e.bbox.overlaps(probe) {
                continue;
            }
            match e.child {
                Child::Item(id) => out.push(id),
                Child::Node(n) => self.collect(n, probe, out),
            }
        }
    }
}

/// Hull of two regions (no allocation beyond the result).
fn hull2(a: &Region, b: &Region) -> Region {
    let dims = a
        .dims()
        .iter()
        .zip(b.dims())
        .map(|(x, y)| Interval::new(x.lo.min(y.lo), x.hi.max(y.hi)))
        .collect();
    Region::new(dims)
}

/// The dimension with the widest extent (ties: lowest dimension).
fn widest_dim(r: &Region) -> usize {
    let mut best = 0usize;
    let mut best_w = 0u64;
    for (i, iv) in r.dims().iter().enumerate() {
        let w = iv.width();
        if w > best_w {
            best_w = w;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region;
    use proptest::prelude::*;

    fn grid_boxes(n: i64, w: i64, gap: i64) -> Vec<Region> {
        let mut out = Vec::new();
        for gx in 0..n {
            for gy in 0..n {
                let x = gx * (w + gap);
                let y = gy * (w + gap);
                out.push(region![(x, x + w - 1), (y, y + w - 1)]);
            }
        }
        out
    }

    fn linear(boxes: &[Region], probe: &Region) -> Vec<u32> {
        boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.overlaps(probe))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.query(&region![(0, 10)]), Vec::<u32>::new());
    }

    #[test]
    fn query_matches_linear_scan_on_grid() {
        let boxes = grid_boxes(12, 5, 3);
        let mut t = RTree::new();
        for (i, b) in boxes.iter().enumerate() {
            t.insert(b.clone(), i as u32);
        }
        assert_eq!(t.len(), boxes.len());
        for probe in [
            region![(0, 4), (0, 4)],
            region![(0, 95), (0, 95)],
            region![(40, 60), (40, 60)],
            region![(94, 95), (0, 95)],
            region![(200, 300), (200, 300)],
        ] {
            assert_eq!(t.query(&probe), linear(&boxes, &probe), "probe {probe}");
        }
    }

    #[test]
    fn remove_then_query() {
        let boxes = grid_boxes(6, 5, 3);
        let mut t = RTree::new();
        for (i, b) in boxes.iter().enumerate() {
            t.insert(b.clone(), i as u32);
        }
        // Remove every odd id.
        for (i, b) in boxes.iter().enumerate() {
            if i % 2 == 1 {
                assert!(t.remove(b, i as u32), "id {i} present");
            }
        }
        assert_eq!(t.len(), boxes.len() / 2);
        let probe = region![(0, 100), (0, 100)];
        let expect: Vec<u32> = linear(&boxes, &probe)
            .into_iter()
            .filter(|i| i % 2 == 0)
            .collect();
        assert_eq!(t.query(&probe), expect);
        // Removing a missing id is a no-op.
        assert!(!t.remove(&boxes[1], 1));
    }

    #[test]
    fn remove_everything_empties_the_tree() {
        let boxes = grid_boxes(5, 4, 2);
        let mut t = RTree::new();
        for (i, b) in boxes.iter().enumerate() {
            t.insert(b.clone(), i as u32);
        }
        for (i, b) in boxes.iter().enumerate() {
            assert!(t.remove(b, i as u32));
        }
        assert!(t.is_empty());
        assert_eq!(t.query(&region![(0, 100), (0, 100)]), Vec::<u32>::new());
        // Reuse after emptying.
        t.insert(region![(0, 1), (0, 1)], 7);
        assert_eq!(t.query(&region![(0, 5), (0, 5)]), vec![7]);
    }

    proptest! {
        /// Tree queries agree with a linear scan under arbitrary
        /// insert/remove interleavings.
        #[test]
        fn agrees_with_linear_scan(
            raw in proptest::collection::vec(
                ((0i64..64).prop_flat_map(|a| (Just(a), a..64)),
                 (0i64..64).prop_flat_map(|a| (Just(a), a..64))),
                1..40,
            ),
            removals in proptest::collection::vec(any::<u16>(), 0..12),
            probes in proptest::collection::vec(
                ((0i64..64).prop_flat_map(|a| (Just(a), a..64)),
                 (0i64..64).prop_flat_map(|a| (Just(a), a..64))),
                1..4,
            ),
        ) {
            let boxes: Vec<Region> = raw
                .iter()
                .map(|((al, ah), (bl, bh))| region![(*al, *ah), (*bl, *bh)])
                .collect();
            let mut t = RTree::new();
            for (i, b) in boxes.iter().enumerate() {
                t.insert(b.clone(), i as u32);
            }
            let mut alive: Vec<bool> = vec![true; boxes.len()];
            for r in removals {
                let i = r as usize % boxes.len();
                if alive[i] {
                    prop_assert!(t.remove(&boxes[i], i as u32));
                    alive[i] = false;
                }
            }
            prop_assert_eq!(t.len(), alive.iter().filter(|a| **a).count());
            for ((al, ah), (bl, bh)) in probes {
                let probe = region![(al, ah), (bl, bh)];
                let expect: Vec<u32> = boxes
                    .iter()
                    .enumerate()
                    .filter(|(i, b)| alive[*i] && b.overlaps(&probe))
                    .map(|(i, _)| i as u32)
                    .collect();
                prop_assert_eq!(t.query(&probe), expect, "probe {}", probe);
            }
        }
    }
}
