//! P-trees: batch-parallel binary search trees (the PAM library \[70]).
//!
//! PAM's trees support several balancing schemes built on one primitive,
//! `join`; we use the treap scheme with deterministic pseudo-random
//! priorities (`mix64(key)`), which gives a canonical shape, expected
//! O(log n) depth, and the simplest correct join-based `union` /
//! `difference` — the algorithms behind PAM's batch updates ("existing join
//! algorithms for tree layouts rely on pointer adjustments", §4 of the CPMA
//! paper).
//!
//! As in the paper's accounting, a P-tree node costs a fixed 32 bytes per
//! element: key (8) + subtree size (8) + two child pointers (16).

use cpma_api::{buffered_chunks, BatchSet, OrderedSet, ParallelChunks, RangeSet};

/// Subtrees smaller than this update serially (fork overhead dominates).
const PAR_CUTOFF: usize = 1 << 9;

/// Deterministic treap priority (Stafford mix13 of the key).
#[inline]
fn prio(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

type Link = Option<Box<Node>>;

struct Node {
    key: u64,
    size: u64,
    left: Link,
    right: Link,
}

#[inline]
fn size(t: &Link) -> u64 {
    t.as_ref().map_or(0, |n| n.size)
}

#[inline]
fn fix(mut n: Box<Node>) -> Box<Node> {
    n.size = 1 + size(&n.left) + size(&n.right);
    n
}

/// Split `t` by `key`: (elements < key, key present?, elements > key).
fn split(t: Link, key: u64) -> (Link, bool, Link) {
    match t {
        None => (None, false, None),
        Some(mut n) => {
            if key < n.key {
                let (ll, found, lr) = split(n.left.take(), key);
                n.left = lr;
                (ll, found, Some(fix(n)))
            } else if key > n.key {
                let (rl, found, rr) = split(n.right.take(), key);
                n.right = rl;
                (Some(fix(n)), found, rr)
            } else {
                let (l, r) = (n.left.take(), n.right.take());
                (l, true, r)
            }
        }
    }
}

/// Join two treaps with all keys of `l` below all keys of `r`.
fn join2(l: Link, r: Link) -> Link {
    match (l, r) {
        (None, r) => r,
        (l, None) => l,
        (Some(mut a), Some(mut b)) => {
            if prio(a.key) >= prio(b.key) {
                a.right = join2(a.right.take(), Some(b));
                Some(fix(a))
            } else {
                b.left = join2(Some(a), b.left.take());
                Some(fix(b))
            }
        }
    }
}

/// Set union; returns the merged tree and the number of duplicate keys.
fn union(a: Link, b: Link) -> (Link, u64) {
    match (a, b) {
        (None, b) => (b, 0),
        (a, None) => (a, 0),
        (Some(x), Some(y)) => {
            // Root = higher priority, split the other by its key; recurse
            // on the two sides in parallel (join-based union, [21]).
            let (mut root, other) = if prio(x.key) >= prio(y.key) {
                (x, y)
            } else {
                (y, x)
            };
            let (ol, dup, or) = split(Some(other), root.key);
            let (rl, rr) = (root.left.take(), root.right.take());
            let ((l, d1), (r, d2)) =
                if size(&rl) + size(&ol) + size(&rr) + size(&or) > PAR_CUTOFF as u64 {
                    rayon::join(|| union(rl, ol), || union(rr, or))
                } else {
                    (union(rl, ol), union(rr, or))
                };
            root.left = l;
            root.right = r;
            (Some(fix(root)), d1 + d2 + dup as u64)
        }
    }
}

/// Set difference `a \ b`; returns the tree and the number removed.
fn difference(a: Link, b: Link) -> (Link, u64) {
    match (a, b) {
        (None, _) => (None, 0),
        (a, None) => (a, 0),
        (Some(mut x), b) => {
            let (bl, found, br) = split(b, x.key);
            let (xl, xr) = (x.left.take(), x.right.take());
            let ((l, r1), (r, r2)) = if size(&xl) + size(&xr) > PAR_CUTOFF as u64 {
                rayon::join(|| difference(xl, bl), || difference(xr, br))
            } else {
                (difference(xl, bl), difference(xr, br))
            };
            if found {
                (join2(l, r), r1 + r2 + 1)
            } else {
                x.left = l;
                x.right = r;
                (Some(fix(x)), r1 + r2)
            }
        }
    }
}

/// Build a canonical treap from a sorted, deduplicated slice: the root is
/// the maximum-priority element; recurse (in parallel) on the two sides.
fn treap_from_sorted(elems: &[u64]) -> Link {
    if elems.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_p = prio(elems[0]);
    for (i, &e) in elems.iter().enumerate().skip(1) {
        let p = prio(e);
        if p > best_p {
            best_p = p;
            best = i;
        }
    }
    let (ls, rs) = (&elems[..best], &elems[best + 1..]);
    let (left, right) = if elems.len() > PAR_CUTOFF {
        rayon::join(|| treap_from_sorted(ls), || treap_from_sorted(rs))
    } else {
        (treap_from_sorted(ls), treap_from_sorted(rs))
    };
    Some(fix(Box::new(Node {
        key: elems[best],
        size: 0,
        left,
        right,
    })))
}

/// Batch-parallel uncompressed binary search tree (PAM-style). See module
/// docs.
#[derive(Default)]
pub struct PTree {
    root: Link,
}

impl PTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self { root: None }
    }

    /// Insert one key; false if already present.
    pub fn insert(&mut self, key: u64) -> bool {
        if self.contains(key) {
            return false;
        }
        let single = Some(Box::new(Node {
            key,
            size: 1,
            left: None,
            right: None,
        }));
        let (root, dups) = union(self.root.take(), single);
        debug_assert_eq!(dups, 0);
        self.root = root;
        true
    }

    /// Remove one key; false if absent.
    pub fn remove(&mut self, key: u64) -> bool {
        let (l, found, r) = split(self.root.take(), key);
        self.root = join2(l, r);
        found
    }

    /// Visit keys ≥ `start` in order until `f` returns false; returns
    /// false iff stopped early (buffered into the chunks of
    /// `scan_chunks_from`).
    fn for_each_from(&self, start: u64, f: &mut dyn FnMut(u64) -> bool) -> bool {
        fn walk(t: &Link, start: u64, f: &mut dyn FnMut(u64) -> bool) -> bool {
            match t {
                None => true,
                Some(n) => {
                    if n.key > start && !walk(&n.left, start, f) {
                        return false;
                    }
                    if n.key >= start && !f(n.key) {
                        return false;
                    }
                    walk(&n.right, start, f)
                }
            }
        }
        walk(&self.root, start, f)
    }

    /// Apply `f` to all keys in `[start, end)` in order (under
    /// `range_sum`).
    fn map_range(&self, start: u64, end: u64, f: &mut impl FnMut(u64)) {
        fn walk(t: &Link, start: u64, end: u64, f: &mut impl FnMut(u64)) {
            if let Some(n) = t {
                cpma_pma::stats::record_read(std::mem::size_of::<Node>());
                if n.key > start {
                    walk(&n.left, start, end, f);
                }
                if n.key >= start && n.key < end {
                    f(n.key);
                }
                if n.key < end {
                    walk(&n.right, start, end, f);
                }
            }
        }
        if start < end {
            walk(&self.root, start, end, f);
        }
    }
}

impl OrderedSet for PTree {
    const NAME: &'static str = "P-tree";

    fn contains(&self, key: u64) -> bool {
        let mut cur = &self.root;
        while let Some(n) = cur {
            cpma_pma::stats::record_read(std::mem::size_of::<Node>());
            if key == n.key {
                return true;
            }
            cur = if key < n.key { &n.left } else { &n.right };
        }
        false
    }

    fn len(&self) -> usize {
        size(&self.root) as usize
    }

    fn min(&self) -> Option<u64> {
        let mut cur = self.root.as_ref()?;
        loop {
            match &cur.left {
                Some(l) => cur = l,
                None => return Some(cur.key),
            }
        }
    }

    fn max(&self) -> Option<u64> {
        let mut cur = self.root.as_ref()?;
        loop {
            match &cur.right {
                Some(r) => cur = r,
                None => return Some(cur.key),
            }
        }
    }

    fn successor(&self, key: u64) -> Option<u64> {
        let mut cur = &self.root;
        let mut best = None;
        while let Some(n) = cur {
            if n.key >= key {
                best = Some(n.key);
                cur = &n.left;
            } else {
                cur = &n.right;
            }
        }
        best
    }

    /// The paper's fixed 32 B/element accounting for P-trees.
    fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Node>()
    }
}

impl BatchSet for PTree {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[u64]) -> Self {
        debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
        Self {
            root: treap_from_sorted(elems),
        }
    }

    /// PAM-style: build a tree from the batch, then join-based union.
    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let b = treap_from_sorted(batch);
        let (root, dups) = union(self.root.take(), b);
        self.root = root;
        batch.len() - dups as usize
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() || self.root.is_none() {
            return 0;
        }
        let b = treap_from_sorted(batch);
        let (root, removed) = difference(self.root.take(), b);
        self.root = root;
        removed as usize
    }
}

impl RangeSet for PTree {
    /// A node per key, no blocks: the in-order walk is buffered.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        buffered_chunks(f, |push| self.for_each_from(start, push));
    }

    fn range_sum<R: std::ops::RangeBounds<u64>>(&self, range: R) -> u64 {
        cpma_api::range_sum_via_exclusive(
            &range,
            || self.contains(u64::MAX),
            |lo, hi| {
                let mut s = 0u64;
                self.map_range(lo, hi, &mut |k| s = s.wrapping_add(k));
                s
            },
        )
    }
}

impl ParallelChunks for PTree {}

impl Drop for PTree {
    fn drop(&mut self) {
        // Iterative drop: deep treap chains must not overflow the stack.
        let mut stack = Vec::new();
        if let Some(n) = self.root.take() {
            stack.push(n);
        }
        while let Some(mut n) = stack.pop() {
            if let Some(l) = n.left.take() {
                stack.push(l);
            }
            if let Some(r) = n.right.take() {
                stack.push(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn node_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }

    #[test]
    fn empty_tree() {
        let t = PTree::new();
        assert!(t.is_empty());
        assert!(!t.contains(0));
        assert_eq!(t.successor(0), None);
        assert_eq!(t.range_sum(..), 0);
        assert_eq!(t.to_vec(), Vec::<u64>::new());
    }

    #[test]
    fn point_ops_match_model() {
        let mut t = PTree::new();
        let mut model = BTreeSet::new();
        let mut x = 5u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (x >> 40) & 0xfff;
            if x & 2 == 0 {
                assert_eq!(t.insert(k), model.insert(k));
            } else {
                assert_eq!(t.remove(k), model.remove(&k));
            }
        }
        assert_eq!(t.len(), model.len());
        assert_eq!(t.to_vec(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn batch_insert_union_semantics() {
        let mut t = PTree::build_sorted(&[2, 4, 6, 8]);
        let mut batch = vec![1u64, 4, 5, 8, 9];
        let added = t.insert_batch(&mut batch, false);
        assert_eq!(added, 3);
        assert_eq!(t.to_vec(), vec![1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn batch_remove_difference_semantics() {
        let mut t = PTree::build_sorted(&(0..100u64).collect::<Vec<_>>());
        let mut batch: Vec<u64> = (0..200u64).step_by(2).collect();
        let removed = t.remove_batch(&mut batch, true);
        assert_eq!(removed, 50);
        assert_eq!(t.len(), 50);
        assert!(t.to_vec().iter().all(|k| k % 2 == 1));
    }

    #[test]
    fn large_batches_match_model() {
        let mut t = PTree::new();
        let mut model = BTreeSet::new();
        let mut x = 77u64;
        for _ in 0..10 {
            let batch: Vec<u64> = (0..5000)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    x >> 34
                })
                .collect();
            let mut b = batch.clone();
            let added = t.insert_batch(&mut b, false);
            let before = model.len();
            model.extend(batch.iter().copied());
            assert_eq!(added, model.len() - before);
        }
        assert_eq!(t.to_vec(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn map_range_and_sums() {
        let elems: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let t = PTree::build_sorted(&elems);
        let mut seen = Vec::new();
        t.map_range(10, 40, &mut |k| seen.push(k));
        assert_eq!(seen, vec![12, 15, 18, 21, 24, 27, 30, 33, 36, 39]);
        assert_eq!(t.range_sum(0..u64::MAX), elems.iter().sum::<u64>());
        assert_eq!(t.range_sum(..), elems.iter().sum::<u64>());
        assert_eq!(t.successor(100), Some(102));
    }

    #[test]
    fn size_accounting() {
        let t = PTree::build_sorted(&(0..1000u64).collect::<Vec<_>>());
        assert_eq!(t.size_bytes(), 1000 * 32);
    }

    #[test]
    fn build_from_sorted_is_search_tree() {
        let elems: Vec<u64> = (0..10_000u64).map(|i| i * 7 + 1).collect();
        let t = PTree::build_sorted(&elems);
        assert_eq!(t.to_vec(), elems);
        for &e in elems.iter().step_by(500) {
            assert!(t.contains(e));
            assert!(!t.contains(e + 1));
        }
    }
}
