//! P-trees: batch-parallel binary search trees (the PAM library \[70]),
//! and the join core every tree baseline runs on.
//!
//! PAM's trees support several balancing schemes built on one primitive,
//! `join`; we use the treap scheme with deterministic pseudo-random
//! priorities (`mix64(key)`), which gives expected O(log n) depth — the
//! join algorithms behind PAM's batch updates ("existing join algorithms
//! for tree layouts rely on pointer adjustments", §4 of the CPMA paper).
//! A batch update is PAM's multi-insert / multi-delete: the sorted batch
//! splits at each node key on its way down, the two sides update in
//! parallel, and `join` rebalances each node on the way back up.
//!
//! The core is generic over what sits below the nodes, a [`BlockPayload`].
//! A PaC-tree ([`crate::PacTree`]) stores subtrees of up to
//! `P::CAPACITY` elements as one block: `join` flattens a subtree that
//! small into a block, a block that overflows is rebuilt as a subtree, a
//! block ranks below every node, and a sorted build fills its blocks to
//! 3/4 of the capacity between separator nodes. The P-tree is the same
//! core with no blocks ([`NoBlock`], capacity 0), so its treap is
//! canonical: the keys alone fix its shape.
//!
//! As in the paper's accounting, a P-tree node costs a fixed 32 bytes per
//! element: key (8) + subtree size (8) + two child pointers (16).

use crate::pactree::{BlockPayload, PacTree, BLOCK_SIZE};
use cpma_pma::stats;
use std::mem::take;

/// Subtrees smaller than this update serially (fork overhead dominates).
const PAR_CUTOFF: usize = 1 << 9;
/// Accounted bytes per node: key, subtree size and two child pointers.
const NODE_BYTES: usize = 32;
/// Accounted bytes per block beside its payload: its descriptor.
const LEAF_OVERHEAD: usize = 24;

/// Deterministic treap priority (Stafford mix13 of the key).
#[inline]
fn prio(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A subtree: empty, a node, or one block of elements.
#[derive(Default)]
pub(crate) enum Tree<P> {
    #[default]
    Empty,
    Node(Box<Node<P>>),
    Block(P),
}

pub(crate) struct Node<P> {
    key: u64,
    size: u64,
    left: Tree<P>,
    right: Tree<P>,
}

/// `(a(), b())` over `na` and `nb` elements, in parallel when the two
/// together pass `PAR_CUTOFF` and the lighter holds at least a quarter. A
/// fork keeps its thread until both sides finish, and the pool forks only
/// while a thread is free, so an uneven fork (a treap root splits at a
/// random rank) would leave a thread waiting; unforked, each side forks
/// inside itself where it splits evenly.
fn fork<A: Send, B: Send>(
    na: usize,
    nb: usize,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if na + nb > PAR_CUTOFF && na.min(nb) * 4 >= na + nb {
        rayon::join(a, b)
    } else {
        (a(), b())
    }
}

/// `elems` as one block, or empty.
fn block<P: BlockPayload>(elems: &[u64]) -> Tree<P> {
    if elems.is_empty() {
        Tree::Empty
    } else {
        Tree::Block(P::encode(elems))
    }
}

/// `n` with its size recounted, flattened into a block if it fits in one.
fn fix<P: BlockPayload>(mut n: Box<Node<P>>) -> Tree<P> {
    n.size = (n.left.len() + 1 + n.right.len()) as u64;
    if n.size as usize > P::CAPACITY {
        return Tree::Node(n);
    }
    let mut elems = Vec::with_capacity(n.size as usize);
    Tree::Node(n).collect(&mut elems);
    block(&elems)
}

/// Join `n.left < n.key < n.right` into one treap: `n` is the root unless
/// a child's root outranks it, and then that root is, with `n` joined into
/// its inner side.
fn join<P: BlockPayload>(mut n: Box<Node<P>>) -> Tree<P> {
    let (k, l, r) = (Some(prio(n.key)), n.left.prio(), n.right.prio());
    if l > k && l > r {
        let Tree::Node(mut a) = take(&mut n.left) else {
            unreachable!("only a node has a priority")
        };
        n.left = take(&mut a.right);
        a.right = join(n);
        fix(a)
    } else if r > k {
        let Tree::Node(mut b) = take(&mut n.right) else {
            unreachable!("only a node has a priority")
        };
        n.right = take(&mut b.left);
        b.left = join(n);
        fix(b)
    } else {
        fix(n)
    }
}

/// `t` without its largest element, and that element.
fn split_last<P: BlockPayload>(t: Tree<P>) -> Option<(Tree<P>, u64)> {
    match t {
        Tree::Empty => None,
        Tree::Block(p) => {
            let mut elems = decoded(&p);
            let last = elems.pop()?;
            Some((block(&elems), last))
        }
        Tree::Node(mut n) => match split_last(take(&mut n.right)) {
            None => Some((take(&mut n.left), n.key)),
            Some((r, last)) => {
                n.right = r;
                Some((fix(n), last))
            }
        },
    }
}

/// `t ∪ run` for a sorted run (PAM's multi-insert), and how many elements
/// of `run` `t` already held: the run splits at each node key on its way
/// down, the two sides go on in parallel, an empty subtree becomes
/// `build` of its part of the run, a block is merged with its part and
/// rebuilt, and `join` restores heap order on the way back up.
pub(crate) fn insert_run<P: BlockPayload>(t: Tree<P>, run: &[u64]) -> (Tree<P>, usize) {
    match t {
        t if run.is_empty() => (t, 0),
        Tree::Empty => (build(run), 0),
        Tree::Block(x) => {
            let held = decoded(&x);
            let mut elems = Vec::with_capacity(held.len() + run.len());
            let (mut i, mut j) = (0, 0);
            while i < held.len() && j < run.len() {
                let (h, e) = (held[i], run[j]);
                elems.push(h.min(e));
                i += (h <= e) as usize;
                j += (e <= h) as usize;
            }
            elems.extend_from_slice(&held[i..]);
            elems.extend_from_slice(&run[j..]);
            let shared = held.len() + run.len() - elems.len();
            (build(&elems), shared)
        }
        Tree::Node(mut n) => {
            stats::record_read(NODE_BYTES);
            let at = run.partition_point(|&e| e < n.key);
            let dup = run.get(at) == Some(&n.key);
            let (lr, rr) = (&run[..at], &run[at + dup as usize..]);
            let (l, r) = (take(&mut n.left), take(&mut n.right));
            let ((l, d1), (r, d2)) = fork(
                lr.len(),
                rr.len(),
                || insert_run(l, lr),
                || insert_run(r, rr),
            );
            (n.left, n.right) = (l, r);
            (join(n), d1 + d2 + dup as usize)
        }
    }
}

/// `t \ run` for a sorted run (PAM's multi-delete), and how many went: the
/// run splits at each node key as in [`insert_run`], and a removed key's
/// node is rejoined without it.
pub(crate) fn remove_run<P: BlockPayload>(t: Tree<P>, run: &[u64]) -> (Tree<P>, usize) {
    match t {
        t if run.is_empty() => (t, 0),
        Tree::Empty => (Tree::Empty, 0),
        Tree::Block(x) => without(x, run),
        Tree::Node(mut x) => {
            stats::record_read(NODE_BYTES);
            let at = run.partition_point(|&e| e < x.key);
            let found = run.get(at) == Some(&x.key);
            let (lr, rr) = (&run[..at], &run[at + found as usize..]);
            let (l, r) = (take(&mut x.left), take(&mut x.right));
            let ((l, d1), (r, d2)) = fork(
                lr.len(),
                rr.len(),
                || remove_run(l, lr),
                || remove_run(r, rr),
            );
            (rejoin(x, l, found, r), d1 + d2 + found as usize)
        }
    }
}

/// A block's elements, in order.
fn decoded<P: BlockPayload>(x: &P) -> Vec<u64> {
    let mut elems = Vec::with_capacity(x.count());
    x.decode(&mut elems);
    elems
}

/// Block `x` without the elements of sorted `gone`, and how many went.
fn without<P: BlockPayload>(x: P, gone: &[u64]) -> (Tree<P>, usize) {
    let mut elems = decoded(&x);
    elems.retain(|e| gone.binary_search(e).is_err());
    match x.count() - elems.len() {
        0 => (Tree::Block(x), 0),
        removed => (block(&elems), removed),
    }
}

/// Node `x` over `l` and `r` again; if its key was `removed`, the largest
/// element of `l` takes its place.
fn rejoin<P: BlockPayload>(mut x: Box<Node<P>>, l: Tree<P>, removed: bool, r: Tree<P>) -> Tree<P> {
    if !removed {
        (x.left, x.right) = (l, r);
    } else if let Some((l, last)) = split_last(l) {
        (x.key, x.left, x.right) = (last, l, r);
    } else {
        return r;
    }
    join(x)
}

/// A tree over sorted, deduplicated `elems`: one block if they fit in one,
/// else blocks of at most 3/4 of the capacity, evenly sized, with one
/// separator element between each two, the separators forming a treap.
/// With no blocks, every element is a separator.
pub(crate) fn build<P: BlockPayload>(elems: &[u64]) -> Tree<P> {
    debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
    if elems.len() <= P::CAPACITY {
        return block(elems);
    }
    let gaps = (elems.len() + 1).div_ceil(P::CAPACITY * 3 / 4 + 1);
    treap(elems, gaps, 0, gaps)
}

/// The part of `build`'s tree over gaps `g0..g1`: gap `g` is the block
/// `elems[cut(g)..cut(g + 1) - 1]`, and `elems[cut(g) - 1]` separates it
/// from gap `g - 1`; the separator of highest priority is the root.
fn treap<P: BlockPayload>(elems: &[u64], gaps: usize, g0: usize, g1: usize) -> Tree<P> {
    // The first `(len + 1) % gaps` gaps take one element more.
    let (q, r) = ((elems.len() + 1) / gaps, (elems.len() + 1) % gaps);
    let cut = |g: usize| g * q + g.min(r);
    if g1 - g0 == 1 {
        return block(&elems[cut(g0)..cut(g1) - 1]);
    }
    let g = (g0 + 1..g1)
        .max_by_key(|&g| prio(elems[cut(g) - 1]))
        .unwrap();
    let (left, right) = fork(
        cut(g) - cut(g0),
        cut(g1) - cut(g),
        || treap(elems, gaps, g0, g),
        || treap(elems, gaps, g, g1),
    );
    Tree::Node(Box::new(Node {
        key: elems[cut(g) - 1],
        size: (cut(g1) - cut(g0) - 1) as u64,
        left,
        right,
    }))
}

/// Hand `f` the node keys gathered in `keys`, if any; false iff it stopped.
fn flush(keys: &mut Vec<u64>, f: &mut dyn FnMut(&[u64]) -> bool) -> bool {
    let live = keys.is_empty() || f(keys);
    keys.clear();
    live
}

impl<P: BlockPayload> Tree<P> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Tree::Empty => 0,
            Tree::Node(n) => n.size as usize,
            Tree::Block(p) => p.count(),
        }
    }

    /// The root's priority; a block ranks below every node.
    fn prio(&self) -> Option<u64> {
        match self {
            Tree::Node(n) => Some(prio(n.key)),
            _ => None,
        }
    }

    /// Append the elements, in order, to `out`.
    fn collect(&self, out: &mut Vec<u64>) {
        match self {
            Tree::Empty => {}
            Tree::Block(p) => p.decode(out),
            Tree::Node(n) => {
                n.left.collect(out);
                out.push(n.key);
                n.right.collect(out);
            }
        }
    }

    pub(crate) fn contains(&self, key: u64) -> bool {
        let mut t = self;
        loop {
            match t {
                Tree::Empty => return false,
                Tree::Block(p) => return p.contains(key),
                Tree::Node(n) => {
                    stats::record_read(NODE_BYTES);
                    if key == n.key {
                        return true;
                    }
                    t = if key < n.key { &n.left } else { &n.right };
                }
            }
        }
    }

    /// The smallest element ≥ `key`.
    pub(crate) fn successor(&self, key: u64) -> Option<u64> {
        let (mut t, mut best) = (self, None);
        loop {
            match t {
                Tree::Empty => return best,
                // A block lies between its ancestors' keys, below `best`.
                Tree::Block(p) => {
                    return p.chunk_from(key, &mut Vec::new()).first().copied().or(best)
                }
                Tree::Node(n) => {
                    stats::record_read(NODE_BYTES);
                    if n.key >= key {
                        best = Some(n.key);
                        t = &n.left;
                    } else {
                        t = &n.right;
                    }
                }
            }
        }
    }

    pub(crate) fn max(&self) -> Option<u64> {
        let (mut t, mut max) = (self, None);
        loop {
            match t {
                Tree::Empty => return max,
                Tree::Block(p) => return decoded(p).last().copied(),
                Tree::Node(n) => {
                    max = Some(n.key);
                    t = &n.right;
                }
            }
        }
    }

    /// Hand `f` the elements ≥ `start` in order until it returns false:
    /// each block as one chunk, the node keys between blocks gathered into
    /// chunks of up to `BLOCK_SIZE`.
    pub(crate) fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        let (mut keys, mut buf) = (Vec::new(), Vec::new());
        if self.scan(start, &mut keys, &mut buf, f) {
            flush(&mut keys, f);
        }
    }

    /// [`scan_chunks_from`](Self::scan_chunks_from)'s walk; false iff `f`
    /// stopped it.
    fn scan(
        &self,
        start: u64,
        keys: &mut Vec<u64>,
        buf: &mut Vec<u64>,
        f: &mut dyn FnMut(&[u64]) -> bool,
    ) -> bool {
        match self {
            Tree::Empty => true,
            Tree::Block(p) => {
                let chunk = p.chunk_from(start, buf);
                chunk.is_empty() || (flush(keys, f) && f(chunk))
            }
            Tree::Node(n) => {
                stats::record_read(NODE_BYTES);
                if start < n.key && !n.left.scan(start, keys, buf, f) {
                    return false;
                }
                if n.key >= start {
                    keys.push(n.key);
                    if keys.len() == BLOCK_SIZE && !flush(keys, f) {
                        return false;
                    }
                }
                n.right.scan(start, keys, buf, f)
            }
        }
    }

    /// Wrapping sum of the elements in `[lo, hi)`, `buf` the scratch a
    /// compressed block decodes into.
    pub(crate) fn sum_range(&self, lo: u64, hi: u64, buf: &mut Vec<u64>) -> u64 {
        match self {
            Tree::Empty => 0,
            Tree::Block(p) => {
                let chunk = p.chunk_from(lo, buf);
                let inside = &chunk[..chunk.partition_point(|&e| e < hi)];
                inside.iter().fold(0, |s, &e| s.wrapping_add(e))
            }
            Tree::Node(n) => {
                stats::record_read(NODE_BYTES);
                let mut sum = 0u64;
                if lo < n.key {
                    sum = n.left.sum_range(lo, hi, buf);
                }
                if lo <= n.key && n.key < hi {
                    sum = sum.wrapping_add(n.key);
                }
                if n.key < hi {
                    sum = sum.wrapping_add(n.right.sum_range(lo, hi, buf));
                }
                sum
            }
        }
    }

    /// Accounted bytes: `NODE_BYTES` per node, a descriptor and the payload
    /// per block.
    pub(crate) fn size_bytes(&self) -> usize {
        match self {
            Tree::Empty => 0,
            Tree::Block(p) => LEAF_OVERHEAD + p.payload_bytes(),
            Tree::Node(n) => NODE_BYTES + n.left.size_bytes() + n.right.size_bytes(),
        }
    }

    /// Panic unless priorities fall from each node to the nodes below it
    /// (all below `above`), every size field counts its subtree, and every
    /// block holds 1 to `P::CAPACITY` elements. Returns the element count
    /// and the depth in nodes.
    pub(crate) fn check(&self, above: Option<u64>) -> (usize, usize) {
        match self {
            Tree::Empty => (0, 0),
            Tree::Block(p) => {
                assert!(
                    (1..=P::CAPACITY).contains(&p.count()),
                    "block of {}",
                    p.count()
                );
                (p.count(), 0)
            }
            Tree::Node(n) => {
                let p = prio(n.key);
                assert!(
                    above.is_none_or(|a| p < a),
                    "heap order broken at {}",
                    n.key
                );
                let ((l, dl), (r, dr)) = (n.left.check(Some(p)), n.right.check(Some(p)));
                assert_eq!(n.size as usize, l + 1 + r, "size field at {}", n.key);
                (l + 1 + r, 1 + dl.max(dr))
            }
        }
    }
}

/// The P-tree's block: there is none, every element is a node.
pub enum NoBlock {}

impl BlockPayload for NoBlock {
    const NAME: &'static str = "P-tree";
    const CAPACITY: usize = 0;
    fn encode(_: &[u64]) -> Self {
        unreachable!("a P-tree keeps every element in a node")
    }
    fn decode(&self, _: &mut Vec<u64>) {
        match *self {}
    }
    fn count(&self) -> usize {
        match *self {}
    }
    fn payload_bytes(&self) -> usize {
        match *self {}
    }
    fn chunk_from<'a>(&'a self, _: u64, _: &'a mut Vec<u64>) -> &'a [u64] {
        match *self {}
    }
    fn contains(&self, _: u64) -> bool {
        match *self {}
    }
}

/// Batch-parallel uncompressed binary search tree (PAM-style): the join
/// core with every element in a node of its own. See module docs.
pub type PTree = PacTree<NoBlock>;

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::{BatchSet, OrderedSet, RangeSet};

    #[test]
    fn node_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Node<NoBlock>>(), 32);
        assert_eq!(std::mem::size_of::<Node<NoBlock>>(), NODE_BYTES);
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
        let mut model = std::collections::BTreeSet::new();
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
    fn ranges_and_sums() {
        let elems: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let t = PTree::build_sorted(&elems);
        let mut seen = Vec::new();
        t.for_range(10..40, |k| seen.push(k));
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
