//! PaC-trees: parallel (compressed) blocked binary trees (CPAM \[33]).
//!
//! A PaC-tree stores elements in *blocks* of up to `P` elements at the
//! leaves of a binary tree; C-PaC difference-encodes each block's elements.
//! The paper configures "the PaC-trees library block size ... to the default
//! for sets at 256". Batch updates descend the tree splitting the batch by
//! router keys (join-style), rebuilding blocks that over- or underflow and
//! rebuilding subtrees that drift out of weight balance (a scapegoat rule —
//! the original maintains weight balance via join; the amortized cost is
//! the same and the memory behaviour, pointer-chasing between blocks, is
//! preserved; see "Substitutions" in REPRODUCTION.md).
//!
//! Blocks are laid out at independent heap addresses, deliberately so: the
//! whole point of the paper's comparison is that trees pay pointer-chasing
//! costs between blocks, while the PMA scans contiguously.

use cpma_api::{BatchSet, OrderedSet, ParallelChunks, RangeSet};
use cpma_pma::codec;
use cpma_pma::stats;

/// Maximum elements per block (the paper's set default).
pub const BLOCK_SIZE: usize = 256;
/// Fill target when (re)building blocks: 3/4 of the maximum, so freshly
/// built trees absorb inserts without immediate splits.
const BLOCK_TARGET: usize = BLOCK_SIZE * 3 / 4;
/// Batch sizes below this update serially.
const PAR_CUTOFF: usize = 1 << 9;
/// Weight-balance slack: rebuild a subtree when one side outweighs the
/// other by more than this factor (plus one block of hysteresis).
const BALANCE_FACTOR: usize = 4;

/// Storage for one block's elements.
pub trait BlockPayload: Send + Sync + Sized {
    /// Name of the variant this payload yields, as the paper's tables
    /// spell it ("U-PaC" / "C-PaC"); surfaces as `OrderedSet::NAME`.
    const NAME: &'static str;
    /// Encode a sorted, deduplicated, non-empty run.
    fn encode(elems: &[u64]) -> Self;
    /// Append all elements, in order, to `out`.
    fn decode(&self, out: &mut Vec<u64>);
    /// Number of elements.
    fn count(&self) -> usize;
    /// Smallest element.
    fn head(&self) -> u64;
    /// Bytes of heap memory used by the payload.
    fn payload_bytes(&self) -> usize;
    /// In-order traversal with early exit; false iff stopped early.
    fn for_each(&self, f: &mut dyn FnMut(u64) -> bool) -> bool;
    /// The elements ≥ `start`, in order: the block's own keys where it
    /// stores them raw, else decoded into `buf`.
    fn chunk_from<'a>(&'a self, start: u64, buf: &'a mut Vec<u64>) -> &'a [u64];

    /// Membership test.
    fn contains(&self, key: u64) -> bool {
        let mut found = false;
        self.for_each(&mut |e| {
            if e >= key {
                found = e == key;
                return false;
            }
            true
        });
        found
    }
}

/// Uncompressed block: raw sorted keys (U-PaC).
pub struct RawBlock(Box<[u64]>);

impl BlockPayload for RawBlock {
    const NAME: &'static str = "U-PaC";
    fn encode(elems: &[u64]) -> Self {
        debug_assert!(!elems.is_empty());
        stats::record_write(elems.len() * 8);
        RawBlock(elems.to_vec().into_boxed_slice())
    }
    fn decode(&self, out: &mut Vec<u64>) {
        stats::record_read(self.0.len() * 8);
        out.extend_from_slice(&self.0);
    }
    fn count(&self) -> usize {
        self.0.len()
    }
    fn head(&self) -> u64 {
        self.0[0]
    }
    fn payload_bytes(&self) -> usize {
        self.0.len() * 8
    }
    fn for_each(&self, f: &mut dyn FnMut(u64) -> bool) -> bool {
        stats::record_read(self.0.len() * 8);
        for &e in self.0.iter() {
            if !f(e) {
                return false;
            }
        }
        true
    }
    fn chunk_from<'a>(&'a self, start: u64, _buf: &'a mut Vec<u64>) -> &'a [u64] {
        stats::record_read(self.0.len() * 8);
        &self.0[self.0.partition_point(|&e| e < start)..]
    }
    fn contains(&self, key: u64) -> bool {
        stats::record_read(64);
        self.0.binary_search(&key).is_ok()
    }
}

/// Difference-encoded block: raw head + delta byte codes (C-PaC).
pub struct CompressedBlock {
    count: u32,
    bytes: Box<[u8]>,
}

impl BlockPayload for CompressedBlock {
    const NAME: &'static str = "C-PaC";
    fn encode(elems: &[u64]) -> Self {
        debug_assert!(!elems.is_empty());
        let len = codec::encoded_run_len(elems, 8);
        let mut bytes = vec![0u8; len];
        codec::encode_run(elems, &mut bytes);
        stats::record_write(len);
        CompressedBlock {
            count: elems.len() as u32,
            bytes: bytes.into_boxed_slice(),
        }
    }
    fn decode(&self, out: &mut Vec<u64>) {
        stats::record_read(self.bytes.len());
        codec::decode_run(&self.bytes, out);
    }
    fn count(&self) -> usize {
        self.count as usize
    }
    fn head(&self) -> u64 {
        u64::from_le_bytes(self.bytes[..8].try_into().unwrap())
    }
    fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(u64) -> bool) -> bool {
        stats::record_read(self.bytes.len());
        codec::for_each_in_run(&self.bytes, f)
    }
    fn chunk_from<'a>(&'a self, start: u64, buf: &'a mut Vec<u64>) -> &'a [u64] {
        buf.clear();
        self.decode(buf);
        &buf[buf.partition_point(|&e| e < start)..]
    }
}

enum Tree<P> {
    Leaf(P),
    Node {
        split: u64,
        size: usize,
        left: Box<Tree<P>>,
        right: Box<Tree<P>>,
    },
}

impl<P: BlockPayload> Tree<P> {
    fn size(&self) -> usize {
        match self {
            Tree::Leaf(p) => p.count(),
            Tree::Node { size, .. } => *size,
        }
    }
}

/// Per-internal-node memory: split key + size + two pointers.
const NODE_BYTES: usize = 32;
/// Per-leaf overhead: enum tag + payload descriptor.
const LEAF_OVERHEAD: usize = 24;

/// Batch-parallel blocked tree; `P` selects U-PaC or C-PaC. See module docs.
pub struct PacTree<P: BlockPayload> {
    root: Option<Box<Tree<P>>>,
}

impl<P: BlockPayload> Default for PacTree<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Build a balanced tree over blocks from a sorted, deduplicated slice.
fn build<P: BlockPayload>(elems: &[u64]) -> Option<Box<Tree<P>>> {
    if elems.is_empty() {
        return None;
    }
    let nblocks = elems.len().div_ceil(BLOCK_TARGET);
    fn rec<P: BlockPayload>(elems: &[u64], blocks: usize) -> Box<Tree<P>> {
        if blocks <= 1 {
            return Box::new(Tree::Leaf(P::encode(elems)));
        }
        let lb = blocks / 2;
        let at = elems.len() * lb / blocks;
        let (ls, rs) = elems.split_at(at);
        let (l, r) = if elems.len() > PAR_CUTOFF {
            rayon::join(|| rec::<P>(ls, lb), || rec::<P>(rs, blocks - lb))
        } else {
            (rec::<P>(ls, lb), rec::<P>(rs, blocks - lb))
        };
        Box::new(Tree::Node {
            split: rs[0],
            size: elems.len(),
            left: l,
            right: r,
        })
    }
    Some(rec::<P>(elems, nblocks))
}

/// Collect a subtree's elements in order.
fn collect_into<P: BlockPayload>(t: &Tree<P>, out: &mut Vec<u64>) {
    match t {
        Tree::Leaf(p) => p.decode(out),
        Tree::Node { left, right, .. } => {
            stats::record_read(NODE_BYTES);
            collect_into(left, out);
            collect_into(right, out);
        }
    }
}

/// Sorted-union of a block's contents with a batch slice; returns the
/// merged elements and how many batch elements were new.
fn union_block<P: BlockPayload>(p: &P, batch: &[u64]) -> (Vec<u64>, usize) {
    let mut cur = Vec::with_capacity(p.count() + batch.len());
    p.decode(&mut cur);
    let mut out = Vec::with_capacity(cur.len() + batch.len());
    let (mut i, mut j, mut added) = (0, 0, 0);
    while i < cur.len() && j < batch.len() {
        match cur[i].cmp(&batch[j]) {
            std::cmp::Ordering::Less => {
                out.push(cur[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(batch[j]);
                added += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(cur[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&cur[i..]);
    added += batch.len() - j;
    out.extend_from_slice(&batch[j..]);
    (out, added)
}

/// Insert `batch` into subtree `t`; returns the new subtree and #added.
fn bulk_insert<P: BlockPayload>(t: Box<Tree<P>>, batch: &[u64]) -> (Box<Tree<P>>, usize) {
    if batch.is_empty() {
        return (t, 0);
    }
    match *t {
        Tree::Leaf(p) => {
            let (merged, added) = union_block(&p, batch);
            if merged.len() <= BLOCK_SIZE {
                (Box::new(Tree::Leaf(P::encode(&merged))), added)
            } else {
                (build::<P>(&merged).unwrap(), added)
            }
        }
        Tree::Node {
            split, left, right, ..
        } => {
            stats::record_read(NODE_BYTES);
            let at = batch.partition_point(|&e| e < split);
            let (lb, rb) = batch.split_at(at);
            let ((l, a1), (r, a2)) = if batch.len() > PAR_CUTOFF {
                rayon::join(|| bulk_insert(left, lb), || bulk_insert(right, rb))
            } else {
                (bulk_insert(left, lb), bulk_insert(right, rb))
            };
            let size = l.size() + r.size();
            let node = Box::new(Tree::Node {
                split,
                size,
                left: l,
                right: r,
            });
            (rebalance(node), a1 + a2)
        }
    }
}

/// Remove `batch` keys from subtree `t`; returns the new subtree (possibly
/// `None`) and #removed.
fn bulk_remove<P: BlockPayload>(t: Box<Tree<P>>, batch: &[u64]) -> (Option<Box<Tree<P>>>, usize) {
    if batch.is_empty() {
        return (Some(t), 0);
    }
    match *t {
        Tree::Leaf(p) => {
            let mut cur = Vec::with_capacity(p.count());
            p.decode(&mut cur);
            let mut out = Vec::with_capacity(cur.len());
            let mut j = 0;
            let mut removed = 0;
            for &c in &cur {
                while j < batch.len() && batch[j] < c {
                    j += 1;
                }
                if j < batch.len() && batch[j] == c {
                    removed += 1;
                    j += 1;
                } else {
                    out.push(c);
                }
            }
            if removed == 0 {
                return (Some(Box::new(Tree::Leaf(p))), 0);
            }
            if out.is_empty() {
                (None, removed)
            } else {
                (Some(Box::new(Tree::Leaf(P::encode(&out)))), removed)
            }
        }
        Tree::Node {
            split, left, right, ..
        } => {
            stats::record_read(NODE_BYTES);
            let at = batch.partition_point(|&e| e < split);
            let (lb, rb) = batch.split_at(at);
            let ((l, r1), (r, r2)) = if batch.len() > PAR_CUTOFF {
                rayon::join(|| bulk_remove(left, lb), || bulk_remove(right, rb))
            } else {
                (bulk_remove(left, lb), bulk_remove(right, rb))
            };
            let node = match (l, r) {
                (None, None) => None,
                (Some(x), None) | (None, Some(x)) => Some(x),
                (Some(l), Some(r)) => {
                    let size = l.size() + r.size();
                    Some(rebalance(Box::new(Tree::Node {
                        split,
                        size,
                        left: l,
                        right: r,
                    })))
                }
            };
            (node, r1 + r2)
        }
    }
}

/// Scapegoat-style rebuild when the two sides drift far out of balance.
fn rebalance<P: BlockPayload>(t: Box<Tree<P>>) -> Box<Tree<P>> {
    if let Tree::Node {
        ref left,
        ref right,
        size,
        ..
    } = *t
    {
        let (ls, rs) = (left.size(), right.size());
        if ls > BALANCE_FACTOR * rs + BLOCK_SIZE || rs > BALANCE_FACTOR * ls + BLOCK_SIZE {
            let mut elems = Vec::with_capacity(size);
            collect_into(&t, &mut elems);
            return build::<P>(&elems).unwrap();
        }
    }
    t
}

impl<P: BlockPayload> PacTree<P> {
    /// Empty tree.
    pub fn new() -> Self {
        Self { root: None }
    }

    /// Apply `f` to all keys in `[start, end)` in order (under
    /// `range_sum`).
    fn map_range(&self, start: u64, end: u64, f: &mut impl FnMut(u64)) {
        fn walk<P: BlockPayload>(t: &Tree<P>, start: u64, end: u64, f: &mut impl FnMut(u64)) {
            match t {
                Tree::Leaf(p) => {
                    p.for_each(&mut |e| {
                        if e >= end {
                            return false;
                        }
                        if e >= start {
                            f(e);
                        }
                        true
                    });
                }
                Tree::Node {
                    split, left, right, ..
                } => {
                    stats::record_read(NODE_BYTES);
                    if start < *split {
                        walk(left, start, end, f);
                    }
                    if end > *split {
                        walk(right, start, end, f);
                    }
                }
            }
        }
        if start < end {
            if let Some(t) = &self.root {
                walk(t, start, end, f);
            }
        }
    }
}

impl<P: BlockPayload> OrderedSet for PacTree<P> {
    const NAME: &'static str = P::NAME;

    fn contains(&self, key: u64) -> bool {
        let mut cur = match &self.root {
            Some(t) => t.as_ref(),
            None => return false,
        };
        loop {
            match cur {
                Tree::Leaf(p) => return p.contains(key),
                Tree::Node {
                    split, left, right, ..
                } => {
                    stats::record_read(NODE_BYTES);
                    cur = if key < *split { left } else { right };
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |t| t.size())
    }

    fn min(&self) -> Option<u64> {
        let mut cur = self.root.as_ref()?.as_ref();
        loop {
            match cur {
                Tree::Leaf(p) => return Some(p.head()),
                Tree::Node { left, .. } => cur = left,
            }
        }
    }

    fn max(&self) -> Option<u64> {
        let mut cur = self.root.as_ref()?.as_ref();
        loop {
            match cur {
                Tree::Leaf(p) => {
                    let mut last = None;
                    p.for_each(&mut |e| {
                        last = Some(e);
                        true
                    });
                    return last;
                }
                Tree::Node { right, .. } => cur = right,
            }
        }
    }

    fn successor(&self, key: u64) -> Option<u64> {
        let mut out = None;
        self.scan_chunks_from(key, &mut |chunk| {
            out = Some(chunk[0]);
            false
        });
        out
    }

    /// Heap bytes used (blocks + internal nodes).
    fn size_bytes(&self) -> usize {
        fn walk<P: BlockPayload>(t: &Tree<P>) -> usize {
            match t {
                Tree::Leaf(p) => LEAF_OVERHEAD + p.payload_bytes(),
                Tree::Node { left, right, .. } => NODE_BYTES + walk(left) + walk(right),
            }
        }
        self.root.as_ref().map_or(0, |t| walk(t))
    }
}

impl<P: BlockPayload> BatchSet for PacTree<P> {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[u64]) -> Self {
        debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
        Self {
            root: build::<P>(elems),
        }
    }

    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        match self.root.take() {
            None => {
                self.root = build::<P>(batch);
                batch.len()
            }
            Some(t) => {
                let (t, added) = bulk_insert(t, batch);
                self.root = Some(t);
                added
            }
        }
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        match self.root.take() {
            None => 0,
            Some(t) => {
                let (t, removed) = bulk_remove(t, batch);
                self.root = t;
                removed
            }
        }
    }
}

impl<P: BlockPayload> RangeSet for PacTree<P> {
    /// One chunk per block.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        fn walk<P: BlockPayload>(
            t: &Tree<P>,
            start: u64,
            buf: &mut Vec<u64>,
            f: &mut dyn FnMut(&[u64]) -> bool,
        ) -> bool {
            match t {
                Tree::Leaf(p) => {
                    let chunk = p.chunk_from(start, buf);
                    chunk.is_empty() || f(chunk)
                }
                Tree::Node {
                    split, left, right, ..
                } => {
                    stats::record_read(NODE_BYTES);
                    if start < *split && !walk(left, start, buf, f) {
                        return false;
                    }
                    walk(right, start, buf, f)
                }
            }
        }
        if let Some(t) = &self.root {
            walk(t, start, &mut Vec::new(), f);
        }
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

impl<P: BlockPayload> ParallelChunks for PacTree<P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn lcg(n: usize, seed: u64, bits: u32) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> (64 - bits)
            })
            .collect()
    }

    fn roundtrip<P: BlockPayload>() {
        let elems: Vec<u64> = (0..10_000u64).map(|i| i * 11 + 5).collect();
        let t = PacTree::<P>::build_sorted(&elems);
        assert_eq!(t.len(), elems.len());
        assert_eq!(t.to_vec(), elems);
        for &e in elems.iter().step_by(777) {
            assert!(t.contains(e));
            assert!(!t.contains(e + 1));
        }
    }

    #[test]
    fn build_roundtrip_raw() {
        roundtrip::<RawBlock>();
    }

    #[test]
    fn build_roundtrip_compressed() {
        roundtrip::<CompressedBlock>();
    }

    fn batches_match_model<P: BlockPayload>() {
        let mut t = PacTree::<P>::new();
        let mut model = BTreeSet::new();
        for round in 0..8u64 {
            let keys = lcg(5000, round + 1, 30);
            let mut b = keys.clone();
            let added = t.insert_batch(&mut b, false);
            let before = model.len();
            model.extend(keys.iter().copied());
            assert_eq!(added, model.len() - before, "round {round}");
            // Remove a slice of what we inserted plus some misses.
            let dels: Vec<u64> = keys
                .iter()
                .step_by(3)
                .map(|&k| k ^ 1)
                .chain(keys.iter().step_by(2).copied())
                .collect();
            let mut d = dels.clone();
            let removed = t.remove_batch(&mut d, false);
            let mut expect = 0;
            let mut seen = BTreeSet::new();
            for k in dels {
                if seen.insert(k) && model.remove(&k) {
                    expect += 1;
                }
            }
            assert_eq!(removed, expect, "round {round}");
            assert_eq!(t.len(), model.len());
        }
        assert_eq!(t.to_vec(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn batches_match_model_raw() {
        batches_match_model::<RawBlock>();
    }

    #[test]
    fn batches_match_model_compressed() {
        batches_match_model::<CompressedBlock>();
    }

    #[test]
    fn remove_everything_empties_tree() {
        let elems: Vec<u64> = (0..5000u64).collect();
        let mut t = PacTree::<CompressedBlock>::build_sorted(&elems);
        let removed = t.remove_batch_sorted(&elems);
        assert_eq!(removed, 5000);
        assert!(t.is_empty());
        assert_eq!(t.size_bytes(), 0);
        // Usable afterwards.
        assert_eq!(t.insert_batch_sorted(&[1, 2, 3]), 3);
        assert_eq!(t.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn map_range_and_sum() {
        let elems: Vec<u64> = (0..3000u64).map(|i| i * 2).collect();
        let t = PacTree::<CompressedBlock>::build_sorted(&elems);
        let mut seen = Vec::new();
        t.map_range(10, 21, &mut |e| seen.push(e));
        assert_eq!(seen, vec![10, 12, 14, 16, 18, 20]);
        assert_eq!(t.range_sum(..), elems.iter().sum::<u64>());
        assert_eq!(t.range_sum(0..u64::MAX), t.range_sum(..));
        assert_eq!(t.range_sum(100..100), 0);
    }

    #[test]
    fn compression_shrinks_dense_sets() {
        let elems: Vec<u64> = (0..100_000u64).collect();
        let raw = PacTree::<RawBlock>::build_sorted(&elems);
        let comp = PacTree::<CompressedBlock>::build_sorted(&elems);
        assert!(
            comp.size_bytes() * 3 < raw.size_bytes(),
            "{} vs {}",
            comp.size_bytes(),
            raw.size_bytes()
        );
    }

    #[test]
    fn skewed_inserts_stay_balanced_enough() {
        // Repeated batches into the same key region force rebalances.
        let spread: Vec<u64> = (0..20_000u64).map(|i| i << 16).collect();
        let mut t = PacTree::<RawBlock>::build_sorted(&spread);
        for round in 0..20u64 {
            let batch: Vec<u64> = (0..2000u64).map(|i| (round << 32) + i * 3 + 1).collect();
            let mut b = batch.clone();
            t.insert_batch(&mut b, true);
        }
        assert_eq!(t.len(), 20_000 + 20 * 2000);
        // Depth sanity: a balanced blocked tree over 60k elems has ~8-9
        // levels of blocks; allow generous slack.
        fn depth<P: BlockPayload>(t: &Tree<P>) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        let d = depth(t.root.as_ref().unwrap());
        assert!(d < 40, "tree degenerated to depth {d}");
    }
}
