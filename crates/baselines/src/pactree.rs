//! PaC-trees: P-trees whose small subtrees are blocks (CPAM \[33]).
//!
//! A PaC-tree is the P-tree's treap with every subtree of up to
//! [`BLOCK_SIZE`] elements stored as one block at a leaf; C-PaC
//! difference-encodes each block's elements. The paper configures "the
//! PaC-trees library block size ... to the default for sets at 256". Both
//! variants run on the join core in [`crate::ptree`]: a batch insert or
//! remove descends the tree with the sorted batch (PAM's multi-insert /
//! multi-delete), a block that overflows is rebuilt as a subtree, and
//! `join` flattens a subtree that fits into one block.
//!
//! Blocks are laid out at independent heap addresses, deliberately so: the
//! whole point of the paper's comparison is that trees pay pointer-chasing
//! costs between blocks, while the PMA scans contiguously.

use crate::ptree::{build, insert_run, remove_run, Tree};
use cpma_api::{BatchSet, OrderedSet, ParallelChunks, RangeSet};
use cpma_pma::codec;
use cpma_pma::stats;
use std::mem::take;

/// Maximum elements per block (the paper's set default).
pub const BLOCK_SIZE: usize = 256;

/// Storage for one block's elements.
pub trait BlockPayload: Send + Sync + Sized {
    /// Name of the tree this payload yields, as the paper's tables spell it
    /// ("U-PaC" / "C-PaC"); surfaces as `OrderedSet::NAME`.
    const NAME: &'static str;
    /// Most elements one block holds; the tree keeps every subtree this
    /// small as one block.
    const CAPACITY: usize = BLOCK_SIZE;
    /// Encode a sorted, deduplicated, non-empty run.
    fn encode(elems: &[u64]) -> Self;
    /// Append all elements, in order, to `out`.
    fn decode(&self, out: &mut Vec<u64>);
    /// Number of elements.
    fn count(&self) -> usize;
    /// Bytes of heap memory used by the payload.
    fn payload_bytes(&self) -> usize;
    /// The elements ≥ `start`, in order: the block's own keys where it
    /// stores them raw, else decoded into `buf`.
    fn chunk_from<'a>(&'a self, start: u64, buf: &'a mut Vec<u64>) -> &'a [u64];
    /// Membership test.
    fn contains(&self, key: u64) -> bool;
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
    fn payload_bytes(&self) -> usize {
        self.0.len() * 8
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
        out.reserve(self.count());
        codec::decode_run(&self.bytes, out);
    }
    fn count(&self) -> usize {
        self.count as usize
    }
    fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }
    fn chunk_from<'a>(&'a self, start: u64, buf: &'a mut Vec<u64>) -> &'a [u64] {
        buf.clear();
        self.decode(buf);
        &buf[buf.partition_point(|&e| e < start)..]
    }
    fn contains(&self, key: u64) -> bool {
        stats::record_read(self.bytes.len());
        let mut found = false;
        codec::for_each_in_run(&self.bytes, |e| {
            found = e == key;
            e < key
        });
        found
    }
}

/// Batch-parallel blocked tree; `P` selects U-PaC or C-PaC. See module docs.
pub struct PacTree<P: BlockPayload> {
    root: Tree<P>,
}

impl<P: BlockPayload> Default for PacTree<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: BlockPayload> PacTree<P> {
    /// Empty tree.
    pub fn new() -> Self {
        Self { root: Tree::Empty }
    }

    /// Panic unless the treap priorities are heap-ordered over the nodes,
    /// every node's size field counts its subtree, and every block holds
    /// 1 to `P::CAPACITY` elements; returns the depth in nodes. For tests.
    pub fn check_invariants(&self) -> usize {
        self.root.check(None).1
    }
}

impl<P: BlockPayload> OrderedSet for PacTree<P> {
    const NAME: &'static str = P::NAME;

    fn contains(&self, key: u64) -> bool {
        self.root.contains(key)
    }

    fn len(&self) -> usize {
        self.root.len()
    }

    fn min(&self) -> Option<u64> {
        self.root.successor(0)
    }

    fn max(&self) -> Option<u64> {
        self.root.max()
    }

    fn successor(&self, key: u64) -> Option<u64> {
        self.root.successor(key)
    }

    /// Accounted bytes: 32 per node, a descriptor and the payload per block.
    fn size_bytes(&self) -> usize {
        self.root.size_bytes()
    }
}

impl<P: BlockPayload> BatchSet for PacTree<P> {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[u64]) -> Self {
        Self { root: build(elems) }
    }

    /// PAM's multi-insert: the batch descends the tree as a sorted run.
    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        let (root, shared) = insert_run(take(&mut self.root), batch);
        self.root = root;
        batch.len() - shared
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        let (root, removed) = remove_run(take(&mut self.root), batch);
        self.root = root;
        removed
    }
}

impl<P: BlockPayload> RangeSet for PacTree<P> {
    /// One chunk per block; node keys are buffered into chunks.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        self.root.scan_chunks_from(start, f);
    }

    /// A walk that stops at the range's end: the scan's buffered node keys
    /// would run past it.
    fn range_sum<R: std::ops::RangeBounds<u64>>(&self, range: R) -> u64 {
        cpma_api::range_sum_via_exclusive(
            &range,
            || self.contains(u64::MAX),
            |lo, hi| self.root.sum_range(lo, hi, &mut Vec::new()),
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
            t.check_invariants();
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
            t.check_invariants();
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
    fn ranges_and_sum() {
        let elems: Vec<u64> = (0..3000u64).map(|i| i * 2).collect();
        let t = PacTree::<CompressedBlock>::build_sorted(&elems);
        let mut seen = Vec::new();
        t.for_range(10..21, |e| seen.push(e));
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

    /// Batches inserted in every order keep the tree within the same
    /// O(log(n/B + 1)) depth, B the block capacity (1 with no blocks).
    #[test]
    fn skewed_inserts_stay_balanced_enough() {
        fn case<P: BlockPayload>(order: &str, batches: &[Vec<u64>]) {
            let mut t = PacTree::<P>::new();
            for b in batches {
                t.insert_batch_sorted(b);
            }
            let depth = t.check_invariants();
            let blocks = t.len() / P::CAPACITY.max(1) + 1;
            let bound = 3 * blocks.ilog2() as usize + 6;
            assert!(
                depth <= bound,
                "{}, {order}: depth {depth} over {bound} at {} elements",
                P::NAME,
                t.len()
            );
        }
        // Runs of 2000 keys, 3 apart, at 2³⁵ · `r`.
        let run = |r: u64| (0..2000u64).map(move |i| (r << 35) + i * 3 + 1).collect();
        let uniform = |seed: u64| {
            let mut b = lcg(2000, seed, 40);
            b.sort_unstable();
            b.dedup();
            b
        };
        let orders: [(&str, Vec<Vec<u64>>); 4] = [
            ("ascending appends", (0..30).map(run).collect()),
            ("descending appends", (0..30).rev().map(run).collect()),
            (
                "clustered runs",
                std::iter::once(uniform(99))
                    .chain((0..30).map(|r| run(r * 7 % 30)))
                    .collect(),
            ),
            ("uniform keys", (1..=30).map(uniform).collect()),
        ];
        for (order, batches) in &orders {
            case::<crate::ptree::NoBlock>(order, batches);
            case::<RawBlock>(order, batches);
            case::<CompressedBlock>(order, batches);
        }
    }
}
