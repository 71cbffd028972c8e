//! [`cpma_api`] trait implementations for the baseline structures.
//!
//! Everything the sweep binaries and equivalence tests need from a
//! baseline goes through these impls; the inherent methods on the types
//! are the structure-specific machinery (join-based unions, block
//! management, chunk hashing).

use crate::pactree::BlockPayload;
use crate::{CTreeSet, PTree, PacTree};
use cpma_api::{buffered_chunks, BatchSet, OrderedSet, ParallelChunks, RangeSet};

// ---------------------------------------------------------------- P-tree

impl OrderedSet for PTree {
    const NAME: &'static str = "P-tree";

    fn contains(&self, key: u64) -> bool {
        self.has(key)
    }

    fn len(&self) -> usize {
        PTree::len(self)
    }

    fn min(&self) -> Option<u64> {
        PTree::min(self)
    }

    fn max(&self) -> Option<u64> {
        PTree::max(self)
    }

    fn successor(&self, key: u64) -> Option<u64> {
        PTree::successor(self, key)
    }

    fn size_bytes(&self) -> usize {
        PTree::size_bytes(self)
    }
}

impl BatchSet for PTree {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[u64]) -> Self {
        Self::from_sorted(elems)
    }

    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        PTree::insert_batch_sorted(self, batch)
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        PTree::remove_batch_sorted(self, batch)
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
            || self.has(u64::MAX),
            |lo, hi| self.range_sum_excl(lo, hi),
        )
    }
}

impl ParallelChunks for PTree {}

// ------------------------------------------------------- PaC-tree (U/C)

impl<P: BlockPayload> OrderedSet for PacTree<P> {
    const NAME: &'static str = P::NAME;

    fn contains(&self, key: u64) -> bool {
        self.has(key)
    }

    fn len(&self) -> usize {
        PacTree::len(self)
    }

    fn min(&self) -> Option<u64> {
        PacTree::min(self)
    }

    fn max(&self) -> Option<u64> {
        PacTree::max(self)
    }

    fn successor(&self, key: u64) -> Option<u64> {
        let mut out = None;
        self.chunks_from(key, &mut |chunk| {
            out = Some(chunk[0]);
            false
        });
        out
    }

    fn size_bytes(&self) -> usize {
        PacTree::size_bytes(self)
    }
}

impl<P: BlockPayload> BatchSet for PacTree<P> {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[u64]) -> Self {
        Self::from_sorted(elems)
    }

    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        PacTree::insert_batch_sorted(self, batch)
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        PacTree::remove_batch_sorted(self, batch)
    }
}

impl<P: BlockPayload> RangeSet for PacTree<P> {
    /// One chunk per block.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        self.chunks_from(start, f);
    }

    fn range_sum<R: std::ops::RangeBounds<u64>>(&self, range: R) -> u64 {
        cpma_api::range_sum_via_exclusive(
            &range,
            || self.has(u64::MAX),
            |lo, hi| self.range_sum_excl(lo, hi),
        )
    }
}

impl<P: BlockPayload> ParallelChunks for PacTree<P> {}

// ---------------------------------------------------------------- C-tree

impl OrderedSet for CTreeSet {
    const NAME: &'static str = "C-tree";

    fn contains(&self, key: u64) -> bool {
        self.has(key)
    }

    fn len(&self) -> usize {
        CTreeSet::len(self)
    }

    fn min(&self) -> Option<u64> {
        CTreeSet::min(self)
    }

    fn max(&self) -> Option<u64> {
        CTreeSet::max(self)
    }

    fn successor(&self, key: u64) -> Option<u64> {
        let mut out = None;
        self.chunks_from(key, &mut |chunk| {
            out = Some(chunk[0]);
            false
        });
        out
    }

    fn size_bytes(&self) -> usize {
        CTreeSet::size_bytes(self)
    }
}

impl BatchSet for CTreeSet {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[u64]) -> Self {
        Self::from_sorted(elems)
    }

    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        CTreeSet::insert_batch_sorted(self, batch)
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        CTreeSet::remove_batch_sorted(self, batch)
    }
}

impl RangeSet for CTreeSet {
    /// One chunk per compressed chunk.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        self.chunks_from(start, f);
    }
}

impl ParallelChunks for CTreeSet {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CPac, UPac};
    use cpma_api::conformance::assert_ordered_set_contract;

    #[test]
    fn ptree_conforms() {
        assert_ordered_set_contract::<PTree>(0x9733);
    }

    #[test]
    fn upac_conforms() {
        assert_ordered_set_contract::<UPac>(0x09AC);
    }

    #[test]
    fn cpac_conforms() {
        assert_ordered_set_contract::<CPac>(0xC9AC);
    }

    #[test]
    fn ctree_conforms() {
        assert_ordered_set_contract::<CTreeSet>(0xC733);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(<PTree as OrderedSet>::NAME, "P-tree");
        assert_eq!(<UPac as OrderedSet>::NAME, "U-PaC");
        assert_eq!(<CPac as OrderedSet>::NAME, "C-PaC");
        assert_eq!(<CTreeSet as OrderedSet>::NAME, "C-tree");
    }
}
