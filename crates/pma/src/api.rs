//! [`cpma_api`] trait implementations for the PMA/CPMA.
//!
//! One generic impl block per trait covers both storages (the paper's
//! observation that the CPMA is the PMA with a different leaf encoding
//! holds at the API layer too); `OrderedSet::NAME` comes from
//! [`LeafStorage::NAME`].

use crate::core::PmaCore;
use crate::{LeafStorage, PmaKey};
use cpma_api::{BatchOp, BatchOutcome, BatchSet, CatchUp, OrderedSet, ParallelChunks, RangeSet};

impl<K: PmaKey, L: LeafStorage<K>> OrderedSet<K> for PmaCore<K, L> {
    const NAME: &'static str = L::NAME;

    fn contains(&self, key: K) -> bool {
        self.has(key)
    }

    fn len(&self) -> usize {
        PmaCore::len(self)
    }

    fn min(&self) -> Option<K> {
        PmaCore::min(self)
    }

    fn max(&self) -> Option<K> {
        PmaCore::max(self)
    }

    fn successor(&self, key: K) -> Option<K> {
        PmaCore::successor(self, key)
    }

    /// Sorted-probe batched lookup with shared leaf decodes (the inherent
    /// [`PmaCore::contains_batch`]) instead of the default per-key loop.
    fn contains_batch(&self, keys: &[K]) -> Vec<bool> {
        PmaCore::contains_batch(self, keys)
    }

    /// Sorted-probe batched successor with shared leaf decodes (the
    /// inherent [`PmaCore::successor_batch`]).
    fn successor_batch(&self, keys: &[K]) -> Vec<Option<K>> {
        PmaCore::successor_batch(self, keys)
    }

    fn size_bytes(&self) -> usize {
        PmaCore::size_bytes(self)
    }
}

impl<K: PmaKey, L: LeafStorage<K>> BatchSet<K> for PmaCore<K, L> {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[K]) -> Self {
        Self::from_sorted(elems)
    }

    fn insert_batch_sorted(&mut self, batch: &[K]) -> usize {
        PmaCore::insert_batch_sorted(self, batch)
    }

    fn remove_batch_sorted(&mut self, batch: &[K]) -> usize {
        PmaCore::remove_batch_sorted(self, batch)
    }

    /// The PMA/CPMA native mixed pipeline: one route→merge→count→
    /// redistribute pass instead of the default remove+insert split.
    fn apply_batch_sorted(&mut self, ops: &[BatchOp<K>]) -> BatchOutcome {
        PmaCore::apply_batch_sorted(self, ops)
    }

    /// Routes the batch once and decides presence in the leaves it lands
    /// in (`batch/report.rs`) instead of probing first.
    fn apply_batch_sorted_reporting(
        &mut self,
        ops: &[BatchOp<K>],
        was_present: &mut Vec<bool>,
    ) -> BatchOutcome {
        PmaCore::apply_batch_sorted_reporting(self, ops, was_present)
    }

    /// Copies the newer replica's recorded write set (`writeset.rs`).
    fn catch_up_from(&mut self, newer: &Self, lag: &[BatchOp<K>]) -> CatchUp {
        PmaCore::catch_up_from(self, newer, lag)
    }

    fn copies_from(&self, newer: &Self) -> bool {
        PmaCore::copies_from(self, newer)
    }
}

impl<K: PmaKey, L: LeafStorage<K>> RangeSet<K> for PmaCore<K, L> {
    /// One chunk per leaf (`PmaCore::chunks_from`).
    fn scan_chunks_from(&self, start: K, f: &mut dyn FnMut(&[K]) -> bool) {
        self.chunks_from(start, f)
    }

    fn range_sum<R: std::ops::RangeBounds<K>>(&self, range: R) -> u64 {
        cpma_api::range_sum_via_exclusive(
            &range,
            || self.has(K::MAX),
            |lo, hi| PmaCore::range_sum_excl(self, lo, hi),
        )
    }
}

impl<K: PmaKey, L: LeafStorage<K>> ParallelChunks<K> for PmaCore<K, L> {
    /// The leaves' chunks, decoded leaf-parallel (`PmaCore::par_leaf_chunks`).
    fn par_chunks(&self, f: &(dyn Fn(&[K]) + Sync)) {
        self.par_leaf_chunks(f)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cpma, Pma};
    use cpma_api::conformance::assert_ordered_set_contract;
    use cpma_api::{BatchSet, OrderedSet, ParallelChunks, RangeSet};

    #[test]
    fn pma_conforms() {
        assert_ordered_set_contract::<Pma<u64>>(0x70A1);
    }

    #[test]
    fn cpma_conforms() {
        assert_ordered_set_contract::<Cpma>(0xC70A);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(<Pma<u64> as OrderedSet<u64>>::NAME, "PMA");
        assert_eq!(<Cpma as OrderedSet<u64>>::NAME, "CPMA");
    }

    #[test]
    fn range_sum_includes_max_key() {
        let c: Cpma = BatchSet::build_sorted(&[1, 2, u64::MAX]);
        assert_eq!(c.range_sum(..), 3u64.wrapping_add(u64::MAX));
        assert_eq!(c.range_sum(3..=u64::MAX), u64::MAX);
        assert_eq!(c.range_sum(3..u64::MAX), 0);
    }

    #[test]
    fn par_chunks_cover_everything_in_order() {
        use std::sync::Mutex;
        let elems: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        let c: Cpma = BatchSet::build_sorted(&elems);
        let chunks: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
        c.par_chunks(&|chunk| chunks.lock().unwrap().push(chunk.to_vec()));
        let mut chunks = chunks.into_inner().unwrap();
        chunks.sort_by_key(|c| c[0]);
        let flat: Vec<u64> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, elems);
    }

    #[test]
    fn std_collection_idioms() {
        let p: Pma<u64> = [5u64, 1, 3, 1].into_iter().collect();
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        let mut c: Cpma = (0..100u64).collect();
        c.extend(vec![500u64, 50, 200]);
        assert_eq!(c.len(), 102);
        assert!(c.has(500));
        let drained: Vec<u64> = c.into_iter().collect();
        assert_eq!(drained.len(), 102);
        assert!(drained.windows(2).all(|w| w[0] < w[1]));
    }
}
