//! Trait implementations for [`std::collections::BTreeSet`] — the oracle
//! the equivalence tests and the conformance suite compare against.

use crate::{buffered_chunks, BatchSet, OrderedSet, ParallelChunks, RangeSet, SetKey};
use std::collections::BTreeSet;

impl<K: SetKey> OrderedSet<K> for BTreeSet<K> {
    const NAME: &'static str = "BTreeSet";

    fn contains(&self, key: K) -> bool {
        BTreeSet::contains(self, &key)
    }

    fn len(&self) -> usize {
        BTreeSet::len(self)
    }

    fn min(&self) -> Option<K> {
        self.iter().next().copied()
    }

    fn max(&self) -> Option<K> {
        self.iter().next_back().copied()
    }

    fn successor(&self, key: K) -> Option<K> {
        self.range(key..).next().copied()
    }

    /// Rough model of the B-tree's footprint (std exposes no accounting):
    /// key bytes plus two words of node overhead per element. Only used for
    /// sanity bounds, never benchmark tables.
    fn size_bytes(&self) -> usize {
        BTreeSet::len(self) * (std::mem::size_of::<K>() + 16)
    }
}

impl<K: SetKey> BatchSet<K> for BTreeSet<K> {
    fn new_set() -> Self {
        BTreeSet::new()
    }

    fn build_sorted(elems: &[K]) -> Self {
        debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
        elems.iter().copied().collect()
    }

    fn insert_batch_sorted(&mut self, batch: &[K]) -> usize {
        batch.iter().filter(|&&k| self.insert(k)).count()
    }

    fn remove_batch_sorted(&mut self, batch: &[K]) -> usize {
        batch.iter().filter(|&&k| self.remove(&k)).count()
    }
}

impl<K: SetKey> RangeSet<K> for BTreeSet<K> {
    /// Std's B-tree does not expose its nodes: the keys are buffered.
    fn scan_chunks_from(&self, start: K, f: &mut dyn FnMut(&[K]) -> bool) {
        buffered_chunks(f, |push| self.range(start..).all(|&k| push(k)));
    }
}

impl<K: SetKey> ParallelChunks<K> for BTreeSet<K> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btreeset_implements_the_hierarchy() {
        let mut s: BTreeSet<u64> = BatchSet::build_sorted(&[1, 3, 5, 7]);
        assert_eq!(<BTreeSet<u64> as OrderedSet<u64>>::NAME, "BTreeSet");
        assert!(OrderedSet::contains(&s, 3));
        assert_eq!(OrderedSet::min(&s), Some(1));
        assert_eq!(OrderedSet::max(&s), Some(7));
        assert_eq!(OrderedSet::successor(&s, 4), Some(5));
        assert_eq!(s.insert_batch_sorted(&[3, 4]), 1);
        assert_eq!(s.remove_batch_sorted(&[1, 2]), 1);
        assert_eq!(s.range_sum(3..=5), 12);
        assert_eq!(s.range_iter(..).collect::<Vec<_>>(), vec![3, 4, 5, 7]);
    }
}
