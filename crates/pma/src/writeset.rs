//! Write sets: what an apply wrote, and catching a replica up by copying
//! exactly that.
//!
//! A structure without pointers is brought level with a newer copy of
//! itself by copying the bytes that differ, and the batch pipeline already
//! knows which those are: the leaves it merged, the ranges it
//! redistributed and the inherited heads it repaired after them. Every
//! apply that changes anything records them as its **write set** — leaf
//! ranges, or *every* leaf after a rebuild — and bumps the structure's
//! **generation**, the count of such applies. Recording costs the apply
//! nothing per leaf — the pipeline hands over the list of leaves it
//! merged, and every other write is one push per range — and an apply
//! that changes nothing records nothing and leaves the generation alone.
//!
//! `BatchSet::catch_up_from` is the reader. A replica one generation
//! behind a newer one, in the same geometry, went down the same path up to
//! the newer one's last apply, so that apply's write set is the whole
//! difference between the two. Copying those leaves' slots, the occupancy
//! words over them, `len`, `units` and the record itself leaves the
//! replica byte for byte what replaying the apply would have left. Any
//! other pair — a resize changed the geometry, the generations do not line
//! up — replays.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::{LeafStorage, PmaCore};
use cpma_api::{BatchOp, CatchUp};

/// The write set of the most recent apply that changed anything, and its
/// generation (module docs).
#[derive(Clone, Debug)]
pub(crate) struct WriteLog {
    /// Applies that changed anything since the structure was built.
    generation: u64,
    /// The leaves the batch pipeline merged: its own `touched` list,
    /// handed over whole.
    touched: Vec<usize>,
    /// Leaf ranges `[start, end)`, in the order written; they may overlap
    /// each other and `touched`.
    ranges: Vec<(usize, usize)>,
    /// Every leaf: a rebuild, which may also have changed the geometry.
    whole: bool,
    /// An apply has begun and not written yet: its first write opens a
    /// new generation.
    pending: bool,
}

impl WriteLog {
    /// A freshly built structure: generation 0, every leaf written.
    pub(crate) fn new() -> Self {
        Self {
            generation: 0,
            touched: Vec::new(),
            ranges: Vec::new(),
            whole: true,
            pending: false,
        }
    }

    /// An apply begins.
    pub(crate) fn begin(&mut self) {
        self.pending = true;
    }

    fn open(&mut self) {
        if std::mem::take(&mut self.pending) {
            self.generation += 1;
            self.touched.clear();
            self.ranges.clear();
            self.whole = false;
        }
    }

    /// The pipeline merged `touched` (ascending): kept as it is, so the
    /// record costs the pipeline nothing per leaf.
    pub(crate) fn merge_phase(&mut self, touched: Vec<usize>) {
        self.open();
        if !self.whole {
            debug_assert!(self.touched.is_empty(), "one merge phase per apply");
            self.touched = touched;
        }
    }

    /// The apply rewrote leaves `[start, end)`.
    pub(crate) fn leaves(&mut self, start: usize, end: usize) {
        debug_assert!(start < end);
        self.open();
        if self.whole {
            return;
        }
        match self.ranges.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            _ => self.ranges.push((start, end)),
        }
    }

    /// The apply rebuilt the structure.
    pub(crate) fn whole(&mut self) {
        self.open();
        self.whole = true;
        self.touched.clear();
        self.ranges.clear();
    }

    /// The write set over a structure of `leaves` leaves: disjoint
    /// ranges, ascending.
    fn coalesced(&self, leaves: usize) -> Vec<(usize, usize)> {
        if self.whole {
            return vec![(0, leaves)];
        }
        let singles = self.touched.iter().map(|&leaf| (leaf, leaf + 1));
        let mut sorted: Vec<(usize, usize)> = singles.chain(self.ranges.iter().copied()).collect();
        sorted.sort_unstable();
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(sorted.len());
        for (start, end) in sorted {
            match out.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => out.push((start, end)),
            }
        }
        out
    }
}

/// How many write-set ranges ahead a catch-up prefetches.
const COPY_PREFETCH_AHEAD: usize = 4;

/// The occupancy-bitset words covering leaves `[start, end)`.
fn occ_words(start: usize, end: usize) -> std::ops::Range<usize> {
    start / 64..(end - 1) / 64 + 1
}

impl<L: LeafStorage> PmaCore<L> {
    /// Applies that changed anything since this structure was built (a
    /// clone keeps its original's count).
    #[cfg(test)]
    pub(crate) fn write_generation(&self) -> u64 {
        self.log.generation
    }

    /// Bytes `BatchSet::catch_up_from` copies to bring a replica one
    /// generation behind this one level: the last apply's write set, in
    /// leaf slots and occupancy words.
    pub fn write_set_bytes(&self) -> usize {
        let per_leaf = self.storage.size_bytes() / self.storage.num_leaves();
        self.log
            .coalesced(self.storage.num_leaves())
            .iter()
            .map(|&(start, end)| (end - start) * per_leaf + occ_words(start, end).len() * 8)
            .sum()
    }

    /// Whether [`Self::catch_up`] copies: `self` has `newer`'s
    /// geometry and is one generation behind it — or level with it, with
    /// nothing to catch up (`BatchSet::copies_from`).
    pub(crate) fn can_copy_from(&self, newer: &Self) -> bool {
        let behind = newer.log.generation.checked_sub(self.log.generation);
        matches!(behind, Some(0 | 1))
            && self.storage.num_leaves() == newer.storage.num_leaves()
            && self.storage.leaf_units() == newer.storage.leaf_units()
    }

    /// Bring `self` level with `newer`, which is `self` after one more
    /// apply, of `lag` (`BatchSet::catch_up_from`): copy `newer`'s write
    /// set when [`Self::can_copy_from`] holds, replay `lag` otherwise
    /// (module docs).
    pub(crate) fn catch_up(&mut self, newer: &Self, lag: &[BatchOp<u64>]) -> CatchUp {
        if lag.is_empty() {
            return CatchUp::default();
        }
        // A non-empty lag means `newer` is one apply ahead.
        if !self.can_copy_from(newer) {
            self.run_batch(lag);
            self.log.clone_from(&newer.log);
            return CatchUp {
                copied_bytes: 0,
                replayed_ops: lag.len(),
            };
        }
        debug_assert_eq!(
            self.log.generation + 1,
            newer.log.generation,
            "a lag to catch up, but the newer replica is not one apply ahead"
        );
        let ranges = newer.log.coalesced(newer.storage.num_leaves());
        debug_assert!(
            ranges.iter().all(|&(start, end)| start < end
                && end <= self.storage.num_leaves()
                && end <= newer.storage.num_leaves()),
            "a write set reaches past a replica"
        );
        let mut copied_bytes = 0;
        for (r, &(start, end)) in ranges.iter().enumerate() {
            // Write sets are mostly scattered single leaves, and both
            // sides miss: pull the leaves a few ranges ahead in.
            if let Some(&(ahead, _)) = ranges.get(r + COPY_PREFETCH_AHEAD) {
                newer.storage.prefetch_leaf(ahead);
                self.storage.prefetch_leaf(ahead);
            }
            copied_bytes += self.storage.copy_leaves_from(&newer.storage, start, end);
            let words = occ_words(start, end);
            copied_bytes += words.len() * 8;
            self.occ[words.clone()].copy_from_slice(&newer.occ[words]);
        }
        self.len = newer.len;
        self.units = newer.units;
        self.log.clone_from(&newer.log);
        debug_assert_eq!(copied_bytes, newer.write_set_bytes());
        CatchUp {
            copied_bytes,
            replayed_ops: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cpma, Pma};
    use cpma_api::BatchOp::{self, Insert, Remove};
    use cpma_api::BatchSet;

    /// Payload bytes plus the derived state a payload does not carry.
    fn image<L: LeafStorage>(s: &PmaCore<L>) -> (Vec<u8>, Vec<u64>, usize, usize, u64) {
        let mut payload = Vec::new();
        s.storage().write_payload(&mut payload);
        (payload, s.occ.clone(), s.len, s.units, s.write_generation())
    }

    /// Alternate two replicas through `batches` the way a publisher does:
    /// the spare catches up from the front, applies the next batch and
    /// becomes the front. After every step it must equal a third copy
    /// that applied every batch itself; returns how many catch-ups copied
    /// and how many replayed.
    fn alternate<L: LeafStorage + Clone>(
        base: PmaCore<L>,
        batches: &[Vec<BatchOp<u64>>],
    ) -> (usize, usize) {
        let (mut front, mut spare, mut single) = (base.clone(), base.clone(), base);
        let mut lag: Vec<BatchOp<u64>> = Vec::new();
        let (mut copied, mut replayed) = (0, 0);
        for (b, batch) in batches.iter().enumerate() {
            let copies = spare.copies_from(&front);
            let caught = spare.catch_up_from(&front, &lag);
            assert_eq!(image(&spare), image(&front), "batch {b}: caught-up spare");
            if !lag.is_empty() {
                if copies {
                    assert_eq!(caught.copied_bytes, front.write_set_bytes(), "batch {b}");
                    assert!(caught.copied_bytes <= front.size_bytes(), "batch {b}");
                    copied += 1;
                } else {
                    assert_eq!(caught.replayed_ops, lag.len(), "batch {b}");
                    replayed += 1;
                }
            }
            let out = spare.apply_batch_sorted(batch);
            assert_eq!(out, single.apply_batch_sorted(batch), "batch {b}");
            assert_eq!(image(&spare), image(&single), "batch {b}: one history");
            spare.check_invariants();
            std::mem::swap(&mut front, &mut spare);
            lag = batch.clone();
        }
        (copied, replayed)
    }

    /// Batches spanning every regime and both resize directions: point
    /// batches, pipeline batches that redistribute, a full rebuild, grows,
    /// then removes down to shrinks. Copies where the geometry holds,
    /// replays where it moved.
    fn every_regime<L: LeafStorage + Clone>() {
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * 64).collect();
        let base = PmaCore::<L>::build_sorted(&keys);
        let mut batches: Vec<Vec<BatchOp<u64>>> = vec![
            (1..20).map(|i| Insert(i * 64 + 1)).collect(),
            (0..20).map(|i| Remove(i * 64)).collect(),
            (0..1_500u64).map(|i| Insert(640_000 + i * 3 + 1)).collect(),
            (0..1_500u64).map(|i| Remove(i * 128)).collect(),
            (0..3_000u64).map(|i| Insert(i * 64 + 7)).collect(),
        ];
        // Grow with fresh keys a pipeline batch at a time, then drain them
        // the same way until the root shrinks.
        let fresh = |r: u64, i: u64| 2_000_000_000 + r * 100_000 + i * 11;
        batches.extend((0..30).map(|r| (0..1_900).map(|i| Insert(fresh(r, i))).collect()));
        batches.extend((0..30).map(|r| (0..1_900).map(|i| Remove(fresh(r, i))).collect()));
        let (copied, replayed) = alternate(base, &batches);
        assert!(copied > 30, "{copied} copies");
        assert!(replayed > 0, "no resize forced a replay");
    }

    #[test]
    fn catch_up_copies_are_replays_pma() {
        every_regime::<crate::UncompressedLeaves>();
    }

    #[test]
    fn catch_up_copies_are_replays_cpma() {
        every_regime::<crate::CompressedLeaves>();
    }

    #[test]
    fn an_apply_that_changes_nothing_keeps_the_record() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 2).collect();
        let mut c = Cpma::build_sorted(&keys);
        assert_eq!(c.write_generation(), 0);
        assert!(c.insert(1));
        let (generation, bytes) = (c.write_generation(), c.write_set_bytes());
        assert_eq!(generation, 1);
        assert!(bytes > 0 && bytes < c.size_bytes());
        assert!(!c.insert(1));
        let noop: Vec<BatchOp<u64>> = (0..600u64).map(|i| Insert(i * 2)).collect();
        c.apply_batch_sorted(&noop);
        assert_eq!(
            (c.write_generation(), c.write_set_bytes()),
            (generation, bytes)
        );
        // Empty lag: already level, nothing to do.
        let mut twin = c.clone();
        assert_eq!(twin.catch_up_from(&c, &[]), CatchUp::default());
        let mut p = Pma::build_sorted(&keys);
        p.remove_batch_sorted(&keys);
        assert_eq!(p.write_generation(), 1, "a batch that empties the set");
    }
}
