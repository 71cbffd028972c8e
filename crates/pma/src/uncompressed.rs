//! Uncompressed leaf storage: packed-left leaves of raw keys.
//!
//! The classic PMA stores elements in cells with embedded gaps; following
//! the paper (and \[81]) we pack each leaf's elements to the left and keep a
//! per-leaf count, which "does not affect the PMA's asymptotic bounds
//! because the bounds only depend on the density of the elements in the PMA
//! leaves" (§5). A separate head array accelerates search, as in the
//! search-optimized PMA the paper builds on \[78]. Units are **cells**.
//!
//! Every `unsafe` block here runs under the *disjoint-leaf contract* of
//! [`SharedLeaves`]: the pointers come from one `&mut` borrow of the
//! storage, and a call touches only its own leaf's cells, count, head and
//! spill slot.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::leaf::{apply_run_into, ChunkBlock, LeafScratch, OpsOutcome, RunSize, SharedLeaves};
use crate::run::Run;
use crate::{stats, LeafStorage, PmaKey};
use cpma_api::PersistError;
use std::marker::PhantomData;

/// Packed-left uncompressed leaves. See module docs.
#[derive(Clone)]
pub struct UncompressedLeaves<K: PmaKey> {
    /// `num_leaves * leaf_units` cells; leaf `i` owns
    /// `[i * leaf_units, (i+1) * leaf_units)`, valid prefix = `counts[i]`.
    cells: Vec<K>,
    /// Elements per leaf.
    counts: Vec<u32>,
    /// Leaf heads (inherited values for empty leaves); non-decreasing.
    heads: Vec<K>,
    /// Out-of-place buffers for overflowed leaves (batch merge only).
    overflow: Vec<Option<Box<[K]>>>,
    leaf_units: usize,
}

impl<K: PmaKey> UncompressedLeaves<K> {
    #[inline]
    fn leaf_slice(&self, leaf: usize) -> &[K] {
        debug_assert!(self.overflow[leaf].is_none(), "query on overflowed leaf");
        let start = leaf * self.leaf_units;
        &self.cells[start..start + self.counts[leaf] as usize]
    }
}

impl<K: PmaKey> LeafStorage<K> for UncompressedLeaves<K> {
    type Shared<'a>
        = UncompressedShared<'a, K>
    where
        Self: 'a;

    const NAME: &'static str = "PMA";

    // 16 cells minimum so leaves stay Θ(log n)-sized rather than degenerate.
    const MIN_LEAF_UNITS: usize = 16;
    const LEAF_ALIGN: usize = 8;
    const HEAD_UNITS: usize = 0;
    const LEAF_SCALE: usize = 2;

    const CODEC_ID: u32 = 1;

    // Snapshot payload layout (all little-endian):
    //   counts  num_leaves × u32
    //   heads   num_leaves × K::BYTES
    //   cells   num_leaves × leaf_units × K::BYTES   (full array, packed
    //           prefixes valid; bytes past each count are don't-care)
    fn payload_len(num_leaves: usize, leaf_units: usize) -> Option<usize> {
        let per_leaf = K::BYTES
            .checked_mul(leaf_units)?
            .checked_add(4 + K::BYTES)?;
        num_leaves.checked_mul(per_leaf)
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        debug_assert!(self.overflow.iter().all(|o| o.is_none()));
        for &c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &h in &self.heads {
            out.extend_from_slice(&h.to_u64().to_le_bytes()[..K::BYTES]);
        }
        for &cell in &self.cells {
            out.extend_from_slice(&cell.to_u64().to_le_bytes()[..K::BYTES]);
        }
    }

    fn read_payload(
        num_leaves: usize,
        leaf_units: usize,
        payload: &[u8],
    ) -> Result<Self, PersistError> {
        let expected = Self::payload_len(num_leaves, leaf_units)
            .filter(|&n| n == payload.len())
            .ok_or(PersistError::Truncated("pma payload"))?;
        debug_assert_eq!(expected, payload.len());

        let read_key = |bytes: &[u8]| {
            let mut widened = [0u8; 8];
            widened[..K::BYTES].copy_from_slice(bytes);
            K::from_u64(u64::from_le_bytes(widened))
        };
        let counts: Vec<u32> = payload[..num_leaves * 4]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let heads_at = num_leaves * 4;
        let cells_at = heads_at + num_leaves * K::BYTES;
        let heads: Vec<K> = payload[heads_at..cells_at]
            .chunks_exact(K::BYTES)
            .map(read_key)
            .collect();
        let cells: Vec<K> = payload[cells_at..]
            .chunks_exact(K::BYTES)
            .map(read_key)
            .collect();

        // Structural validation: every later read assumes these hold.
        let mut prev_max: Option<K> = None;
        for leaf in 0..num_leaves {
            let count = counts[leaf] as usize;
            if count > leaf_units {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} claims {count} elements in {leaf_units} cells"
                )));
            }
            if leaf > 0 && heads[leaf] < heads[leaf - 1] {
                return Err(PersistError::Corrupt(format!(
                    "head array decreases at leaf {leaf}"
                )));
            }
            if count == 0 {
                continue;
            }
            let run = &cells[leaf * leaf_units..leaf * leaf_units + count];
            if run.windows(2).any(|w| w[0] >= w[1]) {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} is not strictly ascending"
                )));
            }
            if heads[leaf] != run[0] {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} head disagrees with its first element"
                )));
            }
            if prev_max.is_some_and(|p| p >= run[0]) {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} overlaps its predecessor"
                )));
            }
            prev_max = Some(run[count - 1]);
        }

        Ok(Self {
            cells,
            counts,
            heads,
            overflow: (0..num_leaves).map(|_| None).collect(),
            leaf_units,
        })
    }

    fn with_geometry(num_leaves: usize, leaf_units: usize) -> Self {
        assert!(num_leaves >= 1);
        assert!(leaf_units >= Self::MIN_LEAF_UNITS);
        Self {
            cells: vec![K::MIN; num_leaves * leaf_units],
            counts: vec![0; num_leaves],
            heads: vec![K::MIN; num_leaves],
            overflow: (0..num_leaves).map(|_| None).collect(),
            leaf_units,
        }
    }

    #[inline]
    fn num_leaves(&self) -> usize {
        self.counts.len()
    }

    #[inline]
    fn leaf_units(&self) -> usize {
        self.leaf_units
    }

    #[inline]
    fn units_used(&self, leaf: usize) -> usize {
        self.counts[leaf] as usize
    }

    #[inline]
    fn count(&self, leaf: usize) -> usize {
        self.counts[leaf] as usize
    }

    #[inline]
    fn head(&self, leaf: usize) -> K {
        self.heads[leaf]
    }

    #[inline]
    fn is_overflowed(&self, leaf: usize) -> bool {
        self.overflow[leaf].is_some()
    }

    fn size_bytes(&self) -> usize {
        self.cells.len() * K::BYTES
            + self.counts.len() * 4
            + self.heads.len() * K::BYTES
            + self.overflow.len() * std::mem::size_of::<Option<Box<[K]>>>()
    }

    #[inline]
    fn prefetch_leaf(&self, leaf: usize) {
        // The in-leaf binary search touches the middle of the run first,
        // so pull the leaf's first and middle lines.
        let at = leaf * self.leaf_units;
        crate::search::prefetch_read(&self.cells[at]);
        crate::search::prefetch_read(&self.cells[at + self.leaf_units / 2]);
    }

    fn leaf_successor(&self, leaf: usize, key: K) -> Option<K> {
        let slice = self.leaf_slice(leaf);
        stats::record_read(slice.len() * K::BYTES);
        let idx = crate::search::lower_bound(slice, key);
        slice.get(idx).copied()
    }

    fn leaf_contains(&self, leaf: usize, key: K) -> bool {
        let slice = self.leaf_slice(leaf);
        stats::record_read(slice.len() * K::BYTES);
        // Branch-free lower bound: one unpredictable exit branch instead
        // of log(len) data-dependent ones.
        let idx = crate::search::lower_bound(slice, key);
        slice.get(idx) == Some(&key)
    }

    fn leaf_max(&self, leaf: usize) -> Option<K> {
        // Overflow-aware: the redistribute phase reads neighbours that may
        // still be spilled.
        if let Some(buf) = self.overflow[leaf].as_deref() {
            return buf.last().copied();
        }
        self.leaf_slice(leaf).last().copied()
    }

    /// The cells themselves, from the first ≥ `start`: one chunk, no copy.
    fn leaf_chunks<F: FnMut(&[K]) -> bool>(
        &self,
        leaf: usize,
        start: K,
        _block: &mut ChunkBlock<K>,
        mut f: F,
    ) -> bool {
        let slice = self.leaf_slice(leaf);
        stats::record_read(slice.len() * K::BYTES);
        let from = crate::search::lower_bound(slice, start);
        from == slice.len() || f(&slice[from..])
    }

    fn collect_leaf(&self, leaf: usize, out: &mut Vec<K>) {
        if let Some(buf) = self.overflow[leaf].as_deref() {
            out.extend_from_slice(buf);
            return;
        }
        out.extend_from_slice(self.leaf_slice(leaf));
    }

    fn leaf_sum(&self, leaf: usize) -> u64 {
        let slice = self.leaf_slice(leaf);
        stats::record_read(slice.len() * K::BYTES);
        slice
            .iter()
            .fold(0u64, |acc, &e| acc.wrapping_add(e.to_u64()))
    }

    #[inline]
    fn size_run(&self, elems: &[K], leaf_units: usize) -> RunSize {
        RunSize {
            stream: elems.len(),
            min_leaves: elems.len().div_ceil(leaf_units),
            packed: elems.len(),
        }
    }

    fn plan_split(&self, elems: &[K], k: usize, leaf_units: usize) -> Option<Vec<usize>> {
        // Even count split: slice sizes differ by at most one.
        let n = elems.len();
        (n.div_ceil(k) <= leaf_units).then(|| (0..=k).map(|j| j * n / k).collect())
    }

    fn copy_leaves_from(&mut self, src: &Self, start: usize, end: usize) -> usize {
        debug_assert_eq!(
            (self.num_leaves(), self.leaf_units),
            (src.num_leaves(), src.leaf_units)
        );
        // Between batches no leaf spills, so the spill slots already agree.
        debug_assert!((start..end).all(|l| !self.is_overflowed(l) && !src.is_overflowed(l)));
        let cells = start * self.leaf_units..end * self.leaf_units;
        self.cells[cells.clone()].copy_from_slice(&src.cells[cells]);
        self.counts[start..end].copy_from_slice(&src.counts[start..end]);
        self.heads[start..end].copy_from_slice(&src.heads[start..end]);
        (end - start) * (self.size_bytes() / self.num_leaves())
    }

    fn shared(&mut self) -> UncompressedShared<'_, K> {
        UncompressedShared {
            cells: self.cells.as_mut_ptr(),
            counts: self.counts.as_mut_ptr(),
            heads: self.heads.as_mut_ptr(),
            overflow: self.overflow.as_mut_ptr(),
            leaf_units: self.leaf_units,
            num_leaves: self.counts.len(),
            _marker: PhantomData,
        }
    }
}

/// Shared-disjoint accessor for [`UncompressedLeaves`]. All raw pointers are
/// derived from one `&mut` borrow; methods only touch the addressed leaf's
/// cells/count/head/overflow slot, so concurrent calls on distinct leaves
/// never alias.
pub struct UncompressedShared<'a, K: PmaKey> {
    cells: *mut K,
    counts: *mut u32,
    heads: *mut K,
    overflow: *mut Option<Box<[K]>>,
    leaf_units: usize,
    num_leaves: usize,
    _marker: PhantomData<&'a mut UncompressedLeaves<K>>,
}

impl<K: PmaKey> Clone for UncompressedShared<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: PmaKey> Copy for UncompressedShared<'_, K> {}

// SAFETY: the accessor is only used under the disjoint-leaf contract of
// `SharedLeaves` (no two concurrent calls target the same leaf), which
// makes all pointer accesses disjoint; the four buffers outlive 'a and
// hold only `K: PmaKey` (plain integers) and boxed slices of them.
unsafe impl<K: PmaKey> Send for UncompressedShared<'_, K> {}
// SAFETY: as for `Send` — shared use from several threads is what the
// disjoint-leaf contract is written for.
unsafe impl<K: PmaKey> Sync for UncompressedShared<'_, K> {}

/// Private helpers.
///
/// # Safety (every method)
/// The caller must hold the disjoint-leaf contract of [`SharedLeaves`] for
/// `leaf`; each helper touches only that leaf's slots.
impl<K: PmaKey> UncompressedShared<'_, K> {
    /// The first `len` cells of `leaf`; `len ≤ leaf_units` keeps the slice
    /// inside the leaf's own stretch of the cell array.
    #[inline]
    #[allow(clippy::mut_from_ref)] // shared-disjoint contract: see trait docs
    unsafe fn leaf_cells(&self, leaf: usize, len: usize) -> &mut [K] {
        debug_assert!(leaf < self.num_leaves && len <= self.leaf_units);
        // SAFETY: `leaf < num_leaves` and `len ≤ leaf_units` keep the slice
        // inside the cell array and inside `leaf`'s own stretch of it, which
        // the disjoint-leaf contract gives this call alone.
        std::slice::from_raw_parts_mut(self.cells.add(leaf * self.leaf_units), len)
    }

    /// The leaf's current elements, read in place (from the overflow
    /// buffer while spilled).
    #[inline]
    unsafe fn current(&self, leaf: usize) -> &[K] {
        // SAFETY: the disjoint-leaf contract covers `leaf`'s spill slot and
        // count; a count never exceeds `leaf_units` unless the leaf spilled.
        match (*self.overflow.add(leaf)).as_deref() {
            Some(buf) => buf,
            None => self.leaf_cells(leaf, *self.counts.add(leaf) as usize),
        }
    }

    /// Store `elems` into the leaf, spilling to overflow when oversized.
    #[inline]
    unsafe fn store(&self, leaf: usize, elems: &[K], inherited_head: K) -> (usize, bool) {
        // SAFETY (the writes below): `leaf`'s cells, spill slot, count and
        // head, all under the disjoint-leaf contract; `n ≤ leaf_units` on
        // the in-place branch.
        let n = elems.len();
        stats::record_write(n * K::BYTES);
        if n <= self.leaf_units {
            self.leaf_cells(leaf, n).copy_from_slice(elems);
            *self.overflow.add(leaf) = None;
            *self.counts.add(leaf) = n as u32;
            *self.heads.add(leaf) = if n > 0 { elems[0] } else { inherited_head };
            (n, false)
        } else {
            *self.overflow.add(leaf) = Some(elems.to_vec().into_boxed_slice());
            *self.counts.add(leaf) = n as u32;
            *self.heads.add(leaf) = elems[0];
            (n, true)
        }
    }
}

impl<K: PmaKey> SharedLeaves<K> for UncompressedShared<'_, K> {
    unsafe fn apply_run<R: Run<K>>(
        &self,
        leaf: usize,
        run: R,
        scratch: &mut LeafScratch<K>,
    ) -> OpsOutcome {
        // SAFETY: the caller holds the disjoint-leaf contract for `leaf`,
        // which is all `current` and `store` below need. The merge reads
        // the leaf's cells in place and writes only `scratch.merged`, so
        // the borrow of the cells ends before `store` overwrites them.
        let cur = self.current(leaf);
        let old_units = cur.len();
        stats::record_read(old_units * K::BYTES);
        let (added, removed) = apply_run_into(cur, run, &mut scratch.merged);
        if added == 0 && removed == 0 {
            return OpsOutcome::default();
        }
        // An emptied leaf keeps its old head as the inherited value.
        let (new_units, overflowed) = self.store(leaf, &scratch.merged, *self.heads.add(leaf));
        OpsOutcome {
            added,
            removed,
            delta_units: new_units as isize - old_units as isize,
            overflowed,
        }
    }

    unsafe fn write_leaf(&self, leaf: usize, elems: &[K], inherited_head: K) -> usize {
        debug_assert!(elems.len() <= self.leaf_units, "write_leaf must fit");
        // SAFETY: the caller's disjoint-leaf contract for `leaf`.
        let (units, _) = self.store(leaf, elems, inherited_head);
        units
    }

    unsafe fn collect_leaf(&self, leaf: usize, out: &mut Vec<K>) {
        // SAFETY: the caller's disjoint-leaf contract for `leaf`.
        let cur = self.current(leaf);
        stats::record_read(cur.len() * K::BYTES);
        out.extend_from_slice(cur);
    }

    unsafe fn units_used(&self, leaf: usize) -> usize {
        // SAFETY: `leaf`'s count slot, under the caller's contract.
        *self.counts.add(leaf) as usize
    }

    unsafe fn count(&self, leaf: usize) -> usize {
        // SAFETY: `leaf`'s count slot, under the caller's contract.
        *self.counts.add(leaf) as usize
    }

    unsafe fn set_inherited_head(&self, leaf: usize, head: K) {
        // SAFETY: `leaf`'s count and head slots, under the caller's
        // contract.
        debug_assert_eq!(*self.counts.add(leaf), 0);
        *self.heads.add(leaf) = head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::testkit::{apply, contents, ins};
    use crate::run::Inserts;
    use cpma_api::BatchOp::{self, Insert, Remove};

    fn store3() -> UncompressedLeaves<u64> {
        UncompressedLeaves::with_geometry(3, 16)
    }

    #[test]
    fn fresh_storage_is_empty() {
        let s = store3();
        assert_eq!(s.num_leaves(), 3);
        assert_eq!(s.leaf_units(), 16);
        for l in 0..3 {
            assert_eq!(s.count(l), 0);
            assert_eq!(s.units_used(l), 0);
            assert!(!s.is_overflowed(l));
            assert_eq!(s.head(l), 0);
        }
    }

    #[test]
    fn apply_run_table() {
        /// seed → run → (added, removed, delta_units), contents, head.
        type Row = (
            &'static [u64],
            &'static [BatchOp<u64>],
            (usize, usize, isize),
            &'static [u64],
            u64,
        );
        const ROWS: &[Row] = &[
            // Merge into an empty leaf.
            (
                &[],
                &[Insert(10), Insert(20), Insert(30)],
                (3, 0, 3),
                &[10, 20, 30],
                10,
            ),
            // Merge dedups against existing elements.
            (
                &[5, 10],
                &[Insert(5), Insert(7), Insert(10), Insert(12)],
                (2, 0, 2),
                &[5, 7, 10, 12],
                5,
            ),
            // Removing everything keeps the old head as inherited value.
            (&[7, 9], &[Remove(7), Remove(9)], (0, 2, -2), &[], 7),
            // Removing absent keys changes nothing.
            (&[1, 2], &[Remove(3), Remove(4)], (0, 0, 0), &[1, 2], 1),
            // One rewrite threads inserts and removes together.
            (
                &[10, 20, 30],
                &[Insert(5), Remove(20), Insert(30), Remove(99)],
                (1, 1, 0),
                &[5, 10, 30],
                5,
            ),
            // A run that changes nothing skips the rewrite entirely.
            (
                &[10, 20],
                &[Insert(10), Remove(42)],
                (0, 0, 0),
                &[10, 20],
                10,
            ),
            (
                &[10, 20],
                &[Insert(10), Insert(20)],
                (0, 0, 0),
                &[10, 20],
                10,
            ),
        ];
        for (n, &(seed, run, (added, removed, delta_units), want, head)) in ROWS.iter().enumerate()
        {
            let mut s = store3();
            apply(&mut s, 1, &ins(seed.iter().copied()));
            let out = apply(&mut s, 1, run);
            let expect = OpsOutcome {
                added,
                removed,
                delta_units,
                overflowed: false,
            };
            assert_eq!(out, expect, "row {n}");
            assert_eq!(contents(&s, 1), want, "row {n}");
            assert_eq!((s.count(1), s.head(1)), (want.len(), head), "row {n}");
        }
    }

    #[test]
    fn merged_leaf_answers_queries() {
        let mut s = store3();
        apply(&mut s, 1, &ins([10, 20, 30]));
        assert!(s.leaf_contains(1, 20));
        assert!(!s.leaf_contains(1, 25));
        assert_eq!(s.leaf_successor(1, 15), Some(20));
        assert_eq!(s.leaf_successor(1, 31), None);
        assert_eq!(s.leaf_max(1), Some(30));
        assert_eq!(s.leaf_sum(1), 60);
    }

    #[test]
    fn overflow_spills_and_reports() {
        let mut s = UncompressedLeaves::<u64>::with_geometry(2, 16);
        let big: Vec<u64> = (0..20).collect();
        let out = apply(&mut s, 0, &ins(big.iter().copied()));
        assert!(out.overflowed);
        assert_eq!(out.added, 20);
        assert!(s.is_overflowed(0));
        assert_eq!(s.units_used(0), 20); // exceeds capacity => density > 1
        let mut v = Vec::new();
        // SAFETY: single-threaded; the accessor lives for this one call.
        unsafe { s.shared().collect_leaf(0, &mut v) };
        assert_eq!(v, big);
        // A mixed run reads the spilled contents back and can shrink them
        // into the leaf again.
        let mut ops: Vec<BatchOp<u64>> = (0..10).map(Remove).collect();
        ops.push(Insert(100));
        let out = apply(&mut s, 0, &ops);
        assert_eq!((out.added, out.removed, out.overflowed), (1, 10, false));
        assert!(!s.is_overflowed(0));
        // write_leaf clears an overflow too.
        apply(&mut s, 1, &ins(1000..1020));
        assert!(s.is_overflowed(1));
        // SAFETY: single-threaded; the accessor lives for this one call.
        unsafe { s.shared().write_leaf(1, &[1, 2, 3], 0) };
        assert!(!s.is_overflowed(1));
        assert_eq!(s.count(1), 3);
    }

    #[test]
    fn plan_split_even() {
        let elems: Vec<u64> = (0..10).collect();
        let plan = store3().plan_split(&elems, 4, 16);
        assert_eq!(plan, Some(vec![0, 2, 5, 7, 10]));
        let plan = store3().plan_split(&[], 3, 16);
        assert_eq!(plan, Some(vec![0, 0, 0, 0]));
        // No fit is reported, not planned: 10 cells into 4 leaves of 2.
        assert_eq!(store3().plan_split(&elems, 4, 2), None);
        assert_eq!(store3().size_run(&elems, 2).min_leaves, 5);
    }

    #[test]
    fn write_leaf_empty_sets_inherited_head() {
        let mut s = store3();
        // SAFETY: single-threaded; the accessor lives for this one call.
        unsafe {
            s.shared().write_leaf(1, &[], 42);
        }
        assert_eq!(s.head(1), 42);
        assert_eq!(s.count(1), 0);
    }

    #[test]
    fn parallel_disjoint_merges() {
        use rayon::prelude::*;
        let mut s = UncompressedLeaves::<u64>::with_geometry(64, 16);
        let sh = s.shared();
        (0..64usize).into_par_iter().for_each(|leaf| {
            let base = leaf as u64 * 100;
            let mut scratch = crate::leaf::LeafScratch::new();
            // SAFETY: each task owns a distinct leaf.
            unsafe {
                sh.apply_run(
                    leaf,
                    Inserts::new(&[base, base + 1, base + 2]),
                    &mut scratch,
                );
            }
        });
        for leaf in 0..64 {
            assert_eq!(s.count(leaf), 3);
            assert_eq!(s.head(leaf), leaf as u64 * 100);
        }
    }
}
