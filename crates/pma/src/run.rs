//! The one input shape of the batch pipeline: a **run** — keys strictly
//! ascending, each carrying an insert-or-remove.
//!
//! Routing, the leaf kernels, the bitmap wordwise path and the whole-set
//! merge are all written once against [`Run`]. Its three implementors are
//! zero-copy views: a normal-form `&[BatchOp<u64>]` slice (mixed batches),
//! and [`Inserts`] / [`Removes`] over a plain `&[u64]`, whose op kind is a
//! compile-time constant — monomorphisation folds the per-op branch away,
//! so a one-sided batch runs the union (or difference) loop it always did
//! without an op array ever being built.

use crate::batch::BoundKind;
use cpma_api::BatchOp;
use std::borrow::Cow;

/// A sorted run of (key, insert-or-remove). See module docs.
pub trait Run: Copy + Send + Sync {
    /// Density band a batch of this shape can push a node out of: inserts
    /// only grow leaves, removes only drain them, a mixed run does both.
    const BOUND: BoundKind;

    fn len(&self) -> usize;
    /// Key of op `i`.
    fn key(&self, i: usize) -> u64;
    /// Whether op `i` inserts its key (otherwise it removes it).
    fn is_insert(&self, i: usize) -> bool;
    /// The sub-run `[start, end)`.
    fn slice(&self, start: usize, end: usize) -> Self;
    /// The keys this run inserts, in order (borrowed when the run already
    /// is a key slice).
    fn insert_keys(&self) -> Cow<'_, [u64]>;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run invariant (checked in debug builds where runs enter).
    fn is_strictly_ascending(&self) -> bool {
        (1..self.len()).all(|i| self.key(i - 1) < self.key(i))
    }

    /// Smallest and largest inserted key — what can widen a bitmap leaf's
    /// span. Scans inward from both ends, so a pure-insert view answers
    /// in O(1).
    fn insert_span(&self) -> Option<(u64, u64)> {
        let first = (0..self.len()).find(|&i| self.is_insert(i))?;
        let last = (first..self.len()).rfind(|&i| self.is_insert(i))?;
        Some((self.key(first), self.key(last)))
    }
}

/// A sorted unique key slice read as a run whose every op is an insert
/// (`INSERT = true`) or a remove (`INSERT = false`).
#[derive(Clone, Copy)]
pub(crate) struct KeyRun<'a, const INSERT: bool>(&'a [u64]);

/// Insert-only view of a key slice.
pub(crate) type Inserts<'a> = KeyRun<'a, true>;
/// Remove-only view of a key slice.
pub(crate) type Removes<'a> = KeyRun<'a, false>;

impl<'a, const INSERT: bool> KeyRun<'a, INSERT> {
    pub(crate) fn new(keys: &'a [u64]) -> Self {
        Self(keys)
    }
}

impl<const INSERT: bool> Run for KeyRun<'_, INSERT> {
    const BOUND: BoundKind = if INSERT {
        BoundKind::Upper
    } else {
        BoundKind::Lower
    };

    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline]
    fn key(&self, i: usize) -> u64 {
        self.0[i]
    }
    #[inline]
    fn is_insert(&self, _i: usize) -> bool {
        INSERT
    }
    #[inline]
    fn slice(&self, start: usize, end: usize) -> Self {
        Self(&self.0[start..end])
    }
    fn insert_keys(&self) -> Cow<'_, [u64]> {
        Cow::Borrowed(if INSERT { self.0 } else { &[] })
    }
}

impl Run for &[BatchOp<u64>] {
    const BOUND: BoundKind = BoundKind::Both;

    #[inline]
    fn len(&self) -> usize {
        <[BatchOp<u64>]>::len(self)
    }
    #[inline]
    fn key(&self, i: usize) -> u64 {
        self[i].key()
    }
    #[inline]
    fn is_insert(&self, i: usize) -> bool {
        matches!(self[i], BatchOp::Insert(_))
    }
    #[inline]
    fn slice(&self, start: usize, end: usize) -> Self {
        &self[start..end]
    }
    fn insert_keys(&self) -> Cow<'_, [u64]> {
        self.iter()
            .filter_map(|op| match *op {
                BatchOp::Insert(k) => Some(k),
                BatchOp::Remove(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::BatchOp::{Insert, Remove};

    #[test]
    fn views_agree_with_the_op_slice_they_stand_for() {
        let keys = [3u64, 8, 9, 20];
        let all_ins: Vec<BatchOp<u64>> = keys.iter().map(|&k| Insert(k)).collect();
        let all_rem: Vec<BatchOp<u64>> = keys.iter().map(|&k| Remove(k)).collect();
        fn same<A: Run, B: Run>(a: A, b: B) {
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert_eq!((a.key(i), a.is_insert(i)), (b.key(i), b.is_insert(i)));
            }
            assert_eq!(a.insert_span(), b.insert_span());
            assert_eq!(a.insert_keys(), b.insert_keys());
            assert_eq!(a.slice(1, 3).len(), 2);
            assert_eq!(a.slice(1, 3).key(0), b.slice(1, 3).key(0));
        }
        same(Inserts::new(&keys), all_ins.as_slice());
        same(Removes::new(&keys), all_rem.as_slice());
        assert_eq!(Inserts::new(&keys).insert_span(), Some((3, 20)));
        assert_eq!(Removes::new(&keys).insert_span(), None);
    }

    #[test]
    fn one_sided_views_are_zero_copy_and_statically_banded() {
        let keys = [3u64, 8, 9];
        // The bulk-load regime reads an insert view's keys in place.
        match Inserts::new(&keys).insert_keys() {
            Cow::Borrowed(b) => assert!(std::ptr::eq(b, keys.as_slice())),
            Cow::Owned(_) => panic!("an insert view must not copy its keys"),
        }
        assert!(Removes::new(&keys).insert_keys().is_empty());
        // The count phase checks only the band the run type can violate.
        assert_eq!(<Inserts as Run>::BOUND, BoundKind::Upper);
        assert_eq!(<Removes as Run>::BOUND, BoundKind::Lower);
        assert_eq!(<&[BatchOp<u64>] as Run>::BOUND, BoundKind::Both);
    }

    #[test]
    fn insert_span_skips_removes_at_both_ends() {
        let ops = [Remove(1u64), Insert(4), Remove(6), Insert(9), Remove(12)];
        assert_eq!(ops.as_slice().insert_span(), Some((4, 9)));
        assert_eq!(ops.as_slice().insert_keys().as_ref(), &[4, 9]);
        assert_eq!(ops.as_slice().slice(2, 3).insert_span(), None);
        assert!(ops.as_slice().slice(2, 2).is_empty());
    }
}
