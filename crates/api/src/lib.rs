//! # cpma-api — the canonical ordered-set interface of this workspace.
//!
//! The paper's entire evaluation (§6) runs six set structures — PMA, CPMA,
//! P-tree, U-PaC, C-PaC, C-tree — through *identical* workloads. This crate
//! is the Rust expression of that idea: one trait hierarchy that every
//! structure (plus [`std::collections::BTreeSet`], the test oracle)
//! implements, so benchmarks, equivalence tests, and downstream systems are
//! written once against traits instead of six times against concrete types.
//!
//! ## The hierarchy
//!
//! * [`OrderedSet`] — point queries over an ordered set of integer keys:
//!   [`contains`](OrderedSet::contains), [`len`](OrderedSet::len),
//!   [`min`](OrderedSet::min) / [`max`](OrderedSet::max),
//!   [`successor`](OrderedSet::successor), and
//!   [`size_bytes`](OrderedSet::size_bytes) (the paper's space metric).
//! * [`BatchSet`] — construction and the paper's batch updates:
//!   [`build_sorted`](BatchSet::build_sorted),
//!   [`insert_batch_sorted`](BatchSet::insert_batch_sorted),
//!   [`remove_batch_sorted`](BatchSet::remove_batch_sorted), plus unsorted
//!   convenience wrappers that route through [`normalize_batch`].
//! * [`RangeSet`] — ordered iteration and range queries with std-idiom
//!   [`std::ops::RangeBounds`] arguments:
//!   [`for_range`](RangeSet::for_range) (`set.for_range(a..=b, f)`),
//!   [`range_sum`](RangeSet::range_sum) (`set.range_sum(a..b)`), and
//!   [`range_iter`](RangeSet::range_iter). Implementors provide one
//!   primitive — [`scan_chunks_from`](RangeSet::scan_chunks_from), which
//!   hands out ascending slices a leaf or block at a time — and may
//!   override the derived methods with fast paths.
//!
//! Keys are `u64`: the paper's artifact is a 64-bit key store, and every
//! structure here delta-encodes or packs 64-bit keys.
//!
//! ## Conformance
//!
//! [`conformance::assert_ordered_set_contract`] is a generic, randomized
//! contract test exercised by every implementation in the workspace — the
//! executable definition of "behaves as the same abstract set". The
//! [`testkit`] module holds the tiny deterministic RNG it (and the
//! workspace's property tests) are built on.

use std::ops::{Bound, RangeBounds};

pub mod conformance;
pub mod persist;
pub mod testkit;

mod btree;

pub use persist::{Persist, PersistError};

/// An ordered set of integer keys: point queries and size accounting.
///
/// This is the read-only core every structure shares. `NAME` is the label
/// used in the paper's tables ("PMA", "C-PaC", ...).
pub trait OrderedSet {
    /// Structure name as it appears in the paper's tables.
    const NAME: &'static str;

    /// Membership test (the artifact's `has`).
    fn contains(&self, key: u64) -> bool;

    /// Number of stored elements.
    fn len(&self) -> usize;

    /// True iff no elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest stored element.
    fn min(&self) -> Option<u64>;

    /// Largest stored element.
    fn max(&self) -> Option<u64>;

    /// Smallest stored element ≥ `key` (the paper's `search`).
    fn successor(&self, key: u64) -> Option<u64>;

    /// Batched membership: `out[i] == self.contains(keys[i])`.
    ///
    /// Probes may arrive in any order and may repeat. The default is the
    /// per-key loop; structures that can amortize search work across
    /// probes (sorting them, sharing leaf decodes, prefetching) override
    /// this with a cache-conscious pass.
    fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        keys.iter().map(|&k| self.contains(k)).collect()
    }

    /// Batched successor: `out[i] == self.successor(keys[i])`.
    ///
    /// Same contract and default as [`OrderedSet::contains_batch`]: any
    /// order, duplicates allowed, positional results.
    fn successor_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|&k| self.successor(k)).collect()
    }

    /// Bytes of backing memory (the paper's space metric, `get_size()`).
    fn size_bytes(&self) -> usize;
}

/// One element of a mixed update batch: insert or remove a single key.
///
/// A *mixed* batch interleaves insertions and removals in one submission —
/// the shape a combining front-end naturally produces from live traffic.
/// [`normalize_ops`] brings a stream of these into the normal form
/// [`BatchSet::apply_batch_sorted`] requires: ascending, one op per key,
/// the *last* submitted op for each key winning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BatchOp<K> {
    /// Insert the key (counted in [`BatchOutcome::added`] iff it was new).
    Insert(K),
    /// Remove the key (counted in [`BatchOutcome::removed`] iff present).
    Remove(K),
}

impl<K: Copy> BatchOp<K> {
    /// The key this operation targets.
    #[inline]
    pub fn key(&self) -> K {
        match *self {
            BatchOp::Insert(k) | BatchOp::Remove(k) => k,
        }
    }

    /// True iff this is an [`BatchOp::Insert`].
    #[inline]
    pub fn is_insert(&self) -> bool {
        matches!(self, BatchOp::Insert(_))
    }
}

/// Net effect of a mixed batch: how many keys were actually added and how
/// many actually removed (set semantics — inserts of present keys and
/// removes of absent keys count in neither).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Keys newly inserted.
    pub added: usize,
    /// Keys actually removed.
    pub removed: usize,
}

impl std::ops::Add for BatchOutcome {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            added: self.added + rhs.added,
            removed: self.removed + rhs.removed,
        }
    }
}

/// How [`BatchSet::catch_up_from`] brought a replica level with a newer
/// one: bytes copied out of the newer replica, ops of the lag applied
/// again, or both (a sharded set copies some shards and replays others).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatchUp {
    /// Bytes copied from what the newer replica's last apply wrote.
    pub copied_bytes: usize,
    /// Ops of the lag replayed through the batch update.
    pub replayed_ops: usize,
}

impl std::ops::Add for CatchUp {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            copied_bytes: self.copied_bytes + rhs.copied_bytes,
            replayed_ops: self.replayed_ops + rhs.replayed_ops,
        }
    }
}

/// The *net* batch of a normal-form batch: the ops that change presence,
/// given `was_present[i]`, the presence of `ops[i]`'s key before the batch
/// (what [`BatchSet::apply_batch_sorted_reporting`] reports). An insert of
/// a stored key and a remove of an absent one drop out; the rest stays in
/// normal form.
pub fn net_ops(ops: &[BatchOp<u64>], was_present: &[bool]) -> Vec<BatchOp<u64>> {
    debug_assert_eq!(ops.len(), was_present.len());
    ops.iter()
        .zip(was_present)
        .filter(|&(op, &was)| op.is_insert() != was)
        .map(|(op, _)| *op)
        .collect()
}

/// Batch-parallel construction and updates (the paper's §4 interface).
///
/// `*_sorted` methods require strictly increasing input — the normal form
/// produced by [`normalize_batch`]. The unsorted wrappers accept anything.
pub trait BatchSet: OrderedSet + Sized {
    /// Empty structure with default configuration.
    fn new_set() -> Self;

    /// Build from a strictly increasing slice (the artifact's bulk
    /// constructor).
    fn build_sorted(elems: &[u64]) -> Self;

    /// Insert a strictly increasing batch; returns how many keys were
    /// actually new (set semantics).
    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize;

    /// Remove a strictly increasing batch; returns how many keys were
    /// actually present.
    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize;

    /// Insert an arbitrary batch: sorts + dedups in place, then delegates
    /// to [`insert_batch_sorted`](Self::insert_batch_sorted).
    fn insert_batch(&mut self, batch: &mut [u64], sorted: bool) -> usize {
        if sorted {
            debug_assert!(batch.windows(2).all(|w| w[0] < w[1]));
            self.insert_batch_sorted(batch)
        } else {
            let b = normalize_batch(batch);
            self.insert_batch_sorted(b)
        }
    }

    /// Remove an arbitrary batch: sorts + dedups in place, then delegates
    /// to [`remove_batch_sorted`](Self::remove_batch_sorted).
    fn remove_batch(&mut self, batch: &mut [u64], sorted: bool) -> usize {
        if sorted {
            debug_assert!(batch.windows(2).all(|w| w[0] < w[1]));
            self.remove_batch_sorted(batch)
        } else {
            let b = normalize_batch(batch);
            self.remove_batch_sorted(b)
        }
    }

    /// Apply a *mixed* batch of inserts and removes in one pass. `ops`
    /// must be in the normal form produced by [`normalize_ops`]: keys
    /// strictly increasing (hence one op per key).
    ///
    /// The default implementation splits the batch into its remove and
    /// insert halves and runs the two one-sided batch updates — correct
    /// for every backend, but it walks the structure twice. Backends with
    /// a native mixed pipeline (the PMA/CPMA's single
    /// route→merge→count→redistribute pass, the sharded wrapper's
    /// one-split fan-out) override this.
    ///
    /// Because each key appears at most once, the relative order of
    /// inserts and removes of *distinct* keys is immaterial and the
    /// per-op results are well-defined: an `Insert` counts as added iff
    /// the key was absent, a `Remove` as removed iff it was present.
    ///
    /// # Examples
    ///
    /// ```
    /// use cpma_api::{normalize_ops, BatchOp, BatchSet};
    /// use std::collections::BTreeSet;
    ///
    /// let mut set: BTreeSet<u64> = [1, 2, 3].into_iter().collect();
    /// // Raw op stream: same-key runs resolve last-op-wins.
    /// let mut ops = vec![
    ///     BatchOp::Remove(2),
    ///     BatchOp::Insert(9),
    ///     BatchOp::Insert(5),
    ///     BatchOp::Remove(5), // cancels the insert above
    /// ];
    /// let outcome = set.apply_batch_sorted(normalize_ops(&mut ops));
    /// assert_eq!((outcome.added, outcome.removed), (1, 1));
    /// assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![1, 3, 9]);
    /// ```
    fn apply_batch_sorted(&mut self, ops: &[BatchOp<u64>]) -> BatchOutcome {
        debug_assert!(ops.windows(2).all(|w| w[0].key() < w[1].key()));
        let mut ins: Vec<u64> = Vec::new();
        let mut del: Vec<u64> = Vec::new();
        for op in ops {
            match *op {
                BatchOp::Insert(k) => ins.push(k),
                BatchOp::Remove(k) => del.push(k),
            }
        }
        let removed = if del.is_empty() {
            0
        } else {
            self.remove_batch_sorted(&del)
        };
        let added = if ins.is_empty() {
            0
        } else {
            self.insert_batch_sorted(&ins)
        };
        BatchOutcome { added, removed }
    }

    /// [`apply_batch_sorted`](Self::apply_batch_sorted) that also reports
    /// what it found: `was_present` is cleared and filled with one entry
    /// per op, `was_present[i]` telling whether `ops[i]`'s key was stored
    /// before the call.
    ///
    /// Only the [`net_ops`] take effect, and the set is left exactly as
    /// `apply_batch_sorted(&net)` would leave it — to the byte, for a
    /// structure with a byte image — so a front-end can apply a batch of
    /// requests and learn each request's result in one call, while its
    /// log, its replicas and its recovery only ever see the net batch. An
    /// empty net batch leaves the set untouched.
    ///
    /// The default probes with [`contains_batch`](OrderedSet::contains_batch)
    /// and applies the net batch. Backends whose update decides presence
    /// per key anyway override it so that the batch is routed once.
    fn apply_batch_sorted_reporting(
        &mut self,
        ops: &[BatchOp<u64>],
        was_present: &mut Vec<bool>,
    ) -> BatchOutcome {
        debug_assert!(ops.windows(2).all(|w| w[0].key() < w[1].key()));
        let keys: Vec<u64> = ops.iter().map(|op| op.key()).collect();
        *was_present = self.contains_batch(&keys);
        let net = net_ops(ops, was_present);
        if net.is_empty() {
            return BatchOutcome::default();
        }
        self.apply_batch_sorted(&net)
    }

    /// Bring `self` level with `newer`, given that `newer` is `self` after
    /// one more [`apply_batch_sorted`](Self::apply_batch_sorted) of `lag`
    /// (with an empty `lag`, the two are already level). A publisher that
    /// alternates two replicas of one history, like `cpma-store`'s
    /// combiner, catches the older one up this way instead of copying the
    /// newer whole.
    ///
    /// Afterwards `self` is what replaying `lag` would leave — to the byte,
    /// for a structure with a byte image. The default replays `lag`. A
    /// backend that records what each apply wrote overrides it to copy
    /// those bytes out of `newer` whenever [`copies_from`](Self::copies_from)
    /// holds, and replays otherwise.
    fn catch_up_from(&mut self, newer: &Self, lag: &[BatchOp<u64>]) -> CatchUp {
        let _ = newer;
        if !lag.is_empty() {
            self.apply_batch_sorted(lag);
        }
        CatchUp {
            copied_bytes: 0,
            replayed_ops: lag.len(),
        }
    }

    /// Whether [`catch_up_from`](Self::catch_up_from) would bring `self`
    /// level with `newer` by copying what `newer`'s last apply wrote —
    /// never more than a copy of `newer`, however long the lag — rather
    /// than by replaying the lag. Default: `false`.
    fn copies_from(&self, newer: &Self) -> bool {
        let _ = newer;
        false
    }

    /// Apply an arbitrary op stream: normalizes in place (sort by key,
    /// last-op-wins dedup) unless `normalized` promises the stream is
    /// already in normal form, then delegates to
    /// [`apply_batch_sorted`](Self::apply_batch_sorted).
    fn apply_batch(&mut self, ops: &mut [BatchOp<u64>], normalized: bool) -> BatchOutcome {
        if normalized {
            debug_assert!(ops.windows(2).all(|w| w[0].key() < w[1].key()));
            self.apply_batch_sorted(ops)
        } else {
            let ops = normalize_ops(ops);
            self.apply_batch_sorted(ops)
        }
    }
}

/// Ordered scans and range queries with [`RangeBounds`] arguments.
///
/// Implementors provide [`scan_chunks_from`](Self::scan_chunks_from), which
/// hands out the stored elements as ascending slices — a PMA leaf's cells,
/// a CPMA leaf decoded once, a tree's block — so a reader pays one call per
/// chunk, not per key. Everything else, the per-key
/// [`scan_from`](Self::scan_from) included, is a default over it.
/// Structures with cheaper whole-range paths (the PMA's whole-leaf
/// `range_sum` fast path, say) override the derived methods.
pub trait RangeSet: OrderedSet {
    /// Hand the stored elements ≥ `start` to `f` as chunks, in ascending
    /// order, until `f` returns `false`. Every chunk is non-empty and
    /// strictly ascending, its first key above the last key of the chunk
    /// before it; the scan stops after the first chunk for which `f`
    /// returns `false`.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool);

    /// Visit stored elements ≥ `start` in ascending order until `f`
    /// returns `false`: one call per key, over
    /// [`scan_chunks_from`](Self::scan_chunks_from)'s chunks.
    fn scan_from(&self, start: u64, f: &mut dyn FnMut(u64) -> bool) {
        self.scan_chunks_from(start, &mut |chunk| chunk.iter().all(|&k| f(k)));
    }

    /// Apply `f` to every element in `range`, in ascending order.
    ///
    /// Accepts any std range expression: `a..b`, `a..=b`, `a..`, `..b`, `..`.
    fn for_range<R: RangeBounds<u64>>(&self, range: R, mut f: impl FnMut(u64)) {
        range_chunks(self, &range, |chunk| chunk.iter().for_each(|&k| f(k)));
    }

    /// Wrapping sum of the elements in `range` (the paper's range-query
    /// kernel).
    fn range_sum<R: RangeBounds<u64>>(&self, range: R) -> u64 {
        let mut sum = 0u64;
        range_chunks(self, &range, |chunk| {
            sum = chunk.iter().fold(sum, |s, &k| s.wrapping_add(k));
        });
        sum
    }

    /// Iterator over the elements in `range`, ascending.
    ///
    /// The default buffers the range, a chunk at a time; structures with
    /// native lazy iterators may still prefer this for short ranges (one
    /// allocation, no per-item indirection).
    fn range_iter<R: RangeBounds<u64>>(&self, range: R) -> RangeIter {
        let mut buf = Vec::new();
        range_chunks(self, &range, |chunk| buf.extend_from_slice(chunk));
        RangeIter {
            inner: buf.into_iter(),
        }
    }

    /// Iterator over all elements, ascending.
    fn iter_all(&self) -> RangeIter {
        self.range_iter(..)
    }

    /// All elements, ascending, as a `Vec` (the baselines' `collect`).
    fn to_vec(&self) -> Vec<u64> {
        let mut buf = Vec::with_capacity(self.len());
        self.scan_chunks_from(0, &mut |chunk| {
            buf.extend_from_slice(chunk);
            true
        });
        buf
    }
}

/// `set`'s elements in `range`, as ascending chunks:
/// [`RangeSet::scan_chunks_from`] from the range's start, each chunk cut
/// at its end.
fn range_chunks<S: RangeSet + ?Sized>(
    set: &S,
    range: &impl RangeBounds<u64>,
    mut f: impl FnMut(&[u64]),
) {
    let Some((lo, hi)) = range_to_inclusive(range) else {
        return;
    };
    set.scan_chunks_from(lo, &mut |chunk| {
        let inside = chunk.partition_point(|&k| k <= hi);
        if inside > 0 {
            f(&chunk[..inside]);
        }
        inside == chunk.len()
    });
}

/// Keys per chunk that [`buffered_chunks`] hands out.
const BUFFERED_CHUNK_KEYS: usize = 256;

/// [`RangeSet::scan_chunks_from`] for a structure with no blocks of its own
/// to hand out (the `BTreeSet` oracle, the node-per-key P-tree): `walk`
/// pushes the keys ≥ the start in ascending order, stopping when the push
/// returns `false`, and returns `false` iff it stopped; they reach `f` in
/// buffered chunks of up to `BUFFERED_CHUNK_KEYS` keys.
pub fn buffered_chunks(
    f: &mut dyn FnMut(&[u64]) -> bool,
    walk: impl FnOnce(&mut dyn FnMut(u64) -> bool) -> bool,
) {
    let mut buf = Vec::with_capacity(BUFFERED_CHUNK_KEYS);
    let finished = walk(&mut |k| {
        buf.push(k);
        if buf.len() < BUFFERED_CHUNK_KEYS {
            return true;
        }
        let live = f(&buf);
        buf.clear();
        live
    });
    if finished && !buf.is_empty() {
        f(&buf);
    }
}

/// Structures that can expose their contents as disjoint ascending chunks,
/// visited possibly in parallel (the CPMA hands out its leaves; flat
/// containers hand out slices). Used by scan-heavy consumers like
/// F-Graph's PageRank pull to parallelize a whole-structure pass without
/// knowing the layout.
pub trait ParallelChunks: RangeSet {
    /// Call `f` on disjoint, ascending, contiguous chunks that together
    /// cover the whole set. Chunks may be visited concurrently; each
    /// individual chunk is in ascending order, and chunk `i`'s elements all
    /// precede chunk `i + 1`'s.
    fn par_chunks(&self, f: &(dyn Fn(&[u64]) + Sync)) {
        // Fallback for structures without a native chunked layout (the
        // PMA hands out leaves instead): materialize once, then hand out
        // slice chunks in parallel — about four per thread, but no smaller
        // than 1024 keys so tiny sets stay a single serial visit.
        use rayon::prelude::*;
        let all = self.to_vec();
        if all.is_empty() {
            return;
        }
        let target_chunks = rayon::current_num_threads() * 4;
        let chunk = all.len().div_ceil(target_chunks.max(1)).max(1024);
        all.par_chunks(chunk).for_each(f);
    }
}

/// Buffered ascending iterator returned by [`RangeSet::range_iter`].
pub struct RangeIter {
    inner: std::vec::IntoIter<u64>,
}

impl Iterator for RangeIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for RangeIter {}

/// Convert any `RangeBounds<u64>` into an inclusive `[lo, hi]` pair over the
/// key domain, or `None` if the range is empty.
pub fn range_to_inclusive<R: RangeBounds<u64>>(range: &R) -> Option<(u64, u64)> {
    let lo = match range.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => {
            if s == u64::MAX {
                return None;
            }
            s + 1
        }
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&e) => e,
        Bound::Excluded(&e) => {
            if e == 0 {
                return None;
            }
            e - 1
        }
        Bound::Unbounded => u64::MAX,
    };
    if lo > hi {
        return None;
    }
    Some((lo, hi))
}

/// Sort + dedup a batch in place and return the strictly-increasing prefix
/// — the normal form every `*_batch_sorted` method requires.
///
/// This is the one batch-normalization routine in the workspace (the
/// paper's structures all consume "sorted, deduplicated batches"; keeping a
/// single implementation keeps their preprocessing identical and therefore
/// comparable). The sort is rayon's parallel sort, so batch preprocessing
/// scales with whatever parallel backend the workspace is built against.
pub fn normalize_batch(batch: &mut [u64]) -> &[u64] {
    use rayon::slice::ParallelSliceMut;
    batch.par_sort_unstable();
    let mut w = 0;
    for r in 0..batch.len() {
        if w == 0 || batch[r] != batch[w - 1] {
            batch[w] = batch[r];
            w += 1;
        }
    }
    &batch[..w]
}

/// Sort a mixed op stream by key (stable) and dedup with last-op-wins,
/// in place; returns the normal-form prefix every
/// [`BatchSet::apply_batch_sorted`] requires.
///
/// *Last-op-wins* is the sequential semantics of replaying the stream in
/// submission order: `[Remove(5), Insert(5)]` nets to `Insert(5)`,
/// `[Insert(5), Remove(5)]` to `Remove(5)`. It is exact for presence —
/// after every prefix of same-key ops, the key's membership equals the
/// last op's kind — so applying the normal form leaves the set in the
/// same state as replaying the raw stream one op at a time. (Per-op
/// *results* are a different question; front-ends that acknowledge
/// individual ops, like `cpma-store`'s combiner, replay against an
/// overlay first.) The sort is rayon's stable `par_sort_by_key`, so
/// equal-key ops keep submission order at any thread count.
pub fn normalize_ops(ops: &mut [BatchOp<u64>]) -> &[BatchOp<u64>] {
    use rayon::slice::ParallelSliceMut;
    ops.par_sort_by_key(|op| op.key());
    let mut w = 0;
    for r in 0..ops.len() {
        if w > 0 && ops[w - 1].key() == ops[r].key() {
            ops[w - 1] = ops[r]; // same key: the later op wins
        } else {
            ops[w] = ops[r];
            w += 1;
        }
    }
    &ops[..w]
}

/// Evaluate a [`RangeBounds`] `range_sum` through an exclusive-end kernel
/// (`sum_excl(lo, hi_excl)` summing keys in `[lo, hi_excl)`), folding in
/// `u64::MAX` separately — the one value a half-open kernel can never cover.
///
/// Shared by every implementation that overrides
/// [`RangeSet::range_sum`] with a structure-specific fast path; the
/// boundary handling lives here exactly once.
pub fn range_sum_via_exclusive<R: RangeBounds<u64>>(
    range: &R,
    contains_max: impl FnOnce() -> bool,
    sum_excl: impl FnOnce(u64, u64) -> u64,
) -> u64 {
    let Some((lo, hi)) = range_to_inclusive(range) else {
        return 0;
    };
    if hi == u64::MAX {
        let mut sum = sum_excl(lo, u64::MAX);
        if contains_max() {
            sum = sum.wrapping_add(u64::MAX);
        }
        sum
    } else {
        sum_excl(lo, hi + 1)
    }
}

/// An invalid structure configuration (builder validation failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending parameter, e.g. `"growing_factor"`.
    pub field: &'static str,
    /// Human-readable constraint violation.
    pub reason: String,
}

impl ConfigError {
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        Self {
            field,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_batch_sorts_and_dedups() {
        let mut b = [5u64, 1, 3, 1, 5, 2];
        assert_eq!(normalize_batch(&mut b), &[1, 2, 3, 5]);
        let mut empty: [u64; 0] = [];
        assert_eq!(normalize_batch(&mut empty), &[] as &[u64]);
        let mut same = [7u64, 7, 7];
        assert_eq!(normalize_batch(&mut same), &[7]);
    }

    #[test]
    fn normalize_ops_last_op_wins() {
        use BatchOp::{Insert, Remove};
        let mut ops = [
            Insert(5u64),
            Remove(3),
            Insert(3),
            Remove(5),
            Insert(7),
            Insert(7),
        ];
        assert_eq!(normalize_ops(&mut ops), &[Insert(3), Remove(5), Insert(7)]);
        let mut single = [Remove(9u64)];
        assert_eq!(normalize_ops(&mut single), &[Remove(9)]);
        let mut empty: [BatchOp<u64>; 0] = [];
        assert_eq!(normalize_ops(&mut empty), &[] as &[BatchOp<u64>]);
        // A long same-key run keeps only its last op.
        let mut run: Vec<BatchOp<u64>> = (0..100)
            .map(|i| if i % 2 == 0 { Insert(1) } else { Remove(1) })
            .collect();
        assert_eq!(normalize_ops(&mut run), &[Remove(1)]);
    }

    #[test]
    fn default_apply_batch_matches_oracle() {
        use std::collections::BTreeSet;
        use BatchOp::{Insert, Remove};
        let mut s: BTreeSet<u64> = [1u64, 2, 3].into_iter().collect();
        let out = s.apply_batch_sorted(&[Insert(0), Remove(2), Insert(3), Remove(9)]);
        assert_eq!(
            out,
            BatchOutcome {
                added: 1,
                removed: 1
            }
        );
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![0, 1, 3]);
        // Unsorted wrapper normalizes: remove-then-insert of 1 nets to
        // insert (a no-op here), insert-then-remove of 3 nets to remove.
        let mut ops = [Remove(1u64), Insert(3), Insert(1), Remove(3)];
        let out = s.apply_batch(&mut ops, false);
        assert_eq!(
            out,
            BatchOutcome {
                added: 0,
                removed: 1
            }
        );
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(s.apply_batch_sorted(&[]), BatchOutcome::default());
    }

    #[test]
    fn range_to_inclusive_cases() {
        assert_eq!(range_to_inclusive(&(1..5)), Some((1, 4)));
        assert_eq!(range_to_inclusive(&(1..=5)), Some((1, 5)));
        assert_eq!(range_to_inclusive(&(1..)), Some((1, u64::MAX)));
        assert_eq!(range_to_inclusive(&(..5)), Some((0, 4)));
        assert_eq!(range_to_inclusive(&(..)), Some((0, u64::MAX)));
        assert_eq!(range_to_inclusive(&(5..5)), None);
        #[allow(clippy::reversed_empty_ranges)] // the empty-range behaviour is the point
        let reversed = 5..4;
        assert_eq!(range_to_inclusive(&reversed), None);
        assert_eq!(range_to_inclusive(&(0..0)), None);
        // The full-domain inclusive range is representable (half-open pairs
        // could never include u64::MAX — the reason this API exists).
        assert_eq!(range_to_inclusive(&(0..=u64::MAX)), Some((0, u64::MAX)));
        assert_eq!(
            range_to_inclusive(&(Bound::Excluded(3u64), Bound::Included(7u64))),
            Some((4, 7))
        );
        assert_eq!(
            range_to_inclusive(&(Bound::Excluded(u64::MAX), Bound::Unbounded)),
            None
        );
    }

    #[test]
    fn config_error_display() {
        let e = ConfigError::new("growing_factor", "must exceed 1");
        assert_eq!(
            e.to_string(),
            "invalid config: growing_factor: must exceed 1"
        );
    }
}
