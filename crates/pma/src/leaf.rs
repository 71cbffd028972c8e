//! Leaf-storage abstraction shared by the PMA and the CPMA.
//!
//! The paper derives the CPMA from the PMA by changing exactly one thing:
//! what a leaf stores and how its occupancy is measured ("The main change in
//! the CPMA is the compression of each individual leaf, which does not
//! affect the high-level implicit tree structure", §5). We encode that
//! observation as a trait: [`PmaCore`](crate::core::PmaCore) implements
//! search, point updates, the batch algorithm, range maps, and resizing once
//! against [`LeafStorage`]; [`UncompressedLeaves`](crate::UncompressedLeaves)
//! measures occupancy in **cells** and
//! [`CompressedLeaves`](crate::CompressedLeaves) in **bytes**.
//!
//! # Shared-disjoint mutation
//!
//! The batch-merge and redistribute phases mutate many leaves in parallel.
//! The recursion partitions leaves disjointly (§4), so per-leaf mutation is
//! race-free *by construction*; [`SharedLeaves`] exposes that contract as
//! `unsafe` methods whose safety requirement is exactly "no two concurrent
//! calls may target the same leaf". Implementations use raw pointers derived
//! from `&mut self`, never materializing overlapping `&mut` references.
//!
//! # One update kernel
//!
//! Every update — a point insert, a one-sided batch, a mixed batch —
//! reaches a leaf as a [`Run`]: the sorted ops routed to it. Each storage
//! implements one [`SharedLeaves::apply_run`] and reports one
//! [`OpsOutcome`]; there is no separate union or difference path. Its
//! **general path** is decode → [`apply_run_into`] → re-encode (skipped
//! when the run changes nothing), working in a [`LeafScratch`] the leaf
//! loop owns, so a warm loop allocates nothing per leaf. The compressed
//! storage puts in-place kernels in front of it for the leaf states that
//! allow one (see `compressed.rs`); whatever they decline falls through
//! to the general path, which stays the only other way a leaf is updated.
//!
//! # One read visitor
//!
//! Every ordered walk of a leaf — scans, maps, parallel chunks, presence
//! merges, the invariant check — goes through [`LeafStorage::leaf_chunks`]:
//! the leaf's keys from a start key, handed out as slices (the cells
//! themselves for the uncompressed storage, a [`ChunkBlock`] the scan owns
//! for the compressed one), so a reader pays a call per leaf, not per key.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::core::ForceCodec;
use crate::run::Run;
use crate::PmaKey;
use cpma_api::PersistError;
use std::mem::MaybeUninit;

/// Result of applying a run to one leaf.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpsOutcome {
    /// Keys newly inserted into the leaf (keys already present do not
    /// count — set semantics).
    pub added: usize,
    /// Keys actually removed from the leaf (absent keys do not count).
    pub removed: usize,
    /// Signed change in the leaf's occupied units (cells or bytes).
    pub delta_units: isize,
    /// The leaf now holds more units than its physical capacity and its
    /// contents live in an out-of-place overflow buffer (Figure 4 of the
    /// paper). The counting phase is guaranteed to schedule it for
    /// redistribution because its density exceeds 1.0.
    pub overflowed: bool,
}

/// Reusable buffers of one leaf loop, handed to every
/// [`SharedLeaves::apply_run`] of that loop: the batch pipeline builds one
/// per worker (one for the serial loop), a point update one per call —
/// empty `Vec`s cost nothing until a path that needs them runs.
pub struct LeafScratch<K> {
    /// General path: the leaf's decoded elements.
    pub(crate) cur: Vec<K>,
    /// General path: the merged run that is stored back.
    pub(crate) merged: Vec<K>,
    /// Bitmap leaves: the word array being edited.
    pub(crate) words: Vec<u64>,
    /// Bitmap leaves: the words as stored, before a downward rebase.
    pub(crate) old_words: Vec<u64>,
}

impl<K> LeafScratch<K> {
    pub fn new() -> Self {
        Self {
            cur: Vec::new(),
            merged: Vec::new(),
            words: Vec::new(),
            old_words: Vec::new(),
        }
    }
}

impl<K> Default for LeafScratch<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Most keys one chunk of a [`LeafStorage::leaf_chunks`] read holds: a
/// delta leaf whole (the largest leaf a 64-bit capacity gets, 512 bytes,
/// holds at most 505 keys), the widest bitmap leaf (4 032 positions) in
/// nine at most.
pub const CHUNK_KEYS: usize = 512;

/// The block a leaf read decodes into ([`LeafStorage::leaf_chunks`]):
/// [`CHUNK_KEYS`] slots on the stack of the scan that owns it, reused leaf
/// after leaf — one per scan, one per parallel task. Creating one writes
/// nothing; a slot is written only by a decode.
pub struct ChunkBlock<K> {
    keys: [MaybeUninit<K>; CHUNK_KEYS],
}

impl<K: Copy> ChunkBlock<K> {
    pub fn new() -> Self {
        Self {
            keys: [const { MaybeUninit::uninit() }; CHUNK_KEYS],
        }
    }

    /// Run `decode` over the empty block and return the keys it
    /// [put](BlockFill::put), in order.
    #[inline(always)]
    pub fn fill(&mut self, decode: impl FnOnce(&mut BlockFill<'_, K>)) -> &[K] {
        let mut fill = BlockFill {
            slots: &mut self.keys,
            len: 0,
        };
        decode(&mut fill);
        let len = fill.len;
        // SAFETY: `put` wrote slots `0..len` (it never advances `len` past
        // a slot it did not write), and the slice borrows `self`, so no
        // later fill can overwrite them while it lives.
        unsafe { std::slice::from_raw_parts(self.keys.as_ptr().cast::<K>(), len) }
    }
}

impl<K: Copy> Default for ChunkBlock<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// The write end of one [`ChunkBlock::fill`]. The count lives here, apart
/// from the slots, so a decode loop keeps it in a register.
pub struct BlockFill<'a, K> {
    slots: &'a mut [MaybeUninit<K>; CHUNK_KEYS],
    len: usize,
}

impl<K: Copy> BlockFill<'_, K> {
    /// Append `key`. Panics past [`CHUNK_KEYS`] keys: a decode puts only
    /// what it knows fits.
    #[inline(always)]
    pub fn put(&mut self, key: K) {
        self.slots[self.len].write(key);
        self.len += 1;
    }

    /// Keys put so far.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing has been put.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Answer of a sizing sweep ([`LeafStorage::size_run`]) for one leaf size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSize {
    /// Units of the run as one stream with one head (`k` leaves add
    /// `(k − 1) · HEAD_UNITS`): the weight `plan_split` spreads evenly. A
    /// hybrid storage's is a floor, each element at its cheaper codec.
    pub stream: usize,
    /// Fewest leaves that hold the run (maximal prefixes; exact).
    pub min_leaves: usize,
    /// Units of that tightest packing, likewise with one head (exact).
    pub packed: usize,
}

/// Storage for the leaves of a PMA. See module docs.
///
/// Units are cells for the uncompressed PMA and bytes for the CPMA; density
/// bounds, the counting phase, and resizing all operate on units.
pub trait LeafStorage<K: PmaKey>: Send + Sync + Sized {
    /// Shared-disjoint accessor handed to parallel phases.
    type Shared<'a>: SharedLeaves<K> + Copy + Send + Sync
    where
        Self: 'a;

    /// Name of the structure this storage yields, as the paper's tables
    /// spell it ("PMA" / "CPMA"); surfaces as `OrderedSet::NAME`.
    const NAME: &'static str;

    /// Smallest permissible leaf capacity in units. For the CPMA this must
    /// be ≥ 256 bytes: redistribution's fit proof needs
    /// `0.1 · capacity ≥ 18` (head swap 8 B + dropped boundary delta 10 B).
    const MIN_LEAF_UNITS: usize;
    /// Leaf capacities are rounded up to a multiple of this.
    const LEAF_ALIGN: usize;
    /// Units consumed by a leaf head beyond the element's delta cost
    /// (8 for the CPMA's raw head, 0 for the uncompressed PMA).
    const HEAD_UNITS: usize;
    /// Leaf capacity is `LEAF_SCALE · ⌈log₂ capacity⌉` units (clamped and
    /// aligned), keeping leaves Θ(log N) as the paper requires.
    const LEAF_SCALE: usize;

    /// Stable on-disk identifier of this codec, recorded in snapshot
    /// headers so a `Pma` image is never deserialized as a `Cpma` (or
    /// vice versa). Never reuse or renumber.
    const CODEC_ID: u32;

    /// Allocate `num_leaves` empty leaves of `leaf_units` capacity each.
    fn with_geometry(num_leaves: usize, leaf_units: usize) -> Self;

    /// Exact snapshot-payload size in bytes for this geometry, or `None`
    /// on arithmetic overflow (the geometry then cannot be valid).
    fn payload_len(num_leaves: usize, leaf_units: usize) -> Option<usize>;

    /// Append the raw backing arrays to `out`, little-endian, in the
    /// layout fixed by [`CODEC_ID`](Self::CODEC_ID) — the snapshot
    /// payload. Because the structure is pointer-free this is a plain
    /// byte view of the allocation: no walk, no fixup. Callers must
    /// ensure no leaf is overflowed (always true outside a batch).
    fn write_payload(&self, out: &mut Vec<u8>);

    /// Rebuild storage with the given geometry from a snapshot payload,
    /// validating lengths *before* allocating and every per-leaf
    /// invariant (prefix bounds, ascending order, head consistency)
    /// before the storage is returned. The payload's checksum has
    /// already been verified by the envelope; this guards against
    /// crafted or stale inputs ever panicking later.
    fn read_payload(
        num_leaves: usize,
        leaf_units: usize,
        payload: &[u8],
    ) -> Result<Self, PersistError>;

    /// Number of leaves.
    fn num_leaves(&self) -> usize;
    /// Capacity of each leaf in units.
    fn leaf_units(&self) -> usize;
    /// Occupied units of `leaf` (may exceed capacity while overflowed).
    fn units_used(&self, leaf: usize) -> usize;
    /// Number of elements in `leaf`.
    fn count(&self, leaf: usize) -> usize;
    /// Head value of `leaf`. For empty leaves this is an *inherited* value:
    /// any value keeping the head array non-decreasing (see `core::dest_leaf`).
    fn head(&self, leaf: usize) -> K;
    /// Whether `leaf` currently spills to an overflow buffer.
    fn is_overflowed(&self, leaf: usize) -> bool;
    /// Bytes of backing memory (the paper's `get_size()`).
    fn size_bytes(&self) -> usize;

    /// Hint that `leaf`'s backing bytes are about to be read (batched
    /// lookups prefetch the next probe group's leaf while searching the
    /// current one). Default: no-op.
    fn prefetch_leaf(&self, _leaf: usize) {}

    /// Smallest element ≥ `key` within `leaf`, if any.
    fn leaf_successor(&self, leaf: usize, key: K) -> Option<K>;
    /// Membership test within `leaf`.
    fn leaf_contains(&self, leaf: usize, key: K) -> bool;
    /// Largest element of `leaf`, if non-empty.
    fn leaf_max(&self, leaf: usize) -> Option<K>;
    /// The leaf-read visitor: hand `leaf`'s elements ≥ `start` to `f` as
    /// ascending, non-empty chunks until `f` returns false; returns false
    /// iff it did. Cells are handed out in place; a codec decodes into
    /// `block`, at most [`CHUNK_KEYS`] keys per chunk, so a scan that
    /// reuses one block allocates nothing. Every ordered walk of a leaf —
    /// scans, maps, parallel chunks, the invariant check — goes through
    /// here. `leaf` must not be spilled.
    fn leaf_chunks<F: FnMut(&[K]) -> bool>(
        &self,
        leaf: usize,
        start: K,
        block: &mut ChunkBlock<K>,
        f: F,
    ) -> bool;
    /// Append `leaf`'s elements, in order, to `out`.
    fn collect_leaf(&self, leaf: usize, out: &mut Vec<K>);
    /// Sum of `leaf`'s elements (widened to u64, wrapping).
    fn leaf_sum(&self, leaf: usize) -> u64;

    /// Sum of `leaf`'s elements in the half-open key range `[start, end)`
    /// (widened to u64, wrapping). Default: the chunks from `start`, cut
    /// at `end`; hybrid storages override with wordwise popcount kernels
    /// on dense leaves.
    fn leaf_range_sum(&self, leaf: usize, start: K, end: K) -> u64 {
        let mut acc = 0u64;
        self.leaf_chunks(leaf, start, &mut ChunkBlock::new(), |chunk| {
            let inside = chunk.partition_point(|&e| e < end);
            acc = chunk[..inside]
                .iter()
                .fold(acc, |a, &e| a.wrapping_add(e.to_u64()));
            inside == chunk.len()
        });
        acc
    }

    /// One **sizing** sweep: what a strictly-increasing run costs in leaves
    /// of `leaf_units` under this instance's codec policy. Every capacity
    /// decision is arithmetic on the answer, so a geometry the core accepts
    /// is one [`Self::plan_split`] can cut.
    fn size_run(&self, elems: &[K], leaf_units: usize) -> RunSize;

    /// **Cut** `elems` into `k` leaves of `leaf_units`: `k + 1` offsets
    /// into `elems` (first 0, last `elems.len()`), occupancies near-equal
    /// and every slice fitting its leaf as `write_leaf` will encode it — or
    /// `None` when no `k`-way split fits (`k < size_run(..).min_leaves`).
    /// O(`elems.len() + k`) however far off `k` is. The storage that is
    /// written plans: one policy costs the slices and encodes them.
    fn plan_split(&self, elems: &[K], k: usize, leaf_units: usize) -> Option<Vec<usize>>;

    /// Install the per-leaf codec policy (hybrid storages only; the
    /// default ignores it). Called at construction and when loading a
    /// snapshot, before any leaf is written.
    fn set_codec_policy(&mut self, _force: ForceCodec) {}

    /// Membership of every key of `run` — ascending, all routed to `leaf`,
    /// which is not overflowed — in one pass: `out[i]` answers
    /// `run.key(i)`. Default: the leaf's chunks from the run's first key,
    /// merged against the run and stopped after its last key.
    fn presence<R: Run<K>>(&self, leaf: usize, run: R, out: &mut [bool]) {
        debug_assert_eq!(run.len(), out.len());
        out.fill(false);
        if run.is_empty() || self.count(leaf) == 0 {
            return;
        }
        let mut i = 0;
        self.leaf_chunks(leaf, run.key(0), &mut ChunkBlock::new(), |chunk| {
            for &e in chunk {
                while run.key(i) < e {
                    i += 1;
                    if i == run.len() {
                        return false;
                    }
                }
                if run.key(i) == e {
                    out[i] = true;
                    i += 1;
                    if i == run.len() {
                        return false;
                    }
                }
            }
            true
        });
    }

    /// Overwrite leaves `[start, end)` — their bytes or cells, counts,
    /// heads and tags — with `src`'s, a storage of the same geometry. No
    /// leaf of either may be spilled (true between batches), so their
    /// spill slots agree already. Returns the bytes copied: the leaves'
    /// share of [`size_bytes`](Self::size_bytes).
    fn copy_leaves_from(&mut self, src: &Self, start: usize, end: usize) -> usize;

    /// Obtain the shared-disjoint accessor. Borrows `self` mutably for the
    /// accessor's lifetime, so no safe references can alias the raw access.
    fn shared(&mut self) -> Self::Shared<'_>;
}

/// Shared-disjoint per-leaf mutation (and reads) used by the parallel batch
/// phases.
///
/// # Safety contract (all methods)
///
/// For a given accessor, no two concurrent calls may target the same leaf
/// index, and no concurrent call may target a leaf another thread is reading
/// through the same accessor. Distinct leaves are always safe: every method
/// touches only the addressed leaf's slots (cells or bytes, count, units,
/// head, tag, overflow), all reached through raw pointers derived from the
/// one `&mut` borrow [`LeafStorage::shared`] took, which outlives the
/// accessor and excludes every safe reference to the storage. `leaf` must
/// be below the accessor's leaf count. Call sites cite this as the
/// *disjoint-leaf contract* and say only why their leaves are distinct.
pub trait SharedLeaves<K: PmaKey> {
    /// Apply `run` (ascending, one op per key) to `leaf` in **one** rewrite
    /// (module docs: an in-place kernel where the storage has one, else the
    /// general path). A run that changes nothing returns the default
    /// outcome and leaves the leaf's bytes untouched. Inserts may spill to
    /// an overflow buffer; an emptied leaf keeps its old head as the
    /// inherited value (this preserves head-array monotonicity with no
    /// cross-leaf reads — see `core` docs).
    ///
    /// # Safety
    /// The disjoint-leaf contract (trait docs).
    unsafe fn apply_run<R: Run<K>>(
        &self,
        leaf: usize,
        run: R,
        scratch: &mut LeafScratch<K>,
    ) -> OpsOutcome;

    /// Hint that `leaf` is about to be handed to [`Self::apply_run`]: pull
    /// in what that call will miss on. Reads and writes nothing, so it is
    /// safe for any `leaf`, whoever owns it. Default: no-op.
    fn prefetch(&self, _leaf: usize) {}

    /// Overwrite `leaf` with `elems`, a slice of a `plan_split` plan (so it
    /// fits). For an empty `elems`, the head is set to `inherited_head`.
    /// Clears any overflow buffer. Returns the leaf's new unit count.
    ///
    /// # Safety
    /// The disjoint-leaf contract (trait docs).
    unsafe fn write_leaf(&self, leaf: usize, elems: &[K], inherited_head: K) -> usize;

    /// Append `leaf`'s elements to `out` (reads through the shared view).
    ///
    /// # Safety
    /// The disjoint-leaf contract (trait docs).
    unsafe fn collect_leaf(&self, leaf: usize, out: &mut Vec<K>);

    /// Occupied units of `leaf` through the shared view.
    ///
    /// # Safety
    /// The disjoint-leaf contract (trait docs).
    unsafe fn units_used(&self, leaf: usize) -> usize;

    /// Element count of `leaf` through the shared view.
    ///
    /// # Safety
    /// The disjoint-leaf contract (trait docs).
    unsafe fn count(&self, leaf: usize) -> usize;

    /// Set the head of an (empty) leaf to an inherited value.
    ///
    /// # Safety
    /// The disjoint-leaf contract (trait docs).
    unsafe fn set_inherited_head(&self, leaf: usize, head: K);
}

/// Apply `run` to the sorted unique `cur`, writing the result into `out`
/// (cleared first): one three-finger merge that unions the inserts and
/// subtracts the removes in the same pass. Returns `(added, removed)` with
/// set semantics. For an [`Inserts`](crate::run::Inserts) or
/// [`Removes`](crate::run::Removes) view the op test is a constant, which
/// leaves the plain two-finger union or difference loop.
pub(crate) fn apply_run_into<K: PmaKey, R: Run<K>>(
    cur: &[K],
    run: R,
    out: &mut Vec<K>,
) -> (usize, usize) {
    debug_assert!(run.is_strictly_ascending());
    out.clear();
    out.reserve(cur.len() + run.len());
    let (mut added, mut removed) = (0usize, 0usize);
    let (mut i, mut j) = (0usize, 0usize);
    while i < cur.len() && j < run.len() {
        let k = run.key(j);
        match cur[i].cmp(&k) {
            std::cmp::Ordering::Less => {
                out.push(cur[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                // A remove of an absent key is a no-op.
                if run.is_insert(j) {
                    out.push(k);
                    added += 1;
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if run.is_insert(j) {
                    out.push(k); // already present
                } else {
                    removed += 1; // drop it
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&cur[i..]);
    for j in j..run.len() {
        if run.is_insert(j) {
            out.push(run.key(j));
            added += 1;
        }
    }
    (added, removed)
}

/// Helpers shared by the storage test modules.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::run::{Inserts, Removes};
    use cpma_api::BatchOp::{self, Insert, Remove};

    /// Apply `ops` to `leaf` through the op slice and — when the run is
    /// one-sided — through its key view on a clone: both must report the
    /// same outcome and leave identical storages (byte-identical payloads
    /// unless a leaf is spilled, which has no payload form).
    pub(crate) fn apply<L: LeafStorage<u64> + Clone>(
        s: &mut L,
        leaf: usize,
        ops: &[BatchOp<u64>],
    ) -> OpsOutcome {
        let keys: Vec<u64> = ops.iter().map(|op| op.key()).collect();
        let mut twin = s.clone();
        let mut scratch = LeafScratch::new();
        // SAFETY: single-threaded; `s` and `twin` are distinct storages.
        let (out, via_view) = unsafe {
            let out = s.shared().apply_run(leaf, ops, &mut scratch);
            let twin_sh = twin.shared();
            let via_view = if ops.iter().all(|op| matches!(op, Insert(_))) {
                Some(twin_sh.apply_run(leaf, Inserts::new(&keys), &mut scratch))
            } else if ops.iter().all(|op| matches!(op, Remove(_))) {
                Some(twin_sh.apply_run(leaf, Removes::new(&keys), &mut scratch))
            } else {
                None
            };
            (out, via_view)
        };
        if let Some(v) = via_view {
            assert_eq!(v, out, "key view disagrees with op slice");
            assert_eq!(contents(&twin, leaf), contents(s, leaf));
            let spilled = |l: &L| (0..l.num_leaves()).any(|i| l.is_overflowed(i));
            assert_eq!(spilled(&twin), spilled(s));
            if !spilled(s) {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                twin.write_payload(&mut a);
                s.write_payload(&mut b);
                assert!(a == b, "key view and op slice left different bytes");
            }
        }
        out
    }

    pub(crate) fn contents<L: LeafStorage<u64>>(s: &L, leaf: usize) -> Vec<u64> {
        let mut v = Vec::new();
        s.collect_leaf(leaf, &mut v);
        v
    }

    pub(crate) fn ins(keys: impl IntoIterator<Item = u64>) -> Vec<BatchOp<u64>> {
        keys.into_iter().map(Insert).collect()
    }

    pub(crate) fn rem(keys: impl IntoIterator<Item = u64>) -> Vec<BatchOp<u64>> {
        keys.into_iter().map(Remove).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Inserts, Removes};
    use cpma_api::BatchOp::{self, Insert, Remove};

    /// One row of the kernel table: `cur` ∘ `run` = `want`, with the
    /// `(added, removed)` counts the kernel must report.
    struct Case {
        cur: &'static [u64],
        run: &'static [BatchOp<u64>],
        want: &'static [u64],
        counts: (usize, usize),
    }

    const CASES: &[Case] = &[
        // Union counts new elements only.
        Case {
            cur: &[1, 3, 5],
            run: &[Insert(2), Insert(3), Insert(6)],
            want: &[1, 2, 3, 5, 6],
            counts: (2, 0),
        },
        // Union with an empty side.
        Case {
            cur: &[],
            run: &[Insert(1), Insert(2)],
            want: &[1, 2],
            counts: (2, 0),
        },
        Case {
            cur: &[1, 2],
            run: &[],
            want: &[1, 2],
            counts: (0, 0),
        },
        Case {
            cur: &[],
            run: &[],
            want: &[],
            counts: (0, 0),
        },
        // Union stays sorted and unique through interleavings.
        Case {
            cur: &[10, 20, 30],
            run: &[
                Insert(5),
                Insert(10),
                Insert(15),
                Insert(20),
                Insert(25),
                Insert(35),
            ],
            want: &[5, 10, 15, 20, 25, 30, 35],
            counts: (4, 0),
        },
        // Difference counts removed elements only.
        Case {
            cur: &[1, 2, 3, 5],
            run: &[Remove(2), Remove(4), Remove(5), Remove(9)],
            want: &[1, 3],
            counts: (0, 2),
        },
        // Difference with an empty side.
        Case {
            cur: &[],
            run: &[Remove(1)],
            want: &[],
            counts: (0, 0),
        },
        Case {
            cur: &[2, 4],
            run: &[Remove(2), Remove(4)],
            want: &[],
            counts: (0, 2),
        },
        // A mixed run unions and subtracts in the same pass.
        Case {
            cur: &[1, 3, 5, 7],
            run: &[Insert(0), Remove(3), Insert(5), Insert(6), Remove(9)],
            want: &[0, 1, 5, 6, 7],
            counts: (2, 1),
        },
        Case {
            cur: &[2, 4],
            run: &[Insert(2), Insert(3)],
            want: &[2, 3, 4],
            counts: (1, 0),
        },
        Case {
            cur: &[],
            run: &[Insert(9), Remove(10)],
            want: &[9],
            counts: (1, 0),
        },
    ];

    #[test]
    fn kernel_table() {
        let mut out = vec![99]; // must be cleared by the kernel
        for (n, c) in CASES.iter().enumerate() {
            assert_eq!(apply_run_into(c.cur, c.run, &mut out), c.counts, "row {n}");
            assert_eq!(out, c.want, "row {n}");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "row {n}");
            // A one-sided row must read the same through its key view.
            let keys: Vec<u64> = c.run.iter().map(|op| op.key()).collect();
            if c.run.iter().all(|op| matches!(op, Insert(_))) {
                let got = apply_run_into(c.cur, Inserts::new(&keys), &mut out);
                assert_eq!(
                    (got, out.as_slice()),
                    (c.counts, c.want),
                    "row {n} as Inserts"
                );
            }
            if c.run.iter().all(|op| matches!(op, Remove(_))) {
                let got = apply_run_into(c.cur, Removes::new(&keys), &mut out);
                assert_eq!(
                    (got, out.as_slice()),
                    (c.counts, c.want),
                    "row {n} as Removes"
                );
            }
        }
    }
}
