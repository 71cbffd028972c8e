//! Hybrid compressed leaf storage: delta byte codes (§5 of the paper) or
//! a fixed-span bitmap, chosen **per leaf** at rewrite time.
//!
//! "A CPMA leaf stores its head, or its first element, uncompressed, and
//! stores subsequent elements compressed with delta encoding and byte codes.
//! ... The density bounds in a CPMA count byte density rather than element
//! density." Units here are **bytes**. The implicit tree, the batch
//! algorithm, and search on leaf heads are untouched — that is the paper's
//! central structural claim, and it is what lets this type plug into the
//! same `PmaCore` as the uncompressed storage.
//!
//! The paper compresses every leaf the same way, which is optimal for
//! sparse runs but charges ≥ 1 byte per element no matter how dense the
//! keys are. This module extends the representation with the
//! [`crate::bitmap`] encoding: each leaf carries a one-byte tag, every
//! rewrite ([`CompressedShared::store`]) re-decides the cheaper encoding
//! under the configured [`ForceCodec`] policy, and the read paths dispatch
//! on the tag. Dense leaves get wordwise popcount range kernels.
//!
//! # Updating a leaf
//!
//! [`SharedLeaves::apply_run`] picks by the state of the leaf it finds:
//!
//! * **delta leaf, non-empty, not spilled** — the *fused* kernel
//!   ([`CompressedShared::apply_run_fused`]): one walk over the byte codes
//!   by the read kernel, in the form that also reports where each code
//!   ends ([`walk_codes_at`]). The codes of the elements no op touches are
//!   copied verbatim, a stretch at a time; the first stretch is everything
//!   before the *splice point*, the first element an op reaches, and ends
//!   where the walk says the code before it ends. Around each op the run
//!   is merged straight into byte codes in a stack buffer; once the run is
//!   spent the walk stops, the element after the last op is re-encoded
//!   against its new predecessor and the rest is copied — no element
//!   vector, no heap. It hands the exact delta size and the bitmap size of
//!   the result (or a lower bound that already rules the bitmap out) to
//!   the same [`choose_codec`] call `store` makes and commits only on
//!   "delta, fits";
//! * **bitmap leaf, not spilled** — the *wordwise* kernel: set/clear bits
//!   in the word array, never a delta decode;
//! * anything else, and whatever a kernel declines (the result spills,
//!   flips codec or empties the leaf) — the **general path**: decode →
//!   [`apply_run_into`] → `store`. A declining kernel has written
//!   nothing, so every layout decision is `store`'s or identical to it.
//!
//! # Planning a rebuild
//!
//! One **planner** sizes and cuts every rebuild and redistribute, in
//! forward sweeps that carry the open leaf's exact cost ([`sweep`]: what
//! `store` will hand [`choose_codec`]; delta-only is the same sweep with
//! the bitmap term off) beside a [`balance_weight`]. *Sizing*
//! ([`LeafStorage::size_run`]) gives the core what it sizes every build,
//! grow and shrink from, by arithmetic. *Cutting*
//! ([`LeafStorage::plan_split`]) closes leaf `j` at the `j/k` quantile of
//! the weight, or earlier at the last element that fits; if the tail still
//! overflows it packs maximal prefixes, and if those overflow no `k`-way
//! split fits: `None`, nothing written. A sweep is O(n + k) whatever `k`.
//!
//! # Unsafe code
//!
//! Every `unsafe` here is a slot or byte access through the
//! [`CompressedShared`] accessor, run under the *disjoint-leaf contract* of
//! [`SharedLeaves`]: the six pointers come from one `&mut` borrow of the
//! storage, and a call touches only its own leaf's bytes — a stretch of
//! `leaf_units` bytes no other leaf shares — and its `used`, `counts`,
//! `heads`, `tags` and `overflow` slots. Reads go through the same
//! accessor as writes, so they need the same contract.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::bitmap;
use crate::codec::{
    encode_run, encoded_run_len, frame_codes, varint_len, walk_codes, walk_codes_at, walk_run,
    write_varint, MAX_VARINT_BYTES,
};
use crate::core::ForceCodec;
use crate::leaf::{
    apply_run_into, ChunkBlock, LeafScratch, OpsOutcome, RunSize, SharedLeaves, CHUNK_KEYS,
};
use crate::run::Run;
use crate::search::prefetch_read;
use crate::{stats, LeafStorage};
use cpma_api::PersistError;
use std::marker::PhantomData;

/// Per-leaf tag: LEB128 delta run (the paper's encoding).
const TAG_DELTA: u8 = 0;
/// Per-leaf tag: fixed-span bitmap ([`crate::bitmap`]).
const TAG_BITMAP: u8 = 1;

/// Largest leaf the fused kernel takes: `LEAF_SCALE · 64` bytes, which no
/// 64-bit capacity exceeds (`PmaCore::leaf_units_for_cap`).
const FUSED_MAX_UNITS: usize = 8 * 64;
/// Its stack buffer: the kernel checks the emitted length against the
/// leaf capacity after every code it encodes and before every stretch it
/// copies, so it overshoots by at most one code.
const FUSED_BUF: usize = FUSED_MAX_UNITS + MAX_VARINT_BYTES;

/// Hysteresis band around the break-even (bitmap cost = delta cost): a
/// leaf already in bitmap form stays there while its bitmap costs at most
/// 17/16 of its delta bytes, one in delta form flips only at 15/16, so
/// leaves hovering at the boundary do not flip encodings on every
/// redistribute.
#[inline]
fn bitmap_ratio(was_bitmap: bool) -> f64 {
    if was_bitmap {
        17.0 / 16.0
    } else {
        15.0 / 16.0
    }
}

/// Pick the encoding for a non-empty run given both exact costs. Returns
/// `(tag, units)`; `units > cap` means neither fitting choice exists and
/// the caller spills (always with delta-based unit accounting, keeping
/// density math monotone in the element count).
fn choose_codec(
    policy: ForceCodec,
    was_bitmap: bool,
    delta_units: usize,
    bitmap_units: usize,
    cap: usize,
) -> (u8, usize) {
    match policy {
        ForceCodec::Delta => (TAG_DELTA, delta_units),
        ForceCodec::Bitmap => {
            if bitmap_units <= cap {
                (TAG_BITMAP, bitmap_units)
            } else {
                (TAG_DELTA, delta_units)
            }
        }
        ForceCodec::Auto => {
            let t = bitmap_ratio(was_bitmap);
            if bitmap_units <= cap && (bitmap_units as f64) <= t * (delta_units as f64) {
                (TAG_BITMAP, bitmap_units)
            } else if delta_units <= cap || bitmap_units > cap {
                (TAG_DELTA, delta_units)
            } else {
                // The ratio prefers delta but only the bitmap fits:
                // fitting beats preference (no needless overflow).
                (TAG_BITMAP, bitmap_units)
            }
        }
    }
}

/// What an element adds to a run's **balance weight**, given its `gap` to
/// its predecessor and that gap's byte-code length: delta-only, the code's
/// bytes; hybrid, the cheaper of the code and the bitmap span the gap
/// adds, in bits. The weight only *spreads* a run (and, summed, is the
/// stream a rebuild aims its density with); [`sweep`] says what *fits*.
#[inline]
fn balance_weight(hybrid: bool, gap: u64, code: usize) -> u64 {
    if hybrid {
        (code as u64 * 8).min(gap)
    } else {
        code as u64
    }
}

/// The planner's one sweep: fill leaves left to right, closing the open
/// one before element `i` while `closes(closed, weight)` — the leaves
/// closed so far, the balance weight of the elements before `i` — says so,
/// and wherever `i` no longer fits. Both terms of the exact cost
/// [`choose_codec`] is handed (`units ≤ leaf_units` iff `store` writes the
/// leaf without a spill) advance in O(1), so there are no prefix arrays.
/// Each leaf's end offset and units go to `leaf`; returns the run's weight.
fn sweep(
    elems: &[u64],
    leaf_units: usize,
    hybrid: bool,
    mut closes: impl FnMut(usize, u64) -> bool,
    mut leaf: impl FnMut(usize, usize),
) -> u64 {
    visit(elems.len());
    let (mut closed, mut weight) = (0usize, 0u64);
    // The open leaf: its raw head plus byte codes (0 while empty), units.
    let (mut first, mut delta, mut units) = (0u64, 0usize, 0usize);
    let mut prev = elems.first().copied().unwrap_or(0);
    for (i, &e) in elems.iter().enumerate() {
        while closes(closed, weight) {
            leaf(i, units);
            (closed, delta, units) = (closed + 1, 0, 0);
        }
        let code = varint_len(e - prev);
        let units_of = |first: u64, delta: usize| match hybrid {
            true => delta.min(bitmap::encoded_len(first, e)),
            false => delta,
        };
        if delta != 0 && units_of(first, delta + code) > leaf_units {
            leaf(i, units);
            (closed, delta) = (closed + 1, 0);
        }
        (first, delta) = if delta == 0 {
            (e, 8)
        } else {
            (first, delta + code)
        };
        units = units_of(first, delta);
        if i > 0 {
            weight += balance_weight(hybrid, e - prev, code);
        }
        prev = e;
    }
    if delta != 0 {
        leaf(elems.len(), units);
    }
    weight
}

/// One cutting sweep: `k + 1` offsets, every slice within `leaf_units`, or
/// `None` when `k` leaves overflow. Given `total` (the run's weight),
/// boundary `j` closes at the `j/k` quantile of the cumulative weight — or
/// earlier, at the last element that still fits; without it every leaf is
/// a maximal prefix, which fits whenever anything does.
fn cut(
    elems: &[u64],
    k: usize,
    leaf_units: usize,
    hybrid: bool,
    total: Option<u64>,
) -> Option<Vec<usize>> {
    let quantile = |j: usize| total.map_or(u64::MAX, |t| t * j as u64 / k as u64);
    let mut close_at = quantile(1);
    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0);
    let closes = |closed: usize, weight: u64| {
        let close = closed + 1 < k && weight >= close_at;
        if close {
            close_at = quantile(closed + 2);
        }
        close
    };
    sweep(elems, leaf_units, hybrid, closes, |end, _| {
        offsets.push(end)
    });
    (offsets.len() <= k + 1).then(|| {
        offsets.resize(k + 1, elems.len());
        offsets
    })
}

/// Count a sweep's visits (tests check linearity by count, not by clock).
#[inline]
fn visit(_elems: usize) {
    #[cfg(test)]
    tests::PLANNER_VISITS.with(|v| v.set(v.get() + _elems as u64));
}

/// Append the elements a word array represents (relative to `base`) to
/// `out` (cleared first), ascending.
fn words_into_elems(base: u64, words: &[u64], out: &mut Vec<u64>) {
    out.clear();
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        let first = base + (wi as u64) * 64;
        while w != 0 {
            out.push(first + w.trailing_zeros() as u64);
            w &= w - 1;
        }
    }
}

/// Hybrid compressed leaves over `u64` keys. See module docs.
#[derive(Clone)]
pub struct CompressedLeaves {
    /// `num_leaves * leaf_units` bytes; leaf `i` owns
    /// `[i * leaf_units, (i+1) * leaf_units)`, valid prefix = `used[i]`.
    bytes: Vec<u8>,
    /// Occupied bytes per leaf (may exceed capacity while overflowed).
    used: Vec<u32>,
    /// Elements per leaf.
    counts: Vec<u32>,
    /// Leaf heads, duplicated out of the leaves for cache-friendly search
    /// (inherited values for empty leaves); non-decreasing.
    heads: Vec<u64>,
    /// Per-leaf codec tag ([`TAG_DELTA`] / [`TAG_BITMAP`]); empty leaves
    /// are canonically [`TAG_DELTA`].
    tags: Vec<u8>,
    /// Out-of-place buffers for overflowed leaves (batch merge only).
    overflow: Vec<Option<Box<[u64]>>>,
    leaf_units: usize,
    policy: ForceCodec,
}

impl CompressedLeaves {
    #[inline]
    fn leaf_bytes(&self, leaf: usize) -> &[u8] {
        debug_assert!(self.overflow[leaf].is_none(), "query on overflowed leaf");
        let start = leaf * self.leaf_units;
        &self.bytes[start..start + self.used[leaf] as usize]
    }

    /// Walk a delta leaf's run ([`walk_run`]), handing the kernel the
    /// leaf's whole stretch so that it reads the run's last block in place.
    #[inline]
    fn walk_leaf(&self, leaf: usize, f: impl FnMut(u64) -> bool) -> (bool, usize) {
        debug_assert!(self.overflow[leaf].is_none(), "query on overflowed leaf");
        let start = leaf * self.leaf_units;
        walk_run(
            &self.bytes[start..start + self.leaf_units],
            self.units_used(leaf),
            f,
        )
    }

    #[inline]
    fn is_bitmap(&self, leaf: usize) -> bool {
        self.tags[leaf] == TAG_BITMAP
    }

    /// `(delta, bitmap)` leaf counts over the non-empty leaves — the
    /// codec population the obs counters track incrementally, recomputed
    /// exactly (bench exposition and white-box tests).
    pub fn codec_census(&self) -> (usize, usize) {
        let mut delta = 0usize;
        let mut bm = 0usize;
        for leaf in 0..self.counts.len() {
            if self.counts[leaf] > 0 {
                if self.tags[leaf] == TAG_BITMAP {
                    bm += 1;
                } else {
                    delta += 1;
                }
            }
        }
        (delta, bm)
    }
}

impl LeafStorage for CompressedLeaves {
    type Shared<'a>
        = CompressedShared<'a>
    where
        Self: 'a;

    const NAME: &'static str = "CPMA";

    // ≥ 256 bytes: the redistribution fit argument needs
    // 0.1 · capacity ≥ 18 (head swap 8 B + dropped boundary delta 10 B);
    // 256 gives a comfortable margin (see `LeafStorage::MIN_LEAF_UNITS`).
    const MIN_LEAF_UNITS: usize = 256;
    const LEAF_ALIGN: usize = 64;
    const HEAD_UNITS: usize = 8;
    const LEAF_SCALE: usize = 8;

    // 2 was the delta-only layout (no per-leaf tag section). Never reuse.
    const CODEC_ID: u32 = 3;

    // Snapshot payload layout (all little-endian):
    //   tags    num_leaves × u8
    //   used    num_leaves × u32
    //   counts  num_leaves × u32
    //   heads   num_leaves × u64
    //   bytes   num_leaves × leaf_units  (full array; the first `used[i]`
    //           bytes of each leaf are its encoded run, the rest don't-care)
    fn payload_len(num_leaves: usize, leaf_units: usize) -> Option<usize> {
        let per_leaf = leaf_units.checked_add(1 + 4 + 4 + 8)?;
        num_leaves.checked_mul(per_leaf)
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        debug_assert!(self.overflow.iter().all(|o| o.is_none()));
        out.extend_from_slice(&self.tags);
        for &u in &self.used {
            out.extend_from_slice(&u.to_le_bytes());
        }
        for &c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &h in &self.heads {
            out.extend_from_slice(&h.to_le_bytes());
        }
        out.extend_from_slice(&self.bytes);
    }

    fn read_payload(
        num_leaves: usize,
        leaf_units: usize,
        payload: &[u8],
    ) -> Result<Self, PersistError> {
        let expected = Self::payload_len(num_leaves, leaf_units)
            .filter(|&n| n == payload.len())
            .ok_or(PersistError::Truncated("cpma payload"))?;
        debug_assert_eq!(expected, payload.len());

        let tags: Vec<u8> = payload[..num_leaves].to_vec();
        let used_at = num_leaves;
        let counts_at = used_at + num_leaves * 4;
        let heads_at = counts_at + num_leaves * 4;
        let bytes_at = heads_at + num_leaves * 8;
        let used: Vec<u32> = payload[used_at..counts_at]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let counts: Vec<u32> = payload[counts_at..heads_at]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let heads: Vec<u64> = payload[heads_at..bytes_at]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let bytes = payload[bytes_at..].to_vec();

        // Walk every leaf's encoded run: the search and scan paths decode
        // without bounds checks, so nothing invalid may pass.
        let mut prev_max: Option<u64> = None;
        for leaf in 0..num_leaves {
            let nbytes = used[leaf] as usize;
            let count = counts[leaf] as usize;
            if tags[leaf] > TAG_BITMAP {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} has unknown codec tag {}",
                    tags[leaf]
                )));
            }
            if nbytes > leaf_units {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} claims {nbytes} used bytes in {leaf_units}"
                )));
            }
            if leaf > 0 && heads[leaf] < heads[leaf - 1] {
                return Err(PersistError::Corrupt(format!(
                    "head array decreases at leaf {leaf}"
                )));
            }
            if count == 0 {
                if nbytes != 0 || tags[leaf] != TAG_DELTA {
                    return Err(PersistError::Corrupt(format!(
                        "empty leaf {leaf} is not in canonical form"
                    )));
                }
                continue;
            }
            let run = &bytes[leaf * leaf_units..leaf * leaf_units + nbytes];
            if nbytes < 8 {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} run too short for a head"
                )));
            }
            let head = u64::from_le_bytes(run[..8].try_into().unwrap());
            if heads[leaf] != head {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} head disagrees with its encoded run"
                )));
            }
            if prev_max.is_some_and(|p| p >= head) {
                return Err(PersistError::Corrupt(format!(
                    "leaf {leaf} overlaps its predecessor"
                )));
            }
            if tags[leaf] == TAG_BITMAP {
                // Canonical bitmap: whole words after the base, bit 0 of
                // word 0 set (base is the minimum), non-zero last word
                // (span ends at the maximum), popcount = count.
                if nbytes < 16 || !(nbytes - 8).is_multiple_of(8) {
                    return Err(PersistError::Corrupt(format!(
                        "bitmap leaf {leaf} has a ragged word array"
                    )));
                }
                let nwords = bitmap::word_count(nbytes);
                if bitmap::get_word(run, 0) & 1 == 0 {
                    return Err(PersistError::Corrupt(format!(
                        "bitmap leaf {leaf} base is not its minimum"
                    )));
                }
                if bitmap::get_word(run, nwords - 1) == 0 {
                    return Err(PersistError::Corrupt(format!(
                        "bitmap leaf {leaf} has a trailing zero word"
                    )));
                }
                if bitmap::count(run, nbytes) != count {
                    return Err(PersistError::Corrupt(format!(
                        "bitmap leaf {leaf} popcount disagrees with its element count"
                    )));
                }
                if head.checked_add((nwords as u64 - 1) * 64 + 63).is_none() {
                    return Err(PersistError::Corrupt(format!(
                        "bitmap leaf {leaf} span wraps around the key space"
                    )));
                }
                prev_max = Some(bitmap::max_elem(run, nbytes));
            } else {
                // Frame the codes by their terminator masks first, since
                // the walk trusts every code it is handed to be whole and
                // at most ten bytes: exactly `count − 1` terminators, the
                // last byte one of them, no ten continue bytes in a row,
                // and a ten-byte code's last byte 0 or 1 (bit 63 alone).
                // Then walk them with the read kernel, each sum above the
                // one before: a zero delta repeats the sum, and a delta
                // that wraps past `u64::MAX` lowers it.
                let stretch = &bytes[leaf * leaf_units..(leaf + 1) * leaf_units];
                if frame_codes(stretch, 8, nbytes) != Some(count - 1) {
                    return Err(PersistError::Corrupt(format!(
                        "leaf {leaf} byte codes do not frame its {} deltas",
                        count - 1
                    )));
                }
                let mut max = head;
                let (ascending, _) = walk_codes(stretch, 8, nbytes, head, |e| {
                    let up = e > max;
                    max = e;
                    up
                });
                if !ascending {
                    return Err(PersistError::Corrupt(format!(
                        "leaf {leaf} deltas are not ascending"
                    )));
                }
                prev_max = Some(max);
            }
        }

        Ok(Self {
            bytes,
            used,
            counts,
            heads,
            tags,
            overflow: (0..num_leaves).map(|_| None).collect(),
            leaf_units,
            policy: ForceCodec::Auto,
        })
    }

    fn with_geometry(num_leaves: usize, leaf_units: usize) -> Self {
        assert!(num_leaves >= 1);
        assert!(leaf_units >= Self::MIN_LEAF_UNITS);
        Self {
            bytes: vec![0u8; num_leaves * leaf_units],
            used: vec![0; num_leaves],
            counts: vec![0; num_leaves],
            heads: vec![0; num_leaves],
            tags: vec![TAG_DELTA; num_leaves],
            overflow: (0..num_leaves).map(|_| None).collect(),
            leaf_units,
            policy: ForceCodec::Auto,
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
        self.used[leaf] as usize
    }

    #[inline]
    fn count(&self, leaf: usize) -> usize {
        self.counts[leaf] as usize
    }

    #[inline]
    fn head(&self, leaf: usize) -> u64 {
        self.heads[leaf]
    }

    #[inline]
    fn is_overflowed(&self, leaf: usize) -> bool {
        self.overflow[leaf].is_some()
    }

    fn size_bytes(&self) -> usize {
        self.bytes.len()
            + self.used.len() * 4
            + self.counts.len() * 4
            + self.heads.len() * 8
            + self.tags.len()
            + self.overflow.len() * std::mem::size_of::<Option<Box<[u64]>>>()
    }

    fn leaf_successor(&self, leaf: usize, key: u64) -> Option<u64> {
        if self.is_bitmap(leaf) {
            let buf = self.leaf_bytes(leaf);
            stats::record_read(buf.len());
            return bitmap::successor_inclusive(buf, buf.len(), key);
        }
        // Delta walks charge the bytes they consumed, not the whole run.
        let mut found = None;
        let (_, end) = self.walk_leaf(leaf, |e| {
            found = (e >= key).then_some(e);
            found.is_none()
        });
        stats::record_read(end);
        found
    }

    fn leaf_contains(&self, leaf: usize, key: u64) -> bool {
        if self.counts[leaf] == 0 {
            return false;
        }
        if self.is_bitmap(leaf) {
            // One base load + one word load.
            let buf = self.leaf_bytes(leaf);
            stats::record_read(16);
            return bitmap::contains(buf, buf.len(), key);
        }
        // Decode only until the running value reaches `key`.
        let mut hit = false;
        let (_, end) = self.walk_leaf(leaf, |e| {
            hit = e == key;
            e < key
        });
        stats::record_read(end);
        hit
    }

    #[inline]
    fn prefetch_leaf(&self, leaf: usize) {
        // Both codecs walk the run front to back. The delta walk reads
        // whole 64-byte blocks from the leaf's start, which need not sit on
        // a line boundary, so its first two blocks span three lines: pull
        // those (`leaf_units ≥ MIN_LEAF_UNITS` keeps them in the leaf).
        let at = leaf * self.leaf_units;
        for line in 0..3 {
            crate::search::prefetch_read(&self.bytes[at + 64 * line]);
        }
    }

    fn leaf_max(&self, leaf: usize) -> Option<u64> {
        // Overflow-aware: the redistribute phase reads neighbours that may
        // still be spilled.
        if let Some(buf) = self.overflow[leaf].as_deref() {
            return buf.last().copied();
        }
        if self.counts[leaf] == 0 {
            return None;
        }
        if self.is_bitmap(leaf) {
            let buf = self.leaf_bytes(leaf);
            return Some(bitmap::max_elem(buf, buf.len()));
        }
        let mut last = 0;
        self.walk_leaf(leaf, |e| {
            last = e;
            true
        });
        Some(last)
    }

    /// Decodes into `block`. A delta leaf goes through the block walk
    /// (`codec::walk_run`) whole, as one chunk — a block holds any delta
    /// leaf a valid geometry makes. A bitmap leaf is expanded a run of
    /// whole words at a time, as many as the block holds, skipping the
    /// words wholly below `start`.
    fn leaf_chunks<F: FnMut(&[u64]) -> bool>(
        &self,
        leaf: usize,
        start: u64,
        block: &mut ChunkBlock,
        mut f: F,
    ) -> bool {
        if self.is_bitmap(leaf) {
            let buf = self.leaf_bytes(leaf);
            stats::record_read(buf.len());
            return bitmap::chunks_from(buf, buf.len(), start, block, f);
        }
        if self.count(leaf) > CHUNK_KEYS {
            // Only a snapshot can claim a leaf this wide (the largest
            // leaf a capacity gets holds at most 505 codes): hand out a
            // decoded copy.
            let mut all = Vec::with_capacity(self.count(leaf));
            self.collect_leaf(leaf, &mut all);
            let from = all.partition_point(|&e| e < start);
            return all[from..].chunks(CHUNK_KEYS).all(f);
        }
        let mut read = 0;
        let keys = block.fill(|fill| {
            read = self
                .walk_leaf(leaf, |e| {
                    fill.put(e);
                    true
                })
                .1;
        });
        stats::record_read(read);
        let from = match start > self.heads[leaf] {
            true => keys.partition_point(|&e| e < start),
            false => 0,
        };
        from == keys.len() || f(&keys[from..])
    }

    fn collect_leaf(&self, leaf: usize, out: &mut Vec<u64>) {
        if let Some(buf) = self.overflow[leaf].as_deref() {
            out.extend_from_slice(buf);
            return;
        }
        if self.is_bitmap(leaf) {
            let buf = self.leaf_bytes(leaf);
            bitmap::decode_into(buf, buf.len(), out);
            return;
        }
        self.walk_leaf(leaf, |e| {
            out.push(e);
            true
        });
    }

    fn leaf_sum(&self, leaf: usize) -> u64 {
        if self.is_bitmap(leaf) {
            let buf = self.leaf_bytes(leaf);
            stats::record_read(buf.len());
            return bitmap::sum(buf, buf.len());
        }
        let mut sum = 0u64;
        let (_, end) = self.walk_leaf(leaf, |e| {
            sum = sum.wrapping_add(e);
            true
        });
        stats::record_read(end);
        sum
    }

    fn leaf_range_sum(&self, leaf: usize, start: u64, end: u64) -> u64 {
        if self.counts[leaf] == 0 || start >= end {
            return 0;
        }
        if self.is_bitmap(leaf) {
            // Wordwise: masked boundary words, popcount kernels inside.
            let buf = self.leaf_bytes(leaf);
            stats::record_read(buf.len());
            return bitmap::range_sum(buf, buf.len(), start, end);
        }
        let mut acc = 0u64;
        let (_, consumed) = self.walk_leaf(leaf, |e| {
            if e >= start && e < end {
                acc = acc.wrapping_add(e);
            }
            e < end
        });
        stats::record_read(consumed);
        acc
    }

    fn set_codec_policy(&mut self, force: ForceCodec) {
        self.policy = force;
    }

    fn size_run(&self, elems: &[u64], leaf_units: usize) -> RunSize {
        if elems.is_empty() {
            return RunSize::default();
        }
        let hybrid = self.policy != ForceCodec::Delta;
        let (mut leaves, mut units) = (0usize, 0usize);
        let count = |_, u| (leaves, units) = (leaves + 1, units + u);
        let weight = sweep(elems, leaf_units, hybrid, |_, _| false, count);
        RunSize {
            stream: 8 + if hybrid { weight.div_ceil(8) } else { weight } as usize,
            min_leaves: leaves,
            packed: units - 8 * (leaves - 1),
        }
    }

    fn plan_split(&self, elems: &[u64], k: usize, leaf_units: usize) -> Option<Vec<usize>> {
        let hybrid = self.policy != ForceCodec::Delta;
        let total = sweep(elems, usize::MAX, hybrid, |_, _| false, |_, _| {});
        // Spread evenly; where even a spread leaves the tail too much, pack.
        cut(elems, k, leaf_units, hybrid, Some(total))
            .or_else(|| cut(elems, k, leaf_units, hybrid, None))
    }

    /// Bitmap leaves answer each key with one word probe; delta leaves
    /// run one block walk (`codec::walk_run`) merged against the run, stopped
    /// after its last key.
    fn presence<R: Run>(&self, leaf: usize, run: R, out: &mut [bool]) {
        debug_assert_eq!(run.len(), out.len());
        out.fill(false);
        if run.is_empty() || self.counts[leaf] == 0 {
            return;
        }
        if self.is_bitmap(leaf) {
            let buf = self.leaf_bytes(leaf);
            stats::record_read(16 * run.len());
            for (i, hit) in out.iter_mut().enumerate() {
                *hit = bitmap::contains(buf, buf.len(), run.key(i));
            }
            return;
        }
        let mut i = 0;
        let (_, end) = self.walk_leaf(leaf, |e| {
            while run.key(i) < e {
                i += 1;
                if i == run.len() {
                    return false;
                }
            }
            if run.key(i) == e {
                out[i] = true;
                i += 1;
            }
            i < run.len()
        });
        stats::record_read(end);
    }

    fn copy_leaves_from(&mut self, src: &Self, start: usize, end: usize) -> usize {
        debug_assert_eq!(
            (self.num_leaves(), self.leaf_units),
            (src.num_leaves(), src.leaf_units)
        );
        // Between batches no leaf spills, so the spill slots already agree.
        debug_assert!((start..end).all(|l| !self.is_overflowed(l) && !src.is_overflowed(l)));
        let bytes = start * self.leaf_units..end * self.leaf_units;
        self.bytes[bytes.clone()].copy_from_slice(&src.bytes[bytes]);
        self.used[start..end].copy_from_slice(&src.used[start..end]);
        self.counts[start..end].copy_from_slice(&src.counts[start..end]);
        self.heads[start..end].copy_from_slice(&src.heads[start..end]);
        self.tags[start..end].copy_from_slice(&src.tags[start..end]);
        (end - start) * (self.size_bytes() / self.num_leaves())
    }

    fn shared(&mut self) -> CompressedShared<'_> {
        CompressedShared {
            bytes: self.bytes.as_mut_ptr(),
            used: self.used.as_mut_ptr(),
            counts: self.counts.as_mut_ptr(),
            heads: self.heads.as_mut_ptr(),
            tags: self.tags.as_mut_ptr(),
            overflow: self.overflow.as_mut_ptr(),
            leaf_units: self.leaf_units,
            num_leaves: self.counts.len(),
            policy: self.policy,
            _marker: PhantomData,
        }
    }
}

/// Shared-disjoint accessor for [`CompressedLeaves`]; see
/// [`SharedLeaves`] for the safety contract.
pub struct CompressedShared<'a> {
    bytes: *mut u8,
    used: *mut u32,
    counts: *mut u32,
    heads: *mut u64,
    tags: *mut u8,
    overflow: *mut Option<Box<[u64]>>,
    leaf_units: usize,
    num_leaves: usize,
    policy: ForceCodec,
    _marker: PhantomData<&'a mut CompressedLeaves>,
}

impl Clone for CompressedShared<'_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for CompressedShared<'_> {}

// SAFETY: used only under the disjoint-leaf contract of `SharedLeaves`, so
// pointer accesses from different threads never overlap; the six buffers
// outlive 'a and hold plain integers and boxed `u64` slices; `policy` is
// `Copy` data.
unsafe impl Send for CompressedShared<'_> {}
// SAFETY: as for `Send` — shared use from several threads is what the
// disjoint-leaf contract is written for.
unsafe impl Sync for CompressedShared<'_> {}

/// Private helpers.
///
/// # Safety (every method)
/// The caller must hold the disjoint-leaf contract of [`SharedLeaves`] for
/// `leaf`; each helper touches only that leaf's slots. `len ≤ leaf_units`
/// (debug-asserted; `used[leaf]` never exceeds it unless the leaf spilled)
/// keeps every byte slice inside the leaf's own stretch of the byte array.
impl CompressedShared<'_> {
    /// The first `len` bytes of `leaf`'s stretch, to write.
    #[inline]
    #[allow(clippy::mut_from_ref)] // shared-disjoint contract: see trait docs
    unsafe fn leaf_buf(&self, leaf: usize, len: usize) -> &mut [u8] {
        debug_assert!(leaf < self.num_leaves && len <= self.leaf_units);
        // SAFETY: `leaf < num_leaves` and `len ≤ leaf_units` keep the slice
        // inside the byte array and inside `leaf`'s own stretch of it, which
        // the disjoint-leaf contract gives this call alone.
        std::slice::from_raw_parts_mut(self.bytes.add(leaf * self.leaf_units), len)
    }

    /// The first `len` bytes of `leaf`'s stretch, to read.
    #[inline]
    unsafe fn leaf_buf_read(&self, leaf: usize, len: usize) -> &[u8] {
        debug_assert!(leaf < self.num_leaves && len <= self.leaf_units);
        // SAFETY: as in `leaf_buf`; the contract also keeps every writer off
        // the stretch while the slice lives.
        std::slice::from_raw_parts(self.bytes.add(leaf * self.leaf_units), len)
    }

    /// Append the leaf's current elements (from the overflow buffer while
    /// spilled) to `out`.
    #[inline]
    unsafe fn decode_leaf_into(&self, leaf: usize, out: &mut Vec<u64>) {
        // SAFETY: `leaf`'s count, spill, used and tag slots and its stretch,
        // under the caller's contract; a leaf that is not spilled has
        // `used ≤ leaf_units`.
        let cnt = *self.counts.add(leaf) as usize;
        if let Some(buf) = (*self.overflow.add(leaf)).as_deref() {
            out.extend_from_slice(buf);
        } else if cnt > 0 {
            let units = *self.used.add(leaf) as usize;
            if *self.tags.add(leaf) == TAG_BITMAP {
                bitmap::decode_into(self.leaf_buf_read(leaf, units), units, out);
            } else {
                walk_run(self.leaf_buf_read(leaf, self.leaf_units), units, |e| {
                    out.push(e);
                    true
                });
            }
        }
    }

    /// Overwrite `leaf` with `elems`, re-deciding the codec under the
    /// instance policy (with hysteresis against the leaf's current tag).
    /// Spills with delta-based accounting when neither encoding fits.
    #[inline]
    unsafe fn store(&self, leaf: usize, elems: &[u64], inherited_head: u64) -> (usize, bool) {
        // SAFETY (the slot reads and writes below): `leaf`'s five slots and
        // its stretch, under the caller's contract; the stretch is written
        // only on the branch where `units ≤ leaf_units`.
        let was_bitmap = *self.tags.add(leaf) == TAG_BITMAP;
        let had_elems = *self.counts.add(leaf) > 0;
        if elems.is_empty() {
            *self.overflow.add(leaf) = None;
            *self.counts.add(leaf) = 0;
            *self.used.add(leaf) = 0;
            *self.tags.add(leaf) = TAG_DELTA;
            *self.heads.add(leaf) = inherited_head;
            return (0, false);
        }
        let delta_units = encoded_run_len(elems, 8);
        let bitmap_units = bitmap::encoded_len(elems[0], *elems.last().unwrap());
        let (tag, units) = choose_codec(
            self.policy,
            was_bitmap,
            delta_units,
            bitmap_units,
            self.leaf_units,
        );
        if units <= self.leaf_units {
            stats::record_write(units);
            if tag == TAG_BITMAP {
                bitmap::encode_from_sorted(elems, self.leaf_buf(leaf, units));
            } else {
                encode_run(elems, self.leaf_buf(leaf, units));
            }
            *self.overflow.add(leaf) = None;
            *self.counts.add(leaf) = elems.len() as u32;
            *self.used.add(leaf) = units as u32;
            *self.heads.add(leaf) = elems[0];
            *self.tags.add(leaf) = tag;
            let c = stats::codec_counters();
            if tag == TAG_BITMAP {
                c.bitmap_writes.inc();
            } else {
                c.delta_writes.inc();
            }
            if had_elems && was_bitmap != (tag == TAG_BITMAP) {
                c.flips.inc();
            }
            (units, false)
        } else {
            stats::record_write(delta_units);
            *self.overflow.add(leaf) = Some(elems.to_vec().into_boxed_slice());
            *self.counts.add(leaf) = elems.len() as u32;
            *self.used.add(leaf) = delta_units as u32;
            *self.tags.add(leaf) = TAG_DELTA;
            *self.heads.add(leaf) = elems[0];
            (delta_units, true)
        }
    }

    /// May the wordwise path commit a bitmap of `cand_units` bytes holding
    /// `count` elements without consulting the exact delta cost?
    /// `8 + count − 1` lower-bounds any delta run of `count` elements, so
    /// a yes here implies [`Self::store`] would pick the bitmap too — both
    /// paths stay byte-identical.
    #[inline]
    fn commit_wordwise(&self, cand_units: usize, count: usize) -> bool {
        match self.policy {
            ForceCodec::Bitmap => true,
            ForceCodec::Delta => false,
            ForceCodec::Auto => {
                let lb = (8 + count - 1) as f64;
                cand_units as f64 <= bitmap_ratio(true) * lb
            }
        }
    }

    /// Commit a normalized word array wordwise: raw write, no re-encode.
    /// `words` must fit the leaf: `8 + 8 · words.len() ≤ leaf_units`.
    unsafe fn write_bitmap(&self, leaf: usize, base: u64, words: &[u64], count: usize) -> usize {
        let used = bitmap::BASE_BYTES + words.len() * 8;
        debug_assert!(used <= self.leaf_units);
        // SAFETY: `leaf`'s stretch (`used ≤ leaf_units`, the caller's
        // precondition) and slots, under the caller's contract.
        bitmap::write_words(base, words, self.leaf_buf(leaf, used));
        stats::record_write(used);
        *self.overflow.add(leaf) = None;
        *self.counts.add(leaf) = count as u32;
        *self.used.add(leaf) = used as u32;
        *self.heads.add(leaf) = base;
        *self.tags.add(leaf) = TAG_BITMAP;
        stats::codec_counters().bitmap_writes.inc();
        used
    }

    /// Mirror of `store(leaf, &[], head)` for the wordwise paths: an
    /// emptied leaf keeps its old head as the inherited value.
    unsafe fn clear_leaf(&self, leaf: usize) {
        // SAFETY: `leaf`'s slots, under the caller's contract.
        *self.overflow.add(leaf) = None;
        *self.counts.add(leaf) = 0;
        *self.used.add(leaf) = 0;
        *self.tags.add(leaf) = TAG_DELTA;
    }

    /// Wordwise run on a bitmap leaf: widen the span to the run's first
    /// and last insert (rebasing the existing words if it extends
    /// downward), then one pass of set-bit (insert) and clear-bit (remove)
    /// — the OR/ANDNOT three-finger analogue, no delta decode, no
    /// re-encode. Returns `None`, having written nothing, when the widened
    /// span outgrows the leaf: the caller takes the scalar path.
    ///
    /// # Safety
    /// As every helper here; additionally `leaf` must be bitmap-tagged and
    /// not overflowed, so its first `used[leaf]` bytes are a canonical
    /// bitmap (base = minimum, last word non-zero).
    unsafe fn apply_run_wordwise<R: Run>(
        &self,
        leaf: usize,
        run: R,
        scratch: &mut LeafScratch,
    ) -> Option<OpsOutcome> {
        // SAFETY: `leaf`'s slots and stretch, under the caller's contract;
        // not spilled, so `used ≤ leaf_units`. `buf` is last read before
        // the leaf is written (`clear_leaf`, `write_bitmap`, `store`), and
        // `write_bitmap` gets words that fit: the span was checked against
        // `leaf_units` on widening, and removes and `normalize` only
        // shrink it.
        let old_units = *self.used.add(leaf) as usize;
        let old_count = *self.counts.add(leaf) as usize;
        let buf = self.leaf_buf_read(leaf, old_units);
        let mut base = bitmap::base_of(buf);
        let LeafScratch {
            words,
            old_words,
            merged,
            ..
        } = scratch;
        match run.insert_span() {
            // Removes alone cannot widen the span: edit the words in place.
            None => bitmap::read_words(buf, old_units, words),
            Some((lo, hi)) => {
                let new_base = base.min(lo);
                let new_max = bitmap::max_elem(buf, old_units).max(hi);
                if bitmap::encoded_len(new_base, new_max) > self.leaf_units {
                    return None;
                }
                bitmap::read_words(buf, old_units, old_words);
                words.clear();
                words.resize(bitmap::span_words(new_base, new_max), 0);
                bitmap::or_shifted(old_words, base - new_base, words);
                base = new_base;
            }
        }
        let span_bits = (words.len() as u64) * 64;
        let (mut added, mut removed) = (0usize, 0usize);
        for i in 0..run.len() {
            let k = run.key(i);
            if run.is_insert(i) {
                added += usize::from(bitmap::set_bit(words, k - base));
            } else if k >= base && k - base < span_bits {
                removed += usize::from(bitmap::clear_bit(words, k - base));
            }
        }
        if added == 0 && removed == 0 {
            return Some(OpsOutcome::default());
        }
        let outcome = |new_units: usize, overflowed| OpsOutcome {
            added,
            removed,
            delta_units: new_units as isize - old_units as isize,
            overflowed,
        };
        let count = old_count + added - removed;
        if count == 0 {
            self.clear_leaf(leaf);
            return Some(outcome(0, false));
        }
        base += bitmap::normalize(words);
        let cand_units = bitmap::BASE_BYTES + words.len() * 8;
        if self.commit_wordwise(cand_units, count) {
            return Some(outcome(self.write_bitmap(leaf, base, words, count), false));
        }
        // Uncertain winner: materialize and let `store` decide exactly.
        words_into_elems(base, words, merged);
        let (new_units, overflowed) = self.store(leaf, merged, *self.heads.add(leaf));
        Some(outcome(new_units, overflowed))
    }

    /// Fused run on a delta leaf: the reference's point insert into a leaf
    /// (walk the byte codes to the spot, re-encode what changed, shift the
    /// rest) generalised to a run, in one pass and with no element vector.
    ///
    /// Every decode is the read kernel's block walk, in the form that also
    /// says where each code ends ([`walk_codes_at`]); one walk visits the
    /// stored elements in order ([`Splice`]). An element below the next op
    /// whose predecessor stays costs one compare: its code joins the
    /// current *verbatim stretch*. At the first op — the splice point —
    /// and at every later one, the stretch so far is copied into a stack
    /// buffer as it stands, the ops up to the element are merged in and
    /// the element is re-encoded against its new predecessor (as is the
    /// element after a removed one). Once the run is spent the walk stops
    /// and the rest of the leaf is one last stretch (walked again only to
    /// learn the maximum, and only while a bitmap could still fit). The
    /// encoder writes only shortest codes, so the bytes are those of
    /// re-encoding every merged element.
    /// The exact encoded size and the bitmap size of the result then go to
    /// the [`choose_codec`] call [`Self::store`] makes, and the buffer is
    /// committed with one copy iff it answers "delta, fits". Returns
    /// `None`, having written nothing, on any other answer — the result
    /// outgrows the leaf (detected the moment the emitted length passes
    /// the capacity), flips to the bitmap codec or is empty: the caller
    /// takes the general path. A run that changes nothing returns the
    /// default outcome, bytes untouched.
    ///
    /// # Safety
    /// As every helper here; additionally `leaf` must be delta-tagged,
    /// non-empty and not overflowed, so its first `used[leaf]` bytes are a
    /// raw head followed by whole byte codes, and `leaf_units` must not
    /// exceed [`FUSED_MAX_UNITS`].
    unsafe fn apply_run_fused<R: Run>(&self, leaf: usize, run: R) -> Option<OpsOutcome> {
        // SAFETY: `leaf`'s slots and its whole stretch, under the caller's
        // contract. `stretch` is last read before the commit overwrites
        // the leaf, which writes `units ≤ cap` bytes.
        let cap = self.leaf_units;
        let old_units = *self.used.add(leaf) as usize;
        debug_assert!(*self.tags.add(leaf) == TAG_DELTA && (*self.overflow.add(leaf)).is_none());
        debug_assert!(cap <= FUSED_MAX_UNITS && (8..=cap).contains(&old_units));
        // The whole stretch, so the walks below read the last block in
        // place.
        let stretch = self.leaf_buf_read(leaf, cap);
        let src = &stretch[..old_units];
        let head = u64::from_le_bytes(src[..8].try_into().unwrap());

        // One walk visits the stored elements in order, with where each
        // one's code ends; it stops once the run is spent.
        let mut m = Splice {
            src,
            cap,
            run,
            j: 0,
            added: 0,
            removed: 0,
            out: DeltaWriter::new(),
            copy: Some(0),
            last: head,
            end: 0,
            bound: run.key(0),
            overflow: false,
        };
        let finished = m.visit(head, 8)
            && walk_codes_at(
                stretch,
                8,
                old_units,
                head,
                #[inline(always)]
                |e, end| m.visit(e, end),
            )
            .0;
        let Splice {
            j,
            mut added,
            removed,
            mut out,
            copy,
            last,
            overflow,
            ..
        } = m;
        if overflow {
            return None;
        }
        if finished {
            // Every stored element was visited: the last stretch is copied
            // and the rest of the run's inserts append.
            if let Some(copy) = copy {
                if out.len + (old_units - copy) > cap {
                    return None;
                }
                out.copy(&src[copy..], last);
            }
            for j in j..run.len() {
                if run.is_insert(j) {
                    out.push(run.key(j));
                    added += 1;
                    if out.len > cap {
                        return None;
                    }
                }
            }
        }
        if added == 0 && removed == 0 {
            return Some(OpsOutcome::default());
        }
        let max = if finished {
            if out.len == 0 {
                return None; // emptied: `store` owns the canonical empty form
            }
            out.last
        } else {
            // The run is spent: the rest is a copy. The bitmap size needs
            // the maximum, which only a walk of the copied codes gives —
            // unless the span up to here already outgrows the leaf: the
            // size only grows with the maximum, and `choose_codec` answers
            // alike for every size past `cap`.
            let copy = copy.expect("a walk stops on a verbatim rest");
            if out.len + (old_units - copy) > cap {
                return None;
            }
            let mut max = last;
            if bitmap::encoded_len(out.first, max) <= cap {
                walk_codes(stretch, copy, old_units, max, |e| {
                    max = e;
                    true
                });
            }
            out.copy(&src[copy..], max);
            max
        };
        let bitmap_units = bitmap::encoded_len(out.first, max);
        if choose_codec(self.policy, false, out.len, bitmap_units, cap) != (TAG_DELTA, out.len) {
            return None;
        }
        let units = out.len;
        debug_assert!(units <= cap);
        self.leaf_buf(leaf, units)
            .copy_from_slice(&out.buf[..units]);
        stats::record_write(units);
        *self.counts.add(leaf) = (*self.counts.add(leaf) as usize + added - removed) as u32;
        *self.used.add(leaf) = units as u32;
        *self.heads.add(leaf) = out.first;
        stats::codec_counters().delta_writes.inc();
        Some(OpsOutcome {
            added,
            removed,
            delta_units: units as isize - old_units as isize,
            overflowed: false,
        })
    }

    /// The general path: decode (or read the spill buffer) → three-finger
    /// merge → [`Self::store`]. Takes a leaf in any state.
    unsafe fn apply_run_general<R: Run>(
        &self,
        leaf: usize,
        run: R,
        scratch: &mut LeafScratch,
    ) -> OpsOutcome {
        stats::leaf_counters().general_runs.inc();
        // SAFETY: `leaf`'s slots, and the helpers' own contract for
        // `leaf`, under the caller's; the decode copies the leaf out into
        // `scratch` before `store` overwrites it.
        let old_units = *self.used.add(leaf) as usize;
        scratch.cur.clear();
        self.decode_leaf_into(leaf, &mut scratch.cur);
        let (added, removed) = apply_run_into(&scratch.cur, run, &mut scratch.merged);
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
}

/// Output side of the fused kernel: a delta run built in a stack buffer.
struct DeltaWriter {
    buf: [u8; FUSED_BUF],
    /// Bytes emitted; 0 iff no element has been.
    len: usize,
    /// First and last element emitted (meaningless while `len == 0`).
    first: u64,
    last: u64,
}

impl DeltaWriter {
    #[inline]
    fn new() -> Self {
        Self {
            buf: [0; FUSED_BUF],
            len: 0,
            first: 0,
            last: 0,
        }
    }

    /// Append `v` (above everything emitted). The caller checks `len`
    /// against its capacity after each call, which keeps the one code
    /// written here inside the `MAX_VARINT_BYTES` of slack.
    #[inline]
    fn push(&mut self, v: u64) {
        if self.len == 0 {
            self.buf[..8].copy_from_slice(&v.to_le_bytes());
            self.len = 8;
            self.first = v;
        } else {
            debug_assert!(v > self.last);
            self.len += write_varint(v - self.last, &mut self.buf[self.len..]);
        }
        self.last = v;
    }

    /// Append a stretch of a leaf's encoded bytes that continues what was
    /// emitted (or, while nothing was, starts at the leaf's head), the
    /// last of them ending on the element `last`. The caller checks the
    /// capacity first.
    #[inline]
    fn copy(&mut self, bytes: &[u8], last: u64) {
        if self.len == 0 {
            self.first = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self.last = last;
    }
}

/// The fused kernel's merge, fed a delta leaf's stored elements in order.
/// Between ops the leaf's codes are copied verbatim, a stretch at a time;
/// around an op the elements are re-encoded into the output.
struct Splice<'a, R> {
    src: &'a [u8],
    cap: usize,
    run: R,
    /// The next op, and what the ops so far did.
    j: usize,
    added: usize,
    removed: usize,
    out: DeltaWriter,
    /// Where the stretch of codes copied verbatim starts; `None` while the
    /// next element must be re-encoded, its predecessor having been
    /// removed.
    copy: Option<usize>,
    /// The element last visited, and where its code ends.
    last: u64,
    end: usize,
    /// The least element [`Self::merge`] must see: the next op's key, or 0
    /// while an element must be re-encoded.
    bound: u64,
    /// The output passed the capacity: the kernel declines.
    overflow: bool,
}

impl<R: Run> Splice<'_, R> {
    /// Visit stored element `e`, whose code ends at `end`. Returns `false`
    /// to stop the walk: the output passed the capacity, or the run is
    /// spent and the rest of the leaf is one verbatim stretch.
    #[inline(always)]
    fn visit(&mut self, e: u64, end: usize) -> bool {
        // Below the next op, after an element that stays: the code joins
        // the verbatim stretch.
        if e < self.bound {
            self.last = e;
            self.end = end;
            return true;
        }
        self.merge(e, end)
    }

    /// [`Self::visit`] for an element that an op reaches or whose
    /// predecessor was removed: the stretch before it is copied, and the
    /// ops up to it and the element itself are encoded into the output.
    #[inline(never)]
    fn merge(&mut self, e: u64, end: usize) -> bool {
        let n = self.run.len();
        if self.j < n && self.run.key(self.j) <= e {
            if let Some(copy) = self.copy {
                let upto = self.end;
                if self.out.len + (upto - copy) > self.cap {
                    self.overflow = true;
                    return false;
                }
                if upto > copy {
                    self.out.copy(&self.src[copy..upto], self.last);
                }
            }
            let mut kept = true;
            while self.j < n && self.run.key(self.j) <= e {
                let k = self.run.key(self.j);
                let present = k == e;
                if self.run.is_insert(self.j) {
                    self.out.push(k);
                    self.added += usize::from(!present);
                } else {
                    self.removed += usize::from(present);
                }
                kept &= !present;
                self.j += 1;
                if self.out.len > self.cap {
                    self.overflow = true;
                    return false;
                }
            }
            if kept {
                self.out.push(e);
            }
            self.copy = kept.then_some(end);
        } else {
            debug_assert!(self.copy.is_none());
            self.out.push(e);
            self.copy = Some(end);
        }
        self.last = e;
        self.end = end;
        self.bound = match self.copy {
            None => 0,
            Some(_) if self.j < n => self.run.key(self.j),
            Some(_) => u64::MAX,
        };
        self.overflow = self.out.len > self.cap;
        !self.overflow && (self.j < n || self.copy.is_none())
    }
}

impl SharedLeaves for CompressedShared<'_> {
    unsafe fn apply_run<R: Run>(
        &self,
        leaf: usize,
        run: R,
        scratch: &mut LeafScratch,
    ) -> OpsOutcome {
        if run.is_empty() {
            return OpsOutcome::default();
        }
        // SAFETY: the caller holds the disjoint-leaf contract for `leaf`,
        // which is all the slot reads and the helpers below need; the
        // kernels' extra preconditions are the conditions tested here.
        stats::record_read(*self.used.add(leaf) as usize);
        if (*self.overflow.add(leaf)).is_none() {
            if *self.tags.add(leaf) == TAG_BITMAP {
                if let Some(out) = self.apply_run_wordwise(leaf, run, scratch) {
                    return out;
                }
            } else if *self.counts.add(leaf) > 0 && self.leaf_units <= FUSED_MAX_UNITS {
                if let Some(out) = self.apply_run_fused(leaf, run) {
                    stats::leaf_counters().fused_runs.inc();
                    return out;
                }
            }
        }
        self.apply_run_general(leaf, run, scratch)
    }

    #[inline]
    fn prefetch(&self, leaf: usize) {
        // `wrapping_add`: a hint needs an address, not a valid pointer.
        let bytes = self.bytes.wrapping_add(leaf * self.leaf_units);
        for line in 0..self.leaf_units.div_ceil(64) {
            prefetch_read(bytes.wrapping_add(line * 64));
        }
        prefetch_read(self.used.wrapping_add(leaf));
        prefetch_read(self.counts.wrapping_add(leaf));
        prefetch_read(self.heads.wrapping_add(leaf));
        prefetch_read(self.tags.wrapping_add(leaf));
        prefetch_read(self.overflow.wrapping_add(leaf));
    }

    unsafe fn write_leaf(&self, leaf: usize, elems: &[u64], inherited_head: u64) -> usize {
        // SAFETY: the caller's disjoint-leaf contract for `leaf`.
        let (units, overflowed) = self.store(leaf, elems, inherited_head);
        debug_assert!(!overflowed, "leaf {leaf}: the plan's cost is store's");
        units
    }

    unsafe fn collect_leaf(&self, leaf: usize, out: &mut Vec<u64>) {
        // SAFETY: the caller's disjoint-leaf contract for `leaf`.
        stats::record_read(*self.used.add(leaf) as usize);
        self.decode_leaf_into(leaf, out);
    }

    unsafe fn units_used(&self, leaf: usize) -> usize {
        // SAFETY: `leaf`'s used slot, under the caller's contract.
        *self.used.add(leaf) as usize
    }

    unsafe fn count(&self, leaf: usize) -> usize {
        // SAFETY: `leaf`'s count slot, under the caller's contract.
        *self.counts.add(leaf) as usize
    }

    unsafe fn set_inherited_head(&self, leaf: usize, head: u64) {
        // SAFETY: `leaf`'s count and head slots, under the caller's
        // contract.
        debug_assert_eq!(*self.counts.add(leaf), 0);
        *self.heads.add(leaf) = head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::testkit::{apply, contents, ins, rem};
    use crate::run::Inserts;
    use cpma_api::BatchOp::{self, Insert, Remove};
    use cpma_api::BatchSet;

    thread_local! {
        /// Elements visited by planner sweeps on this thread.
        pub(super) static PLANNER_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn store(leaves: usize) -> CompressedLeaves {
        CompressedLeaves::with_geometry(leaves, 256)
    }

    fn delta_store(leaves: usize) -> CompressedLeaves {
        let mut s = store(leaves);
        s.set_codec_policy(ForceCodec::Delta);
        s
    }

    /// Exact hybrid cost of a slice as one leaf (what `store` would use).
    fn hybrid_cost(elems: &[u64]) -> usize {
        if elems.is_empty() {
            return 0;
        }
        encoded_run_len(elems, 8).min(bitmap::encoded_len(elems[0], *elems.last().unwrap()))
    }

    #[test]
    fn merge_roundtrip() {
        let mut s = store(2);
        let elems = vec![100u64, 105, 1000, 1 << 40];
        let out = apply(&mut s, 0, &ins(elems.iter().copied()));
        assert_eq!((out.added, out.removed, out.overflowed), (4, 0, false));
        assert_eq!(s.count(0), 4);
        assert_eq!(s.head(0), 100);
        assert_eq!(s.units_used(0), encoded_run_len(&elems, 8));
        assert_eq!(contents(&s, 0), elems);
        assert!(s.leaf_contains(0, 1000));
        assert!(!s.leaf_contains(0, 101));
        assert_eq!(s.leaf_successor(0, 106), Some(1000));
        assert_eq!(s.leaf_max(0), Some(1 << 40));
        assert_eq!(s.leaf_sum(0), 100 + 105 + 1000 + (1u64 << 40));
    }

    #[test]
    fn overflow_on_oversized_merge() {
        // Forced-delta policy: the dense run must spill instead of
        // flipping to the (much cheaper) bitmap encoding.
        let mut s = delta_store(1);
        // 300 consecutive values: 8 + 299 bytes > 256.
        let big: Vec<u64> = (0..300).collect();
        let out = apply(&mut s, 0, &ins(big.iter().copied()));
        assert!(out.overflowed);
        assert!(s.is_overflowed(0));
        assert_eq!(s.units_used(0), 8 + 299);
        let mut v = Vec::new();
        // SAFETY: disjoint-leaf contract — one thread, one call.
        unsafe { s.shared().collect_leaf(0, &mut v) };
        assert_eq!(v, big);
    }

    #[test]
    fn auto_picks_bitmap_for_dense_and_delta_for_sparse() {
        let mut s = store(2);
        let dense: Vec<u64> = (5000..5300).collect(); // delta 307 B, bitmap 48 B
        let out = apply(&mut s, 0, &ins(dense.iter().copied()));
        assert!(!out.overflowed);
        assert_eq!(out.delta_units, bitmap::encoded_len(5000, 5299) as isize);
        apply(&mut s, 1, &ins((0..20).map(|i| 1 << (20 + i))));
        assert!(s.is_bitmap(0));
        assert!(!s.is_bitmap(1));
        assert_eq!(s.codec_census(), (1, 1));
        assert_eq!(s.units_used(0), bitmap::encoded_len(5000, 5299));
        // Read paths agree with the element set.
        assert_eq!(contents(&s, 0), dense);
        assert!(s.leaf_contains(0, 5123));
        assert!(!s.leaf_contains(0, 4999));
        assert_eq!(s.leaf_successor(0, 5299), Some(5299));
        assert_eq!(s.leaf_successor(0, 5300), None);
        assert_eq!(s.leaf_max(0), Some(5299));
        let naive: u64 = dense.iter().sum();
        assert_eq!(s.leaf_sum(0), naive);
        let naive_rng: u64 = dense.iter().filter(|&&e| (5100..5200).contains(&e)).sum();
        assert_eq!(s.leaf_range_sum(0, 5100, 5200), naive_rng);
    }

    #[test]
    fn forced_bitmap_falls_back_to_delta_on_wide_spans() {
        let mut s = store(1);
        s.set_codec_policy(ForceCodec::Bitmap);
        let sparse: Vec<u64> = (0..10).map(|i| i << 40).collect();
        let out = apply(&mut s, 0, &ins(sparse.iter().copied()));
        assert!(!out.overflowed);
        assert!(!s.is_bitmap(0)); // bitmap would be astronomically large
        assert_eq!(contents(&s, 0), sparse);
    }

    /// One row of [`apply_run_table`]: `run` applied to a leaf holding
    /// `seed`, and what must come out.
    #[derive(Default)]
    struct Row {
        name: &'static str,
        seed: Vec<u64>,
        run: Vec<BatchOp<u64>>,
        /// `(added, removed)`.
        counts: (usize, usize),
        want: Vec<u64>,
        /// Head afterwards (the old head survives an emptied leaf).
        head: u64,
        /// The fused kernel declines the run (the general path takes it).
        declines: bool,
        /// The result fits neither encoding and spills.
        spills: bool,
        /// Under `Auto` the leaf starts delta-coded and the run makes the
        /// bitmap cheaper: the fused kernel declines there (only there)
        /// and the general path flips the codec.
        flips: bool,
    }

    /// The whole storage as the snapshot would write it.
    fn payload(s: &CompressedLeaves) -> Vec<u8> {
        let mut out = Vec::new();
        s.write_payload(&mut out);
        out
    }

    /// `a` and `b` hold the same leaves: byte-identical payloads, or —
    /// a spilled leaf has no payload form — equal spill state and contents.
    fn assert_same_storage(a: &CompressedLeaves, b: &CompressedLeaves, what: &str) {
        assert_eq!(a.is_overflowed(0), b.is_overflowed(0), "{what}");
        if a.is_overflowed(0) {
            assert_eq!(contents(a, 0), contents(b, 0), "{what}");
            assert_eq!(
                (a.count(0), a.units_used(0), a.head(0), a.is_bitmap(0)),
                (b.count(0), b.units_used(0), b.head(0), b.is_bitmap(0)),
                "{what}"
            );
        } else {
            assert!(payload(a) == payload(b), "{what}: payloads differ");
        }
    }

    fn flips() -> u64 {
        stats::codec_counters().flips.value()
    }

    /// 42 keys 2³⁵ apart: a 254-byte delta leaf (8 + 41 six-byte codes)
    /// whose span no bitmap can hold — two bytes short of a 256-byte leaf.
    fn wide() -> Vec<u64> {
        (0..42u64).map(|i| i << 35).collect()
    }

    /// The same run through a bitmap leaf (wordwise kernel) or an `Auto`
    /// delta leaf, and through a forced-delta leaf (fused kernel), must
    /// produce identical element sets and counts, with unit accounting
    /// that matches the stored encoding — and whichever kernel
    /// `apply_run` picks must leave exactly what the general path leaves:
    /// equal outcome, byte-identical payload.
    #[test]
    fn apply_run_table() {
        const G: u64 = 1 << 20;
        let sparse = || vec![10 * G, 20 * G, 30 * G, 40 * G];
        let rows = [
            Row {
                name: "sparse union accumulates",
                seed: vec![10, 30],
                run: ins([10, 20, 40]),
                counts: (2, 0),
                want: vec![10, 20, 30, 40],
                head: 10,
                ..Row::default()
            },
            Row {
                name: "union extends the base downward",
                seed: (1000..1150).collect(),
                run: ins((900..1100).step_by(3)),
                counts: (34, 0),
                want: (900..1000).step_by(3).chain(1000..1150).collect(),
                head: 900,
                ..Row::default()
            },
            Row {
                name: "removing the low block renormalizes the base",
                seed: (640..940).collect(),
                run: rem(600..768),
                counts: (0, 128),
                want: (768..940).collect(),
                head: 768,
                ..Row::default()
            },
            Row {
                name: "removing everything keeps the head as inherited value",
                seed: (768..940).collect(),
                run: rem(0..1000),
                counts: (0, 172),
                want: vec![],
                head: 768,
                declines: true,
                ..Row::default()
            },
            Row {
                name: "mixed run: one pass of set and clear",
                seed: (2000..2200).collect(),
                run: vec![
                    Insert(1990), // extends span downward
                    Remove(2000),
                    Insert(2100), // already present: no-op
                    Remove(2199),
                    Remove(5000), // absent: no-op
                ],
                counts: (1, 2),
                want: std::iter::once(1990).chain(2001..2199).collect(),
                head: 1990,
                ..Row::default()
            },
            Row {
                name: "span outgrows the leaf: wordwise hands over to scalar",
                seed: (0..200).collect(),
                run: vec![Remove(5), Insert(1 << 30)],
                counts: (1, 1),
                want: (0..5).chain(6..200).chain([1 << 30]).collect(),
                head: 0,
                ..Row::default()
            },
            Row {
                name: "key below the head",
                seed: sparse(),
                run: ins([5 * G]),
                counts: (1, 0),
                want: vec![5 * G, 10 * G, 20 * G, 30 * G, 40 * G],
                head: 5 * G,
                ..Row::default()
            },
            Row {
                name: "key above the maximum",
                seed: sparse(),
                run: ins([50 * G]),
                counts: (1, 0),
                want: vec![10 * G, 20 * G, 30 * G, 40 * G, 50 * G],
                head: 10 * G,
                ..Row::default()
            },
            Row {
                name: "remove the head",
                seed: sparse(),
                run: rem([10 * G]),
                counts: (0, 1),
                want: vec![20 * G, 30 * G, 40 * G],
                head: 20 * G,
                ..Row::default()
            },
            Row {
                name: "remove the last",
                seed: sparse(),
                run: rem([40 * G]),
                counts: (0, 1),
                want: vec![10 * G, 20 * G, 30 * G],
                head: 10 * G,
                ..Row::default()
            },
            Row {
                name: "remove every key",
                seed: sparse(),
                run: rem(sparse()),
                counts: (0, 4),
                want: vec![],
                head: 10 * G,
                declines: true,
                ..Row::default()
            },
            Row {
                name: "duplicate-only run",
                seed: sparse(),
                run: ins([20 * G, 30 * G]),
                counts: (0, 0),
                want: sparse(),
                head: 10 * G,
                ..Row::default()
            },
            Row {
                name: "absent-remove-only run",
                seed: sparse(),
                run: rem([5 * G, 15 * G, 45 * G]),
                counts: (0, 0),
                want: sparse(),
                head: 10 * G,
                ..Row::default()
            },
            Row {
                name: "ten-byte code split between 0 and u64::MAX",
                seed: vec![0, u64::MAX],
                run: ins([1 << 63]),
                counts: (1, 0),
                want: vec![0, 1 << 63, u64::MAX],
                head: 0,
                ..Row::default()
            },
            Row {
                name: "neighbours 0 and u64::MAX arrive around one key",
                seed: vec![1 << 63],
                run: vec![Insert(0), Remove(1 << 63), Insert(u64::MAX)],
                counts: (2, 1),
                want: vec![0, u64::MAX],
                head: 0,
                ..Row::default()
            },
            Row {
                name: "run longer than the leaf's contents",
                seed: vec![10 * G, 20 * G],
                run: (1..=24)
                    .map(|i| {
                        if i % 5 == 0 {
                            Remove(i * G)
                        } else {
                            Insert(i * G)
                        }
                    })
                    .collect(),
                counts: (20, 2),
                want: (1..=24).filter(|i| i % 5 != 0).map(|i| i * G).collect(),
                head: G,
                ..Row::default()
            },
            Row {
                name: "appended key fills the leaf to exactly leaf_units",
                seed: wide(),
                run: ins([(41 << 35) + 1000]), // two-byte code: 256 B
                counts: (1, 0),
                want: wide().into_iter().chain([(41 << 35) + 1000]).collect(),
                head: 0,
                ..Row::default()
            },
            Row {
                name: "mid-leaf key fills the leaf to exactly leaf_units",
                seed: wide(),
                // A six-byte code becomes a three- and a five-byte one.
                run: ins([(7 << 35) + 20_000]),
                counts: (1, 0),
                want: {
                    let mut w = wide();
                    w.insert(8, (7 << 35) + 20_000);
                    w
                },
                head: 0,
                ..Row::default()
            },
            Row {
                name: "appended key makes leaf_units + 1: spills",
                seed: wide(),
                run: ins([(41 << 35) + 20_000]), // three-byte code: 257 B
                counts: (1, 0),
                want: wide().into_iter().chain([(41 << 35) + 20_000]).collect(),
                head: 0,
                declines: true,
                spills: true,
                ..Row::default()
            },
            Row {
                name: "mid-leaf key makes leaf_units + 1: spills",
                seed: wide(),
                // Six bytes become four and five.
                run: ins([(7 << 35) + 3_000_000]),
                counts: (1, 0),
                want: {
                    let mut w = wide();
                    w.insert(8, (7 << 35) + 3_000_000);
                    w
                },
                head: 0,
                declines: true,
                spills: true,
                ..Row::default()
            },
            Row {
                name: "filling the holes makes the bitmap cheaper: codec flips",
                // 27 B of deltas against a 32 B bitmap; filled in, 198 B
                // of deltas against the same 32 B.
                seed: (0..20).map(|i| 5000 + i * 10).collect(),
                run: ins((5000..=5190).filter(|k| k % 10 != 0)),
                counts: (171, 0),
                want: (5000..=5190).collect(),
                head: 5000,
                flips: true,
                ..Row::default()
            },
        ];
        // What `store` decides for a fresh (delta-tagged) leaf under `Auto`.
        let auto_picks_bitmap = |e: &[u64]| {
            e.len() > 2
                && 16 * bitmap::encoded_len(e[0], *e.last().unwrap()) <= 15 * encoded_run_len(e, 8)
        };
        for row in &rows {
            let n = row.name;
            for (mut s, auto) in [(store(1), true), (delta_store(1), false)] {
                apply(&mut s, 0, &ins(row.seed.iter().copied()));
                // Dense seeds must actually exercise the wordwise kernel.
                assert_eq!(s.is_bitmap(0), auto && auto_picks_bitmap(&row.seed), "{n}");
                let units_before = s.units_used(0);
                let flips_before = flips();

                // Which kernel is in front, and does it take the run?
                let mut general = s.clone();
                if !s.is_bitmap(0) && !s.is_overflowed(0) {
                    let mut probe = s.clone();
                    // SAFETY: disjoint-leaf contract of `SharedLeaves` —
                    // one thread, `probe` is its own storage; the seed
                    // leaf is delta-tagged, non-empty, not spilled, 256 B.
                    let took = unsafe { probe.shared().apply_run_fused(0, row.run.as_slice()) };
                    assert_eq!(took.is_none(), row.declines || (row.flips && auto), "{n}");
                    if took.is_none() {
                        assert!(payload(&probe) == payload(&s), "{n}: a declined run wrote");
                    }
                }
                let out = apply(&mut s, 0, &row.run);
                // SAFETY: disjoint-leaf contract of `SharedLeaves` — one
                // thread, `general` is its own storage.
                let via_general = unsafe {
                    general.shared().apply_run_general(
                        0,
                        row.run.as_slice(),
                        &mut LeafScratch::new(),
                    )
                };
                assert_eq!(via_general, out, "{n}: general path disagrees");
                assert_same_storage(&s, &general, n);

                assert_eq!((out.added, out.removed), row.counts, "{n}");
                assert_eq!(out.overflowed, row.spills, "{n}");
                assert_eq!(s.is_overflowed(0), row.spills, "{n}");
                assert_eq!(contents(&s, 0), row.want, "{n}");
                assert_eq!((s.count(0), s.head(0)), (row.want.len(), row.head), "{n}");
                let cost = if row.want.is_empty() {
                    0
                } else if auto {
                    hybrid_cost(&row.want)
                } else {
                    encoded_run_len(&row.want, 8)
                };
                assert_eq!(s.units_used(0), cost, "{n}");
                assert_eq!(
                    out.delta_units,
                    cost as isize - units_before as isize,
                    "{n}"
                );
                if row.flips && auto {
                    assert!(s.is_bitmap(0), "{n}");
                    // Process-global and other tests flip too: a floor.
                    assert!(flips() > flips_before, "{n}: cpma.codec.flips");
                }
            }
        }
    }

    /// Apply `ops` to leaf 0 of clones of `s`, through `apply_run` and
    /// through the general path: equal outcomes, the same storage after.
    /// Returns whether the fused kernel takes the run, or `None` where the
    /// leaf is not one it may be handed (bitmap, spilled or empty); a run
    /// it declines must have written nothing.
    fn assert_matches_general(
        s: &CompressedLeaves,
        ops: &[BatchOp<u64>],
        what: &str,
    ) -> Option<bool> {
        let took = (!s.is_bitmap(0) && !s.is_overflowed(0) && s.count(0) > 0).then(|| {
            let mut probe = s.clone();
            // SAFETY: disjoint-leaf contract of `SharedLeaves` — one
            // thread, `probe` is its own storage; its leaf was just checked
            // delta-tagged, non-empty and not spilled, and every storage
            // here has `leaf_units ≤ FUSED_MAX_UNITS`.
            let took = unsafe { probe.shared().apply_run_fused(0, ops) }.is_some();
            assert!(
                took || payload(&probe) == payload(s),
                "{what}: a declined run wrote"
            );
            took
        });
        let (mut picked, mut general) = (s.clone(), s.clone());
        let mut scratch = LeafScratch::new();
        // SAFETY: as above — one thread, separate storages; the general
        // path takes a leaf in any state.
        let (out, via_general) = unsafe {
            (
                picked.shared().apply_run(0, ops, &mut scratch),
                general.shared().apply_run_general(0, ops, &mut scratch),
            )
        };
        assert_eq!(out, via_general, "{what}: general path disagrees");
        assert_same_storage(&picked, &general, what);
        took
    }

    /// Seeded property: on random delta leaves (gaps from one bit to the
    /// whole key space, `0` and `u64::MAX` included) × random mixed runs
    /// of 1–64 ops, whatever kernel `apply_run` picks leaves what the
    /// general path leaves — equal outcome, byte-identical payload — under
    /// both the forced-delta and the `Auto` policy.
    #[test]
    fn kernels_match_the_general_path_on_random_leaves() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move || {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut delta_cases, mut fused_took, mut fused_declined) = (0u32, 0u32, 0u32);
        let mut case = 0u64;
        while delta_cases < 10_000 {
            case += 1;
            let mut s = if case.is_multiple_of(2) {
                store(1)
            } else {
                delta_store(1)
            };
            // The leaf: up to 48 keys, gaps below 2^bits.
            let bits = [1u32, 3, 7, 14, 21, 35, 56, 63][(rnd() % 8) as usize];
            let mut elems = vec![match rnd() % 4 {
                0 => 0,
                1 => u64::MAX - (rnd() >> 8),
                _ => rnd() >> (rnd() % 64),
            }];
            for _ in 0..rnd() % 48 {
                let gap = 1 + (rnd() & ((1u64 << bits) - 1));
                match elems.last().unwrap().checked_add(gap) {
                    Some(e) => elems.push(e),
                    None => {
                        elems.push(u64::MAX);
                        elems.dedup();
                        break;
                    }
                }
            }
            // SAFETY: disjoint-leaf contract of `SharedLeaves` — one
            // thread, `s` is its own one-leaf storage.
            unsafe {
                s.shared()
                    .apply_run(0, Inserts::new(&elems), &mut LeafScratch::new())
            };
            // The run: keys on, next to and between the stored ones, and
            // the ends of the key space.
            let (lo, hi) = (elems[0], *elems.last().unwrap());
            let mut ops: Vec<BatchOp<u64>> = (0..1 + rnd() % 64)
                .map(|_| {
                    let near = elems[(rnd() % elems.len() as u64) as usize];
                    let key = match rnd() % 8 {
                        0 => near,
                        1 => near.saturating_add(1),
                        2 => near.saturating_sub(1),
                        3 => lo + rnd() % (hi - lo).saturating_add(1),
                        4 => lo.saturating_sub(1 + rnd() % 300),
                        5 => hi.saturating_add(1 + rnd() % 300),
                        6 => [0, u64::MAX][(rnd() % 2) as usize],
                        _ => rnd() >> (rnd() % 64),
                    };
                    if rnd() % 3 == 0 {
                        Remove(key)
                    } else {
                        Insert(key)
                    }
                })
                .collect();
            ops.sort_by_key(|op| op.key());
            ops.dedup_by_key(|op| op.key());

            let what = format!("case {case}: {elems:?} <- {ops:?}");
            match assert_matches_general(&s, &ops, &what) {
                Some(true) => fused_took += 1,
                Some(false) => fused_declined += 1,
                None => continue,
            }
            delta_cases += 1;
        }
        // Both answers of the fused kernel were exercised, many times.
        assert!(
            fused_took > 5_000 && fused_declined > 100,
            "{fused_took} / {fused_declined}"
        );
    }

    /// The fused kernel's splice search, where the block walk can slip: on
    /// leaves of 256 and 512 (`FUSED_MAX_UNITS`) bytes, the code of the
    /// first element a run reaches straddles a 64-byte block edge at every
    /// offset a 1- to 10-byte code can, after a 1-, 9- or 10-byte code,
    /// with runs that start on, just below and just above it; leaves whose
    /// run ends on the stretch's last byte; one-element leaves; runs wholly
    /// below the head and wholly above the maximum. Every case leaves what
    /// the general path leaves, under both the forced-delta and the `Auto`
    /// policy.
    #[test]
    fn splice_search_matches_the_general_path_at_block_edges() {
        // The smallest gap whose code takes `len` bytes, plus one.
        let gap = |len: u32| 1 + if len == 1 { 1 } else { 1u64 << (7 * (len - 1)) };
        let leaf = |units: usize, policy: ForceCodec, elems: &[u64]| {
            let mut s = CompressedLeaves::with_geometry(1, units);
            s.set_codec_policy(policy);
            apply(&mut s, 0, &ins(elems.iter().copied()));
            assert!(!s.is_overflowed(0) && s.count(0) == elems.len());
            s
        };
        // Runs over `elems` that reach `elems[i]` first.
        let runs_at = |elems: &[u64], i: usize| {
            let (e, last) = (elems[i], *elems.last().unwrap());
            let pred = i.checked_sub(1).map(|p| elems[p]);
            let succ = elems.get(i + 1).copied();
            let mut runs = vec![ins([e]), rem([e])];
            if e < last {
                runs.push(vec![Insert(e), Remove(last)]);
            }
            if last < u64::MAX {
                runs.push(vec![Remove(e), Insert(last + 1)]);
            }
            if pred.map_or(e > 0, |p| p + 1 < e) {
                runs.push(ins([e - 1]));
                runs.push(vec![Insert(e - 1), Remove(e)]);
            }
            if succ.is_some_and(|s| e + 1 < s) {
                runs.push(vec![Remove(e), Insert(e + 1)]);
            }
            if let Some(s) = succ {
                runs.push(vec![Insert(e), Remove(s)]);
            }
            runs
        };
        let (mut cases, mut fused) = (0u32, 0u32);
        let mut check = |s: &CompressedLeaves, run: &[BatchOp<u64>], what: &str| {
            cases += 1;
            fused += u32::from(assert_matches_general(s, run, what) == Some(true));
        };
        for units in [256, FUSED_MAX_UNITS] {
            for policy in [ForceCodec::Delta, ForceCodec::Auto] {
                // The splice code of `len` bytes starts `lead` bytes before
                // a block edge (`lead == 0`: on it; `lead == len`: it ends
                // just below it), after a code of `before` bytes.
                for edge in [64, units - 64] {
                    for before in [1, 9, 10] {
                        for len in 1..=10u32 {
                            if before + len == 20 {
                                continue; // two ten-byte gaps pass u64::MAX
                            }
                            for lead in 0..=len as usize {
                                let ones = edge - lead - 8 - before as usize;
                                let lens =
                                    std::iter::repeat_n(1, ones).chain([before, len, 2, 1, 3]);
                                let elems: Vec<u64> = std::iter::once(1000)
                                    .chain(lens.scan(1000, |e, l| {
                                        *e += gap(l);
                                        Some(*e)
                                    }))
                                    .collect();
                                let s = leaf(units, policy, &elems);
                                let at = ones + 2;
                                for run in
                                    runs_at(&elems, at).iter().chain(&runs_at(&elems, at - 1))
                                {
                                    let what = format!(
                                        "{units} B {policy:?}: {len}-byte code {lead} B before \
                                         {edge} after a {before}-byte one <- {run:?}"
                                    );
                                    check(&s, run, &what);
                                }
                            }
                        }
                        // The run ends on the stretch's last byte: the
                        // splice code is the last one.
                        for len in (1..=10u32).filter(|&l| before + l < 20) {
                            let ones = units - 8 - (before + len) as usize;
                            let lens = std::iter::repeat_n(1, ones).chain([before, len]);
                            let elems: Vec<u64> = std::iter::once(1000)
                                .chain(lens.scan(1000, |e, l| {
                                    *e += gap(l);
                                    Some(*e)
                                }))
                                .collect();
                            let s = leaf(units, policy, &elems);
                            assert!(s.is_bitmap(0) || s.units_used(0) == units);
                            for at in [ones + 1, ones + 2] {
                                for run in runs_at(&elems, at) {
                                    let what = format!(
                                        "{units} B {policy:?}: full leaf, last codes {before} \
                                         and {len} B <- {run:?}"
                                    );
                                    check(&s, &run, &what);
                                }
                            }
                        }
                    }
                }
                // One-element leaves, and runs wholly below the head or
                // wholly above the maximum.
                for elems in [vec![0], vec![1000], vec![u64::MAX], (1000..1100).collect()] {
                    let s = leaf(units, policy, &elems);
                    let (head, max) = (elems[0], *elems.last().unwrap());
                    let mut runs = runs_at(&elems, 0);
                    if head >= 8 {
                        runs.push(ins([head - 8, head - 5, head - 2]));
                        runs.push(vec![Insert(head - 7), Remove(head - 3), Insert(head - 1)]);
                    }
                    if max <= u64::MAX - 8 {
                        runs.push(vec![Remove(max + 1), Insert(max + 2), Insert(max + 8)]);
                        runs.push(ins([max + 1]));
                    }
                    for run in runs {
                        let what = format!("{units} B {policy:?}: {elems:?} <- {run:?}");
                        check(&s, &run, &what);
                    }
                }
            }
        }
        assert!(
            fused * 2 > cases,
            "the fused kernel took {fused} of {cases}"
        );
    }

    /// The snapshot validator rejects exactly what the byte-serial check
    /// it replaced rejects: one delta leaf, its codes damaged and its
    /// element count moved by one either way, loaded through
    /// `read_payload` and judged by the serial loop.
    #[test]
    fn validator_rejects_what_the_serial_check_rejects() {
        use crate::codec::tests::checked_varint;
        let serial_accepts = |run: &[u8], count: usize| {
            let mut cur = u64::from_le_bytes(run[..8].try_into().unwrap());
            let mut pos = 8;
            for _ in 1..count {
                let Some(delta) = checked_varint(run, &mut pos) else {
                    return false;
                };
                match cur.checked_add(delta).filter(|_| delta > 0) {
                    Some(next) => cur = next,
                    None => return false,
                }
            }
            pos == run.len()
        };
        let mut x = 0x0DD_BA11u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..3000 {
            let bits = [4u32, 14, 40, 57, 63][case % 5];
            let mut elems = vec![rnd() >> 40];
            while elems.len() < 1 + (rnd() % 40) as usize {
                match elems
                    .last()
                    .unwrap()
                    .checked_add(1 + (rnd() >> (64 - bits)))
                {
                    Some(e) => elems.push(e),
                    None => break,
                }
            }
            let mut s = delta_store(1);
            apply(&mut s, 0, &ins(elems.iter().copied()));
            let mut bytes = payload(&s);
            // One leaf: tag, used, count, head, then its stretch.
            let (count_at, run_at) = (5, 17);
            let used = s.units_used(0);
            if used > 8 {
                for _ in 0..(rnd() % 3) {
                    let at = run_at + 8 + (rnd() as usize) % (used - 8);
                    bytes[at] = match rnd() % 5 {
                        0 => bytes[at] ^ 0x80,
                        1 => 0x80 | bytes[at],
                        2 => 0,
                        3 => 2 + (rnd() % 126) as u8,
                        _ => rnd() as u8,
                    };
                }
            }
            let count = match rnd() % 4 {
                0 => elems.len() + 1,
                1 => elems.len().max(2) - 1,
                _ => elems.len(),
            };
            bytes[count_at..count_at + 4].copy_from_slice(&(count as u32).to_le_bytes());
            let want = serial_accepts(&bytes[run_at..run_at + used], count);
            let got = CompressedLeaves::read_payload(1, 256, &bytes);
            let err = got.as_ref().err();
            assert_eq!(
                got.is_ok(),
                want,
                "case {case}: {elems:?} as {count}: {err:?}"
            );
            if want {
                accepted += 1;
            } else {
                rejected += 1;
                assert!(matches!(got, Err(PersistError::Corrupt(_))), "case {case}");
            }
        }
        assert!(accepted > 300 && rejected > 300, "{accepted} / {rejected}");
    }

    /// Runs that change nothing — every insert present, every remove
    /// absent — report the default outcome and leave the leaf's bytes
    /// alone, on both codecs and through all three views.
    #[test]
    fn noop_runs_do_not_rewrite() {
        for mut s in [store(1), delta_store(1)] {
            apply(&mut s, 0, &ins(2000..2200));
            let before = (s.leaf_bytes(0).to_vec(), s.units_used(0), s.head(0));
            for run in [
                vec![Insert(2100), Remove(7777)],
                ins([2000, 2050, 2199]),
                rem([1, 1999, 2200, 9000]),
                vec![],
            ] {
                assert_eq!(apply(&mut s, 0, &run), OpsOutcome::default());
                assert_eq!(
                    (s.leaf_bytes(0).to_vec(), s.units_used(0), s.head(0)),
                    before
                );
            }
        }
    }

    /// `Auto` breaks even at equal costs, and the band's edges are
    /// inclusive: a delta leaf flips at exactly 15/16 of its delta bytes,
    /// a bitmap leaf stays at exactly 17/16. The forced policies ignore
    /// the band; a bitmap that alone fits wins under `Auto` too.
    #[test]
    fn codec_choice_band_edges() {
        use ForceCodec::{Auto, Bitmap, Delta};
        let cap = 256;
        for (policy, was_bitmap, bitmap_units, want) in [
            (Auto, false, 150, TAG_BITMAP),
            (Auto, false, 151, TAG_DELTA),
            (Auto, true, 170, TAG_BITMAP),
            (Auto, true, 171, TAG_DELTA),
            (Delta, true, 10, TAG_DELTA),
            (Bitmap, false, 250, TAG_BITMAP),
        ] {
            let units = if want == TAG_BITMAP {
                bitmap_units
            } else {
                160
            };
            assert_eq!(
                choose_codec(policy, was_bitmap, 160, bitmap_units, cap),
                (want, units),
                "{policy:?}, was bitmap {was_bitmap}, bitmap {bitmap_units} B vs delta 160 B"
            );
        }
        assert_eq!(choose_codec(Auto, false, 257, 256, cap), (TAG_BITMAP, 256));
        assert_eq!(choose_codec(Bitmap, true, 100, 300, cap), (TAG_DELTA, 100));
    }

    #[test]
    fn hysteresis_damps_codec_flips() {
        // A run whose bitmap/delta cost ratio sits inside the hysteresis
        // band must keep its current encoding in both directions.
        // 101 elements with gap 8: delta = 8 + 100 = 108 B; bitmap spans
        // 801 bits → 8 + 13·8 = 112 B. Ratio ≈ 1.037: inside (15/16, 17/16).
        let run: Vec<u64> = (0..101u64).map(|i| 1000 + i * 8).collect();
        // Fresh leaf (delta-tagged): 15/16 < ratio → stays delta.
        let mut s = store(1);
        apply(&mut s, 0, &ins(run.iter().copied()));
        assert!(!s.is_bitmap(0));
        // Same run written over a bitmap-tagged leaf: 17/16 > ratio →
        // stays bitmap.
        let mut s = store(1);
        apply(&mut s, 0, &ins(1000..1200));
        assert!(s.is_bitmap(0));
        // Overwrite with the borderline run (redistribute path).
        // SAFETY: disjoint-leaf contract — one thread, one call.
        unsafe { s.shared().write_leaf(0, &run, 0) };
        assert!(s.is_bitmap(0));
    }

    /// Fewest 256-byte leaves holding `elems` under `force`: the greedy
    /// maximal-prefix packing (binary search per leaf over the monotone
    /// exact cost, on a prefix array) — the oracle the planner's sweeps
    /// are checked against.
    fn oracle_min_leaves(elems: &[u64], force: ForceCodec) -> usize {
        let mut pre = vec![0usize; elems.len() + 1];
        for i in 1..elems.len() {
            pre[i + 1] = pre[i] + varint_len(elems[i] - elems[i - 1]);
        }
        let exact = |a: usize, b: usize| {
            let delta = 8 + pre[b] - pre[a + 1];
            match force {
                ForceCodec::Delta => delta,
                _ => delta.min(bitmap::encoded_len(elems[a], elems[b - 1])),
            }
        };
        let (mut a, mut leaves) = (0, 0);
        while a < elems.len() {
            let (mut lo, mut hi) = (a + 1, elems.len());
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if exact(a, mid) <= 256 {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            (a, leaves) = (lo, leaves + 1);
        }
        leaves
    }

    /// The planner table: {shape} × k ∈ {1, exact, 3× too small, 3× too
    /// large} × every codec policy. A plan's offsets are monotone and end
    /// at `n`, every slice costs at most a leaf and is written without a
    /// spill; "no fit" is said only when the oracle agrees; sizing counts
    /// the oracle's leaves; nothing depends on the thread budget.
    #[test]
    fn planner_table() {
        use cpma_workloads::{dedup_sorted, uniform_keys, ClusteredKeys, RmatGenerator};
        let clustered = ClusteredKeys::new(256, 1 << 16, 3).sorted(40_000);
        let mut gap: Vec<u64> = (0..500u64).collect();
        gap.extend((0..100u64).map(|i| (1 << 60) + i * 1_000_000_000));
        let shapes: Vec<(&str, Vec<u64>)> = vec![
            ("uniform", dedup_sorted(uniform_keys(20_000, 40, 1))),
            (
                "clustered 42%",
                clustered
                    .iter()
                    .copied()
                    .filter(|k| k * 7 % 100 < 42)
                    .collect(),
            ),
            ("clustered 100%", clustered.clone()),
            (
                "rmat",
                dedup_sorted(RmatGenerator::paper_config(18, 1).directed_edges(30_000)),
            ),
            ("one huge gap", gap),
            ("one dense run", (0..2048u64).collect()),
            ("n < k", vec![5, 10]),
            ("empty", vec![]),
        ];
        let _serial = crate::BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for (shape, elems) in &shapes {
            for force in [ForceCodec::Auto, ForceCodec::Delta, ForceCodec::Bitmap] {
                let mut s = store(1);
                s.set_codec_policy(force);
                let size = s.size_run(elems, 256);
                let exact = oracle_min_leaves(elems, force);
                assert_eq!(size.min_leaves, exact, "{shape} {force:?}");
                let cost = |slice: &[u64]| match force {
                    ForceCodec::Delta => encoded_run_len(slice, 8),
                    _ => hybrid_cost(slice),
                };
                for k in [1, exact.max(1), (exact / 3).max(1), exact.max(1) * 3] {
                    let what = format!("{shape} {force:?} k={k}");
                    let plan = s.plan_split(elems, k, 256);
                    for budget in [1, 2, 8] {
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(budget)
                            .build()
                            .unwrap();
                        assert_eq!(pool.install(|| s.plan_split(elems, k, 256)), plan, "{what}");
                    }
                    let Some(plan) = plan else {
                        assert!(exact > k, "{what}: a {exact}-way fit exists");
                        continue;
                    };
                    assert!(exact <= k, "{what}: planned past the oracle");
                    assert_eq!((plan.len(), plan[0], plan[k]), (k + 1, 0, elems.len()));
                    assert!(plan.windows(2).all(|w| w[0] <= w[1]), "{what}");
                    let mut out = store(k);
                    out.set_codec_policy(force);
                    let mut used = Vec::new();
                    for j in 0..k {
                        let slice = &elems[plan[j]..plan[j + 1]];
                        assert!(cost(slice) <= 256, "{what}: leaf {j} overflows");
                        // SAFETY: single-threaded, one leaf at a time.
                        used.push(unsafe { out.shared().write_leaf(j, slice, 0) });
                        assert!(!out.is_overflowed(j), "{what}: leaf {j} spilled");
                    }
                    // Spread, not packed: with slack, delta-coded leaves of
                    // one gap distribution end within two codes of each other.
                    if *shape == "uniform" && k > exact {
                        let (lo, hi) = (used.iter().min().unwrap(), used.iter().max().unwrap());
                        assert!(hi - lo <= 2 * MAX_VARINT_BYTES, "{what}: {lo}..{hi}");
                    }
                }
            }
        }
    }

    /// A rebuild is linear **by count**: the elements the planner visits
    /// per key (one sizing sweep, the weight sum, one or two cutting
    /// sweeps) stay under a small constant and do not grow with `n` on the
    /// benchmark's clustered shape — runs of 256 at 42 % fill, where the
    /// prefix-array planner took 16 × the time for 4 × the keys.
    #[test]
    fn rebuild_visits_are_linear_on_clustered_keys() {
        use cpma_workloads::{ClusteredKeys, SplitMix64};
        let visits_per_key = |n: usize| {
            let mut rng = SplitMix64::new(42);
            let keys: Vec<u64> = ClusteredKeys::new(256, 1 << 16, 1)
                .sorted(n * 100 / 42)
                .into_iter()
                .filter(|_| rng.next_below(100) < 42)
                .collect();
            PLANNER_VISITS.with(|v| v.set(0));
            let set = crate::Cpma::build_sorted(&keys);
            assert_eq!(set.len(), keys.len());
            PLANNER_VISITS.with(|v| v.get()) as f64 / keys.len() as f64
        };
        let (small, large) = (visits_per_key(840_000), visits_per_key(4 * 840_000));
        assert!(
            small <= 4.0 && large <= 4.0,
            "{small} / {large} visits per key"
        );
        assert!(large <= small * 1.25, "{small} → {large} visits per key");
    }

    #[test]
    fn write_leaf_empty_sets_inherited_head() {
        let mut s = store(2);
        // SAFETY: disjoint-leaf contract — one thread, one call.
        unsafe {
            s.shared().write_leaf(1, &[], 77);
        }
        assert_eq!(s.head(1), 77);
        assert_eq!(s.count(1), 0);
        assert_eq!(s.units_used(1), 0);
    }

    #[test]
    fn parallel_disjoint_merges() {
        use rayon::prelude::*;
        let mut s = CompressedLeaves::with_geometry(32, 256);
        let sh = s.shared();
        (0..32usize).into_par_iter().for_each(|leaf| {
            let base = leaf as u64 * 1000;
            let mut scratch = crate::leaf::LeafScratch::new();
            // SAFETY: disjoint-leaf contract — each task owns a distinct
            // leaf.
            unsafe {
                sh.apply_run(leaf, Inserts::new(&[base, base + 7]), &mut scratch);
            }
        });
        for leaf in 0..32 {
            assert_eq!(s.count(leaf), 2);
            assert_eq!(s.head(leaf), leaf as u64 * 1000);
        }
    }
}
