//! Fixed-span bitmap leaf encoding (the dense half of the hybrid codec).
//!
//! Delta byte codes (§5, [`crate::codec`]) cost ≥ 1 byte per element no
//! matter how dense the keys are. For a run of mostly-consecutive integers
//! a plain bitmap over the leaf's key span is smaller — 1 *bit* per slot —
//! and turns range queries into popcounts (cf. CONCISE in PAPERS.md). This
//! module implements that encoding:
//!
//! ```text
//! byte 0..8    base  — the leaf's minimum element, raw little-endian u64
//! byte 8..8+8w words — w = ⌈(max − base + 1) / 64⌉ little-endian u64 words
//! ```
//!
//! Bit `j` of word `k` set ⇔ the key `base + 64·k + j` is present. Two
//! structural invariants make the encoding canonical (one byte string per
//! element set): bit 0 of word 0 is always set (`base` is the minimum) and
//! the last word is non-zero (the span ends at the maximum). Encoded size
//! is `8 + 8·w` bytes, independent of the element count.
//!
//! All sums here use wrapping arithmetic, matching the `RangeSet` contract.

use crate::leaf::{ChunkBlock, CHUNK_KEYS};

/// Raw bytes of the leading base key.
pub const BASE_BYTES: usize = 8;

/// Bit-plane masks: `MASKS[k]` selects the bit positions whose index has
/// bit `k` set, so `Σ_k 2^k · popcount(w & MASKS[k])` is the sum of the
/// set-bit positions of `w` in six popcounts.
const MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Words needed to cover keys in `[base, max]` (both inclusive, `max ≥ base`).
#[inline]
pub fn span_words(base: u64, max: u64) -> usize {
    ((max - base) / 64 + 1) as usize
}

/// Encoded size in bytes of a bitmap leaf spanning `[base, max]`. Saturates
/// instead of overflowing on astronomical spans — callers only compare the
/// result against a leaf capacity, which such spans always exceed.
#[inline]
pub fn encoded_len(base: u64, max: u64) -> usize {
    BASE_BYTES.saturating_add(span_words(base, max).saturating_mul(8))
}

/// Read the base key from an encoded leaf.
#[inline]
pub fn base_of(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[..8].try_into().unwrap())
}

/// Number of bitmap words in a leaf that uses `used` bytes.
#[inline]
pub fn word_count(used: usize) -> usize {
    debug_assert!(used >= BASE_BYTES && (used - BASE_BYTES).is_multiple_of(8));
    (used - BASE_BYTES) / 8
}

/// Read word `w` from an encoded leaf.
#[inline]
pub fn get_word(buf: &[u8], w: usize) -> u64 {
    let at = BASE_BYTES + w * 8;
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Encode a non-empty strictly-increasing run into `out`; returns bytes
/// written (= [`encoded_len`] of the run's span). `out` must be large enough.
pub fn encode_from_sorted(elems: &[u64], out: &mut [u8]) -> usize {
    debug_assert!(!elems.is_empty());
    let base = elems[0];
    let max = *elems.last().unwrap();
    let used = encoded_len(base, max);
    debug_assert!(used <= out.len());
    out[..8].copy_from_slice(&base.to_le_bytes());
    out[BASE_BYTES..used].fill(0);
    // Sorted input visits words in non-decreasing order: accumulate one
    // word at a time and flush on word change, no read-modify-write.
    let mut cur_w = 0usize;
    let mut acc = 0u64;
    for &e in elems {
        debug_assert!(e >= base && e <= max);
        let off = e - base;
        let w = (off >> 6) as usize;
        if w != cur_w {
            let at = BASE_BYTES + cur_w * 8;
            out[at..at + 8].copy_from_slice(&acc.to_le_bytes());
            cur_w = w;
            acc = 0;
        }
        acc |= 1u64 << (off & 63);
    }
    let at = BASE_BYTES + cur_w * 8;
    out[at..at + 8].copy_from_slice(&acc.to_le_bytes());
    used
}

/// Serialize `base` + `words` into `out`; returns bytes written.
pub fn write_words(base: u64, words: &[u64], out: &mut [u8]) -> usize {
    let used = BASE_BYTES + words.len() * 8;
    debug_assert!(used <= out.len());
    out[..8].copy_from_slice(&base.to_le_bytes());
    for (i, &w) in words.iter().enumerate() {
        let at = BASE_BYTES + i * 8;
        out[at..at + 8].copy_from_slice(&w.to_le_bytes());
    }
    used
}

/// Deserialize the word array of an encoded leaf into `out` (cleared first).
pub fn read_words(buf: &[u8], used: usize, out: &mut Vec<u64>) {
    out.clear();
    let n = word_count(used);
    out.reserve(n);
    for w in 0..n {
        out.push(get_word(buf, w));
    }
}

/// Membership test — O(1): one word load and a shift.
#[inline]
pub fn contains(buf: &[u8], used: usize, key: u64) -> bool {
    let base = base_of(buf);
    if key < base {
        return false;
    }
    let off = key - base;
    let w = (off >> 6) as usize;
    if w >= word_count(used) {
        return false;
    }
    (get_word(buf, w) >> (off & 63)) & 1 == 1
}

/// Smallest element ≥ `key`, or `None` if every element is smaller.
pub fn successor_inclusive(buf: &[u8], used: usize, key: u64) -> Option<u64> {
    let base = base_of(buf);
    let nwords = word_count(used);
    let off = key.saturating_sub(base);
    let mut w = (off >> 6) as usize;
    if w >= nwords {
        return None;
    }
    let mut word = get_word(buf, w) & (!0u64 << (off & 63));
    loop {
        if word != 0 {
            let b = word.trailing_zeros() as u64;
            return Some(base + (w as u64) * 64 + b);
        }
        w += 1;
        if w >= nwords {
            return None;
        }
        word = get_word(buf, w);
    }
}

/// Maximum element. Relies on the canonical-form invariant that the last
/// word is non-zero.
#[inline]
pub fn max_elem(buf: &[u8], used: usize) -> u64 {
    let nwords = word_count(used);
    let last = get_word(buf, nwords - 1);
    debug_assert!(last != 0, "canonical bitmap leaf has a non-zero last word");
    base_of(buf) + ((nwords - 1) as u64) * 64 + (63 - last.leading_zeros() as u64)
}

/// Element count — one popcount per word.
pub fn count(buf: &[u8], used: usize) -> usize {
    let nwords = word_count(used);
    let mut n = 0usize;
    for w in 0..nwords {
        n += get_word(buf, w).count_ones() as usize;
    }
    n
}

/// Sum of the set-bit *positions* of `w` (0–63 each) in six popcounts.
#[inline]
pub fn pos_weighted_sum(w: u64) -> u64 {
    let mut s = 0u64;
    let mut k = 0;
    while k < 6 {
        s += ((w & MASKS[k]).count_ones() as u64) << k;
        k += 1;
    }
    s
}

/// Wrapping sum of the elements a word represents, where `first` is the
/// key value of the word's bit 0.
#[inline]
pub fn word_sum(w: u64, first: u64) -> u64 {
    first
        .wrapping_mul(w.count_ones() as u64)
        .wrapping_add(pos_weighted_sum(w))
}

/// Wrapping sum of every element in the leaf.
pub fn sum(buf: &[u8], used: usize) -> u64 {
    let base = base_of(buf);
    let nwords = word_count(used);
    let mut total = 0u64;
    for w in 0..nwords {
        let word = get_word(buf, w);
        if word != 0 {
            total = total.wrapping_add(word_sum(word, base.wrapping_add((w as u64) * 64)));
        }
    }
    total
}

/// Wrapping sum of the elements in `[lo, hi)` — boundary words are masked,
/// interior words go through [`word_sum`] whole.
pub fn range_sum(buf: &[u8], used: usize, lo: u64, hi: u64) -> u64 {
    let base = base_of(buf);
    let nwords = word_count(used);
    let span = (nwords as u64) * 64;
    if hi <= base {
        return 0;
    }
    let lo_off = lo.saturating_sub(base);
    let hi_off = (hi - base).min(span);
    if lo_off >= hi_off {
        return 0;
    }
    let w0 = (lo_off >> 6) as usize;
    let w1 = ((hi_off - 1) >> 6) as usize;
    let mut total = 0u64;
    for w in w0..=w1 {
        let mut word = get_word(buf, w);
        if w == w0 {
            word &= !0u64 << (lo_off & 63);
        }
        if w == w1 {
            let r = hi_off - (w1 as u64) * 64;
            if r < 64 {
                word &= (1u64 << r) - 1;
            }
        }
        if word != 0 {
            total = total.wrapping_add(word_sum(word, base.wrapping_add((w as u64) * 64)));
        }
    }
    total
}

/// Count of elements in `[lo, hi)` via masked popcounts.
pub fn range_count(buf: &[u8], used: usize, lo: u64, hi: u64) -> usize {
    let base = base_of(buf);
    let nwords = word_count(used);
    let span = (nwords as u64) * 64;
    if hi <= base {
        return 0;
    }
    let lo_off = lo.saturating_sub(base);
    let hi_off = (hi - base).min(span);
    if lo_off >= hi_off {
        return 0;
    }
    let w0 = (lo_off >> 6) as usize;
    let w1 = ((hi_off - 1) >> 6) as usize;
    let mut n = 0usize;
    for w in w0..=w1 {
        let mut word = get_word(buf, w);
        if w == w0 {
            word &= !0u64 << (lo_off & 63);
        }
        if w == w1 {
            let r = hi_off - (w1 as u64) * 64;
            if r < 64 {
                word &= (1u64 << r) - 1;
            }
        }
        n += word.count_ones() as usize;
    }
    n
}

/// Iterate elements in ascending order via `trailing_zeros`; stops early
/// when `f` returns `false`. Returns `false` iff stopped early.
pub fn for_each(buf: &[u8], used: usize, mut f: impl FnMut(u64) -> bool) -> bool {
    let base = base_of(buf);
    let nwords = word_count(used);
    for w in 0..nwords {
        let mut word = get_word(buf, w);
        let first = base + (w as u64) * 64;
        while word != 0 {
            let b = word.trailing_zeros() as u64;
            if !f(first + b) {
                return false;
            }
            word &= word - 1;
        }
    }
    true
}

/// Hand the elements ≥ `start` to `f` as ascending chunks, each a run of
/// whole words expanded into `block` — as many words as it holds — until
/// `f` returns `false`; returns `false` iff it did. Whole words below
/// `start` are skipped and the boundary word is masked, so the pre-`start`
/// prefix of a dense leaf costs O(words), not O(set bits).
pub fn chunks_from(
    buf: &[u8],
    used: usize,
    start: u64,
    block: &mut ChunkBlock,
    mut f: impl FnMut(&[u64]) -> bool,
) -> bool {
    let base = base_of(buf);
    let nwords = word_count(used);
    let below = start.saturating_sub(base);
    let mut w = (below / 64).min(nwords as u64) as usize;
    let mut mask = !0u64 << (below % 64);
    while w < nwords {
        let keys = block.fill(|fill| {
            while w < nwords {
                let mut word = get_word(buf, w) & mask;
                if fill.len() + word.count_ones() as usize > CHUNK_KEYS {
                    break;
                }
                let first = base + (w as u64) * 64;
                while word != 0 {
                    fill.put(first + u64::from(word.trailing_zeros()));
                    word &= word - 1;
                }
                (w, mask) = (w + 1, !0);
            }
        });
        if !keys.is_empty() && !f(keys) {
            return false;
        }
    }
    true
}

/// Append every element to `out` in ascending order.
pub fn decode_into(buf: &[u8], used: usize, out: &mut Vec<u64>) {
    for_each(buf, used, |e| {
        out.push(e);
        true
    });
}

/// OR `src`'s bits, shifted *up* by `shift` bit positions, into `dst`.
/// `dst` must already cover the shifted span (caller sizes it).
pub fn or_shifted(src: &[u64], shift: u64, dst: &mut [u64]) {
    let ws = (shift >> 6) as usize;
    let bs = (shift & 63) as u32;
    if bs == 0 {
        for (i, &s) in src.iter().enumerate() {
            dst[i + ws] |= s;
        }
    } else {
        for (i, &s) in src.iter().enumerate() {
            dst[i + ws] |= s << bs;
            let hi = s >> (64 - bs);
            if hi != 0 {
                dst[i + ws + 1] |= hi;
            }
        }
    }
}

/// Set the bit at `off`; returns `true` iff it was newly set.
#[inline]
pub fn set_bit(words: &mut [u64], off: u64) -> bool {
    let w = (off >> 6) as usize;
    let m = 1u64 << (off & 63);
    let was = words[w] & m != 0;
    words[w] |= m;
    !was
}

/// Clear the bit at `off`; returns `true` iff it was previously set.
#[inline]
pub fn clear_bit(words: &mut [u64], off: u64) -> bool {
    let w = (off >> 6) as usize;
    let m = 1u64 << (off & 63);
    let was = words[w] & m != 0;
    words[w] &= !m;
    was
}

/// Restore canonical form after edits: shift so the first set bit lands on
/// bit 0 of word 0 and drop trailing zero words. Returns the bit offset
/// shifted out — the amount to *add* to the leaf's base. `words` must
/// contain at least one set bit.
pub fn normalize(words: &mut Vec<u64>) -> u64 {
    let fw = words
        .iter()
        .position(|&w| w != 0)
        .expect("normalize on an empty bitmap");
    let fb = words[fw].trailing_zeros();
    let shift = (fw as u64) * 64 + fb as u64;
    if fb == 0 {
        words.drain(..fw);
    } else {
        let n = words.len();
        for i in fw..n {
            let lo = words[i] >> fb;
            let hi = if i + 1 < n {
                words[i + 1] << (64 - fb)
            } else {
                0
            };
            words[i - fw] = lo | hi;
        }
        words.truncate(n - fw);
    }
    while let Some(&0) = words.last() {
        words.pop();
    }
    shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyset(seed: u64, n: usize, span: u64, base: u64) -> Vec<u64> {
        // Simple xorshift-style generator: deterministic, no deps.
        let mut s = seed | 1;
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            set.insert(base + s % span);
        }
        set.into_iter().collect()
    }

    fn encode(elems: &[u64]) -> (Vec<u8>, usize) {
        let mut buf = vec![0u8; encoded_len(elems[0], *elems.last().unwrap())];
        let used = encode_from_sorted(elems, &mut buf);
        assert_eq!(used, buf.len());
        (buf, used)
    }

    #[test]
    fn roundtrip_and_point_queries() {
        for (seed, n, span) in [(7, 50, 400), (9, 1, 1), (11, 64, 64), (13, 200, 8000)] {
            let elems = keyset(seed, n, span, 1 << 33);
            let (buf, used) = encode(&elems);
            assert_eq!(base_of(&buf), elems[0]);
            let mut back = Vec::new();
            decode_into(&buf, used, &mut back);
            assert_eq!(back, elems);
            assert_eq!(count(&buf, used), elems.len());
            assert_eq!(max_elem(&buf, used), *elems.last().unwrap());
            for probe in elems[0].saturating_sub(3)..=*elems.last().unwrap() + 3 {
                assert_eq!(
                    contains(&buf, used, probe),
                    elems.binary_search(&probe).is_ok()
                );
                let want = elems.iter().copied().find(|&e| e >= probe);
                assert_eq!(
                    successor_inclusive(&buf, used, probe),
                    want,
                    "probe {probe}"
                );
            }
        }
    }

    #[test]
    fn chunks_from_matches_filtered_walk() {
        let mut block = ChunkBlock::new();
        // One block's worth, and a dense leaf of several blocks' worth.
        for (seed, n, span) in [(21, 300, 6_000), (23, 3_000, 3_400)] {
            let elems = keyset(seed, n, span, 1 << 40);
            let (buf, used) = encode(&elems);
            let lo0 = elems[0];
            let mid = elems[n / 2];
            for start in [
                lo0.saturating_sub(10),
                lo0,
                lo0 + 1,
                lo0 + 63,
                lo0 + 64,
                lo0 + 65,
                mid,
                mid + 1,
                *elems.last().unwrap(),
                *elems.last().unwrap() + 1,
            ] {
                let (mut got, mut chunks) = (Vec::new(), 0);
                assert!(chunks_from(&buf, used, start, &mut block, |c| {
                    assert!(
                        !c.is_empty() && c.len() <= CHUNK_KEYS,
                        "chunk of {}",
                        c.len()
                    );
                    got.extend_from_slice(c);
                    chunks += 1;
                    true
                }));
                let want: Vec<u64> = elems.iter().copied().filter(|&e| e >= start).collect();
                assert_eq!(got, want, "start {start}");
                // A chunk stops short of a full block by less than a word.
                assert!(
                    chunks <= want.len().div_ceil(CHUNK_KEYS - 63),
                    "{chunks} chunks"
                );
                // Early exit still propagates.
                if !want.is_empty() {
                    let mut calls = 0;
                    assert!(!chunks_from(&buf, used, start, &mut block, |_| {
                        calls += 1;
                        false
                    }));
                    assert_eq!(calls, 1);
                }
            }
        }
    }

    #[test]
    fn sums_match_naive() {
        let elems = keyset(42, 300, 10_000, u64::MAX - 20_000);
        let (buf, used) = encode(&elems);
        let naive: u64 = elems.iter().fold(0u64, |a, &e| a.wrapping_add(e));
        assert_eq!(sum(&buf, used), naive);
        let lo0 = elems[0];
        for (lo, hi) in [
            (lo0, lo0 + 1),
            (lo0 + 17, lo0 + 4096),
            (lo0.wrapping_sub(100), u64::MAX),
            (elems[120], elems[240]),
            (lo0 + 63, lo0 + 65),
        ] {
            let naive = elems
                .iter()
                .filter(|&&e| e >= lo && e < hi)
                .fold(0u64, |a, &e| a.wrapping_add(e));
            assert_eq!(range_sum(&buf, used, lo, hi), naive, "[{lo}, {hi})");
            let nc = elems.iter().filter(|&&e| e >= lo && e < hi).count();
            assert_eq!(range_count(&buf, used, lo, hi), nc);
        }
        assert_eq!(range_sum(&buf, used, 5, 10), 0);
        assert_eq!(range_count(&buf, used, 5, 10), 0);
    }

    #[test]
    fn pos_weighted_sum_matches_loop() {
        for w in [0u64, 1, u64::MAX, 0xDEAD_BEEF_0BAD_F00D, 1 << 63] {
            let mut naive = 0u64;
            for b in 0..64 {
                if w >> b & 1 == 1 {
                    naive += b;
                }
            }
            assert_eq!(pos_weighted_sum(w), naive);
        }
    }

    #[test]
    fn early_exit_iteration() {
        let elems: Vec<u64> = (100..200).step_by(3).collect();
        let (buf, used) = encode(&elems);
        let mut seen = Vec::new();
        let finished = for_each(&buf, used, |e| {
            seen.push(e);
            e < 130
        });
        assert!(!finished);
        assert_eq!(*seen.last().unwrap(), 130);
    }

    #[test]
    fn or_shifted_merges_bit_sets() {
        let old: Vec<u64> = vec![0b1011, 1 << 63];
        for shift in [0u64, 1, 63, 64, 65, 130] {
            let need = (128 + shift).div_ceil(64) as usize;
            let mut dst = vec![0u64; need];
            or_shifted(&old, shift, &mut dst);
            for b in 0..128u64 {
                let src_set = (old[(b >> 6) as usize] >> (b & 63)) & 1 == 1;
                let d = b + shift;
                let dst_set = (dst[(d >> 6) as usize] >> (d & 63)) & 1 == 1;
                assert_eq!(src_set, dst_set, "shift {shift} bit {b}");
            }
        }
    }

    #[test]
    fn normalize_rebases_and_trims() {
        // bits at offsets 70, 100, 190 → after normalize: 0, 30, 120.
        let mut words = vec![0u64; 5];
        for off in [70u64, 100, 190] {
            set_bit(&mut words, off);
        }
        let shift = normalize(&mut words);
        assert_eq!(shift, 70);
        assert_eq!(words.len(), 2);
        assert!(words[0] & 1 == 1);
        for off in [0u64, 30, 120] {
            assert!(words[(off >> 6) as usize] >> (off & 63) & 1 == 1);
        }
        // Single-bit case trims to one word.
        let mut words = vec![0u64, 0, 1 << 5];
        assert_eq!(normalize(&mut words), 133);
        assert_eq!(words, vec![1]);
    }

    #[test]
    fn encoding_cost_is_span_bound() {
        assert_eq!(encoded_len(10, 10), 16);
        assert_eq!(encoded_len(10, 73), 16);
        assert_eq!(encoded_len(10, 74), 24);
        // 256 consecutive keys: 8 + 4 words = 40 bytes (delta would be 263).
        assert_eq!(encoded_len(1000, 1255), 40);
        // Astronomical span saturates instead of overflowing.
        assert!(encoded_len(0, u64::MAX) > 1 << 50);
    }
}
