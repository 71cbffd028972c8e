//! Delta encoding with byte codes (the CPMA's compression scheme, §5).
//!
//! "Delta encoding stores differences (deltas) between sequential elements
//! rather than the full element. ... These deltas can then be stored in byte
//! codes, which store an integer as a series of bytes. Each byte uses one
//! bit as a continue bit." We use the standard unsigned LEB128 layout:
//! little-endian 7-bit groups, continue bit = MSB set on every byte except
//! the last. A `u64` delta takes 1–10 bytes; because the CPMA stores a set,
//! deltas are always ≥ 1 within a leaf (the head is stored raw, not here).
//!
//! # Decoding a run
//!
//! Every decode of a run — the reads, the fused write kernel, snapshot
//! validation — goes through one block-walk kernel (`walk_codes`; the
//! write kernel's form, `walk_codes_at`, also hands out where each code
//! ends, so that it can copy the codes it does not change).
//! Per 64-byte block it builds a *terminator mask* — bit `i` set iff byte
//! `i` ends a code — and walks it with `tzcnt`/`blsr`, so a code's bounds
//! come from the mask and no load waits on the one before. A code of ≤ 8
//! bytes is one 8-byte load that *ends* at its terminator, shifted down to
//! the code's bytes, whose 7-bit groups are then packed together; 9–10-byte
//! codes (deltas ≥ 2^56) take [`decode_varint`]. In a block of nearly all
//! one-byte codes (dense keys) the runs of them are added byte by byte
//! instead, each run's length read off the mask. One body is compiled
//! twice, differing in how it gathers a mask and packs the groups: with
//! BMI1/BMI2 (SSE2 `movemask`, `pext`), chosen once at run time where
//! `pext` is a single fast instruction, and portably (a multiply per 8-byte
//! word, three shift/subtract steps) everywhere else.
//!
//! **Stretch bound.** The kernel reads only inside the slice it is handed
//! — a leaf's own stretch of the byte array, never its neighbour's, which
//! another thread may be writing under the `SharedLeaves` disjoint-leaf
//! contract. A full block is read in place, the last partial block
//! through a zero-padded stack copy, and a value load covers the 8 bytes
//! ending at a terminator, which lie past the 8-byte head and inside the
//! slice.
//!
//! **Untrusted bytes** (a snapshot being loaded) are framed before they
//! are walked (`frame_codes`): the same terminator masks, counted and
//! checked for codes longer than ten bytes or past `u64`, so the walk is
//! only ever handed whole codes it can decode.
#![deny(clippy::undocumented_unsafe_blocks)]

/// Maximum encoded size of one `u64` byte code.
pub const MAX_VARINT_BYTES: usize = 10;

/// Bytes per terminator mask.
const BLOCK: usize = 64;

/// Encoded length of `v` in bytes (≥ 1; `0` also takes one byte).
#[inline(always)]
pub fn varint_len(v: u64) -> usize {
    // ⌈bits/7⌉ with bits = 64 - leading_zeros, minimum 1, looked up by
    // the leading zeros: the planner's sweeps cost every element's code,
    // and a load is shorter than the division.
    const BY_LEADING_ZEROS: [u8; 64] = {
        let mut table = [0u8; 64];
        let mut lz = 0;
        while lz < 64 {
            table[lz] = (64 - lz).div_ceil(7) as u8;
            lz += 1;
        }
        table
    };
    BY_LEADING_ZEROS[(v | 1).leading_zeros() as usize] as usize
}

/// Append the byte code of `v` to `out`; returns bytes written.
#[inline]
pub fn encode_varint(mut v: u64, out: &mut Vec<u8>) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Write the byte code of `v` into `buf`, returning bytes written.
/// `buf` must have at least [`MAX_VARINT_BYTES`] of room.
#[inline]
pub fn write_varint(mut v: u64, buf: &mut [u8]) -> usize {
    let mut i = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[i] = byte;
            return i + 1;
        }
        buf[i] = byte | 0x80;
        i += 1;
    }
}

/// Decode one byte code from `buf`, returning `(value, bytes_consumed)`.
/// `buf` must start at a code boundary and contain the complete code.
#[inline]
pub fn decode_varint(buf: &[u8]) -> (u64, usize) {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut i = 0;
    loop {
        let byte = buf[i];
        v |= ((byte & 0x7f) as u64) << shift;
        i += 1;
        if byte & 0x80 == 0 {
            return (v, i);
        }
        shift += 7;
        debug_assert!(shift < 70, "malformed varint");
    }
}

/// Total encoded size of a sorted strictly-increasing run stored as
/// `head (raw, `head_bytes`) + delta byte codes`.
#[inline]
pub fn encoded_run_len(elems: &[u64], head_bytes: usize) -> usize {
    if elems.is_empty() {
        return 0;
    }
    let mut total = head_bytes;
    for w in elems.windows(2) {
        debug_assert!(w[1] > w[0], "run must be strictly increasing");
        total += varint_len(w[1] - w[0]);
    }
    total
}

/// Encode a strictly-increasing run into `out` as raw little-endian head
/// followed by delta byte codes. Returns bytes written. `out` is exactly
/// the run's length ([`encoded_run_len`]): a code that starts at least 8
/// bytes before its end goes out as one 8-byte store, whose bytes past
/// the code the codes after it overwrite, and the last few byte by byte,
/// so nothing past the run is touched.
pub fn encode_run(elems: &[u64], out: &mut [u8]) -> usize {
    let Some((&head, rest)) = elems.split_first() else {
        return 0;
    };
    out[..8].copy_from_slice(&head.to_le_bytes());
    let (mut pos, mut prev) = (8, head);
    for &e in rest {
        debug_assert!(e > prev);
        let gap = e - prev;
        let len = varint_len(gap);
        match out.get_mut(pos..pos + 8) {
            Some(word) if len <= 8 => word.copy_from_slice(&varint_word(gap, len).to_le_bytes()),
            _ => {
                write_varint(gap, &mut out[pos..]);
            }
        }
        pos += len;
        prev = e;
    }
    debug_assert_eq!(pos, out.len(), "`out` is the run's length");
    pos
}

/// The byte code of `v`, `len` = [`varint_len`]`(v)` ≤ 8 bytes, in the
/// low bytes of a little-endian word (the rest zero): the 7-bit groups
/// spread into bytes in three halving steps, and a continuation bit on
/// every byte but the last.
#[inline(always)]
fn varint_word(v: u64, len: usize) -> u64 {
    debug_assert!(len == varint_len(v) && len <= 8);
    let x = (v & 0x0fff_ffff) | (v & 0x00ff_ffff_f000_0000) << 4;
    let x = (x & 0x0000_3fff_0000_3fff) | (x & 0x0fff_c000_0fff_c000) << 2;
    let x = (x & 0x007f_007f_007f_007f) | (x & 0x3f80_3f80_3f80_3f80) << 1;
    x | 0x0080_8080_8080_8080 & ((1 << (8 * (len - 1))) - 1)
}

/// Decode the run (raw head + deltas) that is exactly `run`, appending to
/// `out`.
pub fn decode_run(run: &[u8], out: &mut Vec<u64>) {
    walk_run(run, run.len(), |e| {
        out.push(e);
        true
    });
}

/// Iterate the run that is exactly `run` without materializing it: calls
/// `f(element)`; if `f` returns `false`, stops early. Returns `false` iff
/// stopped early.
#[inline]
pub fn for_each_in_run(run: &[u8], f: impl FnMut(u64) -> bool) -> bool {
    walk_run(run, run.len(), f).0
}

/// [`for_each_in_run`] over the run in the first `used` bytes of `buf`,
/// saying how far it read: returns `(finished, end)`, `end` the offset
/// just past the last element `f` saw (what a walk that stops early has
/// actually consumed).
///
/// `buf` may extend past the run — a leaf's whole stretch, say — and the
/// kernel then reads its last block in place instead of through a copy.
#[inline]
pub(crate) fn walk_run(buf: &[u8], used: usize, mut f: impl FnMut(u64) -> bool) -> (bool, usize) {
    if used == 0 {
        return (true, 0);
    }
    let head = u64::from_le_bytes(buf[..8].try_into().unwrap());
    if !f(head) {
        return (false, 8);
    }
    walk_codes(buf, 8, used, head, f)
}

/// The block-walk kernel (module docs). Decodes the codes in
/// `buf[from..end]`, adding each to the running value `cur` and handing
/// the sum to `f`, until `f` returns `false`. Returns `(finished, end)`:
/// `finished` is `false` iff `f` stopped the walk, `end` the offset just
/// past the last code decoded.
///
/// Codes follow an 8-byte head: `8 ≤ from`, and `end ≤ buf.len()`.
#[inline]
pub(crate) fn walk_codes(
    buf: &[u8],
    from: usize,
    end: usize,
    cur: u64,
    mut f: impl FnMut(u64) -> bool,
) -> (bool, usize) {
    walk_codes_at(buf, from, end, cur, move |e, _| f(e))
}

/// [`walk_codes`] that also hands `f` the offset just past each code: a
/// writer that copies the codes it does not change needs their bounds.
#[inline]
pub(crate) fn walk_codes_at(
    buf: &[u8],
    from: usize,
    end: usize,
    cur: u64,
    f: impl FnMut(u64, usize) -> bool,
) -> (bool, usize) {
    assert!(
        from >= 8 && end <= buf.len(),
        "codes {from}..{end} of {}",
        buf.len()
    );
    #[cfg(target_arch = "x86_64")]
    if fast_pext() {
        // SAFETY: `fast_pext` detected the features `walk_bmi2` is
        // compiled for; the kernel itself reads only inside `buf`.
        return unsafe { walk_bmi2(buf, from, end, cur, f) };
    }
    walk_portable(buf, from, end, cur, f)
}

/// Does this CPU have BMI1/BMI2 with a `pext` that is one fast
/// instruction? Every such Intel part does; AMD's before Zen 3 (family 0x19), and Hygon's,
/// microcode it at tens to hundreds of cycles, and take the portable
/// instance instead. Decided once.
#[cfg(target_arch = "x86_64")]
fn fast_pext() -> bool {
    use std::arch::x86_64::__cpuid;
    static FAST: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FAST.get_or_init(|| {
        if !(std::is_x86_feature_detected!("bmi1") && std::is_x86_feature_detected!("bmi2")) {
            return false;
        }
        let id = __cpuid(0);
        let vendor = [id.ebx, id.edx, id.ecx].map(u32::to_le_bytes).concat();
        if vendor != b"AuthenticAMD" && vendor != b"HygonGenuine" {
            return true;
        }
        let sig = __cpuid(1).eax;
        ((sig >> 8) & 0xf) + ((sig >> 20) & 0xff) >= 0x19
    })
}

/// The kernel with `tzcnt`/`blsr`/`shrx`, the SSE2 mask gather and `pext`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi1,bmi2")]
fn walk_bmi2(
    buf: &[u8],
    from: usize,
    end: usize,
    cur: u64,
    f: impl FnMut(u64, usize) -> bool,
) -> (bool, usize) {
    use std::arch::x86_64::_pext_u64;
    let pack = |w| _pext_u64(w, 0x7f7f_7f7f_7f7f_7f7f);
    walk_body(buf, from, end, cur, movemask_terminators, pack, f)
}

/// The kernel for every other CPU: the mask gathered by multiply, the
/// groups packed by shifts. Never inlined, so that callers carry only the
/// dispatch and both instances are one function each.
#[inline(never)]
fn walk_portable(
    buf: &[u8],
    from: usize,
    end: usize,
    cur: u64,
    f: impl FnMut(u64, usize) -> bool,
) -> (bool, usize) {
    walk_body(buf, from, end, cur, multiply_terminators, pack_groups, f)
}

/// The one delta-walk loop (see [`walk_codes_at`] for the contract):
/// `terminators` gathers a block's terminator mask, `pack` turns a code's
/// bytes into its value.
#[inline(always)]
fn walk_body(
    buf: &[u8],
    from: usize,
    end: usize,
    mut cur: u64,
    terminators: impl Fn(&[u8; BLOCK]) -> u64,
    pack: impl Fn(u64) -> u64,
    mut f: impl FnMut(u64, usize) -> bool,
) -> (bool, usize) {
    let len = buf.len();
    // The block being walked, and the previous code's terminator relative
    // to it (negative once it lies in an earlier block).
    let mut at = from - from % BLOCK;
    let mut prev = (from % BLOCK) as isize - 1;
    let mut pad: [u8; BLOCK];
    while at < end {
        let bytes: &[u8; BLOCK] = match buf.get(at..at + BLOCK) {
            Some(block) => block.try_into().unwrap(),
            None => {
                // The last, partial block of `buf`.
                pad = [0; BLOCK];
                pad[..len - at].copy_from_slice(&buf[at..]);
                &pad
            }
        };
        // Only terminators in `from..end` end a code of the walk.
        let mut mask = terminators(bytes);
        let upto = (end - at).min(BLOCK);
        if upto < BLOCK {
            mask &= (1 << upto) - 1;
        }
        mask &= u64::MAX << (prev + 1).max(0);
        // Mostly one-byte codes (at most one byte in eight continues a
        // code): add the runs of them byte by byte.
        let span = upto as isize - (prev + 1).max(0);
        let dense = 8 * mask.count_ones() as isize >= 7 * span;
        while mask != 0 {
            let start = prev + 1;
            if dense && start >= 0 {
                let run = (!(mask >> start)).trailing_zeros() as isize;
                let codes = &bytes[start as usize..(start + run) as usize];
                for (i, &code) in codes.iter().enumerate() {
                    cur = cur.wrapping_add(u64::from(code));
                    let past = at + start as usize + i + 1;
                    if !f(cur, past) {
                        return (false, past);
                    }
                }
                prev += run;
                let past = (start + run) as u32;
                mask = mask.checked_shr(past).map_or(0, |m| m << past);
                if mask == 0 {
                    break;
                }
            }
            let tz = mask.trailing_zeros() as isize;
            let n = tz - prev;
            prev = tz;
            mask &= mask - 1;
            let last = at + tz as usize;
            let delta = if n <= 8 {
                debug_assert!(
                    7 <= last && last < len,
                    "load ending at {last} outside 7..{len}"
                );
                // SAFETY: stretch bound — `last < end ≤ len` and
                // `last ≥ from ≥ 8`, so the 8 bytes `last − 7 ..= last` lie
                // inside `buf`.
                let word = unsafe { buf.as_ptr().add(last - 7).cast::<u64>().read_unaligned() };
                pack(u64::from_le(word) >> (64 - 8 * n))
            } else {
                long_code(&buf[last + 1 - n as usize..=last])
            };
            cur = cur.wrapping_add(delta);
            if !f(cur, last + 1) {
                return (false, last + 1);
            }
        }
        at += BLOCK;
        prev -= BLOCK as isize;
    }
    (true, (at as isize + prev + 1) as usize)
}

/// A code of 9 or 10 bytes — a delta ≥ 2^56, which no 8-byte load holds.
#[cold]
#[inline(never)]
fn long_code(code: &[u8]) -> u64 {
    decode_varint(code).0
}

/// Frame the codes in `buf[from..end]` by their terminator masks, trusting
/// nothing: returns how many codes the bytes hold, or `None` unless they
/// are whole codes that each fit a `u64` — the last byte ends a code, no
/// code is longer than [`MAX_VARINT_BYTES`], and a 10-byte code's last
/// byte is 0 or 1 (it carries bit 63 alone). Codes that frame are safe to
/// hand [`walk_codes`].
pub(crate) fn frame_codes(buf: &[u8], from: usize, end: usize) -> Option<usize> {
    let mut codes = 0;
    // Continue bytes since the last terminator, carried across blocks.
    let mut open = 0;
    let mut at = from;
    let mut pad: [u8; BLOCK];
    while at < end {
        let upto = (end - at).min(BLOCK);
        let bytes: &[u8; BLOCK] = match buf.get(at..at + BLOCK) {
            Some(block) => block.try_into().unwrap(),
            None => {
                pad = [0; BLOCK];
                pad[..upto].copy_from_slice(&buf[at..end]);
                &pad
            }
        };
        let valid = u64::MAX >> (BLOCK - upto);
        let term = block_terminators(bytes) & valid;
        let cont = !term & valid;
        codes += term.count_ones() as usize;
        // Bit `i` of `runs9` is set iff bytes `i ..= i + 8` all continue.
        let runs2 = cont & (cont >> 1);
        let runs4 = runs2 & (runs2 >> 2);
        let runs9 = runs4 & (runs4 >> 4) & (cont >> 8);
        // No code is longer than ten bytes: no ten continue bytes in a
        // row, counting the ones the block before left open.
        let lead = (term.trailing_zeros() as usize).min(upto);
        if open + lead >= MAX_VARINT_BYTES || runs9 & (cont >> 9) != 0 {
            return None;
        }
        // A ten-byte code ends at a terminator after nine continue bytes.
        let mut ten = term & (runs9 << 9);
        if lead < upto && open + lead == MAX_VARINT_BYTES - 1 {
            ten |= 1 << lead;
        }
        while ten != 0 {
            if bytes[ten.trailing_zeros() as usize] > 1 {
                return None;
            }
            ten &= ten - 1;
        }
        open = match term {
            0 => open + upto,
            _ => upto + term.leading_zeros() as usize - BLOCK,
        };
        at += upto;
    }
    (open == 0).then_some(codes)
}

/// A block's terminator mask by the gatherer every x86_64 CPU has (SSE2),
/// for the one-off framing pass; the walk picks its own per instance.
#[inline(always)]
fn block_terminators(block: &[u8; BLOCK]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    return movemask_terminators(block);
    #[cfg(not(target_arch = "x86_64"))]
    multiply_terminators(block)
}

/// The value of a code of ≤ 8 bytes held in the low bytes of `w` (higher
/// bytes zero), portably: drop the continue bits, then close the gaps they
/// leave — 8 × 7 → 4 × 14 → 2 × 28 → 56 bits. Each step takes the upper
/// field `hi` of a lane holding `lo + 2^(2k)·hi` and subtracts the excess
/// `(2^(2k) − 2^k)·hi`, which leaves `lo + 2^k·hi`.
#[inline(always)]
fn pack_groups(w: u64) -> u64 {
    let x = w & 0x7f7f_7f7f_7f7f_7f7f;
    let x = x - ((x >> 1) & 0x3f80_3f80_3f80_3f80);
    let x = x - 3 * ((x >> 2) & 0x0fff_c000_0fff_c000);
    x - 15 * ((x >> 4) & 0x00ff_ffff_f000_0000)
}

/// Terminator mask of a block: four SSE2 `movemask`s of the continue bits.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn movemask_terminators(block: &[u8; BLOCK]) -> u64 {
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_movemask_epi8};
    let mut cont = 0u64;
    for i in 0..4 {
        // SAFETY: reads bytes `16·i .. 16·i + 16` of a 64-byte array; SSE2
        // is part of the x86_64 baseline.
        let bits = unsafe {
            _mm_movemask_epi8(_mm_loadu_si128(
                block.as_ptr().add(16 * i).cast::<__m128i>(),
            ))
        };
        cont |= u64::from(bits as u16) << (16 * i);
    }
    !cont
}

/// Terminator mask of a block, portably: per 8-byte word, one multiply
/// moves the eight continue bits into the top byte.
#[inline(always)]
fn multiply_terminators(block: &[u8; BLOCK]) -> u64 {
    let mut cont = 0u64;
    for (i, word) in block.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(word.try_into().unwrap()) & 0x8080_8080_8080_8080;
        cont |= (w.wrapping_mul(0x0002_0408_1020_4081) >> 56) << (8 * i);
    }
    !cont
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The byte-serial walk the kernel replaced: the equivalence oracle.
    fn serial_walk(
        buf: &[u8],
        from: usize,
        end: usize,
        mut cur: u64,
        mut f: impl FnMut(u64, usize) -> bool,
    ) -> (bool, usize) {
        let mut pos = from;
        while pos < end {
            let (delta, used) = decode_varint(&buf[pos..]);
            pos += used;
            cur = cur.wrapping_add(delta);
            if !f(cur, pos) {
                return (false, pos);
            }
        }
        (true, pos)
    }

    /// The byte-serial check the framing replaced, one code at a time:
    /// never reads past `buf`, and rejects a code that does not fit a
    /// `u64`. The equivalence oracle of [`frame_codes`] and of the
    /// snapshot validator built on it.
    pub(crate) fn checked_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let &byte = buf.get(*pos)?;
            *pos += 1;
            let part = (byte & 0x7f) as u64;
            if shift >= 64 || (shift > 0 && part >> (64 - shift) != 0) {
                return None; // would overflow u64
            }
            v |= part << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    type Instance =
        fn(&[u8], usize, usize, u64, &mut dyn FnMut(u64, usize) -> bool) -> (bool, usize);

    /// Both kernel instances this CPU can run, each called directly.
    fn instances() -> Vec<(&'static str, Instance)> {
        let mut all: Vec<(&'static str, Instance)> = vec![("portable", |b, from, end, cur, f| {
            walk_portable(b, from, end, cur, f)
        })];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("bmi1") && std::is_x86_feature_detected!("bmi2") {
            all.push(("bmi2", |b, from, end, cur, f| {
                // SAFETY: the features were detected just above.
                unsafe { walk_bmi2(b, from, end, cur, f) }
            }));
        }
        all
    }

    /// Deterministic xorshift stream for the randomized runs.
    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        /// A delta whose code takes exactly `bytes` bytes.
        fn delta_of_len(&mut self, bytes: u32) -> u64 {
            let lo = if bytes == 1 {
                1
            } else {
                1u64 << (7 * (bytes - 1))
            };
            let hi = 1u64.checked_shl(7 * bytes).map_or(u64::MAX, |h| h - 1);
            lo + self.next() % (hi - lo).max(1)
        }
    }

    /// A run whose code lengths come from `lens`, followed by `slack`
    /// bytes of junk (the rest of a leaf's stretch, never decoded).
    /// Returns the elements, the buffer and the run's length.
    fn run_of(head: u64, lens: &[u32], slack: usize, xs: &mut Xs) -> (Vec<u64>, Vec<u8>, usize) {
        let mut elems = vec![head];
        for &l in lens {
            let d = xs.delta_of_len(l);
            // A sum past `u64::MAX` drops this code, not the rest.
            if let Some(e) = elems.last().unwrap().checked_add(d) {
                elems.push(e);
            }
        }
        let used = encoded_run_len(&elems, 8);
        let mut buf = vec![0u8; used + slack];
        encode_run(&elems, &mut buf[..used]);
        for b in &mut buf[used..] {
            *b = xs.next() as u8;
        }
        (elems, buf, used)
    }

    /// Every walk shape the leaf readers use, against the oracle, on one
    /// run: the full walk, and an early exit at every element.
    fn check_all_exits(buf: &[u8], used: usize, elems: &[u64]) {
        let head = elems[0];
        for (name, walk) in instances() {
            // Every sum, and where its code ends.
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let full = walk(buf, 8, used, head, &mut |e, end| {
                got.push((e, end));
                true
            });
            serial_walk(buf, 8, used, head, |e, end| {
                want.push((e, end));
                true
            });
            let sums: Vec<u64> = got.iter().map(|&(e, _)| e).collect();
            assert_eq!(sums, elems[1..], "{name}: full walk");
            assert_eq!(got, want, "{name}: code ends");
            assert_eq!(full, (true, used), "{name}: full walk");
            for (stop, &key) in elems.iter().enumerate().skip(1) {
                // The membership walk: stop once the running value
                // reaches the key.
                let (mut seen, mut hit) = (0, false);
                let contains = walk(buf, 8, used, head, &mut |e, _| {
                    seen += 1;
                    hit = e == key;
                    e < key
                });
                let oracle = serial_walk(buf, 8, used, head, |e, _| e < key);
                assert_eq!(contains, oracle, "{name}: contains stop {stop}");
                assert!(hit && seen == stop, "{name}: contains stop {stop}");
                // The range walk stops past its end, the from walk at the
                // first key its callee refuses.
                let past = |e: u64| e <= key;
                let range = walk(buf, 8, used, head, &mut |e, _| past(e));
                assert_eq!(
                    range,
                    serial_walk(buf, 8, used, head, |e, _| past(e)),
                    "{name}: range {stop}"
                );
                let refuse = |e: u64| e < key || e != key;
                let from = walk(buf, 8, used, head, &mut |e, _| refuse(e));
                assert_eq!(
                    from,
                    serial_walk(buf, 8, used, head, |e, _| refuse(e)),
                    "{name}: from {stop}"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_the_serial_walk_on_random_runs() {
        let mut xs = Xs(0x5EED_C0DE_1234_5678);
        for case in 0..300 {
            let n = 1 + (xs.next() % 240) as usize;
            // Mostly short codes, every length up to 10 present; every
            // other run mostly one-byte codes (the walk's dense blocks).
            let lens: Vec<u32> = (0..n)
                .map(|_| match (xs.next() % 16, case % 2) {
                    (0, _) => 1 + (xs.next() % 10) as u32,
                    (r, 0) => 1 + (r % 3) as u32,
                    (_, _) => 1,
                })
                .collect();
            let slack = [0, 1, 7, 8, 63, 64, 200][case % 7];
            let (elems, buf, used) = run_of(xs.next() >> 24, &lens, slack, &mut xs);
            check_all_exits(&buf, used, &elems);
        }
    }

    #[test]
    fn kernel_matches_the_serial_walk_at_block_edges() {
        let mut xs = Xs(0xB10C_B10C);
        // Codes of every length straddling the first block edge at every
        // offset.
        for l in 1..=10u32 {
            for lead in 0..24usize {
                let lens: Vec<u32> = std::iter::repeat_n(1, lead + 50)
                    .chain(std::iter::repeat_n(l, 20))
                    .chain(std::iter::repeat_n(2, 40))
                    .collect();
                let (elems, buf, used) = run_of(1 << 40, &lens, 0, &mut xs);
                check_all_exits(&buf, used, &elems);
            }
        }
        // The run ends on the stretch's last byte (`used == leaf_units`),
        // at every offset within a block, with 1- to 10-byte last codes.
        for used in 9..=200usize {
            for last in 1..=10u32 {
                if used < 8 + last as usize {
                    continue;
                }
                let mut lens = vec![1u32; used - 8 - last as usize];
                lens.push(last);
                let (elems, buf, run) = run_of(7, &lens, 0, &mut xs);
                assert_eq!((buf.len(), run), (used, used));
                check_all_exits(&buf, used, &elems);
            }
        }
    }

    #[test]
    fn kernel_handles_tiny_runs_and_offsets() {
        let mut xs = Xs(42);
        // A 1-element leaf: the head and nothing to walk.
        let (elems, buf, used) = run_of(99, &[], 248, &mut xs);
        assert_eq!((elems.as_slice(), used), (&[99][..], 8));
        assert_eq!(walk_run(&buf, used, |_| true), (true, 8));
        assert_eq!(walk_run(&buf, used, |_| false), (false, 8));
        for (name, walk) in instances() {
            assert_eq!(walk(&buf, 8, 8, 99, &mut |_, _| true), (true, 8), "{name}");
            assert_eq!(
                walk(&buf[..8], 8, 8, 99, &mut |_, _| true),
                (true, 8),
                "{name}"
            );
        }
        // Mid-run starts (the fused kernel's tail walk): from every code
        // boundary to the end of the run.
        let lens: Vec<u32> = (0..90).map(|i| 1 + i % 4).collect();
        let (elems, buf, used) = run_of(5, &lens, 0, &mut xs);
        let mut at = 8;
        for i in 1..elems.len() {
            for (name, walk) in instances() {
                let mut last = elems[i - 1];
                let got = walk(&buf, at, used, last, &mut |e, _| {
                    last = e;
                    true
                });
                assert_eq!(got, (true, used), "{name}: from {at}");
                assert_eq!(last, *elems.last().unwrap(), "{name}: from {at}");
            }
            at += varint_len(elems[i] - elems[i - 1]);
        }
    }

    /// Damaged runs — bytes overwritten, continue bits flipped, the end
    /// cut — frame exactly as the serial check decodes them: the same code
    /// count, or rejected by both.
    #[test]
    fn framing_matches_the_serial_check_on_damaged_runs() {
        let mut xs = Xs(0xF4A3_E0D0_0001);
        let serial_frame = |buf: &[u8], end: usize| {
            let (mut pos, mut codes) = (8, 0);
            while pos < end {
                checked_varint(&buf[..end], &mut pos)?;
                codes += 1;
            }
            Some(codes)
        };
        let mut rejected = 0;
        for case in 0..4000 {
            let n = (xs.next() % 120) as usize;
            let lens: Vec<u32> = (0..n)
                .map(|_| match xs.next() % 6 {
                    0 => 9 + (xs.next() % 2) as u32,
                    1 => 1 + (xs.next() % 10) as u32,
                    _ => 1,
                })
                .collect();
            let slack = [0, 5, 64, 130][case % 4];
            let (_, mut buf, mut used) = run_of(xs.next() >> 40, &lens, slack, &mut xs);
            if case % 5 != 0 && used > 8 {
                for _ in 0..1 + xs.next() % 3 {
                    let at = 8 + (xs.next() as usize) % (used - 8);
                    buf[at] = match xs.next() % 6 {
                        0 => buf[at] ^ 0x80,
                        1 => 0x80,
                        2 => 2 + (xs.next() % 126) as u8,
                        3 => 0,
                        4 => 1,
                        _ => xs.next() as u8,
                    };
                }
                if xs.next().is_multiple_of(4) {
                    used -= (xs.next() as usize) % (used - 7);
                }
            }
            let want = serial_frame(&buf, used);
            assert_eq!(frame_codes(&buf, 8, used), want, "case {case}");
            assert_eq!(frame_codes(&buf[..used], 8, used), want, "case {case}");
            rejected += usize::from(want.is_none());
        }
        assert!((500..3500).contains(&rejected), "{rejected} rejected");
    }

    #[test]
    fn varint_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(1), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_383), 2);
        assert_eq!(varint_len(16_384), 3);
        assert_eq!(varint_len(u64::MAX), 10);
        for bits in 1..=64u32 {
            let v = u64::MAX >> (64 - bits);
            assert_eq!(varint_len(v), bits.div_ceil(7) as usize, "{bits} bits");
            assert_eq!(
                varint_len(1 << (bits - 1)),
                bits.div_ceil(7) as usize,
                "{bits} bits"
            );
        }
    }

    #[test]
    fn varint_word_is_the_byte_code() {
        let mut xs = Xs(0x9e37_79b9_7f4a_7c15);
        for len in 1..=8 {
            let lo = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
            let hi = (1u64 << (7 * len)) - 1;
            for v in [lo, hi]
                .into_iter()
                .chain((0..100).map(|_| xs.delta_of_len(len as u32)))
            {
                let mut want = vec![0u8; 8];
                assert_eq!(write_varint(v, &mut want), len, "{v:#x}");
                assert_eq!(varint_word(v, len).to_le_bytes().to_vec(), want, "{v:#x}");
            }
        }
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let mut cases = vec![0u64, 1, 127, 128, 255, 300, 16_383, 16_384, u32::MAX as u64];
        for shift in 0..9 {
            cases.push(1u64 << (7 * shift));
            cases.push((1u64 << (7 * shift)) - 1);
        }
        cases.push(u64::MAX);
        for v in cases {
            let mut out = Vec::new();
            let n = encode_varint(v, &mut out);
            assert_eq!(n, out.len());
            assert_eq!(n, varint_len(v), "len mismatch for {v}");
            let (back, used) = decode_varint(&out);
            assert_eq!(back, v);
            assert_eq!(used, n);
        }
    }

    #[test]
    fn write_and_encode_agree() {
        let mut buf = [0u8; MAX_VARINT_BYTES];
        for v in [0u64, 5, 200, 99999, u64::MAX] {
            let n = write_varint(v, &mut buf);
            let mut vec = Vec::new();
            encode_varint(v, &mut vec);
            assert_eq!(&buf[..n], &vec[..]);
        }
    }

    #[test]
    fn run_roundtrip() {
        let elems = vec![10u64, 11, 200, 100_000, 1 << 40, u64::MAX];
        let len = encoded_run_len(&elems, 8);
        let mut buf = vec![0u8; len];
        let written = encode_run(&elems, &mut buf);
        assert_eq!(written, len);
        let mut out = Vec::new();
        decode_run(&buf, &mut out);
        assert_eq!(out, elems);
    }

    #[test]
    fn empty_and_singleton_runs() {
        let mut buf = vec![0u8; 8];
        assert_eq!(encode_run(&[], &mut []), 0);
        assert_eq!(encoded_run_len(&[], 8), 0);
        let one = [42u64];
        assert_eq!(encoded_run_len(&one, 8), 8);
        assert_eq!(encode_run(&one, &mut buf), 8);
        let mut out = Vec::new();
        decode_run(&buf[..8], &mut out);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn for_each_early_exit() {
        let elems = vec![1u64, 2, 3, 4, 5];
        let mut buf = vec![0u8; encoded_run_len(&elems, 8)];
        encode_run(&elems, &mut buf);
        let mut seen = Vec::new();
        let finished = for_each_in_run(&buf, |e| {
            seen.push(e);
            e < 3
        });
        assert!(!finished);
        assert_eq!(seen, vec![1, 2, 3]);
        let mut all = Vec::new();
        assert!(for_each_in_run(&buf, |e| {
            all.push(e);
            true
        }));
        assert_eq!(all, elems);
    }

    #[test]
    fn dense_runs_compress_well() {
        // Consecutive integers: 8-byte head + 1 byte per extra element.
        let elems: Vec<u64> = (1000..2000).collect();
        assert_eq!(encoded_run_len(&elems, 8), 8 + 999);
    }
}
