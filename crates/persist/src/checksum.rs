//! XXH64 (seed 0): the one integrity digest of the workspace.
//!
//! Every persisted or transmitted region carries it — the snapshot header
//! and payload, the WAL segment header, and every [`crate::frame`] (WAL
//! record, wire request, wire reply). The threat model is torn writes, bit
//! rot and truncation, not forgery: the digest is not cryptographic.
//!
//! XXH64 reads 32-byte stripes into four independent multiply–rotate
//! lanes, so the multiplies of one stripe overlap instead of waiting on
//! each other; what is left under 32 bytes goes through a serial tail of
//! 8-, 4- and 1-byte steps, and the length is mixed in before the final
//! avalanche. This is the portable reference algorithm in safe Rust: no
//! `core::arch`, no feature detection, one path on every target.
//!
//! **What the swap from FNV-1a gave up, stated exactly.** Each FNV-1a step
//! (`h = (h ^ byte) * prime`) is a bijection of the 64-bit state, so a
//! single changed byte *always* changed the digest. XXH64 keeps that
//! guarantee wherever its steps are bijections of the state the byte
//! enters: for every input shorter than 32 bytes, and for the tail of a
//! longer one (each tail step xors an injective function of the bytes into
//! `h` and then applies an invertible rotate–multiply–add). A change
//! inside the striped section is injective into its lane, but the four
//! lanes are then folded into one word, so there the guarantee is
//! probabilistic: a miss needs a 64-bit collision, 2⁻⁶⁴ per changed
//! stripe. In exchange every input bit reaches every digest bit (FNV-1a
//! never carries a bit downwards), which is the property that matters for
//! the multi-byte bursts and zero-filled sectors that torn writes and bit
//! rot actually produce. Truncation is covered twice: by the length mixed
//! into the digest and by the length field every container stores beside
//! it.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(h: u64, acc: u64) -> u64 {
    (h ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 of `bytes` with seed 0.
pub fn xxh64(bytes: &[u8]) -> u64 {
    #[cfg(debug_assertions)]
    tally::HASHED.with(|c| c.set(c.get() + bytes.len()));
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        P5
    } else {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in stripes {
            let (lanes, _) = stripe.as_chunks::<8>();
            for (acc, lane) in v.iter_mut().zip(lanes) {
                *acc = round(*acc, u64::from_le_bytes(*lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &acc| merge(h, acc))
    };
    h = h.wrapping_add(bytes.len() as u64);

    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        h = (h ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let (halves, tail) = tail.as_chunks::<4>();
    for half in halves {
        h = (h ^ (u32::from_le_bytes(*half) as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &byte in tail {
        h = (h ^ (byte as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Bytes this thread has pushed through [`xxh64`], for the count-not-clock
/// tests that pin "a frame is hashed once". Gated on `debug_assertions`
/// because `#[cfg(test)]` stops at the crate boundary and the frames worth
/// pinning are built in `cpma-service`; release builds compile it out.
#[cfg(debug_assertions)]
pub mod tally {
    use std::cell::Cell;

    thread_local! {
        pub(super) static HASHED: Cell<usize> = const { Cell::new(0) };
    }

    /// Bytes `f` hashed on this thread.
    pub fn hashed_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = HASHED.with(Cell::get);
        let out = f();
        (out, HASHED.with(Cell::get) - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::testkit::{assert_all_refused, Damage, SplitMix64};

    /// XXH64 written the obvious way: an index walked over the input, one
    /// named lane variable per accumulator.
    fn reference(b: &[u8]) -> u64 {
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap()) as u64;
        let rnd = |acc: u64, x: u64| {
            acc.wrapping_add(x.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        };
        let mut i = 0;
        let mut h;
        if b.len() >= 32 {
            let mut v1 = P1.wrapping_add(P2);
            let mut v2 = P2;
            let mut v3 = 0u64;
            let mut v4 = 0u64.wrapping_sub(P1);
            while i + 32 <= b.len() {
                v1 = rnd(v1, u64_at(i));
                v2 = rnd(v2, u64_at(i + 8));
                v3 = rnd(v3, u64_at(i + 16));
                v4 = rnd(v4, u64_at(i + 24));
                i += 32;
            }
            h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in [v1, v2, v3, v4] {
                h = (h ^ rnd(0, v)).wrapping_mul(P1).wrapping_add(P4);
            }
        } else {
            h = P5;
        }
        h = h.wrapping_add(b.len() as u64);
        while i + 8 <= b.len() {
            h ^= rnd(0, u64_at(i));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            i += 8;
        }
        if i + 4 <= b.len() {
            h ^= u32_at(i).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            i += 4;
        }
        while i < b.len() {
            h ^= (b[i] as u64).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
            i += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    #[test]
    fn published_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// Lengths 0 ..= 100 walk every tail shape (8-, 4- and 1-byte steps in
    /// every combination) and the 31 / 32 / 33 edge where striping starts.
    #[test]
    fn every_length_matches_the_reference() {
        let mut rng = SplitMix64::new(22);
        let data: Vec<u8> = (0..100).map(|_| rng.next_u64() as u8).collect();
        for n in 0..=data.len() {
            assert_eq!(xxh64(&data[..n]), reference(&data[..n]), "length {n}");
        }
    }

    /// Every single-byte flip and every truncation of a 4 KiB buffer moves
    /// the digest — 127 stripes and a 32-byte-aligned end, then one byte
    /// short of it so the tail runs too.
    #[test]
    fn every_flip_and_truncation_of_4k_moves_the_digest() {
        let mut rng = SplitMix64::new(4096);
        let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        for buf in [&data[..], &data[..4095]] {
            let want = xxh64(buf);
            let table = Damage::sweep(buf.len(), usize::MAX, 1, &[0x01, 0x40, 0x80]);
            assert_all_refused(buf, table, |b| {
                if xxh64(b) == want {
                    Ok(())
                } else {
                    Err("digest moved")
                }
            });
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn tally_counts_the_bytes_hashed_on_this_thread() {
        let ((), n) = tally::hashed_by(|| {
            xxh64(&[0; 100]);
            xxh64(&[0; 7]);
        });
        assert_eq!(n, 107);
    }
}
