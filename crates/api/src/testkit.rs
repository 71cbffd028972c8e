//! Deterministic randomized-test support.
//!
//! The workspace's property tests (and the [`conformance`](crate::conformance)
//! suite) need seeded, reproducible randomness with no external
//! dependencies. `Rng` is SplitMix64 — the same generator the workloads
//! crate uses for the paper's inputs — plus the handful of draw helpers the
//! tests share. [`Damage`] / [`assert_all_refused`] are the corruption
//! table every checksummed container's suite runs.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, equidistributed
/// output, and robust to any seed including zero.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` of 0 yields 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift bounded draw (Lemire); bias is negligible for
        // test-scale bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform draw keeping the low `bits` bits.
    pub fn bits(&mut self, bits: u32) -> u64 {
        debug_assert!((1..=64).contains(&bits));
        self.next_u64() >> (64 - bits)
    }

    /// Coin flip with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A batch of `len` draws of `bits`-bit keys (not normalized).
    pub fn keys(&mut self, len: usize, bits: u32) -> Vec<u64> {
        (0..len).map(|_| self.bits(bits)).collect()
    }

    /// A strictly-increasing batch of at most `max_len` `bits`-bit keys.
    pub fn sorted_batch(&mut self, max_len: usize, bits: u32) -> Vec<u64> {
        let len = self.below(max_len as u64) as usize + 1;
        let mut b = self.keys(len, bits);
        b.sort_unstable();
        b.dedup();
        b
    }

    /// Up to `max_len` full-width draws (not normalized) — the adversarial
    /// input shape the property tests feed through [`sorted_unique`].
    pub fn raw_keys(&mut self, max_len: u64) -> Vec<u64> {
        let n = self.below(max_len) as usize;
        (0..n).map(|_| self.next_u64()).collect()
    }
}

/// Sort + dedup by value: the tests' model-side normal form.
pub fn sorted_unique(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

/// One way to damage an encoded, checksummed container — a snapshot image,
/// a WAL record, a wire frame. The corruption suites of all three are
/// tables of these run through [`assert_all_refused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damage {
    /// Keep only the first `n` bytes.
    Truncate(usize),
    /// Xor `mask` into the byte at `at`.
    Flip { at: usize, mask: u8 },
    /// Rewrite the leading `LE u32` length of a `[len][body][digest]` frame
    /// to `u32::MAX`.
    OversizeLength,
    /// Rewrite the trailing `LE u64` digest to a plausible wrong value.
    ForgedDigest,
}

impl Damage {
    /// The two forgeries of a `[len LE u32][body][digest LE u64]` frame.
    pub const FRAME_FORGERIES: [Damage; 2] = [Damage::OversizeLength, Damage::ForgedDigest];

    /// Truncation to, and each of `masks` flipped at, every one of the
    /// first `dense` positions of a `len`-byte buffer, every `stride`-th
    /// after them, and the last. `dense = usize::MAX` is exhaustive.
    pub fn sweep(len: usize, dense: usize, stride: usize, masks: &[u8]) -> Vec<Damage> {
        let dense = dense.min(len);
        let mut positions: Vec<usize> = (0..dense)
            .chain((dense..len).step_by(stride))
            .chain(len.checked_sub(1))
            .collect();
        positions.dedup();
        let mut table = Vec::new();
        for at in positions {
            table.push(Damage::Truncate(at));
            table.extend(masks.iter().map(|&mask| Damage::Flip { at, mask }));
        }
        table
    }

    /// A damaged copy of `encoded`.
    pub fn apply(self, encoded: &[u8]) -> Vec<u8> {
        let mut bad = encoded.to_vec();
        match self {
            Damage::Truncate(n) => bad.truncate(n),
            Damage::Flip { at, mask } => bad[at] ^= mask,
            Damage::OversizeLength => bad[..4].copy_from_slice(&u32::MAX.to_le_bytes()),
            Damage::ForgedDigest => {
                let at = bad.len() - 8;
                bad[at..].copy_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
            }
        }
        bad
    }
}

/// Run `parse` over `encoded` under every [`Damage`] of `table`: each must
/// come back `Err` — typed, and printable without a panic — never `Ok`.
/// `parse` is whatever reads the container back: a decoder over the bytes,
/// or a closure that sends them to a live server and reports whether
/// anything was acknowledged.
pub fn assert_all_refused<E: std::fmt::Display>(
    encoded: &[u8],
    table: impl IntoIterator<Item = Damage>,
    mut parse: impl FnMut(&[u8]) -> Result<(), E>,
) {
    for damage in table {
        match parse(&damage.apply(encoded)) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(()) => panic!("{damage:?} of {} bytes went undetected", encoded.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damage_sweep_covers_what_it_says() {
        let all = Damage::sweep(5, usize::MAX, 1, &[1]);
        assert_eq!(all.len(), 10);
        assert_eq!(all[0], Damage::Truncate(0));
        assert_eq!(all[9], Damage::Flip { at: 4, mask: 1 });
        // 0, 1 dense; 2, 5, 8 strided; 9 the last.
        let cuts: Vec<Damage> = Damage::sweep(10, 2, 3, &[]);
        assert_eq!(cuts, [0, 1, 2, 5, 8, 9].map(Damage::Truncate));
        assert!(Damage::sweep(0, 8, 1, &[1]).is_empty());
        assert_eq!(
            Damage::ForgedDigest.apply(&[0; 12])[4..],
            0xDEAD_BEEF_u64.to_le_bytes()
        );
        assert_all_refused(&[0u8; 4], all[..8].iter().copied(), |b| {
            if b == [0u8; 4] {
                Ok(())
            } else {
                Err("damaged")
            }
        });
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(2);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bounded_draws_in_range() {
        let mut r = Rng::new(42);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!(r.bits(8) < 256);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn sorted_batch_is_normal_form() {
        let mut r = Rng::new(7);
        for _ in 0..50 {
            let b = r.sorted_batch(100, 16);
            assert!(!b.is_empty());
            assert!(b.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
