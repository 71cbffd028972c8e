//! Small, fast, deterministic PRNGs.
//!
//! Benchmark inputs must be reproducible across runs and machines, so we use
//! our own SplitMix64 (Steele, Lea & Flood 2014) rather than a library RNG
//! whose stream could change between versions. SplitMix64 passes BigCrush,
//! is a single multiply-xor-shift pipeline, and is the standard seeder for
//! the xoshiro family. It is the workspace's one generator: the workloads
//! draw from it, and so do the property tests and the conformance suite
//! (`cpma_api::testkit` re-exports it).

/// SplitMix64 PRNG. One `u64` of state; every call advances the state by a
/// fixed odd constant and hashes it with [`mix64`], so jumping ahead is
/// O(1). Any seed, zero included, gives a full-period stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Distinct seeds give independent-looking
    /// streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift reduction
    /// (exact for bound ≤ 2^32, ≤ 2^-64 bias otherwise). A `bound` of 0
    /// yields 0 without drawing.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value with exactly `bits` random low bits (`bits` ≤ 64).
    #[inline]
    pub fn next_bits(&mut self, bits: u32) -> u64 {
        debug_assert!((1..=64).contains(&bits));
        self.next_u64() >> (64 - bits)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Split off an independent generator (used to give each parallel task
    /// its own stream while keeping the whole workload a function of one
    /// seed).
    #[inline]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    /// Coin flip with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_below(den) < num
    }

    /// `len` draws of `bits`-bit keys (not normalized).
    pub fn keys(&mut self, len: usize, bits: u32) -> Vec<u64> {
        (0..len).map(|_| self.next_bits(bits)).collect()
    }

    /// A strictly-increasing batch of at most `max_len` `bits`-bit keys.
    pub fn sorted_batch(&mut self, max_len: usize, bits: u32) -> Vec<u64> {
        let len = self.next_below(max_len as u64) as usize + 1;
        let mut b = self.keys(len, bits);
        b.sort_unstable();
        b.dedup();
        b
    }

    /// Fewer than `max_len` full-width draws (not normalized) — the
    /// adversarial input shape the property tests sort and dedup.
    pub fn raw_keys(&mut self, max_len: u64) -> Vec<u64> {
        let n = self.next_below(max_len) as usize;
        (0..n).map(|_| self.next_u64()).collect()
    }
}

/// Stafford variant 13 finalizer — the output hash of [`SplitMix64`], and a
/// high-quality 64-bit mixer on its own, used to scramble zipfian ranks (so
/// that "rank 0 is hottest" does not mean "smallest key is hottest").
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream is pinned: benchmark inputs, the pinned snapshot layouts
    /// and every seeded test draw from it. Seed 0's first output is the
    /// reference implementation's; each output is [`mix64`] of the state.
    #[test]
    fn stream_is_pinned() {
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            r.next_u64(),
            mix64(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2))
        );
        let mut r = SplitMix64::new(7);
        assert_eq!(r.next_below(0), 0, "a zero bound draws nothing");
        assert_eq!(r.next_u64(), SplitMix64::new(7).next_u64());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u32::MAX as u64 + 5] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_bits_respects_width() {
        let mut r = SplitMix64::new(9);
        for bits in [1u32, 7, 34, 40, 63, 64] {
            for _ in 0..100 {
                let v = r.next_bits(bits);
                if bits < 64 {
                    assert!(v < 1u64 << bits, "bits={bits} v={v}");
                }
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn next_below_covers_small_ranges() {
        // Sanity: over many draws every residue of a small bound appears.
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = SplitMix64::new(13);
        let mut c1 = root.split();
        let mut c2 = root.split();
        let matches = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn test_draws_respect_their_bounds() {
        let mut r = SplitMix64::new(42);
        for _ in 0..100 {
            assert!(r.raw_keys(10).len() < 10);
            assert!(r.keys(5, 8).iter().all(|&k| k < 256));
            assert!(!r.chance(0, 3) && r.chance(3, 3));
        }
        assert!(r.raw_keys(0).is_empty());
    }

    #[test]
    fn sorted_batch_is_normal_form() {
        let mut r = SplitMix64::new(7);
        for _ in 0..50 {
            let b = r.sorted_batch(100, 16);
            assert!(!b.is_empty());
            assert!(b.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
