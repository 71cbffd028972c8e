//! Deterministic workload generation for the CPMA reproduction.
//!
//! The paper evaluates the PMA/CPMA and its baselines on a fixed set of input
//! distributions:
//!
//! * **uniform 40-bit keys** — the main microbenchmark input ("40-bit numbers
//!   gives a balance between the compression ratio and the number of
//!   duplicates", §6);
//! * **zipfian 34-bit keys** with skew `α = 0.99` (the YCSB parameter);
//! * **RMAT edges** with `a = 0.5, b = c = 0.1, d = 0.3` (the PaC-tree paper's
//!   update-stream distribution, used for the graph insert benchmark);
//! * **Erdős–Rényi** `G(n, p)` graphs (the synthetic graph in Table 7);
//! * **clustered runs** — bursts of consecutive keys separated by large
//!   gaps (auto-increment ids, timestamps, packed edges); the workload the
//!   hybrid bitmap/delta leaf codec is designed for.
//!
//! Everything here is seeded and reproducible: the same seed always yields
//! the same byte-for-byte workload, independent of thread count.

pub mod clustered;
pub mod er;
pub mod keys;
pub mod rmat;
pub mod rng;
pub mod zipf;

pub use clustered::{clustered_keys, ClusteredKeys};
pub use er::erdos_renyi_edges;
pub use keys::{batches_of, dedup_sorted, uniform_keys, uniform_keys_in, unique_uniform_keys};
pub use rmat::RmatGenerator;
pub use rng::SplitMix64;
pub use zipf::ZipfGenerator;

/// Pack a directed edge `(src, dst)` into the single `u64` representation
/// F-Graph stores in its CPMA: source in the upper 32 bits, destination in
/// the lower 32 bits (§6, "F-Graph description").
#[inline]
pub fn pack_edge(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Inverse of [`pack_edge`].
#[inline]
pub fn unpack_edge(e: u64) -> (u32, u32) {
    ((e >> 32) as u32, e as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for &(s, d) in &[
            (0, 0),
            (1, 2),
            (7, 9),
            (u32::MAX, 0),
            (u32::MAX, 1),
            (0, u32::MAX),
            (123456, 654321),
        ] {
            assert_eq!(unpack_edge(pack_edge(s, d)), (s, d));
        }
    }

    #[test]
    fn pack_orders_by_source_first() {
        // Sorted packed edges group by source, then destination — the property
        // F-Graph relies on for implicit adjacency lists.
        assert!(pack_edge(1, u32::MAX) < pack_edge(2, 0));
        assert!(pack_edge(5, 3) < pack_edge(5, 4));
    }
}
