//! Reimplementations of the systems the CPMA paper evaluates against.
//!
//! The paper compares the PMA/CPMA to three families of batch-parallel
//! pointer-based sets (§6):
//!
//! * [`PTree`] — P-trees (the PAM library \[70]): uncompressed binary trees
//!   with join-based parallel bulk operations, 32 bytes per element;
//! * [`PacTree`] — PaC-trees (the CPAM library \[33]): binary trees over
//!   *blocks* of up to `P = 256` elements, in uncompressed (`U-PaC`) and
//!   difference-encoded (`C-PaC`) variants;
//! * [`CTreeSet`] — Aspen-style C-trees \[36]: elements hash-sampled into
//!   chunk heads, each head carrying a compressed chunk of followers.
//!
//! These are clean-room Rust reimplementations built for the benchmark
//! harness: they preserve the baselines' *structural* behaviour (pointer
//! chasing between nodes/blocks, join-based batch updates, per-block
//! compression) rather than matching the original C++ line by line.
//! "Substitutions" in REPRODUCTION.md records the simplifications.
//!
//! The P-tree and both PaC-trees are one join core (`ptree.rs`): a PaC-tree
//! is a P-tree whose small subtrees are blocks, and the P-tree is
//! `PacTree` with no blocks.
//!
//! Every baseline's public surface is the canonical `cpma_api` hierarchy
//! (`OrderedSet`/`BatchSet`/`RangeSet`/`ParallelChunks`), plus `new` (and
//! the trees' `check_invariants` for tests), so the scorecard and the
//! equivalence tests drive them exactly like the PMA/CPMA. Batch preprocessing is the shared `cpma_api::normalize_batch`
//! — identical normal form across structures keeps the comparison honest.

pub mod ctree;
pub mod pactree;
pub mod ptree;

pub use ctree::CTreeSet;
pub use pactree::{CompressedBlock, PacTree, RawBlock};
pub use ptree::PTree;

/// Uncompressed PaC-tree (the paper's "U-PaC").
pub type UPac = PacTree<RawBlock>;
/// Compressed PaC-tree (the paper's "C-PaC").
pub type CPac = PacTree<CompressedBlock>;

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::conformance::assert_ordered_set_contract;
    use cpma_api::OrderedSet;

    #[test]
    fn ptree_conforms() {
        assert_ordered_set_contract::<PTree>(0x9733);
    }

    #[test]
    fn upac_conforms() {
        assert_ordered_set_contract::<UPac>(0x09AC);
    }

    #[test]
    fn cpac_conforms() {
        assert_ordered_set_contract::<CPac>(0xC9AC);
    }

    #[test]
    fn ctree_conforms() {
        assert_ordered_set_contract::<CTreeSet>(0xC733);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(<PTree as OrderedSet>::NAME, "P-tree");
        assert_eq!(<UPac as OrderedSet>::NAME, "U-PaC");
        assert_eq!(<CPac as OrderedSet>::NAME, "C-PaC");
        assert_eq!(<CTreeSet as OrderedSet>::NAME, "C-tree");
    }
}
