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
//! Every baseline implements the canonical `cpma_api` hierarchy
//! (`OrderedSet`/`BatchSet`/`RangeSet`; see this crate's `api` module), so
//! the sweep binaries and equivalence tests drive them exactly like the
//! PMA/CPMA. Batch preprocessing is the shared `cpma_api::normalize_batch`
//! — identical normal form across structures keeps the comparison honest.

pub mod ctree;
pub mod pactree;
pub mod ptree;

mod api;

pub use ctree::CTreeSet;
pub use pactree::{CompressedBlock, PacTree, RawBlock};
pub use ptree::PTree;

/// Uncompressed PaC-tree (the paper's "U-PaC").
pub type UPac = PacTree<RawBlock>;
/// Compressed PaC-tree (the paper's "C-PaC").
pub type CPac = PacTree<CompressedBlock>;
