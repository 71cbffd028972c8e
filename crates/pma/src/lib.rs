//! Batch-parallel Packed Memory Array (PMA) and Compressed PMA (CPMA).
//!
//! This crate is the paper's primary contribution: a dynamic, ordered,
//! batch-parallel set stored in one contiguous array without pointers.
//!
//! * [`Pma`] — the uncompressed PMA: packed-left leaves of raw keys.
//! * [`Cpma`] — the compressed PMA: each leaf stores its first key (*head*)
//!   raw and the remaining keys as delta-encoded byte codes; density bounds
//!   are enforced on **bytes** instead of cells (§5 of the paper).
//!
//! Both share one engine, [`core::PmaCore`], which implements search, point
//! updates, the three-phase parallel batch-update algorithm of §4
//! (batch-merge → counting → redistribute), range maps, and resizing with a
//! configurable growing factor (Appendix C).
//!
//! The public query/update surface is the workspace-wide `cpma_api`
//! hierarchy — `OrderedSet` (point queries), `BatchSet` (batch updates),
//! `RangeSet` (`RangeBounds`-based scans: `range_sum(a..b)`,
//! `for_range(a..=b, f)`, `range_iter`) — implemented once for the generic
//! engine in this crate's `api` module. Construction takes the growing
//! factor and the codec override through the fallible
//! [`PmaConfig::builder`]; the regime boundaries, the capacity floor and
//! the density bounds are constants, as the paper fixes them.
//! `Pma`/`Cpma` also implement `FromIterator`, `Extend`, and
//! `IntoIterator` for std-collection ergonomics.

pub mod bitmap;
pub mod codec;
pub mod core;
pub mod persist;
pub mod stats;
pub mod tree;

mod api;
mod batch;
mod compressed;
mod density;
mod leaf;
mod run;
mod search;
mod uncompressed;
mod writeset;

pub use crate::compressed::CompressedLeaves;
pub use crate::core::{
    Cpma, ForceCodec, Pma, PmaConfig, PmaConfigBuilder, PmaCore, FULL_REBUILD_DIVISOR, MIN_LEAVES,
    POINT_UPDATE_CUTOFF,
};
pub use crate::leaf::{BlockFill, ChunkBlock, LeafStorage, OpsOutcome, RunSize, CHUNK_KEYS};
pub use crate::stats::PmaStats;
pub use crate::uncompressed::UncompressedLeaves;
pub use cpma_api::{BatchOp, BatchOutcome, Persist, PersistError, SetKey};

/// Integer key types storable in a PMA.
///
/// Extends the workspace-wide [`SetKey`] (which carries `MIN`/`MAX` and the
/// u64 widening used by sums and compression) with the raw encoding width
/// the PMA's cell accounting needs. The paper's artifact is a 64-bit key
/// store; we additionally allow `u32` for the uncompressed PMA. The CPMA's
/// delta coder is defined on `u64`.
pub trait PmaKey: SetKey {
    /// Width of the raw (uncompressed) encoding in bytes.
    const BYTES: usize;
}

impl PmaKey for u64 {
    const BYTES: usize = 8;
}

impl PmaKey for u32 {
    const BYTES: usize = 4;
}

/// Budgets are pinned with `ThreadPool::install` (process-global), so the
/// unit tests that pin one serialize on this lock.
#[cfg(test)]
pub(crate) static BUDGET_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
