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
//! The query/update surface is the workspace-wide `cpma_api` hierarchy,
//! implemented once for the generic engine: `OrderedSet` (point queries),
//! `BatchSet` (batch updates), `RangeSet` (`RangeBounds`-based scans over
//! one chunk-per-leaf visitor) and `ParallelChunks` (leaf-parallel
//! chunks). The engine's inherent methods are what the traits do not
//! cover: construction, point `insert`/`remove`, counters, snapshot bytes,
//! invariant checks. The artifact's names map to trait methods as follows:
//!
//! | Artifact name | Trait method |
//! |---|---|
//! | `has` | `contains` |
//! | `map` | `for_range(.., f)` |
//! | `parallel_map` | `par_chunks` |
//! | `map_range_length` | `scan_from` with a count |
//! | `sum` | `range_sum(..)` |
//! | `size` | `len` |
//! | `get_size` | `size_bytes` |
//!
//! Construction takes the growing factor and the codec override through
//! the fallible [`PmaConfig::builder`]; the regime boundaries, the capacity
//! floor and the density bounds are constants, as the paper fixes them.
//! `Pma`/`Cpma` also implement `FromIterator`, `Extend`, and owned
//! `IntoIterator` for std-collection ergonomics.

pub mod bitmap;
pub mod codec;
pub mod core;
pub mod persist;
pub mod stats;
pub mod tree;

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
pub use cpma_api::{BatchOp, BatchOutcome, Persist, PersistError};

/// Budgets are pinned with `ThreadPool::install` (process-global), so the
/// unit tests that pin one serialize on this lock.
#[cfg(test)]
pub(crate) static BUDGET_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
