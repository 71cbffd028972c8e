//! # cpma-persist — snapshot checkpoints, epoch WAL, crash recovery.
//!
//! The paper's structures store everything in contiguous arrays with no
//! pointers (§3–§5) — which makes durability nearly free. A checkpoint is
//! a versioned header plus a byte copy of the backing arrays (no
//! serialization walk, no pointer fixup), and the combiner's epoch
//! structure gives a natural write-ahead-log unit: one record per epoch,
//! carrying the normalized `BatchOp` stream that epoch applied.
//!
//! Every region any of it writes is sealed with one digest ([`checksum`],
//! XXH64), and every length-prefixed record — WAL records here, wire
//! frames in `cpma-service` — is one [`frame`].
//!
//! Three pieces on top of those, all std-only:
//!
//! * [`snapshot`] — the checksummed, versioned snapshot envelope, with
//!   its one streaming writer and one streaming reader: a save goes from
//!   the structure's arrays to the file and a load from the file into the
//!   arrays it becomes, each byte hashed on the way and copied once.
//!   Structures implement [`cpma_api::Persist`] on top of it (`Pma`/
//!   `Cpma` in `cpma-pma`; `ShardedSet`'s shard-per-file directory with a
//!   manifest in `cpma-store`).
//! * [`wal`] — segmented epoch log: one [`frame`] per epoch, carrying its
//!   sequence number, a [`wal::FsyncPolicy`], and
//!   size-triggered checkpoint + truncate rotation ([`wal::WalConfig`]).
//! * [`mod@recover`] — crash recovery: load the newest checkpoint that
//!   validates, replay the WAL tail with sequence-continuity checks as one
//!   normalised batch per segment, and truncate any torn final record. Deterministic, and oracle-checked by
//!   the kill-point tests in `crates/store/tests/persist_recovery.rs`.
//!
//! Every load path is fuzz-tested against byte flips and truncations:
//! corruption yields a typed [`cpma_api::PersistError`], never a panic,
//! and declared lengths are validated against actual file sizes before
//! any allocation.

pub mod checksum;
pub mod frame;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use cpma_api::{Persist, PersistError};
pub use recover::{recover, RecoveryReport};
pub use snapshot::SnapshotEnvelope;
pub use wal::{FsyncPolicy, WalConfig, WalWriter, KEEP_CHECKPOINTS};
