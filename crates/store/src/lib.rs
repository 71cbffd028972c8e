//! # cpma-store — a concurrent front-end that turns live traffic into
//! batch-parallel updates.
//!
//! The paper's core claim is that *batching amortizes update cost*: a
//! batch-parallel insert of k elements into a CPMA beats k point inserts
//! by orders of magnitude (§4, Figure 1). But every structure in this
//! workspace is single-owner — `&mut self` batch methods — so many
//! concurrent clients could not use one at all. This crate closes that gap
//! with two composable layers, following the shape of batch-parallel 2-3
//! trees (explicit batch interfaces fed by an aggregation layer) and
//! PaC-tree-style snapshot readers:
//!
//! * [`ShardedSet<S, N>`] range-partitions the key space into shards
//!   of any [`cpma_api::BatchSet`] + [`cpma_api::RangeSet`] backend,
//!   splits each sorted batch at learned splitters, and applies the
//!   per-shard sub-batches **in parallel** on the workspace pool. Its
//!   rebalance pass re-learns the splitters when one shard outgrows the
//!   others, at the shard count `N` its type names; always-on
//!   [`RebalanceStats`] count batches and rebuilds. It implements the
//!   full canonical trait hierarchy itself, so the conformance suite, the equivalence and
//!   determinism tests, and `fgraph::SetGraph` all gate it unchanged.
//! * [`Combiner<S>`] is a flat-combining writer front-end: any thread may
//!   submit `insert`/`remove`/`contains` operations; one submitter is
//!   elected leader per *epoch*, drains the shared publication buffer,
//!   folds the drained operations into one normalized batch, applies it
//!   with the backend's batch-parallel update, and wakes every waiter with
//!   its individual result. The leader never waits — batch size adapts
//!   to contention alone — and always-on [`CombinerStats`] record the
//!   epoch sizes that result. Readers run against a swap-published
//!   snapshot ([`Combiner::snapshot`]) and never block behind writers.
//!
//! Stacked as `Combiner<ShardedSet<Cpma>>`, point operations from many
//! threads become sorted batches, and those batches fan out over shards —
//! live traffic executes exactly the workload regime the paper shows the
//! CPMA wins. The repository benchmark's `service_mixed` workload
//! (`benchmark/`) measures that end to end; `docs/TUNING.md` explains
//! every knob.
//!
//! # Durability
//!
//! Both layers persist through `cpma-persist`. [`ShardedSet`] implements
//! [`Persist`] as a shard-per-file checkpoint directory with a
//! checksummed manifest, and [`Combiner::open_durable`] attaches an epoch
//! write-ahead log: each epoch's net batch is appended (checksummed,
//! under a configurable [`FsyncPolicy`]) after it is applied to a private
//! replica and *before* that replica is published or any operation
//! acknowledged, and the log rotates through size-triggered checkpoints. Reopening the same
//! directory after a crash recovers exactly the state of the last
//! acknowledged epoch — newest valid checkpoint plus WAL tail replay
//! (one batch per segment), with a torn final record truncated. `docs/ARCHITECTURE.md` has the
//! format and the recovery state machine.

mod combiner;
mod sharded;

pub use combiner::{Combiner, CombinerConfig, CombinerStats, Op};
pub use cpma_api::{Persist, PersistError};
pub use cpma_persist::{FsyncPolicy, RecoveryReport, WalConfig};
pub use sharded::{RebalanceStats, ShardedSet, REBALANCE_MIN_PER_SHARD, SKEW_FACTOR};
