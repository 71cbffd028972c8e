//! # cpma — batch-parallel (Compressed) Packed Memory Arrays in Rust
//!
//! Umbrella crate for the reproduction of *CPMA: An Efficient Batch-Parallel
//! Compressed Set Without Pointers* (Wheatman, Burns, Buluç, Xu — PPoPP
//! 2024).
//!
//! ## One interface, seven set structures
//!
//! The paper's evaluation runs six ordered-set structures through identical
//! workloads. This workspace expresses that as one canonical trait
//! hierarchy, defined in [`api`] (`cpma-api`) and implemented by every
//! structure plus `std::collections::BTreeSet` (the test oracle):
//!
//! * [`api::OrderedSet`] — point queries: `contains`, `len`, `min`/`max`,
//!   `successor`, `size_bytes`;
//! * [`api::BatchSet`] — `build_sorted`, `insert_batch_sorted`,
//!   `remove_batch_sorted`, plus unsorted `insert_batch`/`remove_batch`
//!   wrappers routed through [`api::normalize_batch`];
//! * [`api::RangeSet`] — std-idiom range queries over
//!   [`std::ops::RangeBounds`]: `range_sum(a..b)`, `for_range(a..=b, f)`,
//!   `range_iter`, built on one `scan_chunks_from` primitive that hands
//!   out ascending slices a leaf or block at a time.
//!
//! Import the lot with the [`prelude`]:
//!
//! ```
//! use cpma::prelude::*;
//!
//! let mut set = Cpma::new();
//! set.insert_batch(&mut [5, 1, 3, 1], false);
//! assert_eq!(set.len(), 3);
//! assert!(set.contains(3));
//! assert_eq!(set.range_sum(1..=5), 9);
//! assert_eq!(set.range_iter(2..).collect::<Vec<_>>(), vec![3, 5]);
//! ```
//!
//! The same program runs against any structure in the workspace — swap
//! `Cpma::new()` for `PTree::new()`, `UPac::new()`, or `BTreeSet::new()`
//! and nothing else changes. That property is enforced, not aspirational:
//! [`api::conformance::assert_ordered_set_contract`] runs the shared
//! randomized contract against all seven implementations in CI.
//!
//! For the PMA/CPMA and the three baselines these traits, with
//! [`api::ParallelChunks`] (`par_chunks`: the same slices visited in
//! parallel), are the whole query/update surface: each structure
//! implements them in its own module, with no inherent copies beside
//! them (bar five on `PmaCore` that the trait impl forwards to: `len`,
//! `is_empty`, `min`, `size_bytes`, `contains_batch`). What else stays
//! inherent is what the traits do not cover — constructors with a
//! configuration, point `insert`/`remove`, counters, snapshot bytes.
//!
//! ## The crates under the roof
//!
//! * [`api`] — the trait hierarchy, `normalize_batch`, `ConfigError`, the
//!   conformance suite, and the deterministic test kit;
//! * [`pma`] — the paper's contribution: [`pma::Pma`] (uncompressed) and
//!   [`pma::Cpma`] (delta + byte-code compressed), both with the
//!   work-efficient parallel batch-update algorithm of §4, configured by a
//!   [`pma::PmaConfig`] that [`pma::PmaConfig::check`] validates;
//! * [`baselines`] — reimplementations of the systems the paper compares
//!   against: P-trees (PAM), PaC-trees (U-PaC / C-PaC), Aspen-style
//!   C-trees;
//! * [`fgraph`] — F-Graph (dynamic graphs on a single CPMA) as an instance
//!   of the backend-generic [`fgraph::SetGraph`], the baseline graph
//!   containers, a CSR reference, and a Ligra-style algorithm layer;
//! * [`store`] — the concurrent front-end: [`store::ShardedSet`]
//!   (range-partitioned shards, batches split at learned splitters and
//!   applied shard-parallel, splitters re-learned on skew and counted in
//!   [`store::RebalanceStats`]) and [`store::Combiner`] (flat-combining
//!   writer aggregation with swap-published snapshots; the leader never
//!   waits, so batch size adapts to contention alone), which together
//!   turn live multi-threaded traffic into the batch-parallel updates the
//!   paper's structures are built for — `docs/ARCHITECTURE.md` maps the
//!   whole stack and `docs/TUNING.md` explains every knob;
//! * [`persist`] — the durability layer: checksummed zero-copy snapshots
//!   ([`api::Persist`] `save`/`load` on `Pma`, `Cpma`, and
//!   `ShardedSet`), the epoch write-ahead log behind
//!   [`store::Combiner::open_durable`], and crash recovery
//!   ([`fn@persist::recover`]: newest valid checkpoint + WAL tail
//!   replay);
//! * [`service`] — the network front door: a std-only blocking TCP server
//!   ([`service::Service`]) speaking a length-prefixed checksummed binary
//!   protocol, funneling per-connection op pipelines through
//!   [`store::Combiner::submit_many`] (optionally WAL-backed via
//!   [`service::Service::serve_durable`]) and serving reads from published
//!   snapshots, plus the blocking loopback [`service::Client`];
//! * [`workloads`] — deterministic generators for every input distribution
//!   in the paper's evaluation;
//! * [`obs`] — the observability layer every crate above reports into: a
//!   process-global [`obs::Registry`] of counters/gauges/latency
//!   histograms, RAII phase spans feeding a bounded event journal, and
//!   Prometheus-text / JSON exposition — `docs/OBSERVABILITY.md` catalogs
//!   every metric.

pub use cpma_api as api;
pub use cpma_baselines as baselines;
pub use cpma_fgraph as fgraph;
pub use cpma_obs as obs;
pub use cpma_persist as persist;
pub use cpma_pma as pma;
pub use cpma_service as service;
pub use cpma_store as store;
pub use cpma_workloads as workloads;

/// Everything needed to use any of the workspace's set structures through
/// the canonical interface: the trait hierarchy, the batch normal-form
/// helpers, and the concrete structure types.
pub mod prelude {
    pub use crate::api::{
        normalize_batch, normalize_ops, BatchOp, BatchOutcome, BatchSet, ConfigError, OrderedSet,
        ParallelChunks, RangeSet,
    };
    pub use crate::api::{Persist, PersistError};
    pub use crate::baselines::{CPac, CTreeSet, PTree, UPac};
    pub use crate::persist::{FsyncPolicy, RecoveryReport, WalConfig};
    pub use crate::pma::{Cpma, Pma, PmaConfig};
    pub use crate::service::{Client, Service, ServiceConfig};
    pub use crate::store::{Combiner, CombinerConfig, CombinerStats, RebalanceStats, ShardedSet};
}
