//! Range-partitioned sharding over any batch-parallel set backend, with
//! skew-triggered rebalance and statistics-driven shard-count autotuning.
//!
//! # Shard routing
//!
//! A [`ShardedSet<S, N>`] owns a vector of backends and one fewer
//! ascending *splitters*. Key `k` lives in shard `i` iff
//! `splitters[i − 1] ≤ k < splitters[i]` (with implicit `−∞`/`+∞`
//! sentinels), i.e. `shard_of(k)` is the number of splitters ≤ `k`.
//! Because shards partition the key space in order, every cross-shard
//! operation stitches shard results in shard index order and gets key
//! order for free: `to_vec` concatenates, `scan_from` resumes in the next
//! shard, `range_sum` adds per-shard sums, `par_chunks` hands out each
//! shard's chunks unchanged.
//!
//! # Batch splitting
//!
//! The `*_batch_sorted` methods binary-search the sorted batch once per
//! splitter ([`slice::partition_point`]), yielding disjoint sub-batch
//! ranges, then apply them to their shards **in parallel** via the
//! workspace pool (`par_iter_mut` over the shard vector). Sub-batch `i`
//! only ever touches shard `i`, so the shards' `&mut` batch updates run
//! concurrently without any locking, and the per-shard counts are summed
//! in shard index order — results are bit-identical at any thread count.
//! Mixed op batches ([`BatchSet::apply_batch_sorted`]) follow the same
//! route: **one** split of the op run at the splitters, each shard
//! applying its interleaved inserts and removes in its backend's single
//! mixed pass — where the former remove-then-insert split walked every
//! shard twice.
//!
//! # Splitter learning, rebalance, and shard-count autotuning
//!
//! A freshly built set learns its splitters from the data: splitter `i` is
//! the `(i + 1)/n` quantile of the sorted input. An empty set starts from
//! evenly spaced cut points over the `u64` domain. Skewed traffic can
//! outgrow either choice, so after every batch update the set checks the
//! observed skew: once it holds at least [`REBALANCE_MIN_PER_SHARD`]
//! elements per shard on average, and the fullest shard exceeds
//! [`SKEW_FACTOR`]× the mean, the set re-learns quantile splitters from
//! its own (sorted) contents and redistributes — an `O(n)` rebuild, the
//! same cost class as the backend PMA's own resize, and deterministic
//! because it depends only on the stored contents.
//!
//! The same pass also *autotunes the shard count*. Every batch update
//! feeds [`RebalanceStats`] (per-shard batch-op counts since the last
//! reshard, rebalance triggers, post-rebalance imbalance), and the
//! rebalance check picks the next shard count from those statistics by
//! doubling or halving between [`ShardTuning::min_shards`] and
//! [`ShardTuning::max_shards`]:
//!
//! * **grow** (double) when the mean shard occupancy exceeds twice
//!   [`ShardTuning::target_per_shard`], or when one shard absorbed more
//!   than three quarters of the batch traffic in the current counting
//!   window (splitting the hot range spreads future batch fan-out);
//! * **shrink** (halve) when the mean occupancy falls below half the
//!   target, so a drained set does not pay cross-shard stitching for
//!   near-empty shards.
//!
//! The decision depends only on the stored contents and the (schedule-
//! independent) batch-op counters, so resharding is as deterministic as
//! the rebalance itself and the wrapper keeps passing the conformance,
//! equivalence, and determinism suites at any thread budget.
//!
//! By default the shard count is **pinned** to the const parameter `N`
//! (`min_shards == max_shards == N` — exactly the pre-autotuning
//! behaviour). Opt in either at the type level via the trailing
//! `MIN`/`MAX` const parameters (`ShardedSet<Cpma, 4, 1, 64>`), which
//! keeps the trait constructors (`new_set`/`build_sorted`) usable by the
//! generic suites, or at runtime via [`ShardedSet::set_tuning`].

use cpma_api::{
    range_to_inclusive, BatchOp, BatchOutcome, BatchSet, ConfigError, OrderedSet, ParallelChunks,
    Persist, PersistError, RangeSet, SetKey,
};
use cpma_obs::{Counter, Gauge, Histogram, Unit};
use cpma_persist::snapshot::{ByteReader, ByteSink, SnapshotEnvelope};
use rayon::prelude::*;
use std::ops::RangeBounds;
use std::path::Path;

/// Average elements per shard below which skew rebalance is never
/// attempted (tiny sets gain nothing from redistribution).
pub const REBALANCE_MIN_PER_SHARD: usize = 256;

/// Skew rebalance triggers when the fullest shard holds more than this
/// many times the mean shard load.
pub const SKEW_FACTOR: usize = 2;

/// Default [`ShardTuning::target_per_shard`]: the mean shard occupancy
/// the autotuner steers toward (grow above 2×, shrink below ½×).
pub const DEFAULT_TARGET_PER_SHARD: usize = 1024;

/// Shard-count bounds and sizing target for [`ShardedSet`]'s autotuner.
///
/// `min_shards == max_shards` pins the shard count (autotuning off) —
/// that is the default, with both bounds equal to the type's `N`.
///
/// # Examples
///
/// ```
/// use cpma_store::ShardTuning;
///
/// let t = ShardTuning::auto(1, 64);
/// assert!(t.check().is_ok());
/// assert!(ShardTuning::auto(8, 4).check().is_err()); // min > max
/// assert_eq!(ShardTuning::fixed(4).max_shards, 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardTuning {
    /// Lower bound for the autotuned shard count (inclusive, ≥ 1).
    pub min_shards: usize,
    /// Upper bound for the autotuned shard count (inclusive).
    pub max_shards: usize,
    /// Mean elements per shard the autotuner steers toward: grow when the
    /// mean exceeds `2 × target_per_shard`, shrink when it falls below
    /// `target_per_shard / 2`. The factor-four hysteresis band keeps a
    /// doubling from immediately re-triggering a halving.
    pub target_per_shard: usize,
}

impl ShardTuning {
    /// Pin the shard count to exactly `n` (autotuning off).
    pub fn fixed(n: usize) -> Self {
        Self {
            min_shards: n,
            max_shards: n,
            target_per_shard: DEFAULT_TARGET_PER_SHARD,
        }
    }

    /// Autotune between `min` and `max` shards with the default
    /// occupancy target.
    pub fn auto(min: usize, max: usize) -> Self {
        Self {
            min_shards: min,
            max_shards: max,
            target_per_shard: DEFAULT_TARGET_PER_SHARD,
        }
    }

    /// Check parameter validity ([`ShardedSet::set_tuning`] returns this;
    /// the trait constructors assert it).
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.min_shards < 1 {
            return Err(ConfigError::new("min_shards", "must be at least 1"));
        }
        if self.max_shards < self.min_shards {
            return Err(ConfigError::new("max_shards", "must be ≥ min_shards"));
        }
        if self.target_per_shard < 1 {
            return Err(ConfigError::new("target_per_shard", "must be at least 1"));
        }
        Ok(())
    }
}

/// Always-on rebalance and autotuning statistics for a [`ShardedSet`].
///
/// Mirrors `PmaStats`: a handful of integer adds per *batch*, kept in the
/// structure itself, so the counters are cheap, deterministic at any
/// thread count, and never need a feature flag. The per-shard traffic
/// window ([`RebalanceStats::shard_batch_ops`]) resets whenever the
/// splitters change (skew rebalance or reshard), since the attribution is
/// only meaningful for one partitioning.
///
/// # Examples
///
/// ```
/// use cpma_api::BatchSet;
/// use cpma_store::ShardedSet;
/// use std::collections::BTreeSet;
///
/// let mut s: ShardedSet<BTreeSet<u64>, 4> = BatchSet::new_set();
/// s.insert_batch_sorted(&[1, 2, 3]);
/// let stats = s.rebalance_stats();
/// assert_eq!(stats.batches, 1);
/// assert_eq!(stats.batch_ops, 3);
/// assert_eq!(stats.shard_batch_ops.iter().sum::<u64>(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Batch applications (one-sided and mixed) seen by this set.
    pub batches: u64,
    /// Total batch elements routed across all batch applications.
    pub batch_ops: u64,
    /// Batch elements routed to each shard since the last splitter
    /// change — the traffic-skew window the autotuner reads.
    pub shard_batch_ops: Vec<u64>,
    /// Skew-triggered splitter re-learns (fullest shard > [`SKEW_FACTOR`]×
    /// mean).
    pub skew_rebalances: u64,
    /// Reshardings that increased the shard count (a doubling, or one
    /// clamp jump up to new [`ShardTuning`] bounds after `set_tuning`).
    pub grows: u64,
    /// Reshardings that decreased the shard count (a halving, or one
    /// clamp jump down to new [`ShardTuning`] bounds after `set_tuning`).
    pub shrinks: u64,
    /// Imbalance after the most recent rebalance/reshard: fullest shard
    /// over mean occupancy, in permille (1000 = perfectly balanced; 0 =
    /// no rebalance has happened yet or the set was empty).
    pub post_rebalance_imbalance_permille: u64,
}

impl RebalanceStats {
    /// One compact human-readable line (the bench drivers print this).
    pub fn summary(&self) -> String {
        format!(
            "batches={} batch_ops={} skew_rebalances={} grows={} shrinks={} \
             post_imbalance={}‰",
            self.batches,
            self.batch_ops,
            self.skew_rebalances,
            self.grows,
            self.shrinks,
            self.post_rebalance_imbalance_permille
        )
    }
}

/// A range-partitioned composition of ordered-set backends that applies
/// sorted batches to its shards in parallel and autotunes its shard count.
///
/// `ShardedSet` implements the same canonical trait hierarchy as its
/// backend `S`, so it drops into every generic driver in the workspace —
/// including [`Combiner`](crate::Combiner), benches, and
/// `fgraph::SetGraph`.
///
/// `N` (default 8) is the **initial** shard count used by `new_set` and
/// `build_sorted`. The trailing `MIN`/`MAX` const parameters bound the
/// autotuner; their default `0` is a sentinel meaning "pinned to `N`", so
/// `ShardedSet<S, N>` behaves exactly like a fixed-count sharding while
/// `ShardedSet<S, N, MIN, MAX>` reshards between `MIN` and `MAX`. The
/// module header in `sharded.rs` documents the resharding policy.
///
/// # Examples
///
/// ```
/// use cpma_api::{BatchSet, OrderedSet, RangeSet};
/// use cpma_store::ShardedSet;
/// use std::collections::BTreeSet;
///
/// // Fixed at 4 shards (the default tuning pins the count to N).
/// let keys: Vec<u64> = (0..1000).collect();
/// let s: ShardedSet<BTreeSet<u64>, 4> = BatchSet::build_sorted(&keys);
/// assert_eq!(s.shard_count(), 4);
/// assert_eq!(s.len(), 1000);
/// assert_eq!(s.range_sum(10..=12), 33);
///
/// // Autotuned between 1 and 64 shards: a large batch grows the count.
/// let mut auto: ShardedSet<BTreeSet<u64>, 4, 1, 64> = BatchSet::new_set();
/// let big: Vec<u64> = (0..20_000).collect();
/// auto.insert_batch_sorted(&big);
/// assert!(auto.shard_count() > 4);
/// assert_eq!(RangeSet::to_vec(&auto), big);
/// ```
/// Registry mirror of [`RebalanceStats`] (names `store.*`): the scalar
/// counters stream into `cpma-obs` cells as they happen, per-shard
/// sub-batch sizes feed a `store.shard_batch_ops` histogram (the traffic
/// skew view), `store.shards` gauges the live shard count, and rebuilds
/// are timed under `store.rebalance.ns`. The autotuner itself keeps
/// reading the plain [`RebalanceStats`] struct — determinism needs the
/// schedule-independent window, not the process-wide aggregate.
///
/// `Clone` registers fresh zeroed cells (gauge included), so snapshot
/// clones published by a combiner neither double-count traffic nor
/// inflate the shard gauge.
struct StoreCounters {
    batches: Counter,
    batch_ops: Counter,
    shard_batch_ops: Histogram,
    skew_rebalances: Counter,
    grows: Counter,
    shrinks: Counter,
    shards: Gauge,
    rebalance_ns: Histogram,
}

impl StoreCounters {
    fn new() -> Self {
        let r = cpma_obs::global();
        Self {
            batches: r.counter("store.batches", Unit::Count),
            batch_ops: r.counter("store.batch_ops", Unit::Count),
            shard_batch_ops: r.histogram("store.shard_batch_ops", Unit::Count),
            skew_rebalances: r.counter("store.rebalances.skew", Unit::Count),
            grows: r.counter("store.rebalances.grow", Unit::Count),
            shrinks: r.counter("store.rebalances.shrink", Unit::Count),
            shards: r.gauge("store.shards"),
            rebalance_ns: r.histogram("store.rebalance.ns", Unit::Nanos),
        }
    }
}

impl Clone for StoreCounters {
    fn clone(&self) -> Self {
        Self::new()
    }
}

#[derive(Clone)]
pub struct ShardedSet<S, const N: usize = 8, const MIN: usize = 0, const MAX: usize = 0> {
    /// The backends, in key order; `shards.len()` is the live shard count.
    shards: Vec<S>,
    /// `splitters[i]` = smallest key (widened to `u64`) routed to shard
    /// `i + 1`; strictly context-dependent but always non-decreasing.
    splitters: Vec<u64>,
    /// Autotuner bounds and occupancy target.
    tuning: ShardTuning,
    /// Always-on rebalance/traffic counters.
    stats: RebalanceStats,
    /// Registry mirror of `stats` (see [`StoreCounters`]).
    counters: StoreCounters,
}

/// Sub-batch boundaries: `bounds[i]..bounds[i + 1]` is shard `i`'s slice
/// of a batch sorted by key — plain keys and mixed op runs split through
/// the same routine via `key_of`.
fn split_bounds_by<T>(splitters: &[u64], batch: &[T], key_of: impl Fn(&T) -> u64) -> Vec<usize> {
    let mut bounds = Vec::with_capacity(splitters.len() + 2);
    bounds.push(0);
    for &s in splitters {
        bounds.push(batch.partition_point(|t| key_of(t) < s));
    }
    bounds.push(batch.len());
    bounds
}

fn split_bounds<K: SetKey>(splitters: &[u64], batch: &[K]) -> Vec<usize> {
    split_bounds_by(splitters, batch, |k| k.to_u64())
}

/// Evenly spaced cut points over the `u64` domain — the no-data prior.
fn default_splitters(n: usize) -> Vec<u64> {
    let stride = (u64::MAX / n as u64).max(1);
    (1..n as u64).map(|i| i.saturating_mul(stride)).collect()
}

/// Quantile splitters learned from a strictly increasing key slice; falls
/// back to the domain prior when there is too little data to pick `n − 1`
/// distinct quantiles.
fn learned_splitters<K: SetKey>(n: usize, elems: &[K]) -> Vec<u64> {
    if elems.len() < n * 2 {
        return default_splitters(n);
    }
    (1..n)
        .map(|i| elems[i * elems.len() / n].to_u64())
        .collect()
}

impl<S, const N: usize, const MIN: usize, const MAX: usize> ShardedSet<S, N, MIN, MAX> {
    /// The tuning resolved from the const parameters: `0` sentinels pin
    /// the count to `N`.
    fn const_tuning() -> ShardTuning {
        ShardTuning {
            min_shards: if MIN == 0 { N } else { MIN },
            max_shards: if MAX == 0 { N } else { MAX },
            target_per_shard: DEFAULT_TARGET_PER_SHARD,
        }
    }

    fn fresh(shards: Vec<S>, splitters: Vec<u64>) -> Self {
        assert!(N >= 1, "ShardedSet needs at least one shard");
        let tuning = Self::const_tuning();
        if let Err(e) = tuning.check() {
            panic!("{e}");
        }
        let stats = RebalanceStats {
            shard_batch_ops: vec![0; shards.len()],
            ..RebalanceStats::default()
        };
        let counters = StoreCounters::new();
        counters.shards.set(shards.len() as i64);
        Self {
            shards,
            splitters,
            tuning,
            stats,
            counters,
        }
    }

    /// Shard index for a key (widened): the number of splitters ≤ it.
    fn shard_of(&self, key: u64) -> usize {
        self.splitters.partition_point(|&s| s <= key)
    }

    /// Current per-shard element counts (diagnostics and tests).
    pub fn shard_lens<K: SetKey>(&self) -> Vec<usize>
    where
        S: OrderedSet<K>,
    {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// The live shard count (starts at `N`; moves within the tuning
    /// bounds when autotuning is enabled).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current splitters (widened to `u64`), ascending.
    pub fn splitters(&self) -> &[u64] {
        &self.splitters
    }

    /// The active autotuner bounds and target.
    pub fn tuning(&self) -> &ShardTuning {
        &self.tuning
    }

    /// Replace the autotuner configuration. Takes effect at the next
    /// batch update's rebalance check (which also clamps an out-of-bounds
    /// current count back into `[min_shards, max_shards]`).
    pub fn set_tuning(&mut self, tuning: ShardTuning) -> Result<(), ConfigError> {
        tuning.check()?;
        self.tuning = tuning;
        Ok(())
    }

    /// The rebalance/traffic statistics accumulated so far.
    pub fn rebalance_stats(&self) -> &RebalanceStats {
        &self.stats
    }

    /// Zero the statistics (the per-shard traffic window keeps its
    /// current length).
    pub fn reset_stats(&mut self) {
        let n = self.shards.len();
        self.stats = RebalanceStats {
            shard_batch_ops: vec![0; n],
            ..RebalanceStats::default()
        };
    }
}

impl<S, const N: usize, const MIN: usize, const MAX: usize> ShardedSet<S, N, MIN, MAX> {
    /// Record one batch application of `len` ops split at `bounds` into
    /// the traffic counters.
    fn record_batch(&mut self, len: usize, bounds: &[usize]) {
        self.stats.batches += 1;
        self.stats.batch_ops += len as u64;
        self.counters.batches.inc();
        self.counters.batch_ops.add(len as u64);
        for (i, ops) in self.stats.shard_batch_ops.iter_mut().enumerate() {
            let routed = (bounds[i + 1] - bounds[i]) as u64;
            *ops += routed;
            self.counters.shard_batch_ops.record(routed);
        }
    }

    /// Split `batch` at the splitters and run `apply` on every non-empty
    /// (shard, sub-batch) pair in parallel; returns the summed counts in
    /// shard index order (schedule-independent).
    fn apply_split<K: SetKey>(
        &mut self,
        batch: &[K],
        apply: impl Fn(&mut S, &[K]) -> usize + Sync + Send,
    ) -> usize
    where
        S: Send,
    {
        let bounds = split_bounds(&self.splitters, batch);
        self.record_batch(batch.len(), &bounds);
        let bounds = &bounds;
        self.shards
            .par_iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                let sub = &batch[bounds[i]..bounds[i + 1]];
                if sub.is_empty() {
                    0
                } else {
                    apply(shard, sub)
                }
            })
            .sum()
    }

    /// The shard count the statistics ask for: double while occupancy or
    /// traffic concentration warrants it, halve while the set is too
    /// empty for its shards, clamp into the tuning bounds. Depends only
    /// on stored contents and deterministic batch-op counters.
    fn desired_shard_count(&self, total: usize) -> usize {
        let cur = self.shards.len();
        let t = &self.tuning;
        if cur < t.min_shards || cur > t.max_shards {
            return cur.clamp(t.min_shards, t.max_shards);
        }
        let overfull = total > cur * 2 * t.target_per_shard;
        // Traffic concentration: one shard absorbed > ¾ of a full op
        // window — splitting its range spreads future batch fan-out.
        let window: u64 = self.stats.shard_batch_ops.iter().sum();
        let hot = self
            .stats
            .shard_batch_ops
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let window_ready = window >= (cur * REBALANCE_MIN_PER_SHARD) as u64;
        let hot_traffic = cur >= 2 && window_ready && hot * 4 > window * 3;
        if cur < t.max_shards && (overfull || hot_traffic) {
            return (cur * 2).min(t.max_shards);
        }
        // Shrinking is pure cost-saving, so it is lazy: it waits for a
        // full traffic window since the last splitter change and never
        // fires while that window is concentrated on one shard (which
        // would undo a traffic-driven grow and oscillate).
        if cur > t.min_shards
            && window_ready
            && !hot_traffic
            && total * 2 < cur * t.target_per_shard
        {
            return (cur / 2).max(t.min_shards);
        }
        cur
    }

    /// Rebalance pass, run after every batch update: re-learn quantile
    /// splitters (and possibly reshard) if the observed skew, occupancy,
    /// or traffic statistics warrant it. Deterministic at any thread
    /// count — every input is schedule-independent.
    fn maybe_rebalance<K: SetKey>(&mut self)
    where
        S: BatchSet<K> + RangeSet<K> + Send + Sync,
    {
        let cur = self.shards.len();
        let lens: Vec<usize> = self.shards.iter().map(|s| s.len()).collect();
        let total: usize = lens.iter().sum();
        let desired = self.desired_shard_count(total);
        let max = lens.into_iter().max().unwrap_or(0);
        let skewed =
            cur > 1 && total >= cur * REBALANCE_MIN_PER_SHARD && max * cur > total * SKEW_FACTOR;
        if desired == cur && !skewed {
            return;
        }
        if skewed {
            self.stats.skew_rebalances += 1;
            self.counters.skew_rebalances.inc();
        }
        if desired > cur {
            self.stats.grows += 1;
            self.counters.grows.inc();
        } else if desired < cur {
            self.stats.shrinks += 1;
            self.counters.shrinks.inc();
        }
        self.rebuild(desired);
    }

    /// Rebuild into `count` shards with quantile splitters learned from
    /// the stored contents; resets the per-shard traffic window and
    /// records the post-rebalance imbalance.
    fn rebuild<K: SetKey>(&mut self, count: usize)
    where
        S: BatchSet<K> + RangeSet<K> + Send + Sync,
    {
        let mut span = cpma_obs::span_with(&self.counters.rebalance_ns, "store.rebalance");
        let all = RangeSet::to_vec(self);
        span.set_items(all.len() as u64);
        self.splitters = learned_splitters(count, &all);
        let bounds = split_bounds(&self.splitters, &all);
        let bounds = &bounds;
        self.shards = (0..count)
            .into_par_iter()
            .map(|i| S::build_sorted(&all[bounds[i]..bounds[i + 1]]))
            .collect();
        self.stats.shard_batch_ops = vec![0; count];
        self.counters.shards.set(count as i64);
        let max = self.shards.iter().map(|s| s.len()).max().unwrap_or(0);
        self.stats.post_rebalance_imbalance_permille = if all.is_empty() {
            0
        } else {
            (max * count * 1000 / all.len()) as u64
        };
    }
}

impl<K: SetKey, S: OrderedSet<K> + Sync, const N: usize, const MIN: usize, const MAX: usize>
    OrderedSet<K> for ShardedSet<S, N, MIN, MAX>
{
    const NAME: &'static str = "Sharded";

    fn contains(&self, key: K) -> bool {
        self.shards[self.shard_of(key.to_u64())].contains(key)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn min(&self) -> Option<K> {
        self.shards.iter().find_map(|s| s.min())
    }

    fn max(&self) -> Option<K> {
        self.shards.iter().rev().find_map(|s| s.max())
    }

    fn successor(&self, key: K) -> Option<K> {
        let first = self.shard_of(key.to_u64());
        // Every key in a later shard is ≥ its left splitter > `key`, so
        // the first hit in shard order is the global successor.
        self.shards[first]
            .successor(key)
            .or_else(|| self.shards[first + 1..].iter().find_map(|s| s.min()))
    }

    /// Batched membership, shard-parallel: sort the probes once, split the
    /// sorted run at the splitters (exactly like a batch update), hand each
    /// shard its contiguous sub-run through the *backend's* `contains_batch`
    /// (so a PMA shard gets its cache-conscious pass), and scatter the
    /// per-shard answers back to probe positions.
    fn contains_batch(&self, keys: &[K]) -> Vec<bool> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&i| (keys[i].to_u64(), i));
        let sorted: Vec<K> = order.iter().map(|&i| keys[i]).collect();
        let bounds = split_bounds(&self.splitters, &sorted);
        let bounds = &bounds;
        let per_shard: Vec<Vec<bool>> = self
            .shards
            .par_iter()
            .enumerate()
            .map(|(i, shard)| shard.contains_batch(&sorted[bounds[i]..bounds[i + 1]]))
            .collect();
        let mut out = vec![false; keys.len()];
        for (rank, hit) in per_shard.into_iter().flatten().enumerate() {
            out[order[rank]] = hit;
        }
        out
    }

    /// Batched successor with the same sort–split–scatter shape as
    /// [`contains_batch`](OrderedSet::contains_batch). A probe whose own
    /// shard has no successor falls forward to the min of the next
    /// non-empty shard (precomputed once, right to left).
    fn successor_batch(&self, keys: &[K]) -> Vec<Option<K>> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&i| (keys[i].to_u64(), i));
        let sorted: Vec<K> = order.iter().map(|&i| keys[i]).collect();
        let bounds = split_bounds(&self.splitters, &sorted);
        let bounds = &bounds;
        // next_min[i] = smallest element stored in any shard after i.
        let mut next_min: Vec<Option<K>> = vec![None; self.shards.len()];
        let mut running = None;
        for i in (0..self.shards.len()).rev() {
            next_min[i] = running;
            running = self.shards[i].min().or(running);
        }
        let next_min = &next_min;
        let per_shard: Vec<Vec<Option<K>>> = self
            .shards
            .par_iter()
            .enumerate()
            .map(|(i, shard)| {
                let mut sub = shard.successor_batch(&sorted[bounds[i]..bounds[i + 1]]);
                for s in &mut sub {
                    *s = s.or(next_min[i]);
                }
                sub
            })
            .collect();
        let mut out = vec![None; keys.len()];
        for (rank, succ) in per_shard.into_iter().flatten().enumerate() {
            out[order[rank]] = succ;
        }
        out
    }

    fn size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.size_bytes()).sum::<usize>()
            + self.splitters.len() * std::mem::size_of::<u64>()
    }
}

impl<
        K: SetKey,
        S: BatchSet<K> + RangeSet<K> + Send + Sync,
        const N: usize,
        const MIN: usize,
        const MAX: usize,
    > BatchSet<K> for ShardedSet<S, N, MIN, MAX>
{
    fn new_set() -> Self {
        Self::fresh((0..N).map(|_| S::new_set()).collect(), default_splitters(N))
    }

    fn build_sorted(elems: &[K]) -> Self {
        let splitters = learned_splitters(N, elems);
        let bounds = split_bounds(&splitters, elems);
        let bounds = &bounds;
        let shards: Vec<S> = (0..N)
            .into_par_iter()
            .map(|i| S::build_sorted(&elems[bounds[i]..bounds[i + 1]]))
            .collect();
        Self::fresh(shards, splitters)
    }

    fn insert_batch_sorted(&mut self, batch: &[K]) -> usize {
        let added = self.apply_split(batch, |s, b| s.insert_batch_sorted(b));
        self.maybe_rebalance();
        added
    }

    fn remove_batch_sorted(&mut self, batch: &[K]) -> usize {
        let removed = self.apply_split(batch, |s, b| s.remove_batch_sorted(b));
        self.maybe_rebalance();
        removed
    }

    /// Mixed batches split **once** at the splitters and fan out to the
    /// shards in parallel, each shard running its backend's own mixed
    /// pass; outcomes merge in shard index order (schedule-independent).
    fn apply_batch_sorted(&mut self, ops: &[BatchOp<K>]) -> BatchOutcome {
        let bounds = split_bounds_by(&self.splitters, ops, |op| op.key().to_u64());
        self.record_batch(ops.len(), &bounds);
        let bounds = &bounds;
        let outcome = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                let sub = &ops[bounds[i]..bounds[i + 1]];
                if sub.is_empty() {
                    BatchOutcome::default()
                } else {
                    shard.apply_batch_sorted(sub)
                }
            })
            .reduce(BatchOutcome::default, |a, b| a + b);
        self.maybe_rebalance();
        outcome
    }
}

impl<K: SetKey, S: RangeSet<K> + Sync, const N: usize, const MIN: usize, const MAX: usize>
    RangeSet<K> for ShardedSet<S, N, MIN, MAX>
{
    fn scan_from(&self, start: K, f: &mut dyn FnMut(K) -> bool) {
        let first = self.shard_of(start.to_u64());
        let mut live = true;
        for (i, shard) in self.shards.iter().enumerate().skip(first) {
            let from = if i == first { start } else { K::MIN };
            shard.scan_from(from, &mut |k| {
                live = f(k);
                live
            });
            if !live {
                return;
            }
        }
    }

    fn range_sum<R: RangeBounds<K>>(&self, range: R) -> u64 {
        // Stitch per-shard sums in shard (= key) order so each backend's
        // own range_sum fast path runs on its slice of the range.
        let Some((lo, hi)) = range_to_inclusive(&range) else {
            return 0;
        };
        let first = self.shard_of(lo.to_u64());
        let last = self.shard_of(hi.to_u64());
        let mut sum = 0u64;
        for shard in &self.shards[first..=last] {
            sum = sum.wrapping_add(shard.range_sum(lo..=hi));
        }
        sum
    }
}

impl<
        K: SetKey,
        S: ParallelChunks<K> + Sync,
        const N: usize,
        const MIN: usize,
        const MAX: usize,
    > ParallelChunks<K> for ShardedSet<S, N, MIN, MAX>
{
    /// Shards are disjoint and ascending, so each shard's chunks are valid
    /// chunks of the whole set; visit the shards in parallel too.
    fn par_chunks(&self, f: &(dyn Fn(&[K]) + Sync)) {
        self.shards.par_iter().for_each(|s| s.par_chunks(f));
    }
}

/// Manifest codec id inside the [`SnapshotEnvelope`] (`1` and `2` are the
/// PMA leaf codecs; never reuse or renumber).
const MANIFEST_CODEC_ID: u32 = 100;

/// File name of shard `i` inside a [`ShardedSet`] checkpoint directory.
fn shard_file_name(i: usize) -> String {
    format!("shard-{i:05}")
}

fn parse_shard_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard-")?;
    (digits.len() == 5).then(|| digits.parse().ok())?
}

/// Shard-per-file checkpoints: `save` writes a *directory* holding one
/// backend snapshot per shard (each via `S::save`, so each file is
/// individually checksummed) plus a `MANIFEST` that records the shard
/// count, the [`ShardTuning`], and the splitters — itself a checksummed
/// [`SnapshotEnvelope`], written atomically and written **last**, so a
/// fresh checkpoint directory is all-or-nothing at the manifest: until
/// the manifest lands, `load` fails typed and recovery falls back to an
/// older checkpoint.
///
/// Re-saving over an existing directory reuses it (stale `shard-*` files
/// beyond the current count are deleted) but is not crash-atomic; the
/// durable [`Combiner`](crate::Combiner) always checkpoints into a fresh
/// `checkpoint-<seq>` directory.
///
/// `load` restores the persisted shard count, tuning, and splitters
/// (validated: tuning via [`ShardTuning::check`], splitters ascending and
/// exactly `count − 1`) — the const parameters `N`/`MIN`/`MAX` of the
/// loading type are *not* consulted, so a set saved mid-autotune reloads
/// exactly as it was. Traffic statistics restart at zero.
impl<S: Persist, const N: usize, const MIN: usize, const MAX: usize> Persist
    for ShardedSet<S, N, MIN, MAX>
{
    fn save(&self, path: &Path) -> Result<(), PersistError> {
        std::fs::create_dir_all(path)?;
        for (i, shard) in self.shards.iter().enumerate() {
            shard.save(&path.join(shard_file_name(i)))?;
        }
        // Drop shard files a previous, wider save left behind.
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if let Some(i) = entry.file_name().to_str().and_then(parse_shard_name) {
                if i >= self.shards.len() {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }
        let mut meta = Vec::new();
        meta.put_u32(self.shards.len() as u32);
        meta.put_u64(self.tuning.min_shards as u64);
        meta.put_u64(self.tuning.max_shards as u64);
        meta.put_u64(self.tuning.target_per_shard as u64);
        let mut payload = Vec::with_capacity(self.splitters.len() * 8);
        for &s in &self.splitters {
            payload.put_u64(s);
        }
        let manifest = SnapshotEnvelope {
            codec_id: MANIFEST_CODEC_ID,
            meta: &meta,
            payload: &payload,
        };
        manifest.save_file(&path.join("MANIFEST"))
    }

    fn load(path: &Path) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path.join("MANIFEST"))?;
        let manifest = SnapshotEnvelope::from_bytes(&bytes)?;
        if manifest.codec_id != MANIFEST_CODEC_ID {
            return Err(PersistError::CodecMismatch {
                expected: MANIFEST_CODEC_ID,
                found: manifest.codec_id,
            });
        }
        let mut r = ByteReader::new(manifest.meta);
        let count = r.u32("shard count")? as usize;
        let as_usize = |v: u64, what: &'static str| {
            usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("{what} {v} too large")))
        };
        let tuning = ShardTuning {
            min_shards: as_usize(r.u64("min_shards")?, "min_shards")?,
            max_shards: as_usize(r.u64("max_shards")?, "max_shards")?,
            target_per_shard: as_usize(r.u64("target_per_shard")?, "target_per_shard")?,
        };
        r.expect_end("sharded manifest meta")?;
        if count == 0 {
            return Err(PersistError::Corrupt("manifest has zero shards".into()));
        }
        tuning.check().map_err(PersistError::Config)?;
        if manifest.payload.len() != (count - 1) * 8 {
            return Err(PersistError::Corrupt(format!(
                "manifest has {} splitter bytes for {count} shards",
                manifest.payload.len()
            )));
        }
        let mut sp = ByteReader::new(manifest.payload);
        let mut splitters = Vec::with_capacity(count - 1);
        for _ in 1..count {
            splitters.push(sp.u64("splitter")?);
        }
        if splitters.windows(2).any(|w| w[0] > w[1]) {
            return Err(PersistError::Corrupt("splitters not ascending".into()));
        }
        let mut shards = Vec::with_capacity(count);
        for i in 0..count {
            shards.push(S::load(&path.join(shard_file_name(i)))?);
        }
        let counters = StoreCounters::new();
        counters.shards.set(shards.len() as i64);
        Ok(Self {
            shards,
            splitters,
            tuning,
            stats: RebalanceStats {
                shard_batch_ops: vec![0; count],
                ..RebalanceStats::default()
            },
            counters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    type Sharded4 = ShardedSet<BTreeSet<u64>, 4>;

    fn with_splitters(splitters: Vec<u64>) -> Sharded4 {
        let shards = (0..splitters.len() + 1).map(|_| BTreeSet::new()).collect();
        let mut s = Sharded4::fresh(shards, Vec::new());
        s.splitters = splitters;
        s.stats.shard_batch_ops = vec![0; s.shards.len()];
        s
    }

    #[test]
    fn routing_matches_splitters() {
        let s = with_splitters(vec![10, 20, 30]);
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(9), 0);
        assert_eq!(s.shard_of(10), 1);
        assert_eq!(s.shard_of(29), 2);
        assert_eq!(s.shard_of(30), 3);
        assert_eq!(s.shard_of(u64::MAX), 3);
    }

    #[test]
    fn split_bounds_partition_the_batch() {
        let batch: Vec<u64> = vec![1, 5, 10, 15, 25, 40];
        let bounds = split_bounds(&[10, 20, 30], &batch);
        assert_eq!(bounds, vec![0, 2, 4, 5, 6]);
        // Sub-batches agree with per-key routing.
        let s = with_splitters(vec![10, 20, 30]);
        for i in 0..4 {
            for &k in &batch[bounds[i]..bounds[i + 1]] {
                assert_eq!(s.shard_of(k), i, "key {k}");
            }
        }
    }

    #[test]
    fn build_learns_quantile_splitters() {
        let elems: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let s: Sharded4 = BatchSet::build_sorted(&elems);
        assert_eq!(s.splitters().len(), 3);
        assert_eq!(RangeSet::to_vec(&s), elems);
        let lens = s.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 1000);
        assert!(
            lens.iter().all(|&l| l == 250),
            "quantile build should balance exactly: {lens:?}"
        );
    }

    #[test]
    fn skewed_traffic_triggers_rebalance() {
        // Dense small keys all route to shard 0 under the domain prior.
        let mut s: Sharded4 = BatchSet::new_set();
        let keys: Vec<u64> = (0..(4 * REBALANCE_MIN_PER_SHARD as u64)).collect();
        s.insert_batch_sorted(&keys);
        let lens = s.shard_lens();
        let max = *lens.iter().max().unwrap();
        assert!(
            max <= keys.len() / 3,
            "rebalance should have spread the load: {lens:?}"
        );
        assert_eq!(OrderedSet::len(&s), keys.len());
        assert_eq!(RangeSet::to_vec(&s), keys);
        assert!(s.rebalance_stats().skew_rebalances >= 1);
        assert_eq!(s.rebalance_stats().grows, 0, "default tuning is pinned");
        // The pinned default never reshards: count is still N.
        assert_eq!(s.shard_count(), 4);
    }

    #[test]
    fn single_shard_degenerates_gracefully() {
        let mut s: ShardedSet<BTreeSet<u64>, 1> = BatchSet::new_set();
        assert!(s.splitters().is_empty());
        s.insert_batch_sorted(&[1, 2, 3]);
        assert_eq!(OrderedSet::len(&s), 3);
        assert_eq!(s.remove_batch_sorted(&[2, 9]), 1);
        assert_eq!(RangeSet::to_vec(&s), vec![1, 3]);
    }

    #[test]
    fn autotune_grows_and_shrinks_between_bounds() {
        let mut s: ShardedSet<BTreeSet<u64>, 2, 1, 16> = BatchSet::new_set();
        // Mean occupancy far above 2× target: doubles once per batch
        // until the bound or the hysteresis band is reached.
        let keys: Vec<u64> = (0..40_000).collect();
        s.insert_batch_sorted(&keys);
        let first = s.shard_count();
        assert!(first > 2, "expected growth, still at {first}");
        assert!(first <= 16);
        assert_eq!(RangeSet::to_vec(&s), keys);
        // More batches walk it further up while occupancy stays high.
        s.insert_batch_sorted(&[40_000, 40_001]);
        s.insert_batch_sorted(&[40_002]);
        let grown = s.shard_count();
        assert!(grown >= first && grown <= 16);
        assert!(s.rebalance_stats().grows >= 1);
        // Drain the set: mean occupancy below target/2 halves the count
        // (the big remove batch itself fills the traffic window shrink
        // waits for).
        s.remove_batch_sorted(&(0..40_003).collect::<Vec<u64>>());
        assert!(s.shard_count() < grown, "expected shrink from {grown}");
        assert!(s.rebalance_stats().shrinks >= 1);
        assert!(OrderedSet::is_empty(&s));
    }

    #[test]
    fn set_tuning_clamps_out_of_bounds_count() {
        let mut s: ShardedSet<BTreeSet<u64>, 8> = BatchSet::new_set();
        assert_eq!(s.shard_count(), 8);
        s.set_tuning(ShardTuning::fixed(2)).unwrap();
        s.insert_batch_sorted(&[1, 2, 3]);
        assert_eq!(s.shard_count(), 2, "clamp to the new bounds");
        assert_eq!(RangeSet::to_vec(&s), vec![1, 2, 3]);
        assert!(s.set_tuning(ShardTuning::auto(0, 4)).is_err());
        assert!(s.set_tuning(ShardTuning::auto(4, 2)).is_err());
    }

    #[test]
    fn hot_traffic_window_triggers_growth() {
        let mut s: ShardedSet<BTreeSet<u64>, 4, 4, 8> = BatchSet::new_set();
        // Small set (never over-occupied), but ascending key batches land
        // in one shard's range every round: the traffic window alone must
        // trigger the doubling.
        for round in 0..12u64 {
            let batch: Vec<u64> = (round * 256..(round + 1) * 256).collect();
            s.insert_batch_sorted(&batch);
        }
        assert!(
            s.rebalance_stats().grows >= 1,
            "hot-shard traffic should have grown the count: {}",
            s.rebalance_stats().summary()
        );
        assert_eq!(s.shard_count(), 8, "doubled to the max bound");
        assert_eq!(RangeSet::to_vec(&s), (0..12 * 256).collect::<Vec<u64>>());
    }

    #[test]
    fn mixed_batches_fan_out_across_shards() {
        use cpma_api::normalize_ops;
        let elems: Vec<u64> = (0..2_000).map(|i| i * 4).collect();
        let mut s: Sharded4 = BatchSet::build_sorted(&elems);
        let mut model: BTreeSet<u64> = elems.iter().copied().collect();
        // Ops spanning every shard, interleaving inserts and removes.
        let mut ops: Vec<BatchOp<u64>> = (0..1_000u64)
            .map(|i| {
                if i % 2 == 0 {
                    BatchOp::Remove(i * 8)
                } else {
                    BatchOp::Insert(i * 8 + 1)
                }
            })
            .collect();
        let norm = normalize_ops(&mut ops);
        let mut want = BatchOutcome::default();
        for op in norm {
            match *op {
                BatchOp::Insert(k) => want.added += usize::from(model.insert(k)),
                BatchOp::Remove(k) => want.removed += usize::from(model.remove(&k)),
            }
        }
        let got = s.apply_batch_sorted(norm);
        assert_eq!(got, want);
        assert_eq!(
            RangeSet::to_vec(&s),
            model.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn cross_shard_queries_stitch_in_key_order() {
        let elems: Vec<u64> = (0..400).map(|i| i * 5).collect();
        let s: Sharded4 = BatchSet::build_sorted(&elems);
        // Range spanning all shards.
        assert_eq!(
            s.range_sum(..),
            elems.iter().fold(0u64, |a, &b| a.wrapping_add(b))
        );
        // scan_from across a shard boundary, with early exit.
        let mut got = Vec::new();
        s.scan_from(495, &mut |k| {
            got.push(k);
            got.len() < 4
        });
        assert_eq!(got, vec![495, 500, 505, 510]);
        assert_eq!(OrderedSet::successor(&s, 501), Some(505));
        assert_eq!(OrderedSet::min(&s), Some(0));
        assert_eq!(OrderedSet::max(&s), Some(1995));
    }
}
