//! Range-partitioned sharding over any batch-parallel set backend, with
//! skew-triggered rebalance at a fixed shard count.
//!
//! # Shard routing
//!
//! A [`ShardedSet<S, N>`] owns a vector of backends and one fewer
//! ascending *splitters*. Key `k` lives in shard `i` iff
//! `splitters[i − 1] ≤ k < splitters[i]` (with implicit `−∞`/`+∞`
//! sentinels), i.e. `shard_of(k)` is the number of splitters ≤ `k`.
//! Because shards partition the key space in order, every cross-shard
//! operation stitches shard results in shard index order and gets key
//! order for free: `to_vec` concatenates, `scan_chunks_from` resumes in
//! the next shard, `range_sum` adds per-shard sums, and `scan_chunks_from`
//! and `par_chunks` hand out each shard's chunks unchanged.
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
//! # Splitter learning and rebalance
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
//! The shard count is the type's `N`. The one set that holds another count
//! is one loaded from a checkpoint saved by a `ShardedSet` of a different
//! `N`: the same pass rebuilds it into `N` shards at its next batch.

use cpma_api::{
    range_to_inclusive, BatchOp, BatchOutcome, BatchSet, CatchUp, OrderedSet, ParallelChunks,
    Persist, PersistError, RangeSet,
};
use cpma_obs::{Counter, Gauge, Histogram, Unit};
use cpma_persist::snapshot::{sync_dir, ByteReader, ByteSink, SnapshotEnvelope};
use rayon::prelude::*;
use std::ops::RangeBounds;
use std::path::Path;

/// Average elements per shard below which skew rebalance is never
/// attempted (tiny sets gain nothing from redistribution).
pub const REBALANCE_MIN_PER_SHARD: usize = 256;

/// Skew rebalance triggers when the fullest shard holds more than this
/// many times the mean shard load.
pub const SKEW_FACTOR: usize = 2;

/// Always-on rebalance statistics for a [`ShardedSet`].
///
/// Mirrors `PmaStats`: a handful of integer adds per *batch*, kept in the
/// structure itself, so the counters are cheap, deterministic at any
/// thread count, and never need a feature flag.
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
/// assert_eq!(stats.skew_rebalances, 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Batch applications (one-sided and mixed) seen by this set.
    pub batches: u64,
    /// Total batch elements routed across all batch applications.
    pub batch_ops: u64,
    /// Skew-triggered splitter re-learns (fullest shard > [`SKEW_FACTOR`]×
    /// mean).
    pub skew_rebalances: u64,
    /// Rebuilds of a loaded set holding fewer than `N` shards into `N`.
    pub grows: u64,
    /// Rebuilds of a loaded set holding more than `N` shards into `N`.
    pub shrinks: u64,
    /// Imbalance after the most recent rebuild: fullest shard over mean
    /// occupancy, in permille (1000 = perfectly balanced; 0 = no rebuild
    /// has happened yet or the set was empty).
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

/// Registry mirror of [`RebalanceStats`] (names `store.*`): the scalar
/// counters stream into `cpma-obs` cells as they happen, per-shard
/// sub-batch sizes feed a `store.shard_batch_ops` histogram (the traffic
/// skew view), `store.shards` gauges the live shard count, and rebuilds
/// are timed under `store.rebalance.ns`.
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

/// A range-partitioned composition of ordered-set backends that applies
/// sorted batches to its shards in parallel.
///
/// `ShardedSet` implements the same canonical trait hierarchy as its
/// backend `S`, so it drops into every generic driver in the workspace —
/// including [`Combiner`](crate::Combiner), benches, and
/// `fgraph::SetGraph`.
///
/// `N` (default 8) is the shard count. Skew moves the splitters, never the
/// count; the module header in `sharded.rs` documents the rebalance
/// policy.
///
/// # Examples
///
/// ```
/// use cpma_api::{BatchSet, OrderedSet, RangeSet};
/// use cpma_store::ShardedSet;
/// use std::collections::BTreeSet;
///
/// let keys: Vec<u64> = (0..1000).collect();
/// let s: ShardedSet<BTreeSet<u64>, 4> = BatchSet::build_sorted(&keys);
/// assert_eq!(s.shard_count(), 4);
/// assert_eq!(s.len(), 1000);
/// assert_eq!(s.range_sum(10..=12), 33);
/// ```
#[derive(Clone)]
pub struct ShardedSet<S, const N: usize = 8> {
    /// The backends, in key order; `shards.len()` is the live shard count.
    shards: Vec<S>,
    /// `splitters[i]` = smallest key routed to shard `i + 1`; strictly
    /// context-dependent but always non-decreasing.
    splitters: Vec<u64>,
    /// Always-on rebalance counters.
    stats: RebalanceStats,
    /// Registry mirror of `stats` (see [`StoreCounters`]).
    counters: StoreCounters,
    /// Splitter re-learns since construction: two replicas of one history
    /// that agree on it hold the same shard layout, so one can be caught
    /// up from the other shard by shard.
    rebuilds: u64,
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

fn split_bounds(splitters: &[u64], batch: &[u64]) -> Vec<usize> {
    split_bounds_by(splitters, batch, |&k| k)
}

/// Evenly spaced cut points over the `u64` domain — the no-data prior.
fn default_splitters(n: usize) -> Vec<u64> {
    let stride = (u64::MAX / n as u64).max(1);
    (1..n as u64).map(|i| i.saturating_mul(stride)).collect()
}

/// Quantile splitters learned from a strictly increasing key slice; falls
/// back to the domain prior when there is too little data to pick `n − 1`
/// distinct quantiles.
fn learned_splitters(n: usize, elems: &[u64]) -> Vec<u64> {
    if elems.len() < n * 2 {
        return default_splitters(n);
    }
    (1..n).map(|i| elems[i * elems.len() / n]).collect()
}

impl<S, const N: usize> ShardedSet<S, N> {
    /// A set over `shards` split at `splitters`, its statistics zeroed.
    fn assemble(shards: Vec<S>, splitters: Vec<u64>) -> Self {
        assert!(N >= 1, "ShardedSet needs N ≥ 1 shards");
        let counters = StoreCounters::new();
        counters.shards.set(shards.len() as i64);
        Self {
            shards,
            splitters,
            stats: RebalanceStats::default(),
            counters,
            rebuilds: 0,
        }
    }

    /// Shard index for a key: the number of splitters ≤ it.
    fn shard_of(&self, key: u64) -> usize {
        self.splitters.partition_point(|&s| s <= key)
    }

    /// Current per-shard element counts (diagnostics and tests).
    pub fn shard_lens(&self) -> Vec<usize>
    where
        S: OrderedSet,
    {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// The live shard count: `N`, except on a set loaded from a checkpoint
    /// of another count until its next batch.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current splitters, ascending.
    pub fn splitters(&self) -> &[u64] {
        &self.splitters
    }

    /// The backends, in key order (shard `i` holds the keys between
    /// splitters `i − 1` and `i`).
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// The rebalance statistics accumulated so far.
    pub fn rebalance_stats(&self) -> &RebalanceStats {
        &self.stats
    }

    /// Record one batch application of `len` ops split at `bounds` into
    /// the traffic counters.
    fn record_batch(&mut self, len: usize, bounds: &[usize]) {
        self.stats.batches += 1;
        self.stats.batch_ops += len as u64;
        self.counters.batches.inc();
        self.counters.batch_ops.add(len as u64);
        for w in bounds.windows(2) {
            self.counters.shard_batch_ops.record((w[1] - w[0]) as u64);
        }
    }

    /// Split `batch` at the splitters and run `apply` on every non-empty
    /// (shard, sub-batch) pair in parallel; returns the summed counts in
    /// shard index order (schedule-independent).
    fn apply_split(
        &mut self,
        batch: &[u64],
        apply: impl Fn(&mut S, &[u64]) -> usize + Sync + Send,
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

    /// Rebalance pass, run after every batch update: re-learn quantile
    /// splitters if the shards are skewed, or rebuild into `N` shards if
    /// the set holds another count. Deterministic at any thread count — it
    /// reads only the stored contents.
    fn maybe_rebalance(&mut self)
    where
        S: BatchSet + RangeSet + Send + Sync,
    {
        let cur = self.shards.len();
        let lens: Vec<usize> = self.shards.iter().map(|s| s.len()).collect();
        let total: usize = lens.iter().sum();
        let max = lens.into_iter().max().unwrap_or(0);
        let skewed =
            cur > 1 && total >= cur * REBALANCE_MIN_PER_SHARD && max * cur > total * SKEW_FACTOR;
        if cur == N && !skewed {
            return;
        }
        if skewed {
            self.stats.skew_rebalances += 1;
            self.counters.skew_rebalances.inc();
        }
        if N > cur {
            self.stats.grows += 1;
            self.counters.grows.inc();
        } else if N < cur {
            self.stats.shrinks += 1;
            self.counters.shrinks.inc();
        }
        self.rebuild();
    }

    /// Whether `self` and `newer`, two replicas of one history, hold the
    /// same shard layout: neither re-learned its splitters since they
    /// parted.
    fn same_layout(&self, newer: &Self) -> bool {
        self.rebuilds == newer.rebuilds
            && self.shards.len() == newer.shards.len()
            && self.splitters == newer.splitters
    }

    /// Rebuild into `N` shards with quantile splitters learned from the
    /// stored contents, and record the post-rebuild imbalance.
    fn rebuild(&mut self)
    where
        S: BatchSet + RangeSet + Send + Sync,
    {
        let mut span = cpma_obs::span_with(&self.counters.rebalance_ns, "store.rebalance");
        let all = RangeSet::to_vec(self);
        span.set_items(all.len() as u64);
        self.splitters = learned_splitters(N, &all);
        let bounds = split_bounds(&self.splitters, &all);
        let bounds = &bounds;
        self.shards = (0..N)
            .into_par_iter()
            .map(|i| S::build_sorted(&all[bounds[i]..bounds[i + 1]]))
            .collect();
        self.rebuilds += 1;
        self.counters.shards.set(N as i64);
        let max = self.shards.iter().map(|s| s.len()).max().unwrap_or(0);
        self.stats.post_rebalance_imbalance_permille = if all.is_empty() {
            0
        } else {
            (max * N * 1000 / all.len()) as u64
        };
    }
}

impl<S: OrderedSet + Sync, const N: usize> OrderedSet for ShardedSet<S, N> {
    const NAME: &'static str = "Sharded";

    fn contains(&self, key: u64) -> bool {
        self.shards[self.shard_of(key)].contains(key)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn min(&self) -> Option<u64> {
        self.shards.iter().find_map(|s| s.min())
    }

    fn max(&self) -> Option<u64> {
        self.shards.iter().rev().find_map(|s| s.max())
    }

    fn successor(&self, key: u64) -> Option<u64> {
        let first = self.shard_of(key);
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
    fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&i| (keys[i], i));
        let sorted: Vec<u64> = order.iter().map(|&i| keys[i]).collect();
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
    fn successor_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&i| (keys[i], i));
        let sorted: Vec<u64> = order.iter().map(|&i| keys[i]).collect();
        let bounds = split_bounds(&self.splitters, &sorted);
        let bounds = &bounds;
        // next_min[i] = smallest element stored in any shard after i.
        let mut next_min: Vec<Option<u64>> = vec![None; self.shards.len()];
        let mut running = None;
        for i in (0..self.shards.len()).rev() {
            next_min[i] = running;
            running = self.shards[i].min().or(running);
        }
        let next_min = &next_min;
        let per_shard: Vec<Vec<Option<u64>>> = self
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

impl<S: BatchSet + RangeSet + Send + Sync, const N: usize> BatchSet for ShardedSet<S, N> {
    fn new_set() -> Self {
        Self::assemble((0..N).map(|_| S::new_set()).collect(), default_splitters(N))
    }

    fn build_sorted(elems: &[u64]) -> Self {
        let splitters = learned_splitters(N, elems);
        let bounds = split_bounds(&splitters, elems);
        let bounds = &bounds;
        let shards: Vec<S> = (0..N)
            .into_par_iter()
            .map(|i| S::build_sorted(&elems[bounds[i]..bounds[i + 1]]))
            .collect();
        Self::assemble(shards, splitters)
    }

    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        let added = self.apply_split(batch, |s, b| s.insert_batch_sorted(b));
        self.maybe_rebalance();
        added
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        let removed = self.apply_split(batch, |s, b| s.remove_batch_sorted(b));
        self.maybe_rebalance();
        removed
    }

    /// Mixed batches split **once** at the splitters and fan out to the
    /// shards in parallel, each shard running its backend's own mixed
    /// pass; outcomes merge in shard index order (schedule-independent).
    fn apply_batch_sorted(&mut self, ops: &[BatchOp<u64>]) -> BatchOutcome {
        let bounds = split_bounds_by(&self.splitters, ops, |op| op.key());
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

    /// One split of the normal form, each shard reporting through its
    /// backend's own pass. The batch counters and the rebalance check then
    /// see the net batch — a shard's net ops are exactly the ones its
    /// outcome counts — as applying it would have shown them; an empty net
    /// batch, which changes nothing, records nothing.
    fn apply_batch_sorted_reporting(
        &mut self,
        ops: &[BatchOp<u64>],
        was_present: &mut Vec<bool>,
    ) -> BatchOutcome {
        let bounds = split_bounds_by(&self.splitters, ops, |op| op.key());
        let bounds = &bounds;
        let per_shard: Vec<(BatchOutcome, Vec<bool>)> = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                let sub = &ops[bounds[i]..bounds[i + 1]];
                let mut was = Vec::new();
                let outcome = if sub.is_empty() {
                    BatchOutcome::default()
                } else {
                    shard.apply_batch_sorted_reporting(sub, &mut was)
                };
                (outcome, was)
            })
            .collect();
        was_present.clear();
        let mut outcome = BatchOutcome::default();
        let mut net_bounds = vec![0];
        for (shard_outcome, was) in per_shard {
            was_present.extend(was);
            outcome = outcome + shard_outcome;
            net_bounds.push(outcome.added + outcome.removed);
        }
        if outcome != BatchOutcome::default() {
            self.record_batch(outcome.added + outcome.removed, &net_bounds);
            self.maybe_rebalance();
        }
        outcome
    }

    /// Shard by shard when both replicas have the same shard layout — a
    /// shard the lag does not touch costs nothing, the others copy or
    /// replay their part as their backend decides — plus the statistics;
    /// the whole lag is replayed when the newer replica re-learned its
    /// splitters.
    fn catch_up_from(&mut self, newer: &Self, lag: &[BatchOp<u64>]) -> CatchUp {
        if lag.is_empty() {
            return CatchUp::default();
        }
        if !self.same_layout(newer) {
            self.apply_batch_sorted(lag);
            return CatchUp {
                copied_bytes: 0,
                replayed_ops: lag.len(),
            };
        }
        let bounds = split_bounds_by(&self.splitters, lag, |op| op.key());
        let bounds = &bounds;
        let caught = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(i, shard)| shard.catch_up_from(&newer.shards[i], &lag[bounds[i]..bounds[i + 1]]))
            .reduce(CatchUp::default, |a, b| a + b);
        self.stats = newer.stats;
        caught
    }

    /// Every shard copies (or has nothing to catch up).
    fn copies_from(&self, newer: &Self) -> bool {
        self.same_layout(newer)
            && (self.shards.iter())
                .zip(&newer.shards)
                .all(|(shard, newer)| shard.copies_from(newer))
    }
}

impl<S: RangeSet + Sync, const N: usize> RangeSet for ShardedSet<S, N> {
    /// Each shard's chunks in shard (= key) order.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        let first = self.shard_of(start);
        let mut live = true;
        for (i, shard) in self.shards.iter().enumerate().skip(first) {
            let from = if i == first { start } else { 0 };
            shard.scan_chunks_from(from, &mut |chunk| {
                live = f(chunk);
                live
            });
            if !live {
                return;
            }
        }
    }

    fn range_sum<R: RangeBounds<u64>>(&self, range: R) -> u64 {
        // Stitch per-shard sums in shard (= key) order so each backend's
        // own range_sum fast path runs on its slice of the range.
        let Some((lo, hi)) = range_to_inclusive(&range) else {
            return 0;
        };
        let first = self.shard_of(lo);
        let last = self.shard_of(hi);
        let mut sum = 0u64;
        for shard in &self.shards[first..=last] {
            sum = sum.wrapping_add(shard.range_sum(lo..=hi));
        }
        sum
    }
}

impl<S: ParallelChunks + Sync, const N: usize> ParallelChunks for ShardedSet<S, N> {
    /// Shards are disjoint and ascending, so each shard's chunks are valid
    /// chunks of the whole set; visit the shards in parallel too.
    fn par_chunks(&self, f: &(dyn Fn(&[u64]) + Sync)) {
        self.shards.par_iter().for_each(|s| s.par_chunks(f));
    }
}

/// Manifest codec id inside the [`SnapshotEnvelope`] (the PMA leaf codecs
/// hold the small ids — the `Cpma`'s is 3; never reuse or renumber).
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
/// count and the splitters — itself a checksummed
/// [`SnapshotEnvelope`], written atomically and written **last**, so a
/// fresh checkpoint directory is all-or-nothing at the manifest: until
/// the manifest lands, `load` fails typed and recovery falls back to an
/// older checkpoint.
///
/// Both directions handle the shard files in parallel on the workspace
/// pool. Every shard is attempted, and the error returned is that of the
/// first failing shard in index order, so the outcome does not depend on
/// the schedule; `save` writes the manifest only once every shard file
/// is saved.
///
/// Re-saving over an existing directory reuses it (stale `shard-*` files
/// beyond the current count are deleted) but is not crash-atomic; the
/// durable [`Combiner`](crate::Combiner) always checkpoints into a fresh
/// `checkpoint-<seq>` directory.
///
/// `load` restores the persisted shard count and splitters (validated:
/// splitters ascending and exactly `count − 1`), so a set reloads exactly
/// as it was saved, whatever the loading type's `N`; a count other than
/// `N` is rebuilt into `N` shards at the next batch. Statistics restart at
/// zero.
impl<S: Persist + Send + Sync, const N: usize> Persist for ShardedSet<S, N> {
    fn save(&self, path: &Path) -> Result<(), PersistError> {
        std::fs::create_dir_all(path)?;
        let saved: Vec<Result<(), PersistError>> = self
            .shards
            .par_iter()
            .enumerate()
            .map(|(i, shard)| shard.save(&path.join(shard_file_name(i))))
            .collect();
        saved.into_iter().collect::<Result<(), _>>()?;
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
        let mut payload = Vec::with_capacity(self.splitters.len() * 8);
        for &s in &self.splitters {
            payload.put_u64(s);
        }
        let manifest = SnapshotEnvelope {
            codec_id: MANIFEST_CODEC_ID,
            meta: &meta,
            payload: &payload,
        };
        manifest.save_file(&path.join("MANIFEST"))?;
        // One fsync makes every shard file's name and the manifest's
        // durable.
        Ok(sync_dir(path)?)
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
        r.expect_end("sharded manifest meta")?;
        if count == 0 {
            return Err(PersistError::Corrupt("manifest has zero shards".into()));
        }
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
        let loaded: Vec<Result<S, PersistError>> = (0..count)
            .into_par_iter()
            .map(|i| S::load(&path.join(shard_file_name(i))))
            .collect();
        let shards = loaded.into_iter().collect::<Result<Vec<S>, _>>()?;
        Ok(Self::assemble(shards, splitters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    type Sharded4 = ShardedSet<BTreeSet<u64>, 4>;

    fn with_splitters(splitters: Vec<u64>) -> Sharded4 {
        let shards = (0..splitters.len() + 1).map(|_| BTreeSet::new()).collect();
        Sharded4::assemble(shards, splitters)
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
        let stats = s.rebalance_stats();
        assert!(stats.skew_rebalances >= 1);
        assert_eq!(stats.grows, 0);
        // Fullest shard over mean, so ≥ 1000‰ by definition.
        assert!(
            (1000..1500).contains(&stats.post_rebalance_imbalance_permille),
            "{}",
            stats.summary()
        );
        // Skew moves the splitters, never the count.
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

    /// A set holding more or fewer shards than its `N` — what a checkpoint
    /// saved by a `ShardedSet` of another `N` loads as — is rebuilt into
    /// `N` shards at its next batch, in one jump each way.
    #[test]
    fn out_of_bounds_count_clamps_at_next_batch() {
        fn holding<const N: usize>(count: usize) -> ShardedSet<BTreeSet<u64>, N> {
            let shards = (0..count).map(|_| BTreeSet::new()).collect();
            ShardedSet::assemble(shards, default_splitters(count))
        }
        let mut wide = holding::<2>(8);
        assert_eq!(wide.shard_count(), 8);
        wide.insert_batch_sorted(&[1, 2, 3]);
        assert_eq!(wide.shard_count(), 2, "rebuilt down to N");
        assert_eq!(wide.rebalance_stats().shrinks, 1);
        assert_eq!(RangeSet::to_vec(&wide), vec![1, 2, 3]);
        let mut narrow = holding::<4>(1);
        narrow.insert_batch_sorted(&[5]);
        assert_eq!(narrow.shard_count(), 4, "rebuilt up to N");
        assert_eq!(narrow.rebalance_stats().grows, 1);
        assert_eq!(RangeSet::to_vec(&narrow), vec![5]);
        // At N the count stays put.
        narrow.insert_batch_sorted(&[6]);
        assert_eq!(narrow.rebalance_stats().grows, 1);
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
