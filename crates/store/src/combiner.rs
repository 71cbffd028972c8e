//! Flat-combining concurrent writer front-end over a batch-parallel set.
//!
//! # Combining epochs
//!
//! Point operations from concurrent threads are collected into *epochs*.
//! A submitting thread appends its operation to the open epoch's
//! publication buffer, then either becomes the **leader** (if the
//! single leader slot — a `Mutex` around the two replicas of the set — is
//! free) or waits for its epoch's completion. The leader:
//!
//! 1. seals the open epoch at once and takes whatever is pending (a fresh
//!    epoch opens for later submitters) — it never holds the epoch open
//!    (see "The leader never waits" below);
//! 2. folds the epoch's writes into **one mixed op batch** in the
//!    last-op-wins normal form of [`cpma_api::normalize_ops`] and applies
//!    it with one [`BatchSet::apply_batch_sorted_reporting`] call to a
//!    private replica of the set, brought level with the published one
//!    first (see "Snapshot readers" — the cost is O(what the last epoch
//!    wrote), not a copy of the set). The call reports every written key's
//!    presence before the epoch; keys the epoch only reads with
//!    `Contains` are probed in the published set;
//! 3. replays the drained operations *in submission order* against that
//!    presence overlay, recording each operation's individual result —
//!    this is what makes the epoch linearizable: every operation observes
//!    exactly the operations submitted before it. The writes that change
//!    presence are the epoch's **net batch** ([`cpma_api::net_ops`]), and
//!    the replica holds exactly the set after it;
//! 4. appends the net batch to the WAL (durable combiners), publishes the
//!    replica as the new snapshot and retires the old one as the next
//!    spare, then marks the epoch done and wakes all waiters with their
//!    results. An epoch whose net batch is empty publishes nothing.
//!
//! Leadership is re-elected per epoch by `try_lock`: whichever waiter
//! finds the leader slot free next drives the next epoch, so the design
//! needs no dedicated combiner thread and quiesces to zero cost when
//! idle. Everything is built on `std` `Mutex`/`Condvar` only.
//!
//! # The leader never waits
//!
//! Batch size — the quantity a batch-parallel backend's throughput hinges
//! on — adapts to contention alone: operations pile up in the open epoch
//! while the previous one applies (group commit, with no timer). Holding
//! the epoch open for more was worth it while every epoch paid an
//! O(structure) copy to publish; publication is O(batch) now, and what is
//! left to amortise is the `O(k log(n/k + 1))` search, where tripling an
//! epoch saves ≈ 10 % of the steps per op. Measured before the waiting
//! policies were deleted (4 writers, bursts of 64, `ShardedSet<Cpma, 8>`,
//! 12 runs, median k ops/s): bursty traffic 160 (zipf) / 152 (uniform)
//! draining at once, against 131 / 121 for a 64-op / 50 µs window, 109 /
//! 86 for an arrival-rate-tracking window and 79 / 76 for a window sized
//! to one wave of writers; on steady streams no window beat draining at
//! once by more than its run-to-run spread (699 / 441, against 728 / 502
//! for the best fixed window and 550 / 409 for the rate tracker).
//! Contention already forms 17-op (bursty) and 70–160-op (steady) epochs.
//! [`CombinerStats`] reports the epoch sizes a deployment actually gets.
//! (The one wait left is for a *reader*, not for operations: a snapshot
//! reader that still holds the replica the epoch needs — see "Snapshot
//! readers".)
//!
//! # Snapshot readers
//!
//! [`Combiner::snapshot`] hands out the most recently published snapshot
//! behind an `Arc` — readers never block behind a writing leader, and an
//! acknowledged operation is visible immediately on acknowledgement,
//! because the leader publishes *before* it wakes waiters.
//!
//! A snapshot must never change under its readers, so the leader cannot
//! update the published set in place; and a flat array has no path to
//! share with a copy, so copying it costs O(structure) however small the
//! batch. The leader therefore keeps **two replicas** and alternates
//! them. `front` is the published set — also the authoritative one:
//! `Contains` probes and checkpoints read it. `spare` is the replica that
//! was published before it, together with `lag`, the one net batch it has
//! not seen. The invariant between epochs is
//!
//! ```text
//! spare ⊕ lag = front, and front's recorded write set is that apply of lag
//! ```
//!
//! — the spare is the front one apply behind. An epoch takes the spare,
//! brings it level with [`BatchSet::catch_up_from`], applies its own batch
//! to it, publishes the result as the new `front`, and retires the old
//! front as the new spare with `lag = net`. The catch-up does not run the
//! batch kernel again: a PMA-family backend records which leaves each
//! apply wrote, and since the front's last apply *was* `lag`, copying
//! those leaves' bytes out of the front is the whole difference — the
//! array's counterpart of a path-copying tree publishing for the price of
//! the paths it copied. An epoch runs the kernel once, on its own batch.
//! Where the copy cannot bridge the replicas (the front's last apply
//! resized a shard, or re-learned the shard splitters) the backend replays
//! `lag` instead; a backend that records no write set always replays.
//!
//! * **One history, to the byte.** A copy leaves exactly the bytes a
//!   replay of `lag` would have written, so every replica's bytes are
//!   those of a single set that applied one net batch per epoch:
//!   checkpoints and the thread-budget determinism suite cannot tell the
//!   replicas apart. WAL recovery reproduces that set's contents and
//!   `last_seq`, not its bytes: it applies each segment's epochs as one
//!   merged batch, so the recovered leaf layout is its own (the same at
//!   every thread budget).
//! * **Taking the spare is race-free.** [`Combiner::snapshot`] only ever
//!   hands out `front`, so a new handle to a retired replica can only be
//!   cloned from one a reader already holds. When `Arc::try_unwrap` finds
//!   the leader's handle to be the only one, no reader is left and none
//!   can appear.
//! * **Two fallbacks copy `front` instead** (`Core::writable_replica`):
//!   a reader still pins the spare — the leader first yields to it for a
//!   fraction of a millisecond, since a reader is almost always mid-request,
//!   and copies only if it holds on: one copy per long-lived pin, after
//!   which the fresh copy and the old front alternate again — or the
//!   spare can only be caught up by a replay and `lag` is so large that
//!   the replay would cost more than the copy (a private count-based
//!   break-even). Before the first write epoch there is no spare at all,
//!   which is the second case taken to its limit.
//!
//! An epoch with writes takes the spare before it knows whether any of
//! them changes the set; when none does, it publishes nothing and keeps
//! the caught-up replica as the spare, lagging by an empty batch. An
//! epoch of `Contains` probes alone takes nothing.
//!
//! Memory is two replicas plus one net batch; a combiner that has applied
//! no write holds one replica. [`CombinerStats`] counts how each epoch
//! got its replica.
//!
//! # Examples
//!
//! ```
//! use cpma_store::Combiner;
//! use std::collections::BTreeSet;
//!
//! let store: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
//! assert!(store.insert(7));
//! assert!(store.snapshot().contains(&7));
//! let stats = store.stats();
//! assert_eq!((stats.epochs, stats.ops), (1, 1));
//! ```

use cpma_api::{net_ops, BatchOp, BatchSet, ConfigError, Persist, PersistError, RangeSet};
use cpma_obs::{Counter, Gauge, Histogram, Unit};
use cpma_persist::{recover, RecoveryReport, WalConfig, WalWriter};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// One point operation submitted to a [`Combiner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op<K> {
    /// Insert the key; acknowledged `true` iff the key was newly added.
    Insert(K),
    /// Remove the key; acknowledged `true` iff the key was present.
    Remove(K),
    /// Linearized membership test (reads that must observe all earlier
    /// writes; use [`Combiner::snapshot`] for wait-free reads).
    Contains(K),
}

impl<K: Copy> Op<K> {
    fn key(&self) -> K {
        match *self {
            Op::Insert(k) | Op::Remove(k) | Op::Contains(k) => k,
        }
    }
}

/// Always-on combining statistics, mirroring `PmaStats`: a handful of
/// integer adds per *epoch*, kept under the leader lock, so they are
/// cheap, coherent, and need no feature flag.
///
/// # Examples
///
/// ```
/// use cpma_store::Combiner;
/// use std::collections::BTreeSet;
///
/// let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
/// c.insert_many(&[1, 2, 3, 4]);
/// let stats = c.stats();
/// assert_eq!((stats.epochs, stats.ops), (1, 4));
/// // A 4-op epoch lands in the ops-histogram bucket for log2(4) == 2.
/// assert_eq!(stats.ops_per_epoch_log2[2], 1);
/// assert_eq!(stats.summary().contains("epochs=1"), true);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombinerStats {
    /// Epochs applied (each applied exactly one combined batch).
    pub epochs: u64,
    /// Operations acknowledged across all epochs.
    pub ops: u64,
    /// Histogram of epoch sizes: bucket `i` counts epochs with
    /// `ops_in_epoch.ilog2() == i` (bucket 15 collects everything of
    /// 2^15 ops and larger).
    pub ops_per_epoch_log2: [u64; 16],
    /// Write epochs that caught the spare replica up by copying what the
    /// front's last apply wrote (an empty lag counts here, copying
    /// nothing).
    pub publish_copied: u64,
    /// Write epochs that caught the spare up by replaying (some of) the
    /// batch it lagged by: the copy could not bridge the replicas' layouts,
    /// or the backend records no write set.
    pub publish_replayed: u64,
    /// Write epochs that copied the set because a reader still held the
    /// spare replica after the leader had yielded to it for a moment.
    pub publish_cloned_pinned: u64,
    /// Write epochs that copied the set because only a replay could catch
    /// the spare up and it would have cost more than the copy (including
    /// the first write epoch, which has no spare yet).
    pub publish_cloned_bulk: u64,
    /// Operations applied a second time by those replays.
    pub replay_ops: u64,
    /// Bytes the copying catch-ups copied.
    pub catchup_bytes: u64,
}

impl CombinerStats {
    /// Mean operations per epoch so far.
    pub fn mean_ops_per_epoch(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.ops as f64 / self.epochs as f64
        }
    }

    /// One compact human-readable line (the bench drivers print this).
    pub fn summary(&self) -> String {
        format!(
            "epochs={} ops={} mean_ops/epoch={:.1} publish[copied={} replayed={} \
             cloned_pinned={} cloned_bulk={} replay_ops={} catchup_bytes={}]",
            self.epochs,
            self.ops,
            self.mean_ops_per_epoch(),
            self.publish_copied,
            self.publish_replayed,
            self.publish_cloned_pinned,
            self.publish_cloned_bulk,
            self.replay_ops,
            self.catchup_bytes
        )
    }
}

/// The registry-backed cells behind [`CombinerStats`]: each combiner
/// registers its own under `combiner.*` names, and [`Combiner::stats`]
/// is a point-in-time [`CombinerCounters::view`] over them.
///
/// The epoch-size distribution lives in a full `cpma-obs` histogram
/// (`combiner.ops_per_epoch`); the public `ops_per_epoch_log2` array is
/// reconstructed exactly from its per-octave counts, because obs buckets
/// never span an octave boundary. This replaces the hand-rolled ilog2
/// bucketing that used to live here.
struct CombinerCounters {
    epochs: Counter,
    ops: Counter,
    publish_copied: Counter,
    publish_replayed: Counter,
    publish_cloned_pinned: Counter,
    publish_cloned_bulk: Counter,
    replay_ops: Counter,
    catchup_bytes: Counter,
    /// Deterministic epoch-size distribution (unit: ops).
    ops_per_epoch: Histogram,
    /// Timing-derived seal→publish latency (unit: ns); see the span in
    /// `lead`.
    epoch_ns: Histogram,
    /// Timing-derived phases of that span: getting the writable replica,
    /// applying the epoch's batch to it, the WAL append.
    catchup_ns: Histogram,
    apply_ns: Histogram,
    wal_ns: Histogram,
}

impl CombinerCounters {
    fn new() -> Self {
        let r = cpma_obs::global();
        Self {
            epochs: r.counter("combiner.epochs", Unit::Count),
            ops: r.counter("combiner.ops", Unit::Count),
            publish_copied: r.counter("combiner.publish.copied", Unit::Count),
            publish_replayed: r.counter("combiner.publish.replayed", Unit::Count),
            publish_cloned_pinned: r.counter("combiner.publish.cloned_pinned", Unit::Count),
            publish_cloned_bulk: r.counter("combiner.publish.cloned_bulk", Unit::Count),
            replay_ops: r.counter("combiner.replay_ops", Unit::Count),
            catchup_bytes: r.counter("combiner.catchup_bytes", Unit::Bytes),
            ops_per_epoch: r.histogram("combiner.ops_per_epoch", Unit::Count),
            epoch_ns: r.histogram("combiner.epoch.ns", Unit::Nanos),
            catchup_ns: r.histogram("combiner.catchup.ns", Unit::Nanos),
            apply_ns: r.histogram("combiner.apply.ns", Unit::Nanos),
            wal_ns: r.histogram("combiner.wal.ns", Unit::Nanos),
        }
    }

    fn record_epoch(&self, ops: usize) {
        self.epochs.inc();
        self.ops.add(ops as u64);
        self.ops_per_epoch.record(ops as u64);
    }

    fn view(&self) -> CombinerStats {
        CombinerStats {
            epochs: self.epochs.value(),
            ops: self.ops.value(),
            ops_per_epoch_log2: self.ops_per_epoch.snapshot().octave_counts::<16>(),
            publish_copied: self.publish_copied.value(),
            publish_replayed: self.publish_replayed.value(),
            publish_cloned_pinned: self.publish_cloned_pinned.value(),
            publish_cloned_bulk: self.publish_cloned_bulk.value(),
            replay_ops: self.replay_ops.value(),
            catchup_bytes: self.catchup_bytes.value(),
        }
    }
}

/// A placeholder with nothing to set: the epoch protocol has no knob
/// (module docs, "The leader never waits"). It exists because the frozen
/// `benchmark/` package names `CombinerConfig::default()` as the first
/// argument of [`Combiner::open_durable`]; ROADMAP's "Re-baseline the
/// contract" item removes both.
#[derive(Clone, Copy, Debug, Default)]
pub struct CombinerConfig {}

/// How long a waiter sleeps before re-checking whether the leader slot has
/// freed up (bounds leader-handoff latency when a wake-up is missed).
const RETRY_WAIT: Duration = Duration::from_micros(50);

/// The publication buffer for one epoch, shared between its submitters
/// and the leader that drains it.
struct EpochState {
    ops: Vec<Op<u64>>,
    /// Set by the leader when it drains the buffer; submitters that find
    /// their epoch sealed re-route to the freshly opened one.
    sealed: bool,
    /// Set (with `results`) after the batch is applied and published.
    done: bool,
    /// `results[i]` answers `ops[i]`; valid once `done`.
    results: Vec<bool>,
}

struct Epoch {
    state: Mutex<EpochState>,
    /// Waiters (submitters) block here until `done`.
    done_cv: Condvar,
}

impl Epoch {
    fn new() -> Self {
        Self {
            state: Mutex::new(EpochState {
                ops: Vec::new(),
                sealed: false,
                done: false,
                results: Vec::new(),
            }),
            done_cv: Condvar::new(),
        }
    }
}

/// Durability attachment of a [`Combiner`] opened via
/// [`Combiner::open_durable`]: the epoch write-ahead log plus the
/// checkpoint entry point.
///
/// The checkpoint is a plain function pointer captured where the
/// `S: Persist` bound is in scope (`open_durable`), so the epoch path
/// (`lead`) needs no persistence bound of its own.
struct DurableState<S> {
    writer: WalWriter,
    checkpoint: fn(&S, &Path) -> Result<(), PersistError>,
}

/// When the spare can only be caught up by replaying its lag (the backend
/// cannot copy across the replicas' layouts, or records no write set), a
/// lag of `n` ops is replayed while `n × REPLAY_BREAK_EVEN ≤ len` and the
/// front is copied otherwise; a copying catch-up never costs more than the
/// copy, so it ignores the lag. Re-measured on the reference box with the
/// reporting apply in place: a copy of `ShardedSet<Cpma, 8>` reads
/// ≈ 0.45–0.65 ns per key (2 M keys in 0.9–1.3 ms) into recycled memory,
/// ≈ 2.9 ns into fresh pages, and a small-batch apply costs ≈ 225–390 ns
/// per op (512 ops in 115–200 µs, alone and under the service's readers):
/// a ratio of 350–870 against recycled memory. 256 is the power of two
/// below that range, so the rule errs toward the copy, whose cost the lag
/// cannot inflate. Both sides of the comparison are counts — no clock
/// feeds the decision.
const REPLAY_BREAK_EVEN: usize = 256;

/// How long the leader yields to a reader that still holds the spare
/// before it copies the set instead. A reader pinning the spare is almost
/// always mid-request — a scan page, a batch of lookups — and lets go
/// within a fraction of a millisecond, while the copy costs ≈ 1 ms into
/// recycled memory and ≈ 6 ms into fresh pages (2 M keys, reference box).
/// The wait matters because the faster an epoch, the more of them a long
/// read spans: with one kernel run per epoch, `service_mixed` found the
/// spare pinned at ≈ 11 % of its 512-op write epochs (≈ 5 % when each
/// epoch also probed and replayed), each paying a copy; with this bound
/// none did. The clock only chooses
/// between two outcomes that already depend on when readers let go: a
/// combiner with no concurrent reader never waits.
const PIN_PATIENCE: Duration = Duration::from_micros(500);

/// Leader-exclusive state: the two replicas of the set, the epoch counter,
/// and the combining statistics.
struct Core<S> {
    /// The published replica (the same `Arc` as `Combiner::published`) and
    /// the authoritative set: `Contains` probes and checkpoints read it.
    front: Arc<S>,
    /// The replica published before `front`, and `lag`, the one net batch
    /// it has not seen: `spare ⊕ lag = front`. `None` until the first
    /// write epoch.
    spare: Option<(Arc<S>, Vec<BatchOp<u64>>)>,
    epochs_applied: u64,
    /// `Some` iff this combiner is durable: every epoch's net batch is
    /// WAL-appended before it is published, and rotation checkpoints the
    /// set. The WAL sequence number of an epoch *is* its position in
    /// `epochs_applied` (empty epochs are logged too, so the two never
    /// drift).
    wal: Option<DurableState<S>>,
    stats: CombinerCounters,
}

impl<S: BatchSet + Clone> Core<S> {
    /// A privately owned set equal to `front`, for the epoch's batch to be
    /// applied to: the spare caught up with `front` when nobody else holds
    /// it and the catch-up is cheap, a copy of `front` otherwise (module
    /// docs, "Snapshot readers"). Consumes the spare either way.
    fn writable_replica(&mut self) -> S {
        let _span = cpma_obs::span_with(&self.stats.catchup_ns, "combiner.catchup");
        match self.spare.take() {
            Some((spare, lag))
                if spare.copies_from(&self.front)
                    || lag.len().saturating_mul(REPLAY_BREAK_EVEN) <= self.front.len() =>
            {
                // Nobody hands out a retired snapshot any more, so once
                // ours is the only handle nobody can observe the catch-up —
                // and a reader still holding it is let finish, briefly.
                let asked = Instant::now();
                while Arc::strong_count(&spare) > 1 && asked.elapsed() < PIN_PATIENCE {
                    std::thread::yield_now();
                }
                match Arc::try_unwrap(spare) {
                    Ok(mut set) => {
                        let caught = set.catch_up_from(&self.front, &lag);
                        self.stats.catchup_bytes.add(caught.copied_bytes as u64);
                        if caught.replayed_ops > 0 {
                            self.stats.publish_replayed.inc();
                            self.stats.replay_ops.add(caught.replayed_ops as u64);
                        } else {
                            self.stats.publish_copied.inc();
                        }
                        return set;
                    }
                    Err(_pinned) => self.stats.publish_cloned_pinned.inc(),
                }
            }
            // Only a replay too large to pay could catch the spare up — or
            // there is no spare yet, which is a spare lagging by the whole
            // set.
            _ => self.stats.publish_cloned_bulk.inc(),
        }
        S::clone(&self.front)
    }
}

/// A flat-combining concurrent front-end over any batch-parallel set.
///
/// Share it by reference (or `Arc`) across threads; the module header
/// in `combiner.rs` documents the epoch protocol.
///
/// # Examples
///
/// ```
/// use cpma_store::{Combiner, Op};
/// use std::collections::BTreeSet;
///
/// let store: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
/// std::thread::scope(|scope| {
///     for t in 0..4u64 {
///         let store = &store;
///         scope.spawn(move || {
///             for i in 0..100 {
///                 store.insert(t * 1000 + i);
///             }
///         });
///     }
/// });
/// assert_eq!(store.snapshot().len(), 400);
/// let results = store.submit_many(&[Op::Remove(1), Op::Contains(1)]);
/// assert_eq!(results, vec![true, false]);
/// ```
pub struct Combiner<S> {
    core: Mutex<Core<S>>,
    current: Mutex<Arc<Epoch>>,
    published: Mutex<Arc<S>>,
    /// Open-epoch occupancy (`combiner.queue_depth`): set by every
    /// enqueue, zeroed when the leader seals. Lives outside `Core` so the
    /// submit path never touches the leader lock for it.
    queue_depth: Gauge,
}

impl<S> Combiner<S>
where
    S: BatchSet + RangeSet + Clone + Sync,
{
    /// Wrap `set` in a (non-durable) combiner.
    pub fn new(set: S) -> Self {
        Self::assemble(set, 0, None)
    }

    /// `set` as the one replica (published and authoritative at once) of a
    /// combiner that has applied `epochs_applied` epochs.
    fn assemble(set: S, epochs_applied: u64, wal: Option<DurableState<S>>) -> Self {
        let front = Arc::new(set);
        Self {
            published: Mutex::new(Arc::clone(&front)),
            core: Mutex::new(Core {
                front,
                spare: None,
                epochs_applied,
                wal,
                stats: CombinerCounters::new(),
            }),
            current: Mutex::new(Arc::new(Epoch::new())),
            queue_depth: cpma_obs::global().gauge("combiner.queue_depth"),
        }
    }

    /// Insert `key`; returns whether it was newly added, linearized
    /// against every other submitted operation.
    pub fn insert(&self, key: u64) -> bool {
        self.submit(Op::Insert(key))
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&self, key: u64) -> bool {
        self.submit(Op::Remove(key))
    }

    /// Linearized membership test (goes through the op stream; for
    /// wait-free reads use [`Combiner::snapshot`]).
    pub fn contains(&self, key: u64) -> bool {
        self.submit(Op::Contains(key))
    }

    /// The most recently published snapshot. Never blocks behind a
    /// writing leader — only a pointer clone under a short lock.
    pub fn snapshot(&self) -> Arc<S> {
        self.published.lock().unwrap().clone()
    }

    /// Epochs applied so far (each applied exactly one combined batch).
    pub fn epochs_applied(&self) -> u64 {
        self.core.lock().unwrap().epochs_applied
    }

    /// A copy of the combining statistics so far. Taken under the leader
    /// lock, so it may briefly wait for an in-flight epoch to finish.
    pub fn stats(&self) -> CombinerStats {
        self.core.lock().unwrap().stats.view()
    }

    /// Zero the combining statistics (e.g. between measured phases).
    pub fn reset_stats(&self) {
        self.core.lock().unwrap().stats = CombinerCounters::new();
    }

    /// Unwrap the authoritative set (consumes the combiner, so every
    /// acknowledged operation is included). Copies it only if a reader
    /// still holds the latest snapshot.
    pub fn into_inner(self) -> S {
        drop(self.published);
        Arc::unwrap_or_clone(self.core.into_inner().unwrap().front)
    }

    /// Submit one operation and block until its epoch is applied;
    /// returns the operation's individual result.
    pub fn submit(&self, op: Op<u64>) -> bool {
        let (epoch, idx) = self.enqueue(std::slice::from_ref(&op));
        self.await_epoch(&epoch, |st| st.results[idx])
    }

    /// Submit a burst of operations as one publication — one enqueue,
    /// one wait — and block until their epoch is applied. Returns the
    /// per-operation results in submission order. This is the ingest
    /// path: a burst keeps the combined batch large even when writers
    /// are synchronous, which is where batch-parallel updates pull ahead
    /// of per-operation locking.
    pub fn submit_many(&self, ops: &[Op<u64>]) -> Vec<bool> {
        if ops.is_empty() {
            return Vec::new();
        }
        let (epoch, start) = self.enqueue(ops);
        let end = start + ops.len();
        self.await_epoch(&epoch, |st| st.results[start..end].to_vec())
    }

    /// Burst-insert convenience: returns how many keys were newly added.
    pub fn insert_many(&self, keys: &[u64]) -> usize {
        let ops: Vec<Op<u64>> = keys.iter().map(|&k| Op::Insert(k)).collect();
        self.submit_many(&ops).into_iter().filter(|&b| b).count()
    }

    /// Append `ops` to the open epoch (re-routing if a leader seals it
    /// between lookup and push — the new epoch is installed while
    /// `current` is held, so the retry loop is bounded). Returns the
    /// epoch and the index of the first appended op.
    fn enqueue(&self, ops: &[Op<u64>]) -> (Arc<Epoch>, usize) {
        loop {
            let cur = self.current.lock().unwrap().clone();
            let mut st = cur.state.lock().unwrap();
            if !st.sealed {
                let idx = st.ops.len();
                st.ops.extend_from_slice(ops);
                self.queue_depth.set(st.ops.len() as i64);
                drop(st);
                return (cur, idx);
            }
            drop(st);
            std::thread::yield_now();
        }
    }

    /// Wait until `epoch` completes (leading it ourselves if the leader
    /// slot frees first), then return `extract` of its final state.
    fn await_epoch<R>(&self, epoch: &Arc<Epoch>, extract: impl Fn(&EpochState) -> R) -> R {
        loop {
            // Try to take the leader slot. `try_lock` never blocks, so a
            // running leader just sends us to the wait below.
            match self.core.try_lock() {
                Ok(core) => {
                    // Our epoch may have been completed between enqueue
                    // and lock acquisition.
                    {
                        let st = epoch.state.lock().unwrap();
                        if st.done {
                            return extract(&st);
                        }
                    }
                    // Not done and the leader slot is ours: our epoch is
                    // unsealed (sealed epochs complete before the leader
                    // slot frees), i.e. it is the current epoch — lead it.
                    self.lead(core);
                    let st = epoch.state.lock().unwrap();
                    debug_assert!(st.done, "leader must complete its own epoch");
                    return extract(&st);
                }
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(e)) => panic!("combiner poisoned: {e}"),
            }
            let st = epoch.state.lock().unwrap();
            if st.done {
                return extract(&st);
            }
            // Timed wait: on `done` notification we return; on timeout we
            // loop to contend for the (possibly freed) leader slot.
            let (st, _) = epoch.done_cv.wait_timeout(st, RETRY_WAIT).unwrap();
            if st.done {
                return extract(&st);
            }
        }
    }

    /// Drive one epoch: seal, apply, replay, log, publish, wake, then
    /// release the leader slot and hand leadership to a waiter of the
    /// next epoch if one is already pending.
    fn lead(&self, mut guard: std::sync::MutexGuard<'_, Core<S>>) {
        let core = &mut *guard;
        let epoch = self.current.lock().unwrap().clone();

        // Seal at once and take whatever is pending: the batch is as big
        // as contention made it while the previous epoch applied.
        let ops = {
            let mut st = epoch.state.lock().unwrap();
            st.sealed = true;
            std::mem::take(&mut st.ops)
        };
        // Open a fresh epoch for subsequent submitters.
        *self.current.lock().unwrap() = Arc::new(Epoch::new());
        self.queue_depth.set(0);

        // Timing span over the epoch's seal-to-publish work (catch-up,
        // batch apply, WAL append, checkpoint, publication).
        let mut epoch_span = cpma_obs::span_with(&core.stats.epoch_ns, "combiner.epoch");
        epoch_span.set_items(ops.len() as u64);

        // The ops grouped by key, submission order kept inside a group —
        // one sort serves the normal form, the probes and the replay. A
        // key's last write is its op in the epoch's ONE mixed batch, whose
        // normal form (`cpma_api::normalize_ops`'s last-op-wins) comes out
        // ascending; keys the epoch only reads are probed instead.
        let mut order: Vec<(u64, usize)> = ops.iter().map(Op::key).zip(0..).collect();
        order.sort_unstable();
        // (end of the group in `order`, whether the group writes)
        let mut groups: Vec<(usize, bool)> = Vec::new();
        let (mut writes, mut probes) = (Vec::new(), Vec::new());
        let mut start = 0;
        while start < order.len() {
            let key = order[start].0;
            let end = start
                + order[start..]
                    .iter()
                    .take_while(|&&(k, _)| k == key)
                    .count();
            let last_write = order[start..end]
                .iter()
                .rev()
                .find_map(|&(_, i)| match ops[i] {
                    Op::Insert(k) => Some(BatchOp::Insert(k)),
                    Op::Remove(k) => Some(BatchOp::Remove(k)),
                    Op::Contains(_) => None,
                });
            groups.push((end, last_write.is_some()));
            match last_write {
                Some(op) => writes.push(op),
                None => probes.push(key),
            }
            start = end;
        }
        // The writes go in one batch-parallel pass to a replica no reader
        // can see, which reports each written key's presence before the
        // epoch: no written key is looked up before it is applied.
        let mut was_present = Vec::new();
        let next = if writes.is_empty() {
            None
        } else {
            let mut next = core.writable_replica();
            let _apply = cpma_obs::span_with(&core.stats.apply_ns, "combiner.apply");
            next.apply_batch_sorted_reporting(&writes, &mut was_present);
            Some(next)
        };
        let hits = if probes.is_empty() {
            Vec::new()
        } else {
            core.front.contains_batch(&probes)
        };
        // Replay in submission order against that presence overlay: each
        // operation observes the set as of all operations before it.
        let (mut reported, mut probed) = (was_present.iter(), hits.iter());
        let mut results = vec![false; ops.len()];
        let mut start = 0;
        for &(end, writes_key) in &groups {
            let before = if writes_key {
                reported.next()
            } else {
                probed.next()
            };
            let mut now = *before.expect("one presence per key");
            for &(_, i) in &order[start..end] {
                results[i] = match ops[i] {
                    Op::Insert(_) => !std::mem::replace(&mut now, true),
                    Op::Remove(_) => std::mem::replace(&mut now, false),
                    Op::Contains(_) => now,
                };
            }
            start = end;
        }

        // The net batch: the writes that change presence — all the replica
        // applied.
        let net = net_ops(&writes, &was_present);
        // Durability: the net batch reaches the WAL before the replica
        // holding it is published and before any waiter wakes — a crash
        // after the append replays the epoch, a crash before it loses only
        // unacknowledged operations, which no reader has seen. Empty nets
        // are logged too (a pure-`Contains` epoch still advances the
        // sequence), so WAL seq stays equal to `epochs_applied`. WAL I/O
        // failure is fail-stop: acknowledging an operation whose log write
        // failed would break the durability contract.
        if let Some(durable) = core.wal.as_mut() {
            let _wal = cpma_obs::span_with(&core.stats.wal_ns, "combiner.wal");
            let seq = core.epochs_applied + 1;
            if let Err(e) = durable.writer.append(seq, &net) {
                panic!("WAL append for epoch {seq} failed: {e}");
            }
        }
        // The replica becomes the front, and the old front the spare that
        // lags by exactly this batch. It is published here, before any
        // waiter wakes: an acknowledged op is snapshot-visible. An empty
        // net changes nothing, so it publishes nothing, and the replica —
        // equal to the front — stays the spare with nothing to catch up.
        if let Some(next) = next {
            if net.is_empty() {
                core.spare = Some((Arc::new(next), net));
            } else {
                let retired = std::mem::replace(&mut core.front, Arc::new(next));
                core.spare = Some((retired, net));
                *self.published.lock().unwrap() = Arc::clone(&core.front);
            }
        }
        core.epochs_applied += 1;
        core.stats.record_epoch(ops.len());
        // Size-triggered checkpoint + WAL rotation, after the apply so
        // the checkpoint image contains everything up to `epochs_applied`.
        if let Some(durable) = core.wal.as_mut() {
            if durable.writer.should_rotate() {
                let seq = core.epochs_applied;
                let path = durable.writer.checkpoint_path(seq);
                if let Err(e) = (durable.checkpoint)(&core.front, &path) {
                    panic!("checkpoint at epoch {seq} failed: {e}");
                }
                if let Err(e) = durable.writer.rotate(seq) {
                    panic!("WAL rotation at epoch {seq} failed: {e}");
                }
            }
        }
        drop(epoch_span);

        let mut st = epoch.state.lock().unwrap();
        st.results = results;
        st.done = true;
        drop(st);
        epoch.done_cv.notify_all();

        // Leadership handoff: if the next epoch already has submitters,
        // wake one *after* releasing the leader slot so it can take over
        // immediately instead of sleeping out its retry timeout.
        let next = self.current.lock().unwrap().clone();
        let pending = !next.state.lock().unwrap().ops.is_empty();
        drop(guard);
        if pending {
            next.done_cv.notify_one();
        }
    }
}

impl<S> Combiner<S>
where
    S: BatchSet + RangeSet + Clone + Sync + Persist,
{
    /// Open a **durable** combiner backed by the WAL directory in `wal`:
    /// recover the newest valid checkpoint, replay the WAL tail
    /// (truncating a torn final record), and resume logging at the next
    /// epoch. A missing or empty directory starts from `S::new_set()`.
    ///
    /// Every subsequent epoch appends its net batch to the WAL *before*
    /// publishing it or acknowledging any of its operations, under
    /// `wal.fsync`; once the live segment exceeds
    /// `wal.rotate_bytes` the leader checkpoints the set and rotates.
    /// After a crash, `open_durable` on the same directory restores
    /// exactly the state of the last acknowledged epoch.
    ///
    /// Returns the combiner and a [`RecoveryReport`] describing what was
    /// recovered (`report.last_seq` epochs; `epochs_applied` resumes
    /// from there).
    pub fn open_durable(
        _cfg: CombinerConfig,
        wal: WalConfig,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (set, report) = recover::<S>(&wal.dir)?;
        let writer = WalWriter::open(wal, report.last_seq + 1)?;
        let durable = DurableState {
            writer,
            checkpoint: |set: &S, path| set.save(path),
        };
        let combiner = Self::assemble(set, report.last_seq, Some(durable));
        Ok((combiner, report))
    }

    /// Force a checkpoint of the authoritative set and rotate the WAL
    /// now (the size-triggered rotation does the same when the live
    /// segment outgrows `rotate_bytes`). Waits for an in-flight epoch.
    ///
    /// Returns the epoch sequence the checkpoint covers. A combiner not
    /// opened with [`Combiner::open_durable`] has no WAL to rotate: that
    /// misuse is a [`PersistError::Config`] on the `"wal"` field.
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        let mut guard = self.core.lock().unwrap();
        let core = &mut *guard;
        let Some(durable) = core.wal.as_mut() else {
            return Err(PersistError::Config(ConfigError::new(
                "wal",
                "checkpoint() needs a combiner opened with open_durable",
            )));
        };
        let seq = core.epochs_applied;
        let path = durable.writer.checkpoint_path(seq);
        (durable.checkpoint)(&core.front, &path)?;
        durable.writer.rotate(seq)?;
        Ok(seq)
    }

    /// Flush WAL appends to disk regardless of the [`FsyncPolicy`]
    /// (a planned-shutdown aid for `EveryN`/`Never` deployments).
    /// No-op on a non-durable combiner.
    ///
    /// [`FsyncPolicy`]: cpma_persist::FsyncPolicy
    pub fn wal_sync(&self) -> Result<(), PersistError> {
        if let Some(durable) = self.core.lock().unwrap().wal.as_mut() {
            durable.writer.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn single_thread_ops_match_oracle() {
        for (seed, ops) in [(0xC0B1u64, 500u64), (0xC0B2, 300)] {
            let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
            let mut model = BTreeSet::new();
            let mut rng = cpma_api::testkit::SplitMix64::new(seed);
            for _ in 0..ops {
                let k = rng.next_bits(6);
                match rng.next_below(3) {
                    0 => assert_eq!(c.insert(k), model.insert(k), "insert({k})"),
                    1 => assert_eq!(c.remove(k), model.remove(&k), "remove({k})"),
                    _ => assert_eq!(c.contains(k), model.contains(&k), "contains({k})"),
                }
            }
            let stats = c.stats();
            assert_eq!(stats.epochs, ops, "solo submitters lead their own epoch");
            assert_eq!(stats.ops, ops);
            let snap = c.snapshot();
            assert_eq!(
                snap.iter().copied().collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>()
            );
            drop(snap);
            assert_eq!(c.into_inner(), model);
        }
    }

    #[test]
    fn submit_many_matches_per_op_results() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        let burst = [
            Op::Insert(3),
            Op::Insert(3),
            Op::Contains(3),
            Op::Remove(3),
            Op::Contains(3),
            Op::Insert(9),
        ];
        assert_eq!(
            c.submit_many(&burst),
            vec![true, false, true, true, false, true]
        );
        // The whole burst shares one epoch (single-thread: it leads it).
        assert_eq!(c.epochs_applied(), 1);
        assert_eq!(c.insert_many(&[9, 10, 11]), 2);
        assert_eq!(
            c.snapshot().iter().copied().collect::<Vec<_>>(),
            vec![9, 10, 11]
        );
        assert!(c.submit_many(&[]).is_empty());
    }

    #[test]
    fn acked_ops_are_snapshot_visible() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        assert!(c.insert(42));
        assert!(c.snapshot().contains(&42));
        assert!(c.remove(42));
        assert!(!c.snapshot().contains(&42));
    }

    #[test]
    fn ops_resolve_in_submission_order() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        assert!(c.insert(7));
        assert!(!c.insert(7), "second insert sees the first");
        assert!(c.remove(7));
        assert!(!c.remove(7), "second remove sees the first");
        assert!(!c.contains(7));
        assert_eq!(c.epochs_applied(), 5);
        // The leader never waits: five solo ops are five one-op epochs.
        let stats = c.stats();
        assert_eq!((stats.epochs, stats.ops), (5, 5));
        assert_eq!(stats.ops_per_epoch_log2[0], 5);
        c.reset_stats();
        assert_eq!(c.stats(), CombinerStats::default());
    }
}
