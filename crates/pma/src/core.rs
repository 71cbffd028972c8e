//! `PmaCore`: the engine shared by the PMA and the CPMA.
//!
//! Implements the paper's four public operations — `insert`, `delete`,
//! `search`, `range_map` (§3) — against any [`LeafStorage`], as the
//! `cpma_api` traits `OrderedSet`, `RangeSet` and `ParallelChunks` (the
//! crate docs map the artifact's names to them). `BatchSet`, the parallel
//! batch operations, lives in the `batch` module.
//!
//! # Head-array invariant
//!
//! Search routes through a separate array of leaf heads (the layout of the
//! search-optimized PMA \[78] the paper builds on). The invariant maintained
//! everywhere is:
//!
//! 1. the head array is **non-decreasing**;
//! 2. a non-empty leaf's head equals its minimum element;
//! 3. an empty leaf's head is an *inherited* value within
//!    `[previous head, next non-empty head]`.
//!
//! Any inherited value in that interval keeps routing correct: a query
//! searches for the rightmost head ≤ key and then routes to the nearest
//! occupied leaf at or before it (an occupancy bitset answers that skip in
//! O(num_leaves / 64) words instead of a leaf-at-a-time walk). Inserts
//! never decrease a non-empty leaf's head via routing (elements below the
//! global minimum route to the first non-empty leaf), and deletes that
//! empty a leaf keep its old head — both preserve (1)-(3) without
//! cross-leaf coordination, which is what makes the batch phases race-free.
//!
//! The heads are searched where they live — one binary search over the leaf
//! storage's head slots, no copy to keep in step — so the only derived read
//! state is the occupancy bitset, maintained per touched leaf or range.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::batch::{count_phase, redistribute_ranges, route, BoundKind, RootResize};
use crate::density::BOUNDS;
use crate::leaf::{ChunkBlock, LeafScratch, RunSize, SharedLeaves};
use crate::run::{Inserts, Removes};
use crate::search;
use crate::tree::ImplicitTree;
use crate::writeset::WriteLog;
use crate::{stats, CompressedLeaves, LeafStorage, UncompressedLeaves};
use cpma_api::{BatchSet, ConfigError, OrderedSet, ParallelChunks, RangeSet};
use rayon::prelude::*;

/// Per-leaf codec selection policy for hybrid leaf storages
/// ([`crate::CompressedLeaves`]). Leaf storages without alternative
/// encodings ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForceCodec {
    /// Pick per leaf at rewrite time: bitmap when its word cost is at most
    /// the delta-byte cost (with a small hysteresis band around the
    /// break-even to damp flip-flopping).
    #[default]
    Auto,
    /// Always delta byte codes (the paper's pure §5 CPMA).
    Delta,
    /// Always the bitmap encoding where it fits the leaf capacity
    /// (falls back to delta codes for spans too wide to fit).
    Bitmap,
}

/// Batches shorter than this run as point updates (the paper uses point
/// inserts "for small batches when the batch update algorithm does not
/// provide practical benefits", Table 3 — "e.g., k < 100").
pub const POINT_UPDATE_CUTOFF: usize = 128;

/// Batches of at least `len / FULL_REBUILD_DIVISOR` ops rebuild the whole
/// structure with a linear merge (paper: "e.g., k ≥ n/10").
pub const FULL_REBUILD_DIVISOR: usize = 10;

/// Capacity floor in leaves: the structure never shrinks below it.
pub const MIN_LEAVES: usize = 4;

/// The two settable parameters: the growing factor the paper sweeps
/// (Appendix C) and the codec override the codec suites cross. Everything
/// else the paper fixes is a constant ([`POINT_UPDATE_CUTOFF`],
/// [`FULL_REBUILD_DIVISOR`], [`MIN_LEAVES`], the density bounds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PmaConfig {
    /// Capacity multiplier on growth, divisor on shrink. The paper uses
    /// 1.2× and studies 1.1×–2.0× in Appendix C.
    pub growing_factor: f64,
    /// Codec override for hybrid leaf storages (default [`ForceCodec::Auto`]).
    pub force_codec: ForceCodec,
}

impl Default for PmaConfig {
    fn default() -> Self {
        Self {
            growing_factor: 1.2,
            force_codec: ForceCodec::Auto,
        }
    }
}

impl PmaConfig {
    /// Start building a configuration; [`PmaConfigBuilder::build`] validates
    /// and returns `Result`, making invalid parameters a recoverable error
    /// instead of a panic.
    pub fn builder() -> PmaConfigBuilder {
        PmaConfigBuilder::default()
    }

    /// Check parameter validity. Constructors call this and panic on `Err`
    /// (an already-constructed invalid config is a programming error);
    /// build-time callers should prefer [`PmaConfig::builder`].
    pub fn check(&self) -> Result<(), ConfigError> {
        if !self.growing_factor.is_finite() {
            return Err(ConfigError::new("growing_factor", "must be finite"));
        }
        if self.growing_factor <= 1.0 {
            return Err(ConfigError::new("growing_factor", "must exceed 1"));
        }
        Ok(())
    }

    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Builder for [`PmaConfig`] with fallible validation.
///
/// ```
/// use cpma_pma::{ForceCodec, PmaConfig};
///
/// let cfg = PmaConfig::builder()
///     .growing_factor(1.5)
///     .force_codec(ForceCodec::Delta)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.growing_factor, 1.5);
/// assert!(PmaConfig::builder().growing_factor(0.9).build().is_err());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct PmaConfigBuilder {
    cfg: PmaConfig,
}

impl PmaConfigBuilder {
    /// Capacity multiplier on growth, divisor on shrink (Appendix C
    /// studies 1.1×–2.0×; the paper uses 1.2×).
    pub fn growing_factor(mut self, f: f64) -> Self {
        self.cfg.growing_factor = f;
        self
    }

    /// Codec override for hybrid leaf storages (see [`ForceCodec`]).
    pub fn force_codec(mut self, f: ForceCodec) -> Self {
        self.cfg.force_codec = f;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<PmaConfig, ConfigError> {
        self.cfg.check()?;
        Ok(self.cfg)
    }
}

/// The uncompressed batch-parallel PMA (cells of raw keys).
pub type Pma = PmaCore<UncompressedLeaves>;

/// The batch-parallel Compressed PMA (delta + byte codes; §5).
pub type Cpma = PmaCore<CompressedLeaves>;

/// Leaf geometry of a layout: what a resize decides and a rebuild lays out.
#[derive(Clone, Copy)]
pub(crate) struct Geometry {
    pub leaf_units: usize,
    pub leaves: usize,
}

/// Engine over generic leaf storage. See module docs.
///
/// `Clone` (for `Clone` leaf storages) is what snapshot publishers like
/// `cpma-store`'s combiner build on.
#[derive(Clone)]
pub struct PmaCore<L: LeafStorage> {
    pub(crate) storage: L,
    pub(crate) cfg: PmaConfig,
    /// Number of stored elements.
    pub(crate) len: usize,
    /// Total occupied units across leaves.
    pub(crate) units: usize,
    /// Batch-pipeline counter cells (see [`stats::PmaCounters`]); each
    /// instance registers its own, and `stats()` views them.
    pub(crate) batch_stats: stats::PmaCounters,
    /// One bit per leaf: is it non-empty? Lets routing skip empty runs a
    /// word (64 leaves) at a time instead of leaf-by-leaf.
    pub(crate) occ: Vec<u64>,
    /// What the last apply that changed anything wrote (see `writeset`).
    pub(crate) log: WriteLog,
}

impl<L: LeafStorage> Default for PmaCore<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: LeafStorage> PmaCore<L> {
    /// Empty structure with default configuration.
    pub fn new() -> Self {
        Self::with_config(PmaConfig::default())
    }

    /// Empty structure with explicit configuration.
    pub fn with_config(cfg: PmaConfig) -> Self {
        cfg.assert_valid();
        let leaf_units = Self::leaf_units_for_cap(MIN_LEAVES * L::MIN_LEAF_UNITS);
        let mut storage = L::with_geometry(MIN_LEAVES, leaf_units);
        storage.set_codec_policy(cfg.force_codec);
        let mut this = Self {
            storage,
            cfg,
            len: 0,
            units: 0,
            batch_stats: stats::PmaCounters::new(),
            occ: Vec::new(),
            log: WriteLog::new(),
        };
        this.rebuild_read_index();
        this
    }

    // ------------------------------------------------------------------
    // Geometry
    // ------------------------------------------------------------------

    /// Leaf capacity (units) for a structure of `cap_units` total capacity:
    /// `LEAF_SCALE · ⌈log₂ cap⌉`, aligned and clamped (Θ(log N) leaves, §3).
    pub(crate) fn leaf_units_for_cap(cap_units: usize) -> usize {
        let lg = (usize::BITS - cap_units.max(2).leading_zeros()) as usize;
        let raw = (lg * L::LEAF_SCALE).max(L::MIN_LEAF_UNITS);
        raw.div_ceil(L::LEAF_ALIGN) * L::LEAF_ALIGN
    }

    /// Total unit capacity.
    #[inline]
    pub fn capacity_units(&self) -> usize {
        self.storage.num_leaves() * self.storage.leaf_units()
    }

    /// The implicit tree over the current leaves.
    #[inline]
    pub(crate) fn tree(&self) -> ImplicitTree {
        ImplicitTree::new(self.storage.num_leaves())
    }

    /// The canonical geometry of `cap_units` total capacity.
    pub(crate) fn geometry_of(&self, cap_units: usize) -> Geometry {
        let leaf_units = Self::leaf_units_for_cap(cap_units);
        Geometry {
            leaf_units,
            leaves: cap_units.div_ceil(leaf_units).max(MIN_LEAVES),
        }
    }

    /// Units `size` occupies over `k` leaves: its stream plus a head per
    /// further leaf, never less than its tightest packing (whose further
    /// heads stay uncharged: with them a clustered rebuild lands 1.4 % above
    /// the capacity the retry loop this replaced settled on).
    fn units_at(size: &RunSize, k: usize) -> usize {
        (size.stream + k.saturating_sub(1) * L::HEAD_UNITS).max(size.packed)
    }

    /// Geometry hosting `elems` at the rebuild target density, and never
    /// fewer leaves than hold them. One sizing sweep; a second only when
    /// the answer crosses into another leaf size.
    pub(crate) fn geometry_for_target(&self, elems: &[u64]) -> Geometry {
        let target = BOUNDS.rebuild_target;
        let sized = |leaf_units: usize| {
            let size = self.storage.size_run(elems, leaf_units);
            let cap = ((size.stream as f64) / target).ceil() as usize;
            // One refinement round: heads overhead depends on the leaf count.
            let k = self.geometry_of(cap.max(1)).leaves;
            let cap = ((Self::units_at(&size, k) as f64) / target).ceil() as usize;
            let leaves = cap.div_ceil(leaf_units).max(size.min_leaves);
            Geometry {
                leaf_units,
                leaves: leaves.max(MIN_LEAVES),
            }
        };
        let mut geo = sized(self.storage.leaf_units());
        let canonical = Self::leaf_units_for_cap(geo.leaves * geo.leaf_units);
        if canonical != geo.leaf_units {
            geo = sized(canonical);
        }
        geo
    }

    /// Replace storage with a fresh layout of geometry `geo` holding
    /// exactly `elems` (sorted unique), spread evenly: one plan, one write
    /// pass. Every caller sized `geo` to hold the run; the fresh storage
    /// plans, so the policy that costs a slice is the one that encodes it.
    pub(crate) fn rebuild_into(&mut self, elems: &[u64], geo: Geometry) {
        let (k, leaf_units) = (geo.leaves, geo.leaf_units);
        let mut storage = L::with_geometry(k, leaf_units);
        storage.set_codec_policy(self.cfg.force_codec);
        let offsets = storage
            .plan_split(elems, k, leaf_units)
            .expect("rebuild geometry was sized to hold the run");
        let shared = storage.shared();
        let units: usize = (0..k)
            .into_par_iter()
            .map(|j| {
                let slice = &elems[offsets[j]..offsets[j + 1]];
                let inherited = if offsets[j] > 0 {
                    elems[offsets[j] - 1]
                } else {
                    0
                };
                // SAFETY: each iteration owns a distinct leaf.
                unsafe { shared.write_leaf(j, slice, inherited) }
            })
            .sum();
        debug_assert!((0..k).all(|j| !storage.is_overflowed(j)));
        self.storage = storage;
        self.units = units;
        self.len = elems.len();
        self.batch_stats.full_rebuilds.inc();
        self.rebuild_read_index();
        self.log.whole();
    }

    /// Re-spread `elems` over the smallest capacity, stepping up from the
    /// current one by the growing factor, that holds them within the
    /// root's upper bound (one sizing sweep per step tried).
    pub(crate) fn grow_and_rebuild(&mut self, elems: &[u64]) {
        let mut cap = self.capacity_units();
        let geo = loop {
            cap = ((cap as f64) * self.cfg.growing_factor).ceil() as usize;
            let geo = self.geometry_of(cap);
            let size = self.storage.size_run(elems, geo.leaf_units);
            let bound = BOUNDS.upper_root * (geo.leaves * geo.leaf_units) as f64;
            if geo.leaves >= size.min_leaves && Self::units_at(&size, geo.leaves) as f64 <= bound {
                break geo;
            }
        };
        self.rebuild_into(elems, geo);
    }

    /// Shrink capacity by the growing factor while the root is under its
    /// lower bound — never below what holds `elems` — then re-spread them.
    pub(crate) fn shrink_and_rebuild(&mut self, elems: &[u64]) {
        let floor = MIN_LEAVES * L::MIN_LEAF_UNITS;
        // One sizing sweep per leaf size the steps pass through.
        let mut swept = (0, RunSize::default());
        let mut held = |cap: usize| {
            let geo = self.geometry_of(cap);
            if swept.0 != geo.leaf_units {
                swept = (geo.leaf_units, self.storage.size_run(elems, geo.leaf_units));
            }
            (geo.leaves >= swept.1.min_leaves).then_some(swept.1)
        };
        let mut cap = self.capacity_units();
        if held(cap).is_none() {
            // A mixed batch can drain the root while its inserts no longer
            // fit the leaves they landed in.
            return self.grow_and_rebuild(elems);
        }
        loop {
            let next = (((cap as f64) / self.cfg.growing_factor).ceil() as usize).max(floor);
            if next == cap {
                break;
            }
            let Some(size) = held(next) else { break };
            cap = next;
            if (size.stream.max(size.packed) as f64) >= BOUNDS.lower_root * cap as f64 {
                break;
            }
        }
        self.rebuild_into(elems, self.geometry_of(cap));
    }

    // ------------------------------------------------------------------
    // Occupancy bitset
    // ------------------------------------------------------------------

    #[inline]
    fn occ_get(&self, leaf: usize) -> bool {
        self.occ[leaf / 64] >> (leaf % 64) & 1 == 1
    }

    #[inline]
    fn occ_set(&mut self, leaf: usize) {
        self.occ[leaf / 64] |= 1u64 << (leaf % 64);
    }

    #[inline]
    fn occ_clear(&mut self, leaf: usize) {
        self.occ[leaf / 64] &= !(1u64 << (leaf % 64));
    }

    /// First occupied leaf at or after `from`, if any.
    fn occ_next_from(&self, from: usize) -> Option<usize> {
        let n = self.storage.num_leaves();
        if from >= n {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.occ[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                let leaf = w * 64 + word.trailing_zeros() as usize;
                return (leaf < n).then_some(leaf);
            }
            w += 1;
            if w >= self.occ.len() {
                return None;
            }
            word = self.occ[w];
        }
    }

    /// Last occupied leaf at or before `from`, if any.
    fn occ_prev_from(&self, from: usize) -> Option<usize> {
        let from = from.min(self.storage.num_leaves().saturating_sub(1));
        let mut w = from / 64;
        let mut word = self.occ[w] & (!0u64 >> (63 - from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            word = self.occ[w];
        }
    }

    /// Recompute the occupancy bit of `leaf` from its count.
    #[inline]
    pub(crate) fn refresh_occ(&mut self, leaf: usize) {
        if self.storage.count(leaf) > 0 {
            self.occ_set(leaf);
        } else {
            self.occ_clear(leaf);
        }
    }

    /// [`Self::refresh_occ`] for leaves in `[start, end)` (redistributes
    /// only disturb their own range).
    pub(crate) fn rebuild_occ_range(&mut self, start: usize, end: usize) {
        for leaf in start..end {
            self.refresh_occ(leaf);
        }
    }

    /// Recompute the occupancy bitset — the one piece of derived state
    /// `dest_leaf` routes through — from scratch. For when the geometry
    /// changes (construction, rebuilds, snapshot loads); updates within a
    /// geometry maintain the bitset per touched leaf or range.
    pub(crate) fn rebuild_read_index(&mut self) {
        let n = self.storage.num_leaves();
        self.occ = vec![0u64; n.div_ceil(64).max(1)];
        for leaf in 0..n {
            if self.storage.count(leaf) > 0 {
                self.occ_set(leaf);
            }
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// `lo` plus the count of heads ≤ `key` among leaves `[lo, hi)` (the
    /// partition point routing needs): a branchless binary search over the
    /// heads where they live in leaf storage.
    #[inline]
    pub(crate) fn head_partition(&self, key: u64, lo: usize, hi: usize) -> usize {
        stats::record_read(((usize::BITS - (hi - lo).leading_zeros()) as usize) * size_of::<u64>());
        search::partition_point(lo, hi, |i| self.storage.head(i) <= key)
    }

    /// First leaf with a nonzero count, if any.
    pub(crate) fn first_nonempty_leaf(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.occ_next_from(0)
    }

    /// The leaf a key with `partition` heads at or below it routes to:
    /// the nearest occupied leaf at or before the last such head, via the
    /// occupancy bitset (inherited heads make every leaf of the skipped
    /// empty run route equivalently); keys below the global minimum route
    /// to the first non-empty leaf (see module docs). `None` iff empty.
    #[inline]
    pub(crate) fn leaf_at_partition(&self, partition: usize) -> Option<usize> {
        partition
            .checked_sub(1)
            .and_then(|last| self.occ_prev_from(last))
            .or_else(|| self.first_nonempty_leaf())
    }

    /// The leaf where `key` lives / would be inserted. `None` iff empty.
    pub(crate) fn dest_leaf(&self, key: u64) -> Option<usize> {
        self.leaf_at_partition(self.head_partition(key, 0, self.storage.num_leaves()))
    }

    /// Next non-empty leaf strictly after `leaf`, if any.
    pub(crate) fn next_nonempty_leaf(&self, leaf: usize) -> Option<usize> {
        self.occ_next_from(leaf + 1)
    }

    // ------------------------------------------------------------------
    // Batched point lookups
    // ------------------------------------------------------------------

    /// Probe indices sorted by key (ties by position, so the plan is
    /// deterministic under duplicate probes).
    fn probe_order(keys: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&i| (keys[i], i));
        order
    }

    /// How many probe groups ahead the probe phase prefetches leaf data:
    /// deep enough to keep ~a dozen independent line fills in flight,
    /// which is what the leaf-miss-bound probe loop needs to hide DRAM
    /// latency.
    const PROBE_PREFETCH_AHEAD: usize = 12;

    /// Route sorted probes group-by-group: each call of `visit` receives
    /// the destination leaf, the slice of probe slots landing in it, and
    /// the head of the next occupied leaf (= every group member's
    /// out-of-leaf successor).
    ///
    /// Two passes. The routing pass is the batch pipeline's router
    /// ([`route`]) over the probes in key order — one bounded head search
    /// per destination leaf — and its assignments are the groups. The probe
    /// pass then visits the groups with leaf-data prefetch issued
    /// [`Self::PROBE_PREFETCH_AHEAD`] groups early, so the cache misses of
    /// consecutive groups (almost always distinct leaves) overlap.
    fn for_probe_groups(
        &self,
        keys: &[u64],
        order: &[usize],
        mut visit: impl FnMut(usize, &[usize], Option<u64>),
    ) {
        let plan = route(self, order.len(), |i| keys[order[i]]);
        for group in plan.iter().take(Self::PROBE_PREFETCH_AHEAD) {
            self.storage.prefetch_leaf(group.leaf);
        }
        for (g, group) in plan.iter().enumerate() {
            if let Some(ahead) = plan.get(g + Self::PROBE_PREFETCH_AHEAD) {
                self.storage.prefetch_leaf(ahead.leaf);
            }
            // Everything below the next occupied head routed to this leaf.
            let limit = self
                .next_nonempty_leaf(group.leaf)
                .map(|next| self.storage.head(next));
            visit(group.leaf, &order[group.start..group.end], limit);
        }
    }

    /// Membership for every probe: `out[i]` answers `keys[i]`. Probes are
    /// visited in sorted order, the destination leaf of the next group is
    /// prefetched, and probes landing in the same leaf share one decode.
    pub fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        let mut out = vec![false; keys.len()];
        if self.len == 0 || keys.is_empty() {
            return out;
        }
        let order = Self::probe_order(keys);
        let mut buf: Vec<u64> = Vec::new();
        self.for_probe_groups(keys, &order, |leaf, slots, _limit| {
            if slots.len() > 1 {
                buf.clear();
                self.storage.collect_leaf(leaf, &mut buf);
                for &slot in slots {
                    let k = keys[slot];
                    let pos = search::lower_bound(&buf, k);
                    out[slot] = pos < buf.len() && buf[pos] == k;
                }
            } else {
                out[slots[0]] = self.storage.leaf_contains(leaf, keys[slots[0]]);
            }
        });
        out
    }

    // ------------------------------------------------------------------
    // Point updates (§3: search, place, count, redistribute)
    // ------------------------------------------------------------------

    /// Insert one key; returns false if it was already present.
    pub fn insert(&mut self, key: u64) -> bool {
        self.log.begin();
        self.insert_point(key)
    }

    /// Remove one key; returns false if it was absent.
    pub fn remove(&mut self, key: u64) -> bool {
        self.log.begin();
        self.remove_point(key)
    }

    /// [`Self::insert`] as one step of an apply already begun.
    pub(crate) fn insert_point(&mut self, key: u64) -> bool {
        let dest = self.dest_leaf(key);
        let leaf = dest.unwrap_or(0);
        let shared = self.storage.shared();
        // SAFETY: disjoint-leaf contract of `SharedLeaves` — `shared` is
        // used for this one call, on the `&mut self` thread.
        let out = unsafe { shared.apply_run(leaf, Inserts::new(&[key]), &mut LeafScratch::new()) };
        if out.added == 0 {
            return false;
        }
        self.log.leaves(leaf, leaf + 1);
        self.len += 1;
        self.units = self.units.checked_add_signed(out.delta_units).unwrap();
        self.occ_set(leaf);
        if dest.is_none() {
            // First element of an empty structure: leaf 0's head may have
            // jumped; refresh the inherited heads of the empty run after it.
            self.fix_inherited_heads_after(1);
        }
        self.rebalance(leaf, BoundKind::Upper);
        true
    }

    /// [`Self::remove`] as one step of an apply already begun.
    pub(crate) fn remove_point(&mut self, key: u64) -> bool {
        let Some(leaf) = self.dest_leaf(key) else {
            return false;
        };
        let shared = self.storage.shared();
        // SAFETY: disjoint-leaf contract of `SharedLeaves` — `shared` is
        // used for this one call, on the `&mut self` thread.
        let out = unsafe { shared.apply_run(leaf, Removes::new(&[key]), &mut LeafScratch::new()) };
        if out.removed == 0 {
            return false;
        }
        self.log.leaves(leaf, leaf + 1);
        self.len -= 1;
        self.units = self.units.checked_add_signed(out.delta_units).unwrap();
        if self.storage.count(leaf) == 0 {
            self.occ_clear(leaf);
        }
        self.rebalance(leaf, BoundKind::Lower);
        true
    }

    /// Rebalance after a point update that may have pushed `leaf` out of the
    /// `kind` band (§3 steps 3–4): the batch count phase over the one touched
    /// leaf — O(1) and allocation-free while the leaf is inside the band of
    /// both leaf depths — then the redistribute or resize it asks for.
    fn rebalance(&mut self, leaf: usize, kind: BoundKind) {
        let count = count_phase(self, &[leaf], kind);
        match count.resize_root {
            None => redistribute_ranges(self, &count.ranges),
            Some(RootResize::Grow) => {
                let elems = self.collect_all();
                self.grow_and_rebuild(&elems);
            }
            Some(RootResize::Shrink) if self.storage.num_leaves() > MIN_LEAVES => {
                let elems = self.collect_all();
                self.shrink_and_rebuild(&elems);
            }
            // Already at the capacity floor: re-spread evenly.
            Some(RootResize::Shrink) if self.len > 0 => {
                let root = self.tree().root();
                redistribute_ranges(self, &[root]);
            }
            Some(RootResize::Shrink) => {}
        }
    }

    /// Repair inherited heads of the empty-leaf run starting at `from`
    /// (they may be stale after elements moved right within the preceding
    /// region). Stops at the first non-empty leaf.
    pub(crate) fn fix_inherited_heads_after(&mut self, from: usize) {
        if from == 0 {
            return;
        }
        let n = self.storage.num_leaves();
        let prev = self.storage.head(from - 1);
        let shared = self.storage.shared();
        let mut end = from;
        while end < n {
            // SAFETY: exclusive access. Every leaf in the run receives the
            // same inherited value (it equals its predecessor's head by
            // construction).
            unsafe {
                if shared.count(end) > 0 {
                    break;
                }
                shared.set_inherited_head(end, prev);
            }
            end += 1;
        }
        if end > from {
            self.log.leaves(from, end);
        }
    }

    // ------------------------------------------------------------------
    // Size and ordered reads
    // ------------------------------------------------------------------

    // `len`, `is_empty`, `min`, `size_bytes` and `contains_batch` stay
    // inherent beside their `OrderedSet` methods only because
    // `benchmark/src/inproc.rs` calls them without `OrderedSet` in scope
    // (ROADMAP, re-baseline item (vi)); the trait impl forwards to them.

    /// Number of stored elements (the artifact's `size()`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of backing memory (the artifact's `get_size()`), including
    /// the read index (the occupancy bitset). The write log is left out:
    /// it describes the last apply, not the set.
    pub fn size_bytes(&self) -> usize {
        self.storage.size_bytes() + std::mem::size_of::<Self>() - std::mem::size_of::<WriteLog>()
            + std::mem::size_of_val(self.occ.as_slice())
    }

    /// Smallest stored element.
    pub fn min(&self) -> Option<u64> {
        let leaf = self.first_nonempty_leaf()?;
        Some(self.storage.head(leaf))
    }

    /// Hand the elements ≥ `start` to `f` as ascending chunks — a leaf at
    /// a time, each decoded once into one [`ChunkBlock`] this scan reuses —
    /// until `f` returns `false` (`RangeSet::scan_chunks_from`, under
    /// every ordered read of the trait impls and `PartialEq`).
    pub(crate) fn chunks_from(&self, start: u64, mut f: impl FnMut(&[u64]) -> bool) {
        let Some(first) = self.dest_leaf(start) else {
            return;
        };
        let mut block = ChunkBlock::new();
        let mut after = None;
        for leaf in first..self.storage.num_leaves() {
            if self.storage.count(leaf) == 0 {
                continue;
            }
            let live = self.storage.leaf_chunks(leaf, start, &mut block, |chunk| {
                debug_check_chunk(start, &mut after, chunk);
                f(chunk)
            });
            if !live {
                return;
            }
        }
    }

    /// Hand every element to `f` in chunks, leaves in parallel: each
    /// chunk ascending and within one leaf, so chunk order follows leaf
    /// order. One [`ChunkBlock`] per task, reused across its leaves (the
    /// `ParallelChunks::par_chunks` primitive).
    pub(crate) fn par_leaf_chunks(&self, f: impl Fn(&[u64]) + Send + Sync) {
        (0..self.storage.num_leaves())
            .into_par_iter()
            .map_init(ChunkBlock::new, |block, leaf| {
                if self.storage.count(leaf) > 0 {
                    self.storage.leaf_chunks(leaf, 0, block, |chunk| {
                        f(chunk);
                        true
                    });
                }
            })
            .for_each(|()| {});
    }

    /// Sum of elements in `[start, end)`, with a whole-leaf fast path for
    /// interior leaves (the public API is `RangeSet::range_sum`).
    pub(crate) fn range_sum_excl(&self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let Some(first) = self.dest_leaf(start) else {
            return 0;
        };
        let n = self.storage.num_leaves();
        let mut sum = 0u64;
        for leaf in first..n {
            if self.storage.count(leaf) == 0 {
                continue;
            }
            if self.storage.head(leaf) >= end {
                break;
            }
            // Whole leaf inside the range? (Next leaf non-empty with head ≤
            // end ⇒ this leaf's max < end.)
            let whole = self.storage.head(leaf) >= start
                && leaf + 1 < n
                && self.storage.count(leaf + 1) > 0
                && self.storage.head(leaf + 1) <= end;
            if whole {
                sum = sum.wrapping_add(self.storage.leaf_sum(leaf));
                continue;
            }
            // Boundary leaf: codec-aware partial sum (bitmap leaves use
            // masked popcount kernels instead of an element walk). A leaf
            // reaching past `end` makes every later head ≥ end, so the
            // loop-top check terminates the scan.
            sum = sum.wrapping_add(self.storage.leaf_range_sum(leaf, start, end));
        }
        sum
    }

    /// All elements, sorted (used by rebuilds and tests).
    pub(crate) fn collect_all(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        for leaf in 0..self.storage.num_leaves() {
            if self.storage.is_overflowed(leaf) || self.storage.count(leaf) > 0 {
                self.storage.collect_leaf(leaf, &mut out);
            }
        }
        out
    }

    /// Parallel [`Self::collect_all`]: the "pack" copy of the full-rebuild
    /// path ("the first copy packs the regions ... into a buffer", §4),
    /// parallelized over leaf chunks with precomputed offsets.
    pub(crate) fn collect_all_par(&self) -> Vec<u64> {
        let nl = self.storage.num_leaves();
        let total: usize = (0..nl).map(|l| self.storage.count(l)).sum();
        if total < (1 << 15) {
            return self.collect_all();
        }
        const LEAVES_PER_CHUNK: usize = 64;
        let nchunks = nl.div_ceil(LEAVES_PER_CHUNK);
        let mut chunk_offsets = vec![0usize; nchunks + 1];
        for c in 0..nchunks {
            let lo = c * LEAVES_PER_CHUNK;
            let hi = (lo + LEAVES_PER_CHUNK).min(nl);
            chunk_offsets[c + 1] =
                chunk_offsets[c] + (lo..hi).map(|l| self.storage.count(l)).sum::<usize>();
        }
        let mut out = vec![0; total];
        // Disjoint-slice writes per chunk.
        struct OutPtr(*mut u64);
        // SAFETY: the pointer is `out`'s buffer, which outlives the
        // parallel loop below; a worker that holds it writes keys only
        // through `slice`, into its own chunk's range.
        unsafe impl Send for OutPtr {}
        // SAFETY: the workers share the pointer but never the memory: the
        // chunk ranges they pass to `slice` are disjoint, and nothing reads
        // `out` until the loop has joined.
        unsafe impl Sync for OutPtr {}
        impl OutPtr {
            /// # Safety: ranges must be disjoint across concurrent callers.
            #[allow(clippy::mut_from_ref)]
            unsafe fn slice(&self, at: usize, len: usize) -> &mut [u64] {
                std::slice::from_raw_parts_mut(self.0.add(at), len)
            }
        }
        let ptr = OutPtr(out.as_mut_ptr());
        (0..nchunks).into_par_iter().for_each(|c| {
            let lo = c * LEAVES_PER_CHUNK;
            let hi = (lo + LEAVES_PER_CHUNK).min(nl);
            let len = chunk_offsets[c + 1] - chunk_offsets[c];
            let mut buf = Vec::with_capacity(len);
            for l in lo..hi {
                if self.storage.is_overflowed(l) || self.storage.count(l) > 0 {
                    self.storage.collect_leaf(l, &mut buf);
                }
            }
            debug_assert_eq!(buf.len(), len);
            // SAFETY: chunk output ranges are disjoint by construction.
            unsafe { ptr.slice(chunk_offsets[c], len) }.copy_from_slice(&buf);
        });
        out
    }

    /// Direct read access to the leaf storage (used by the graph layer for
    /// zero-copy scans).
    pub fn storage(&self) -> &L {
        &self.storage
    }

    /// Mutable storage access for the batch phases and white-box tests.
    pub(crate) fn storage_mut(&mut self) -> &mut L {
        &mut self.storage
    }

    /// The active configuration.
    pub fn config(&self) -> &PmaConfig {
        &self.cfg
    }

    /// Batch-pipeline counters accumulated by this instance (routed runs,
    /// touched leaves, redistribution ranges, full rebuilds).
    pub fn stats(&self) -> stats::PmaStats {
        self.batch_stats.view()
    }

    /// Zero the batch-pipeline counters (e.g. between measured phases).
    pub fn reset_stats(&mut self) {
        self.batch_stats = stats::PmaCounters::new();
    }

    /// Adjust the unit counter (batch phases account deltas in bulk).
    pub(crate) fn add_units_delta(&mut self, delta: isize) {
        self.units = self.units.checked_add_signed(delta).unwrap();
    }

    /// Adjust the element counter (white-box tests only).
    #[cfg(test)]
    pub(crate) fn add_len_delta(&mut self, delta: isize) {
        self.len = self.len.checked_add_signed(delta).unwrap();
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests / debugging)
    // ------------------------------------------------------------------

    /// Verify every structural invariant; panics with a description on
    /// violation. O(n) — for tests.
    pub fn check_invariants(&self) {
        let n = self.storage.num_leaves();
        let cap = self.storage.leaf_units();
        let tree = self.tree();
        let max_depth = tree.max_depth();
        // Heads non-decreasing; non-empty heads are minima; no overflows.
        let mut prev_head: Option<u64> = None;
        let mut prev_elem: Option<u64> = None;
        let mut block = ChunkBlock::new();
        let mut total_len = 0usize;
        let mut total_units = 0usize;
        for leaf in 0..n {
            assert!(
                !self.storage.is_overflowed(leaf),
                "leaf {leaf} overflowed outside batch"
            );
            let h = self.storage.head(leaf);
            if let Some(p) = prev_head {
                assert!(p <= h, "heads decrease at leaf {leaf}");
            }
            prev_head = Some(h);
            let cnt = self.storage.count(leaf);
            assert_eq!(
                self.occ_get(leaf),
                cnt > 0,
                "occupancy bit of leaf {leaf} out of sync"
            );
            total_len += cnt;
            total_units += self.storage.units_used(leaf);
            if cnt > 0 {
                let mut first = None;
                let mut seen = 0usize;
                self.storage.leaf_chunks(leaf, 0, &mut block, |chunk| {
                    first = first.or(chunk.first().copied());
                    assert!(
                        chunk.windows(2).all(|w| w[0] < w[1]),
                        "leaf {leaf} not strictly increasing"
                    );
                    if let (Some(p), Some(&e)) = (prev_elem, chunk.first()) {
                        assert!(p < e, "global order broken at leaf {leaf}");
                    }
                    prev_elem = chunk.last().copied();
                    seen += chunk.len();
                    true
                });
                assert_eq!(seen, cnt, "leaf {leaf} count mismatch");
                assert_eq!(first, Some(h), "leaf {leaf} head is not its minimum");
            } else {
                assert_eq!(
                    self.storage.units_used(leaf),
                    0,
                    "empty leaf {leaf} has units"
                );
            }
        }
        assert_eq!(total_len, self.len, "len out of sync");
        assert_eq!(total_units, self.units, "units out of sync");
        // Density bounds are enforced along update paths, not globally (a
        // leaf sitting at 0.85 never triggers a walk), so the checkable
        // invariant is physical: every leaf fits its capacity.
        for leaf in 0..n {
            assert!(
                self.storage.units_used(leaf) <= cap,
                "leaf {leaf} exceeds physical capacity"
            );
        }
        let _ = (tree, max_depth);
    }
}

impl<L: LeafStorage> OrderedSet for PmaCore<L> {
    const NAME: &'static str = L::NAME;

    fn contains(&self, key: u64) -> bool {
        match self.dest_leaf(key) {
            Some(leaf) => self.storage.leaf_contains(leaf, key),
            None => false,
        }
    }

    fn len(&self) -> usize {
        PmaCore::len(self)
    }

    fn min(&self) -> Option<u64> {
        PmaCore::min(self)
    }

    fn max(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let leaf = self.occ_prev_from(self.storage.num_leaves() - 1)?;
        self.storage.leaf_max(leaf)
    }

    /// The paper's `search`.
    fn successor(&self, key: u64) -> Option<u64> {
        let leaf = self.dest_leaf(key)?;
        if let Some(s) = self.storage.leaf_successor(leaf, key) {
            return Some(s);
        }
        let next = self.next_nonempty_leaf(leaf)?;
        Some(self.storage.head(next))
    }

    fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        PmaCore::contains_batch(self, keys)
    }

    /// Same routing plan as [`PmaCore::contains_batch`]; the shared group
    /// limit doubles as the out-of-leaf successor.
    fn successor_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = vec![None; keys.len()];
        if self.len == 0 || keys.is_empty() {
            return out;
        }
        let order = Self::probe_order(keys);
        let mut buf: Vec<u64> = Vec::new();
        self.for_probe_groups(keys, &order, |leaf, slots, limit| {
            if slots.len() > 1 {
                buf.clear();
                self.storage.collect_leaf(leaf, &mut buf);
                for &slot in slots {
                    let pos = search::lower_bound(&buf, keys[slot]);
                    out[slot] = if pos < buf.len() {
                        Some(buf[pos])
                    } else {
                        limit
                    };
                }
            } else {
                out[slots[0]] = self.storage.leaf_successor(leaf, keys[slots[0]]).or(limit);
            }
        });
        out
    }

    fn size_bytes(&self) -> usize {
        PmaCore::size_bytes(self)
    }
}

impl<L: LeafStorage> RangeSet for PmaCore<L> {
    /// One chunk per leaf (`PmaCore::chunks_from`).
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        self.chunks_from(start, f)
    }

    fn range_sum<R: std::ops::RangeBounds<u64>>(&self, range: R) -> u64 {
        cpma_api::range_sum_via_exclusive(
            &range,
            || self.contains(u64::MAX),
            |lo, hi| self.range_sum_excl(lo, hi),
        )
    }
}

impl<L: LeafStorage> ParallelChunks for PmaCore<L> {
    /// The leaves' chunks, decoded leaf-parallel
    /// (`PmaCore::par_leaf_chunks`).
    fn par_chunks(&self, f: &(dyn Fn(&[u64]) + Sync)) {
        self.par_leaf_chunks(f)
    }
}

/// Element + configuration equality: two PMAs are equal iff they store
/// the same key set under the same [`PmaConfig`]. Physical layout
/// (capacity, leaf geometry, which leaf holds which key) is
/// intentionally ignored — it varies with insertion history while the
/// abstract set does not.
impl<L: LeafStorage> PartialEq for PmaCore<L> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len || self.cfg != other.cfg {
            return false;
        }
        let mine = self.to_vec();
        let (mut at, mut same) = (0, true);
        other.chunks_from(0, |chunk| {
            same = mine.get(at..at + chunk.len()) == Some(chunk);
            at += chunk.len();
            same
        });
        same
    }
}

impl<L: LeafStorage> std::fmt::Debug for PmaCore<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmaCore")
            .field("len", &self.len)
            .field("num_leaves", &self.storage.num_leaves())
            .field("leaf_units", &self.storage.leaf_units())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// Debug builds: `chunk` may follow a chunk ending at `after` in a scan
/// from `start` — non-empty, strictly ascending, at or above `start`,
/// above `after` — and now ends the scan so far.
#[inline]
fn debug_check_chunk(start: u64, after: &mut Option<u64>, chunk: &[u64]) {
    if cfg!(debug_assertions) {
        let first = *chunk.first().expect("empty chunk");
        assert!(
            first >= start && after.is_none_or(|a| a < first),
            "chunk from {first} out of order: scan from {start}, last chunk ended at {after:?}"
        );
        assert!(
            chunk.windows(2).all(|w| w[0] < w[1]),
            "chunk from {first} not strictly ascending"
        );
        *after = chunk.last().copied();
    }
}

/// Owned iteration drains into a sorted buffer (the backing array is a
/// packed layout, not a `Vec` of elements).
impl<L: LeafStorage> IntoIterator for PmaCore<L> {
    type Item = u64;
    type IntoIter = std::vec::IntoIter<u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

/// Collect arbitrary (unsorted, possibly duplicated) keys into a PMA.
impl<L: LeafStorage> FromIterator<u64> for PmaCore<L> {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut keys: Vec<u64> = iter.into_iter().collect();
        let keys = cpma_api::normalize_batch(&mut keys);
        Self::build_sorted(keys)
    }
}

/// Batch-insert arbitrary keys (buffers, then runs one batch update).
impl<L: LeafStorage> Extend<u64> for PmaCore<L> {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        let mut keys: Vec<u64> = iter.into_iter().collect();
        BatchSet::insert_batch(self, &mut keys, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::conformance::assert_ordered_set_contract;
    use std::collections::BTreeSet;

    #[test]
    fn pma_conforms() {
        assert_ordered_set_contract::<Pma>(0x70A1);
    }

    #[test]
    fn cpma_conforms() {
        assert_ordered_set_contract::<Cpma>(0xC70A);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(<Pma as OrderedSet>::NAME, "PMA");
        assert_eq!(<Cpma as OrderedSet>::NAME, "CPMA");
    }

    #[test]
    fn range_sum_includes_max_key() {
        let c = Cpma::build_sorted(&[1, 2, u64::MAX]);
        assert_eq!(c.range_sum(..), 3u64.wrapping_add(u64::MAX));
        assert_eq!(c.range_sum(3..=u64::MAX), u64::MAX);
        assert_eq!(c.range_sum(3..u64::MAX), 0);
    }

    #[test]
    fn par_chunks_cover_everything_in_order() {
        use std::sync::Mutex;
        let elems: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        let c = Cpma::build_sorted(&elems);
        let chunks: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
        c.par_chunks(&|chunk| chunks.lock().unwrap().push(chunk.to_vec()));
        let mut chunks = chunks.into_inner().unwrap();
        chunks.sort_by_key(|c| c[0]);
        let flat: Vec<u64> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, elems);
    }

    /// Equality is the key set and the configuration, whatever the layout.
    #[test]
    fn equality_ignores_layout() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 7).collect();
        let built = Cpma::build_sorted(&keys);
        let mut pointed = Cpma::new();
        for &k in keys.iter().rev() {
            pointed.insert(k);
        }
        assert!(built == pointed);
        let mut moved = built.clone();
        moved.remove(0);
        moved.insert(1);
        assert!(moved != built, "same length, one key differs");
        let cfg = PmaConfig::builder().growing_factor(1.5).build().unwrap();
        let mut tuned = Cpma::with_config(cfg);
        tuned.insert_batch_sorted(&keys);
        assert!(tuned != built, "same keys, another configuration");
    }

    #[test]
    fn std_collection_idioms() {
        let p: Pma = [5u64, 1, 3, 1].into_iter().collect();
        assert_eq!(p.to_vec(), vec![1, 3, 5]);
        let mut c: Cpma = (0..100u64).collect();
        c.extend(vec![500u64, 50, 200]);
        assert_eq!(c.len(), 102);
        assert!(c.contains(500));
        let drained: Vec<u64> = c.into_iter().collect();
        assert_eq!(drained.len(), 102);
        assert!(drained.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_structure() {
        let p = Pma::new();
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert!(!p.contains(5));
        assert_eq!(p.successor(0), None);
        assert_eq!(p.min(), None);
        assert_eq!(p.max(), None);
        assert_eq!(p.range_sum(..), 0);
        assert_eq!(p.iter_all().count(), 0);
        p.check_invariants();
    }

    #[test]
    fn point_inserts_uncompressed() {
        let mut p = Pma::new();
        for k in [5u64, 1, 9, 3, 7, 1, 5] {
            p.insert(k);
        }
        assert_eq!(p.len(), 5);
        assert_eq!(p.to_vec(), vec![1, 3, 5, 7, 9]);
        assert!(p.contains(7));
        assert!(!p.contains(2));
        assert_eq!(p.successor(4), Some(5));
        assert_eq!(p.successor(9), Some(9));
        assert_eq!(p.successor(10), None);
        assert_eq!(p.min(), Some(1));
        assert_eq!(p.max(), Some(9));
        assert_eq!(p.range_sum(..), 25);
        p.check_invariants();
    }

    #[test]
    fn point_inserts_compressed() {
        let mut c = Cpma::new();
        for k in [500u64, 100, 900, 300, 700] {
            assert!(c.insert(k));
        }
        assert!(!c.insert(300));
        assert_eq!(c.len(), 5);
        assert_eq!(c.to_vec(), vec![100, 300, 500, 700, 900]);
        c.check_invariants();
    }

    #[test]
    fn many_point_inserts_trigger_growth() {
        let mut p = Pma::new();
        let mut model = BTreeSet::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x >> 20;
            p.insert(k);
            model.insert(k);
        }
        assert_eq!(p.len(), model.len());
        assert!(p.iter_all().eq(model.iter().copied()));
        p.check_invariants();
    }

    #[test]
    fn many_point_inserts_compressed_match_model() {
        let mut c = Cpma::new();
        let mut model = BTreeSet::new();
        let mut x = 999u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let k = x >> 24;
            c.insert(k);
            model.insert(k);
        }
        assert_eq!(c.len(), model.len());
        assert!(c.iter_all().eq(model.iter().copied()));
        c.check_invariants();
    }

    #[test]
    fn removals_match_model() {
        let mut p = Pma::new();
        let mut model = BTreeSet::new();
        let mut x = 7u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (x >> 40) & 0xfff;
            if x & 4 == 0 {
                assert_eq!(p.insert(k), model.insert(k), "insert {k}");
            } else {
                assert_eq!(p.remove(k), model.remove(&k), "remove {k}");
            }
        }
        assert_eq!(p.len(), model.len());
        assert!(p.iter_all().eq(model.iter().copied()));
        p.check_invariants();
    }

    #[test]
    fn removals_compressed_match_model() {
        let mut c = Cpma::new();
        let mut model = BTreeSet::new();
        let mut x = 31u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (x >> 40) & 0x3ff;
            if x & 4 == 0 {
                assert_eq!(c.insert(k), model.insert(k));
            } else {
                assert_eq!(c.remove(k), model.remove(&k));
            }
        }
        assert!(c.iter_all().eq(model.iter().copied()));
        c.check_invariants();
    }

    #[test]
    fn remove_down_to_empty() {
        let mut p = Pma::new();
        for k in 0..200u64 {
            p.insert(k * 3);
        }
        for k in 0..200u64 {
            assert!(p.remove(k * 3));
        }
        assert!(p.is_empty());
        assert!(!p.remove(0));
        p.check_invariants();
        // Structure remains usable.
        p.insert(42);
        assert!(p.contains(42));
        p.check_invariants();
    }

    #[test]
    fn from_sorted_builds_even_layout() {
        let elems: Vec<u64> = (0..10_000).map(|i| i * 7).collect();
        let p = Pma::build_sorted(&elems);
        assert_eq!(p.len(), elems.len());
        assert!(p.iter_all().eq(elems.iter().copied()));
        p.check_invariants();
        let c = Cpma::build_sorted(&elems);
        assert_eq!(c.len(), elems.len());
        assert!(c.iter_all().eq(elems.iter().copied()));
        c.check_invariants();
    }

    #[test]
    fn for_range_respects_bounds() {
        let elems: Vec<u64> = (0..1000).map(|i| i * 10).collect();
        let c = Cpma::build_sorted(&elems);
        let mut seen = Vec::new();
        c.for_range(95..250, |e| seen.push(e));
        assert_eq!(
            seen,
            vec![100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240]
        );
        // Inclusive end is part of the range.
        let mut incl = Vec::new();
        c.for_range(95..=250, |e| incl.push(e));
        assert_eq!(incl.last(), Some(&250));
        // Empty and inverted ranges.
        let mut none = Vec::new();
        c.for_range(300..300, |e| none.push(e));
        #[allow(clippy::reversed_empty_ranges)]
        c.for_range(400..300, |e| none.push(e));
        assert!(none.is_empty());
        // Range past the end.
        let mut tail = Vec::new();
        c.for_range(9_990.., |e| tail.push(e));
        assert_eq!(tail, vec![9_990]);
    }

    #[test]
    fn range_sum_matches_naive() {
        let elems: Vec<u64> = (0..5000).map(|i| i * 3 + 1).collect();
        let c = Cpma::build_sorted(&elems);
        for (a, b) in [
            (0u64, 100u64),
            (50, 5000),
            (1, 2),
            (14_000, 15_000),
            (0, u64::MAX),
        ] {
            let naive: u64 = elems.iter().filter(|&&e| e >= a && e < b).sum();
            assert_eq!(c.range_sum_excl(a, b), naive, "range [{a},{b})");
        }
        assert_eq!(c.range_sum(..), elems.iter().sum::<u64>());
    }

    #[test]
    fn par_chunks_visit_everything() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let elems: Vec<u64> = (0..2000).collect();
        let p = Pma::build_sorted(&elems);
        let acc = AtomicU64::new(0);
        p.par_chunks(&|chunk| {
            acc.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), elems.iter().sum::<u64>());
    }

    #[test]
    fn compressed_uses_less_space_than_uncompressed() {
        // 40-bit-style keys at realistic density.
        let mut x = 77u64;
        let mut elems: Vec<u64> = (0..50_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x >> 24
            })
            .collect();
        elems.sort_unstable();
        elems.dedup();
        let p = Pma::build_sorted(&elems);
        let c = Cpma::build_sorted(&elems);
        assert!(
            (c.size_bytes() as f64) < 0.7 * p.size_bytes() as f64,
            "CPMA {} vs PMA {}",
            c.size_bytes(),
            p.size_bytes()
        );
    }

    /// The occupancy bitset is the only derived read state, and updates
    /// maintain it where they touch: after a pipeline batch (merge phase
    /// and a redistributed range) and after point updates (leaf kernel and
    /// the point path's redistribute), `occ` and `size_bytes()` equal what
    /// a from-scratch `rebuild_read_index()` gives. Budgets 1 and 2.
    #[test]
    fn read_index_survives_updates_without_a_rebuild() {
        use cpma_api::BatchOp::{Insert, Remove};
        fn assert_fresh(c: &Cpma, what: &str) {
            let mut fresh = c.clone();
            fresh.rebuild_read_index();
            assert_eq!(c.occ, fresh.occ, "{what}: occupancy bits");
            assert_eq!(c.size_bytes(), fresh.size_bytes(), "{what}: size_bytes");
            c.check_invariants();
        }
        let _serial = crate::BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let keys: Vec<u64> = (0..200_000u64).map(|i| i << 12).collect();
        for budget in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(budget)
                .build()
                .unwrap();
            pool.install(|| {
                let mut c = Cpma::build_sorted(&keys);
                let leaves = c.storage.num_leaves();
                // Pipeline: drain every 50th leaf, and crowd one stretch
                // of the key space so a range redistributes.
                let mut drained = Vec::new();
                for leaf in (0..leaves).step_by(50) {
                    c.storage.collect_leaf(leaf, &mut drained);
                }
                let mut ops: Vec<_> = drained.iter().map(|&k| Remove(k)).collect();
                ops.extend((1..3_000u64).map(|i| Insert((100_000 << 12) + i)));
                let ops = cpma_api::normalize_ops(&mut ops);
                let before = c.stats();
                let out = c.apply_batch_sorted(ops);
                assert_eq!((out.added, out.removed), (2_999, drained.len()));
                let after = c.stats();
                assert_eq!(after.pipeline_batches, before.pipeline_batches + 1);
                assert_eq!(after.full_rebuilds, before.full_rebuilds);
                assert!(after.redistribute_ranges > before.redistribute_ranges);
                assert_fresh(&c, &format!("budget {budget}, pipeline"));

                // Point path: refill one drained leaf key by key, empty
                // another leaf, and pile keys into one leaf until the
                // point path redistributes.
                for &k in drained.iter().take(40) {
                    assert!(c.insert(k));
                }
                let mut victim = Vec::new();
                c.storage.collect_leaf(leaves / 2 + 1, &mut victim);
                for &k in &victim {
                    assert!(c.remove(k));
                }
                for i in 1..2_000u64 {
                    assert!(c.insert((150_000 << 12) + i));
                }
                assert_eq!(c.stats().full_rebuilds, before.full_rebuilds);
                assert_fresh(&c, &format!("budget {budget}, point"));
            });
        }
    }

    #[test]
    fn boundary_keys() {
        let mut c = Cpma::new();
        assert!(c.insert(0));
        assert!(c.insert(u64::MAX));
        assert!(c.insert(u64::MAX - 1));
        assert!(c.contains(0));
        assert!(c.contains(u64::MAX));
        assert_eq!(c.successor(u64::MAX), Some(u64::MAX));
        assert_eq!(c.to_vec(), vec![0, u64::MAX - 1, u64::MAX]);
        c.check_invariants();
        assert!(c.remove(u64::MAX));
        assert_eq!(c.max(), Some(u64::MAX - 1));
        c.check_invariants();
    }

    /// The capacity floor by count: an empty structure, one drained by a
    /// batch, and one drained key by key all sit at `MIN_LEAVES` leaves.
    #[test]
    fn capacity_floor_is_min_leaves() {
        assert_eq!(Cpma::new().storage.num_leaves(), MIN_LEAVES);
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * 3).collect();
        let mut batched = Pma::build_sorted(&keys);
        assert!(batched.storage.num_leaves() > MIN_LEAVES);
        batched.remove_batch_sorted(&keys);
        assert_eq!(batched.storage.num_leaves(), MIN_LEAVES);
        let mut pointed = Cpma::build_sorted(&keys[..2_000]);
        for &k in &keys[..2_000] {
            assert!(pointed.remove(k));
        }
        assert_eq!(pointed.storage.num_leaves(), MIN_LEAVES);
        pointed.check_invariants();
    }

    #[test]
    fn custom_growing_factor() {
        for f in [1.1f64, 1.5, 2.0] {
            let cfg = PmaConfig {
                growing_factor: f,
                ..Default::default()
            };
            let mut p = Pma::with_config(cfg);
            for k in 0..2000u64 {
                p.insert(k);
            }
            assert_eq!(p.len(), 2000);
            p.check_invariants();
        }
    }
}
