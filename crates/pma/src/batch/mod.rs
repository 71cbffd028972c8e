//! The work-efficient parallel batch-update algorithm (§4 of the paper):
//! **one pipeline, three views**.
//!
//! `BatchSet`'s `insert_batch_sorted`, `remove_batch_sorted` and the
//! mixed-op `apply_batch_sorted` hand `run_batch` a
//! [`Run`] — an [`Inserts`] or [`Removes`] view over the key slice, or the
//! normal-form `&[BatchOp]` slice itself. The views are zero-copy and
//! their op kind is a compile-time constant, so each method
//! monomorphises to the one-sided (or three-finger) loops with nothing
//! materialised; everything below exists once. `run_batch` follows the
//! paper's three regimes:
//!
//! * **tiny batches** (below [`crate::POINT_UPDATE_CUTOFF`] ops)
//!   fall back to point updates (the paper uses point inserts "for small
//!   batches when the batch update algorithm does not provide practical
//!   benefits", Table 3);
//! * **huge batches** (`k ≥ n /` [`crate::FULL_REBUILD_DIVISOR`])
//!   rebuild the whole
//!   structure with a linear merge ("the optimal algorithm is to rebuild
//!   the entire data structure", §4) — [`par_apply_run`], skipped when the
//!   batch turns out to change nothing;
//! * everything in between runs the four-phase pipeline —
//!   `O(k(log n + log²n / B))` amortized work, `O(log²n)` span
//!   (Theorem 5):
//!   1. **route** (`route.rs`) — the recursive midpoint search partitions
//!      the run into per-leaf sub-runs (routing reads only keys), one
//!      bounded head search per touched leaf;
//!   2. **merge** — parallel rewrites of disjoint leaves; each sub-run,
//!      inserts and removes alike, goes through **one** rewrite of its
//!      leaf ([`crate::leaf::SharedLeaves::apply_run`]: an in-place
//!      kernel where the storage has one, else the general path, whose
//!      buffers are one [`LeafScratch`] per worker). The serial loop
//!      issues [`SharedLeaves::prefetch`] [`PREFETCH_AHEAD`] assignments
//!      ahead, so the misses of the next leaves overlap the merge of the
//!      current one;
//!   3. **count** (`count.rs`) — work-efficient counting (a tree walk
//!      only below a leaf outside its band) against the density band the
//!      run type can violate ([`Run::BOUND`]: inserts → upper, removes →
//!      lower, mixed → both in the same pass);
//!   4. **redistribute** (`redistribute.rs`) — parallel re-spread of the
//!      maximal violating ranges, or a root grow/shrink.
//!
//! Every phase costs what the batch touches — that is Theorem 5's
//! `O(k …)`, with no `O(n / leaf)` term — and so does the read index
//! (`core.rs`): the occupancy bits of the assigned leaves are refreshed
//! after the merge, those of each redistributed range by
//! `redistribute_ranges`; only a change of geometry rebuilds it.
//!
//! A mixed batch therefore pays **one** route + merge + count +
//! redistribute traversal where a remove-then-insert split pays two full
//! passes over the touched leaves. The required normal form — keys
//! strictly ascending, one op per key, later submissions winning — is
//! produced by [`cpma_api::normalize_ops`] (*last-op-wins*: a `Remove(k)`
//! followed by `Insert(k)` in the same stream nets to `Insert(k)`,
//! matching a sequential replay).
//!
//! Two things ride along. Every apply records its **write set**
//! (`writeset.rs`: the merged leaves — the `touched` list itself — the
//! redistributed ranges and the head repairs after them, or every leaf
//! after a rebuild), which is what a replica one apply behind copies to
//! catch up. And `report.rs` is the **reporting** entry point: it routes a
//! normal form once, decides each key's presence in the leaves it lands
//! in, and runs the pipeline on the ops that change presence.
#![deny(clippy::undocumented_unsafe_blocks)]

mod count;
mod redistribute;
mod report;
mod route;

pub(crate) use count::{count_phase, BoundKind, RootResize};
pub(crate) use redistribute::redistribute_ranges;
pub(crate) use route::route;

use crate::leaf::{apply_run_into, LeafScratch, SharedLeaves};
use crate::run::{Inserts, Removes, Run};
use crate::tree::Node;
use crate::{search, LeafStorage, PmaCore};
use crate::{FULL_REBUILD_DIVISOR, MIN_LEAVES, POINT_UPDATE_CUTOFF};
use cpma_api::{BatchOp, BatchOutcome, BatchSet, CatchUp};
use rayon::prelude::*;

/// Assignment counts at or below this merge serially: fork overhead must
/// be amortized across the available workers, so the grain shrinks as the
/// pool grows (on the paper's 64-core machine parallel batch updates pay
/// off from ~1e3 elements; on a dual-core laptop only from ~1e5).
fn serial_merge_cutoff() -> usize {
    (8192 / rayon::current_num_threads().max(1)).max(256)
}

/// How many assignments ahead the serial leaf loop prefetches: far enough
/// that a leaf's misses (its bytes and per-leaf slots) are in flight
/// while the leaves before it merge, near enough to stay in L1.
const PREFETCH_AHEAD: usize = 8;

impl<L: LeafStorage> BatchSet for PmaCore<L> {
    fn new_set() -> Self {
        Self::new()
    }

    /// The artifact's `CPMA(start, end)` constructor: leaves filled at the
    /// rebuild target density, elements spread evenly.
    fn build_sorted(elems: &[u64]) -> Self {
        debug_assert!(
            elems.windows(2).all(|w| w[0] < w[1]),
            "input must be sorted unique"
        );
        let mut this = Self::new();
        if !elems.is_empty() {
            let geo = this.geometry_for_target(elems);
            this.rebuild_into(elems, geo);
        }
        this
    }

    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        self.run_batch(Inserts::new(batch)).added
    }

    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        self.run_batch(Removes::new(batch)).removed
    }

    /// **One** route→merge→count→redistribute pass instead of the
    /// default remove+insert split; see the module docs.
    fn apply_batch_sorted(&mut self, ops: &[BatchOp<u64>]) -> BatchOutcome {
        self.run_batch(ops)
    }

    /// Routes the batch once and decides presence in the leaves it lands
    /// in (`report.rs`) instead of probing first.
    fn apply_batch_sorted_reporting(
        &mut self,
        ops: &[BatchOp<u64>],
        was_present: &mut Vec<bool>,
    ) -> BatchOutcome {
        self.run_reporting(ops, was_present)
    }

    /// Copies the newer replica's recorded write set (`writeset.rs`).
    fn catch_up_from(&mut self, newer: &Self, lag: &[BatchOp<u64>]) -> CatchUp {
        self.catch_up(newer, lag)
    }

    fn copies_from(&self, newer: &Self) -> bool {
        self.can_copy_from(newer)
    }
}

impl<L: LeafStorage> PmaCore<L> {
    /// The batch pipeline, once for every entry point; see the module docs.
    pub(crate) fn run_batch<R: Run>(&mut self, run: R) -> BatchOutcome {
        if run.is_empty() {
            return BatchOutcome::default();
        }
        debug_assert!(run.is_strictly_ascending());
        self.log.begin();
        // Empty structure: removes are no-ops, the inserts bulk-load at the
        // target density.
        if self.len == 0 {
            let ins = run.insert_keys();
            if ins.is_empty() {
                return BatchOutcome::default();
            }
            let geo = self.geometry_for_target(&ins);
            self.rebuild_into(&ins, geo);
            return BatchOutcome {
                added: ins.len(),
                removed: 0,
            };
        }
        // Tiny batch: point updates win.
        if run.len() < POINT_UPDATE_CUTOFF {
            self.batch_stats.point_fallbacks.inc();
            let mut out = BatchOutcome::default();
            for i in 0..run.len() {
                if run.is_insert(i) {
                    out.added += usize::from(self.insert_point(run.key(i)));
                } else {
                    out.removed += usize::from(self.remove_point(run.key(i)));
                }
            }
            return out;
        }
        // Huge batch: parallel linear merge + rebuild.
        if run.len() >= self.len / FULL_REBUILD_DIVISOR {
            let current = self.collect_all_par();
            let (merged, outcome) = par_apply_run(&current, run);
            if outcome == BatchOutcome::default() {
                return outcome;
            }
            let geo = self.geometry_for_target(&merged);
            self.rebuild_into(&merged, geo);
            return outcome;
        }

        // Phase 1: route sub-runs to leaves.
        let assignments = self.route_run(run);
        self.run_pipeline(run, &assignments)
    }

    /// Phase 1a: the run's per-leaf segments ([`route`]), timed.
    pub(crate) fn route_run<R: Run>(&self, run: R) -> Vec<route::Assignment> {
        let mut s = cpma_obs::span_with(&crate::stats::phase_spans().route, "pma.route");
        let a = route(self, run.len(), |i| run.key(i));
        s.set_items(a.len() as u64);
        a
    }

    /// Phases 1b–3 over a routed run: merge, count, redistribute. Every
    /// segment of `assignments` is non-empty and the leaves ascend.
    pub(crate) fn run_pipeline<R: Run>(
        &mut self,
        run: R,
        assignments: &[route::Assignment],
    ) -> BatchOutcome {
        self.batch_stats.pipeline_batches.inc();
        let spans = crate::stats::phase_spans();
        self.batch_stats.routed_runs.add(assignments.len() as u64);
        self.batch_stats
            .leaves_touched
            .add(assignments.len() as u64);
        // Phase 1b: one rewrite per touched leaf. Small assignment sets run
        // serially: fork-join overhead would otherwise dominate
        // (work-efficiency, §4).
        let mut merge_span = cpma_obs::span_with(&spans.merge, "pma.merge");
        merge_span.set_items(assignments.len() as u64);
        let shared = self.storage.shared();
        let apply = |a: &route::Assignment, scratch: &mut LeafScratch| {
            // SAFETY: the disjoint-leaf contract of `SharedLeaves` holds
            // because `route` assigns each leaf at most once (its
            // assignments ascend strictly by leaf), so no two calls of this
            // closure — serial or across pool threads — share `a.leaf`.
            let out = unsafe { shared.apply_run(a.leaf, run.slice(a.start, a.end), scratch) };
            (out.added, out.removed, out.delta_units)
        };
        let sum =
            |x: (usize, usize, isize), y: (usize, usize, isize)| (x.0 + y.0, x.1 + y.1, x.2 + y.2);
        let (added, removed, units_delta) = if assignments.len() <= serial_merge_cutoff() {
            let mut scratch = LeafScratch::new();
            let mut acc = (0, 0, 0);
            for (i, a) in assignments.iter().enumerate() {
                if let Some(ahead) = assignments.get(i + PREFETCH_AHEAD) {
                    shared.prefetch(ahead.leaf);
                }
                acc = sum(acc, apply(a, &mut scratch));
            }
            acc
        } else {
            assignments
                .par_iter()
                .map_init(LeafScratch::new, |scratch, a| apply(a, scratch))
                .reduce(|| (0, 0, 0), sum)
        };
        drop(merge_span);
        self.len = self.len + added - removed;
        self.units = self.units.checked_add_signed(units_delta).unwrap();
        let outcome = BatchOutcome { added, removed };
        if outcome == BatchOutcome::default() {
            return outcome; // nothing changed; no bound can be newly violated
        }

        // The merge filled or emptied only assigned leaves: bring their
        // occupancy bits up to date (the read index is maintained, not
        // rebuilt — a batch costs what it touches).
        let touched: Vec<usize> = assignments.iter().map(|a| a.leaf).collect();
        for &leaf in &touched {
            self.refresh_occ(leaf);
        }

        // Phase 2: one counting pass over the band this run type can leave.
        let count = {
            let mut s = cpma_obs::span_with(&spans.count, "pma.count");
            s.set_items(touched.len() as u64);
            count_phase(self, &touched, R::BOUND)
        };
        // The merged leaves open the write set.
        self.log.merge_phase(touched);

        // Phase 3: redistribute, or resize in whichever direction the
        // root violated.
        match count.resize_root {
            Some(RootResize::Grow) => {
                let elems = self.collect_all_par();
                self.grow_and_rebuild(&elems);
            }
            Some(RootResize::Shrink) => self.resize_root_shrink(),
            None => self.redistribute_with_stats(&count.ranges),
        }
        self.debug_check_no_overflow();
        outcome
    }

    /// Handle a root lower-bound violation: shrink the capacity, or
    /// re-spread evenly when already at the floor.
    fn resize_root_shrink(&mut self) {
        let elems = self.collect_all_par();
        if elems.is_empty() {
            let geo = self.geometry_for_target(&elems);
            self.rebuild_into(&elems, geo);
        } else if self.storage.num_leaves() > MIN_LEAVES {
            self.shrink_and_rebuild(&elems);
        } else {
            // At the floor: just re-spread evenly.
            let root = self.tree().root();
            self.redistribute_with_stats(&[root]);
        }
    }

    /// Redistribute `ranges` and account them in the batch stats.
    fn redistribute_with_stats(&mut self, ranges: &[Node]) {
        let leaves: u64 = ranges.iter().map(|n| n.len() as u64).sum();
        self.batch_stats
            .redistribute_ranges
            .add(ranges.len() as u64);
        self.batch_stats.leaves_touched.add(leaves);
        let mut s = cpma_obs::span_with(
            &crate::stats::phase_spans().redistribute,
            "pma.redistribute",
        );
        s.set_items(leaves);
        redistribute_ranges(self, ranges);
    }

    #[inline]
    fn debug_check_no_overflow(&self) {
        #[cfg(debug_assertions)]
        {
            for l in 0..self.storage.num_leaves() {
                debug_assert!(
                    !self.storage.is_overflowed(l),
                    "leaf {l} left overflowed after batch op"
                );
            }
        }
    }
}

/// Below this combined input size the whole-set merge runs serially.
const SERIAL_MERGE_LIMIT: usize = 1 << 15;

/// Parallel whole-set merge of the huge-batch regime ("rebuild the entire
/// data structure"): cut the current contents `a` at its quantiles, align
/// the run at the same key pivots (ops on a pivot key go right, where the
/// pivot element itself lives), apply each piece concurrently — union and
/// difference in the same linear pass — then concatenate. Returns the
/// merged set and what the run added and removed.
pub(crate) fn par_apply_run<R: Run>(a: &[u64], run: R) -> (Vec<u64>, BatchOutcome) {
    if a.len() + run.len() <= SERIAL_MERGE_LIMIT {
        let mut out = Vec::new();
        let (added, removed) = apply_run_into(a, run, &mut out);
        return (out, BatchOutcome { added, removed });
    }
    let pieces = rayon::current_num_threads().max(2) * 4;
    let mut cuts = vec![(0, 0)];
    cuts.extend((1..pieces).map(|p| {
        let ai = p * a.len() / pieces;
        let below = |i| run.key(i) < a[ai];
        (ai, search::partition_point(0, run.len(), below))
    }));
    cuts.push((a.len(), run.len()));
    let parts: Vec<(Vec<u64>, usize, usize)> = (0..pieces)
        .into_par_iter()
        .map(|p| {
            let ((a0, r0), (a1, r1)) = (cuts[p], cuts[p + 1]);
            let mut out = Vec::new();
            let (added, removed) = apply_run_into(&a[a0..a1], run.slice(r0, r1), &mut out);
            (out, added, removed)
        })
        .collect();
    let mut outcome = BatchOutcome::default();
    let mut out = Vec::with_capacity(parts.iter().map(|(v, _, _)| v.len()).sum());
    for (v, added, removed) in parts {
        out.extend_from_slice(&v);
        outcome.added += added;
        outcome.removed += removed;
    }
    (out, outcome)
}

#[cfg(test)]
mod tests {
    use crate::{Cpma, Pma, BUDGET_LOCK};
    use cpma_api::{BatchSet, OrderedSet, RangeSet};
    use std::collections::BTreeSet;

    fn lcg_keys(n: usize, seed: u64, bits: u32) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> (64 - bits)
            })
            .collect()
    }

    #[test]
    fn batch_insert_into_empty_builds() {
        let mut p = Pma::new();
        let mut batch: Vec<u64> = vec![5, 3, 9, 3, 1];
        assert_eq!(p.insert_batch(&mut batch, false), 4);
        assert_eq!(p.iter_all().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
        p.check_invariants();
    }

    #[test]
    fn batch_equals_point_inserts_pma() {
        let keys = lcg_keys(20_000, 42, 30);
        let mut batched = Pma::new();
        let mut pointed = Pma::new();
        let mut model = BTreeSet::new();
        for chunk in keys.chunks(1500) {
            let mut b = chunk.to_vec();
            let added = batched.insert_batch(&mut b, false);
            let mut point_added = 0;
            for &k in chunk {
                if pointed.insert(k) {
                    point_added += 1;
                }
                model.insert(k);
            }
            assert_eq!(added, point_added);
            batched.check_invariants();
        }
        assert_eq!(batched.len(), model.len());
        assert!(batched.iter_all().eq(model.iter().copied()));
        assert!(pointed.iter_all().eq(model.iter().copied()));
    }

    #[test]
    fn batch_equals_point_inserts_cpma() {
        let keys = lcg_keys(20_000, 7, 34);
        let mut c = Cpma::new();
        let mut model = BTreeSet::new();
        for chunk in keys.chunks(2500) {
            let mut b = chunk.to_vec();
            c.insert_batch(&mut b, false);
            model.extend(chunk.iter().copied());
            c.check_invariants();
        }
        assert_eq!(c.len(), model.len());
        assert!(c.iter_all().eq(model.iter().copied()));
    }

    #[test]
    fn batch_sizes_spanning_all_regimes() {
        // Point-update, three-phase, and full-rebuild paths.
        for &batch_size in &[10usize, 100, 1000, 30_000] {
            let mut c = Cpma::new();
            let mut model = BTreeSet::new();
            let keys = lcg_keys(60_000, batch_size as u64, 32);
            for chunk in keys.chunks(batch_size) {
                let mut b = chunk.to_vec();
                c.insert_batch(&mut b, false);
                model.extend(chunk.iter().copied());
            }
            assert_eq!(c.len(), model.len(), "batch_size={batch_size}");
            assert!(c.iter_all().eq(model.iter().copied()));
            c.check_invariants();
        }
    }

    #[test]
    fn batch_remove_matches_model() {
        let keys = lcg_keys(30_000, 99, 26);
        let mut c = Cpma::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut insert = keys.clone();
        c.insert_batch(&mut insert, false);
        model.extend(keys.iter().copied());
        c.check_invariants();
        // Remove in batches: half present keys, half misses.
        for chunk in keys.chunks(3000).step_by(2) {
            let mut b: Vec<u64> = chunk
                .iter()
                .map(|&k| k ^ 1)
                .chain(chunk.iter().copied())
                .collect();
            let removed = c.remove_batch(&mut b, false);
            let mut expect = 0;
            let mut seen = BTreeSet::new();
            for k in chunk.iter().map(|&k| k ^ 1).chain(chunk.iter().copied()) {
                if seen.insert(k) && model.remove(&k) {
                    expect += 1;
                }
            }
            assert_eq!(removed, expect);
            c.check_invariants();
        }
        assert!(c.iter_all().eq(model.iter().copied()));
    }

    #[test]
    fn batch_remove_everything() {
        let mut p = Pma::new();
        let mut keys: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        p.insert_batch(&mut keys.clone(), true);
        let removed = p.remove_batch(&mut keys, true);
        assert_eq!(removed, 10_000);
        assert!(p.is_empty());
        p.check_invariants();
        // Still usable afterwards.
        let mut again = vec![1u64, 2, 3];
        p.insert_batch(&mut again, true);
        assert_eq!(p.len(), 3);
        p.check_invariants();
    }

    #[test]
    fn batch_with_all_duplicates_of_existing() {
        let mut c = Cpma::new();
        let mut keys: Vec<u64> = (0..5000).collect();
        c.insert_batch(&mut keys, true);
        let mut again = keys.clone();
        assert_eq!(c.insert_batch(&mut again, true), 0);
        assert_eq!(c.len(), 5000);
        c.check_invariants();
    }

    #[test]
    fn skewed_batch_single_leaf_target() {
        // All batch elements land in one leaf: the worst case the paper
        // calls out ("the batch-parallel PMA is well-suited for the case of
        // all insertions targeting the same leaf").
        let spread: Vec<u64> = (0..10_000u64).map(|i| i << 20).collect();
        let mut c = Cpma::build_sorted(&spread);
        let mut tight: Vec<u64> = (0..5_000u64).map(|i| (5_000u64 << 20) + i + 1).collect();
        let added = c.insert_batch(&mut tight, true);
        assert_eq!(added, 5_000);
        assert_eq!(c.len(), 15_000);
        c.check_invariants();
    }

    #[test]
    fn mixed_batches_match_model_across_regimes() {
        use cpma_api::BatchOp;
        // Batch sizes spanning the point-update, four-phase, and full-
        // rebuild regimes, on both leaf codecs.
        fn run<L: crate::LeafStorage>(batch_size: usize) {
            let mut s = crate::PmaCore::<L>::new();
            let mut model = BTreeSet::new();
            let keys = lcg_keys(60_000, batch_size as u64 ^ 0x50F7, 22);
            for chunk in keys.chunks(batch_size.max(2)) {
                let mut ops: Vec<BatchOp<u64>> = chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| {
                        if i % 3 == 0 {
                            BatchOp::Remove(k)
                        } else {
                            BatchOp::Insert(k)
                        }
                    })
                    .collect();
                let norm = cpma_api::normalize_ops(&mut ops);
                let mut want = cpma_api::BatchOutcome::default();
                for op in norm {
                    match *op {
                        BatchOp::Insert(k) => want.added += usize::from(model.insert(k)),
                        BatchOp::Remove(k) => want.removed += usize::from(model.remove(&k)),
                    }
                }
                let got = s.apply_batch_sorted(norm);
                assert_eq!(got, want, "batch_size={batch_size}");
                s.check_invariants();
            }
            assert_eq!(s.len(), model.len(), "batch_size={batch_size}");
            assert!(s.iter_all().eq(model.iter().copied()));
        }
        for &bs in &[20usize, 600, 5_000, 40_000] {
            run::<crate::UncompressedLeaves>(bs);
            run::<crate::CompressedLeaves>(bs);
        }
    }

    #[test]
    fn mixed_batch_heavy_removal_shrinks() {
        use cpma_api::BatchOp;
        // A mixed batch that drains most of the structure must survive the
        // root lower-bound (shrink) path of the single counting pass.
        let keys: Vec<u64> = (0..40_000u64).map(|i| i * 7).collect();
        let mut c = Cpma::build_sorted(&keys);
        // Stay under the full-rebuild threshold so the pipeline runs:
        // n/10 = 4000 ops max; remove 3500, insert 100 fresh.
        let mut rounds = 0;
        while c.len() > 8_000 {
            let len_before = c.len();
            let present: Vec<u64> = c.iter_all().take(3_500).collect();
            let mut ops: Vec<BatchOp<u64>> = present.iter().map(|&k| BatchOp::Remove(k)).collect();
            ops.extend((0..100u64).map(|i| BatchOp::Insert(1_000_000_000 + rounds * 1000 + i)));
            let norm = cpma_api::normalize_ops(&mut ops);
            let out = c.apply_batch_sorted(norm);
            assert_eq!(out.removed, 3_500);
            assert_eq!(c.len(), len_before - out.removed + out.added);
            c.check_invariants();
            rounds += 1;
        }
    }

    fn sorted_unique(n: usize, seed: u64, bits: u32) -> Vec<u64> {
        let set: BTreeSet<u64> = lcg_keys(n, seed, bits).into_iter().collect();
        set.into_iter().collect()
    }

    /// One `storage × ForceCodec` cell of the entry-point equivalence
    /// matrix. For batch sizes landing in the point, pipeline and
    /// full-rebuild regimes, on a dense (bitmap-friendly) and a sparse key
    /// universe, at thread budgets 1 and 2:
    /// `insert_batch_sorted(keys)` ≡ `apply_batch_sorted(all-Insert)`,
    /// `remove_batch_sorted(keys)` ≡ `apply_batch_sorted(all-Remove)`, and
    /// a mixed batch ≡ its remove-then-insert split — in return counts,
    /// contents and `check_invariants()`.
    fn entry_points_agree<L: crate::LeafStorage>(force: crate::ForceCodec) {
        use cpma_api::BatchOp::{self, Insert, Remove};
        type Stat = fn(&crate::PmaStats) -> u64;
        let regimes: [(usize, Stat); 3] = [
            (20, |s| s.point_fallbacks),
            (2_000, |s| s.pipeline_batches),
            (8_000, |s| s.full_rebuilds),
        ];
        let cfg = crate::PmaConfig::builder()
            .force_codec(force)
            .build()
            .unwrap();
        let _serial = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for (budget, bits) in [(1, 17), (1, 30), (2, 17), (2, 30)] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(budget)
                .build()
                .unwrap();
            pool.install(|| {
                let base = sorted_unique(30_000, 11, bits);
                for (size, regime_counter) in regimes {
                    let what = format!("{force:?} budget={budget} bits={bits} size={size}");
                    let fresh = || {
                        let mut s = crate::PmaCore::<L>::with_config(cfg);
                        s.insert_batch_sorted(&base);
                        s
                    };
                    // The regime under test must be the one that ran, on
                    // both sides of every comparison.
                    let check = |a: &mut crate::PmaCore<L>,
                                 b: &mut crate::PmaCore<L>,
                                 ran_a: u64,
                                 ran_b: u64| {
                        assert!(a.iter_all().eq(b.iter_all()), "{what}: contents differ");
                        assert_eq!(a.len(), b.len(), "{what}");
                        a.check_invariants();
                        b.check_invariants();
                        assert!(regime_counter(&a.stats()) > ran_a, "{what}: wrong regime");
                        assert!(regime_counter(&b.stats()) > ran_b, "{what}: wrong regime");
                    };
                    let (mut one, mut ops_side) = (fresh(), fresh());
                    // Every batch: half its keys present in `base`, half
                    // fresh draws, so inserts and removes both hit and miss.
                    let batch = |seed: u64| -> Vec<u64> {
                        let present = base
                            .iter()
                            .skip(seed as usize)
                            .step_by(base.len() * 2 / size);
                        let mut keys = lcg_keys(size / 2, size as u64 + seed, bits);
                        keys.extend(present);
                        keys.sort_unstable();
                        keys.dedup();
                        keys
                    };
                    let keys = batch(0);
                    let all_ins: Vec<BatchOp<u64>> = keys.iter().map(|&k| Insert(k)).collect();
                    let (ra, rb) = (
                        regime_counter(&one.stats()),
                        regime_counter(&ops_side.stats()),
                    );
                    let added = one.insert_batch_sorted(&keys);
                    let got = ops_side.apply_batch_sorted(&all_ins);
                    assert_eq!((got.added, got.removed), (added, 0), "{what}: insert");
                    check(&mut one, &mut ops_side, ra, rb);

                    let keys = batch(1);
                    let all_rem: Vec<BatchOp<u64>> = keys.iter().map(|&k| Remove(k)).collect();
                    let (ra, rb) = (
                        regime_counter(&one.stats()),
                        regime_counter(&ops_side.stats()),
                    );
                    let removed = one.remove_batch_sorted(&keys);
                    let got = ops_side.apply_batch_sorted(&all_rem);
                    assert_eq!((got.added, got.removed), (0, removed), "{what}: remove");
                    check(&mut one, &mut ops_side, ra, rb);

                    // A genuinely mixed batch against its split application.
                    let keys = batch(2);
                    let mixed: Vec<BatchOp<u64>> = keys
                        .iter()
                        .enumerate()
                        .map(|(i, &k)| if i % 2 == 0 { Insert(k) } else { Remove(k) })
                        .collect();
                    let ins: Vec<u64> = keys.iter().copied().step_by(2).collect();
                    let del: Vec<u64> = keys.iter().copied().skip(1).step_by(2).collect();
                    let (ra, rb) = (
                        regime_counter(&one.stats()),
                        regime_counter(&ops_side.stats()),
                    );
                    let removed = one.remove_batch_sorted(&del);
                    let added = one.insert_batch_sorted(&ins);
                    let got = ops_side.apply_batch_sorted(&mixed);
                    assert_eq!((got.added, got.removed), (added, removed), "{what}: mixed");
                    check(&mut one, &mut ops_side, ra, rb);
                }
            });
        }
    }

    /// One `#[test]` per matrix cell, so a failure names its cell.
    macro_rules! entry_point_cells {
        ($($name:ident: $leaves:ty, $force:ident;)*) => {$(
            #[test]
            fn $name() {
                entry_points_agree::<$leaves>(crate::ForceCodec::$force);
            }
        )*};
    }
    entry_point_cells! {
        entry_points_agree_pma_auto: crate::UncompressedLeaves, Auto;
        entry_points_agree_pma_delta: crate::UncompressedLeaves, Delta;
        entry_points_agree_pma_bitmap: crate::UncompressedLeaves, Bitmap;
        entry_points_agree_cpma_auto: crate::CompressedLeaves, Auto;
        entry_points_agree_cpma_delta: crate::CompressedLeaves, Delta;
        entry_points_agree_cpma_bitmap: crate::CompressedLeaves, Bitmap;
    }

    /// One storage's row of the read-index table: pipeline-
    /// sized remove batches drain whole leaves — every 20th leaf, then
    /// contiguous stretches of 30–75 — and insert batches refill them.
    /// Every emptied leaf lands in a redistributed range. After every
    /// batch the bitset (maintained per touched leaf and per range, never
    /// rebuilt) must pass `check_invariants()`, and lookups must route
    /// across the holes. Budgets 1 and 2.
    fn drained_ranges_keep_the_read_index<L: crate::LeafStorage>() {
        let _serial = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let keys: Vec<u64> = (0..60_000u64).map(|i| i * 1000).collect();
        for budget in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(budget)
                .build()
                .unwrap();
            pool.install(|| {
                let mut s = crate::PmaCore::<L>::build_sorted(&keys);
                let mut scattered = Vec::new();
                for leaf in (0..s.storage().num_leaves()).step_by(20) {
                    s.storage().collect_leaf(leaf, &mut scattered);
                }
                let mut batches = vec![scattered.as_slice()];
                batches.extend((0..5).map(|r| &keys[r * 11_000..][..3_000]));
                for (b, chunk) in batches.iter().enumerate() {
                    for refill in [false, true] {
                        let what = format!("budget={budget} batch {b}");
                        let before = s.stats();
                        let changed = if refill {
                            s.insert_batch_sorted(chunk)
                        } else {
                            s.remove_batch_sorted(chunk)
                        };
                        assert_eq!(changed, chunk.len(), "{what}");
                        let after = s.stats();
                        assert_eq!(
                            (after.pipeline_batches, after.full_rebuilds),
                            (before.pipeline_batches + 1, before.full_rebuilds),
                            "{what}: wrong regime"
                        );
                        s.check_invariants();
                        assert_eq!(s.contains(chunk[chunk.len() / 2]), refill, "{what}");
                        if b > 0 {
                            let next = if refill {
                                chunk[0]
                            } else {
                                chunk[0] + 3_000_000
                            };
                            assert_eq!(s.successor(chunk[0]), Some(next), "{what}");
                        }
                    }
                }
                assert!(s.iter_all().eq(keys.iter().copied()));
            });
        }
    }

    #[test]
    fn drained_ranges_pma_in_place() {
        drained_ranges_keep_the_read_index::<crate::UncompressedLeaves>();
    }

    #[test]
    fn drained_ranges_cpma_in_place() {
        drained_ranges_keep_the_read_index::<crate::CompressedLeaves>();
    }

    #[test]
    fn empty_structure_regime_per_view() {
        use cpma_api::BatchOp::{Insert, Remove};
        // The fourth regime: on an empty structure a run's removes are
        // no-ops and its inserts bulk-load, whatever the view.
        let keys: Vec<u64> = (0..500u64).map(|i| i * 9).collect();
        let mut by_keys = Cpma::new();
        assert_eq!(by_keys.remove_batch_sorted(&keys), 0);
        assert_eq!(by_keys.stats().full_rebuilds, 0);
        assert_eq!(by_keys.insert_batch_sorted(&keys), keys.len());
        let mut by_ops = Cpma::new();
        let ops: Vec<cpma_api::BatchOp<u64>> = keys
            .iter()
            .flat_map(|&k| [Insert(k), Remove(k + 1)])
            .collect();
        let out = by_ops.apply_batch_sorted(&ops);
        assert_eq!((out.added, out.removed), (keys.len(), 0));
        assert!(by_keys.iter_all().eq(by_ops.iter_all()));
        assert_eq!(by_keys.size_bytes(), by_ops.size_bytes());
        assert_eq!(by_keys.stats().point_fallbacks, 0);
        by_keys.check_invariants();
        by_ops.check_invariants();
    }

    #[test]
    fn duplicate_only_huge_batch_skips_the_rebuild() {
        // A full-rebuild-sized batch (≥ len/10) that adds nothing must not
        // rebuild the structure — through either entry point.
        fn run<L: crate::LeafStorage>() {
            use cpma_api::BatchOp;
            let keys: Vec<u64> = (0..10_000u64).map(|i| i * 5).collect();
            let mut s = crate::PmaCore::<L>::new();
            s.insert_batch_sorted(&keys);
            let before = s.stats();
            let dup = &keys[3_000..5_000];
            assert_eq!(s.insert_batch_sorted(dup), 0);
            let ops: Vec<BatchOp<u64>> = dup.iter().map(|&k| BatchOp::Insert(k)).collect();
            assert_eq!(
                s.apply_batch_sorted(&ops),
                cpma_api::BatchOutcome::default()
            );
            let absent: Vec<u64> = dup.iter().map(|&k| k + 1).collect();
            assert_eq!(s.remove_batch_sorted(&absent), 0);
            assert_eq!(s.stats().full_rebuilds, before.full_rebuilds);
            assert_eq!(s.stats().pipeline_batches, before.pipeline_batches);
            assert!(s.iter_all().eq(keys.iter().copied()));
            s.check_invariants();
        }
        run::<crate::UncompressedLeaves>();
        run::<crate::CompressedLeaves>();
    }

    #[test]
    fn whole_set_merge_matches_the_serial_kernel() {
        use crate::leaf::apply_run_into;
        use crate::run::{Inserts, Removes, Run};
        use cpma_api::BatchOp;
        // Large enough to take the parallel piece-wise path.
        let cur: Vec<u64> = (0..40_000u64).map(|i| i * 2).collect();
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * 3).collect();
        let ops: Vec<BatchOp<u64>> = keys
            .iter()
            .map(|&k| {
                if k % 2 == 0 {
                    BatchOp::Remove(k)
                } else {
                    BatchOp::Insert(k)
                }
            })
            .collect();
        assert!(cur.len() + keys.len() > super::SERIAL_MERGE_LIMIT);
        fn check<R: Run>(cur: &[u64], run: R) {
            let mut want = Vec::new();
            let (added, removed) = apply_run_into(cur, run, &mut want);
            let (got, outcome) = super::par_apply_run(cur, run);
            assert_eq!(got, want);
            assert_eq!((outcome.added, outcome.removed), (added, removed));
        }
        check(&cur, Inserts::new(&keys));
        check(&cur, Removes::new(&keys));
        check(&cur, ops.as_slice());
    }

    #[test]
    fn mixed_batch_into_empty_and_all_removes() {
        use cpma_api::BatchOp::{Insert, Remove};
        let mut p = Pma::new();
        // Only removes against an empty structure: nothing happens.
        let out = p.apply_batch_sorted(&[Remove(1), Remove(2)]);
        assert_eq!(out, cpma_api::BatchOutcome::default());
        assert!(p.is_empty());
        // Mixed into empty: inserts bulk-load, removes are no-ops.
        let mut ops: Vec<cpma_api::BatchOp<u64>> = (0..1000u64)
            .map(|i| if i % 4 == 0 { Remove(i) } else { Insert(i) })
            .collect();
        let norm = cpma_api::normalize_ops(&mut ops);
        let out = p.apply_batch_sorted(norm);
        assert_eq!(out.added, 750);
        assert_eq!(out.removed, 0);
        p.check_invariants();
        // Remove everything through the mixed path (full-rebuild regime).
        let all: Vec<cpma_api::BatchOp<u64>> = p.iter_all().map(Remove).collect();
        let out = p.apply_batch_sorted(&all);
        assert_eq!(out.removed, 750);
        assert!(p.is_empty());
        p.check_invariants();
    }

    #[test]
    fn pipeline_stats_accumulate() {
        use cpma_api::BatchOp;
        let mut c = Cpma::new();
        let mut seed: Vec<u64> = (0..50_000u64).map(|i| i * 3).collect();
        c.insert_batch(&mut seed, true);
        let stats0 = c.stats();
        assert!(stats0.full_rebuilds >= 1, "bulk load counts as rebuild");
        // A pipeline-regime mixed batch bumps the pipeline counters.
        let mut ops: Vec<BatchOp<u64>> = (0..2_000u64)
            .map(|i| {
                if i % 2 == 0 {
                    BatchOp::Insert(i * 3 + 1)
                } else {
                    BatchOp::Remove(i * 3)
                }
            })
            .collect();
        let norm = cpma_api::normalize_ops(&mut ops);
        c.apply_batch_sorted(norm);
        let stats1 = c.stats();
        assert_eq!(stats1.pipeline_batches, stats0.pipeline_batches + 1);
        assert!(stats1.routed_runs > stats0.routed_runs);
        assert!(stats1.leaves_touched > stats0.leaves_touched);
        // A tiny batch is a point fallback.
        let out = c.apply_batch_sorted(&[BatchOp::Insert(u64::MAX)]);
        assert_eq!(out.added, 1);
        assert_eq!(c.stats().point_fallbacks, stats1.point_fallbacks + 1);
        c.reset_stats();
        assert_eq!(c.stats(), crate::stats::PmaStats::default());
    }

    /// The regime boundaries, pinned by count on both entry points: a
    /// normal form of `POINT_UPDATE_CUTOFF − 1` ops runs as point updates,
    /// one of `POINT_UPDATE_CUTOFF` ops through the pipeline, as does one
    /// op short of `len / FULL_REBUILD_DIVISOR`, and that many rebuild the
    /// whole structure. Every op inserts an absent key, so the reporting
    /// entry point's net batch is the whole form.
    fn regime_boundaries<L: crate::LeafStorage + Clone>() {
        use crate::{FULL_REBUILD_DIVISOR, POINT_UPDATE_CUTOFF};
        use cpma_api::BatchOp::{self, Insert};
        let base: Vec<u64> = (0..20_000u64).map(|i| i * 4).collect();
        let set = crate::PmaCore::<L>::build_sorted(&base);
        let rebuild = set.len() / FULL_REBUILD_DIVISOR;
        // (ops, [point fallbacks, pipeline batches, full rebuilds])
        let forms = [
            (POINT_UPDATE_CUTOFF - 1, [1, 0, 0]),
            (POINT_UPDATE_CUTOFF, [0, 1, 0]),
            (rebuild - 1, [0, 1, 0]),
            (rebuild, [0, 0, 1]),
        ];
        for (n, want) in forms {
            let stride = base.len() / n;
            let ops: Vec<BatchOp<u64>> = (0..n).map(|i| Insert(base[i * stride] + 1)).collect();
            for reporting in [false, true] {
                let what = format!("{n} ops, reporting {reporting}");
                let mut s = set.clone();
                let before = s.stats();
                let out = if reporting {
                    let mut was = Vec::new();
                    let out = s.apply_batch_sorted_reporting(&ops, &mut was);
                    assert_eq!(was, vec![false; n], "{what}");
                    out
                } else {
                    s.apply_batch_sorted(&ops)
                };
                assert_eq!((out.added, out.removed), (n, 0), "{what}");
                let after = s.stats();
                let moved = [
                    after.point_fallbacks - before.point_fallbacks,
                    after.pipeline_batches - before.pipeline_batches,
                    after.full_rebuilds - before.full_rebuilds,
                ];
                assert_eq!(moved, want, "{what}");
                s.check_invariants();
            }
        }
    }

    #[test]
    fn regime_boundaries_pma() {
        regime_boundaries::<crate::UncompressedLeaves>();
    }

    #[test]
    fn regime_boundaries_cpma() {
        regime_boundaries::<crate::CompressedLeaves>();
    }

    #[test]
    fn interleaved_batch_insert_remove() {
        let mut p = Pma::new();
        let mut model = BTreeSet::new();
        for round in 0..10u64 {
            let ins = lcg_keys(4000, round * 2 + 1, 24);
            let del = lcg_keys(3000, round * 2 + 2, 24);
            let mut b = ins.clone();
            p.insert_batch(&mut b, false);
            model.extend(ins.iter().copied());
            let mut d = del.clone();
            p.remove_batch(&mut d, false);
            for k in del {
                model.remove(&k);
            }
            assert_eq!(p.len(), model.len(), "round {round}");
            p.check_invariants();
        }
        assert!(p.iter_all().eq(model.iter().copied()));
    }
}
