//! Phase 1a of the batch update: routing (the recursive search step).
//!
//! "At each step of the recursion, we perform a PMA search for the midpoint
//! (median) of the current batch and merge the relevant elements from the
//! batch destined for that leaf into the target leaf. ... Finally, we
//! recurse on the remaining left and right sides of the batch in parallel."
//! (§4).
//!
//! We split the paper's interleaved search-and-merge into a read-only
//! routing recursion producing `(leaf, batch segment)` assignments, followed
//! by a parallel merge over the assignments (phase 1b, in `mod.rs`). The
//! separation makes the data-race argument trivial: routing only reads
//! heads and occupancy bits, merges only write disjoint leaves.
//!
//! The recursion is Lemma 1's, and so is its work: a [`Task`] is a batch
//! range *and* the window of heads its keys can land behind — the
//! midpoint's leaf `t` splits both — so a task searches only its window,
//! never the whole head array. One bounded search per touched leaf: `k`
//! keys into `n` leaves cost `O(k log(n/k + 1))` head probes, not `k log n`.
//!
//! One search is a chain of dependent loads (each probe's address comes
//! out of the last compare), but the tasks of one level are independent.
//! Below the fork cutoff the recursion therefore runs **breadth-first**:
//! tasks wait in a queue, [`LANES`] of them step through their searches in
//! lockstep — the loads of one round overlap — and their children join the
//! back of the queue. (A lane with a narrower window idles through the
//! extra rounds on the slot it read last; an explicit prefetch of each
//! lane's next probe measured no different from the overlap the lockstep
//! already gives, so there is none.) Assignments drop into a slot per
//! batch position and are read back in one pass: ordered by leaf, no sort.
//! Above the cutoff a task is searched alone and its two halves fork.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::{search, stats, LeafStorage, PmaCore};

/// One unit of merge work: run positions `start..end` all belong in `leaf`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Assignment {
    pub leaf: usize,
    pub start: usize,
    pub end: usize,
}

/// Searches stepped in lockstep: enough independent loads in flight to
/// cover a cache miss, few enough that the lanes stay in L1.
const LANES: usize = 16;

/// Positions either side of the midpoint a segment end is searched in
/// before the rest of the range: a sparse batch's segment is a key or two.
const NEAR: usize = 4;

/// At or below this many batch positions a task is routed on one thread
/// instead of forking; the grain shrinks as the pool grows (see
/// `serial_merge_cutoff`).
fn serial_cutoff() -> usize {
    (32_768 / rayon::current_num_threads().max(1)).max(1024)
}

/// Destination segments for `len` keys in ascending order (`key(i)` is the
/// `i`-th; equal neighbours are fine — routing reads keys only, so every
/// view of the same keys routes identically). Neither the keys nor the PMA
/// may be empty. Assignments partition `0..len` and ascend strictly by leaf.
pub(crate) fn route<L: LeafStorage>(
    core: &PmaCore<L>,
    len: usize,
    key: impl Fn(usize) -> u64 + Sync,
) -> Vec<Assignment> {
    debug_assert!(len > 0);
    let f0 = core
        .first_nonempty_leaf()
        .expect("routing requires a non-empty PMA");
    RouteCtx { core, key, f0 }.recurse(Task::new(0, len, 0, core.storage().num_leaves()))
}

/// Batch positions `[blo, bhi)`, non-empty, whose keys all have their head
/// partition point (the count of heads at or below the key) in
/// `[plo, phi]` — so a search probes only the heads of leaves `[plo, phi)`.
#[derive(Clone, Copy)]
struct Task {
    blo: usize,
    bhi: usize,
    plo: usize,
    phi: usize,
}

impl Task {
    fn new(blo: usize, bhi: usize, plo: usize, phi: usize) -> Self {
        Self { blo, bhi, plo, phi }
    }

    fn mid(&self) -> usize {
        self.blo + (self.bhi - self.blo) / 2
    }
}

struct RouteCtx<'a, L: LeafStorage, F> {
    core: &'a PmaCore<L>,
    key: F,
    /// First non-empty leaf: elements below the global minimum route here.
    f0: usize,
}

impl<L: LeafStorage, F: Fn(usize) -> u64 + Sync> RouteCtx<'_, L, F> {
    /// Head partition points of the tasks' midpoint keys, each searched in
    /// its own window, all stepped together.
    fn partitions(&self, tasks: &[Task]) -> [usize; LANES] {
        let storage = self.core.storage();
        let (mut base, mut count, mut keys) = ([0usize; LANES], [1usize; LANES], [0; LANES]);
        for (lane, task) in tasks.iter().enumerate() {
            base[lane] = task.plo;
            count[lane] = task.phi - task.plo + 1;
            keys[lane] = (self.key)(task.mid());
        }
        let widest = count.iter().copied().max().unwrap_or(1);
        let steps = usize::BITS - (widest - 1).leading_zeros();
        stats::record_read(steps as usize * tasks.len() * size_of::<u64>());
        for _ in 0..steps {
            for lane in 0..tasks.len() {
                note_probes(usize::from(count[lane] > 1));
                search::halve(&mut base[lane], &mut count[lane], |i| {
                    storage.head(i) <= keys[lane]
                });
            }
        }
        base
    }

    /// First position in `[lo, hi)` whose key is at or above `pivot` (`hi`
    /// if none): looked for within [`NEAR`] positions of `near`, where a
    /// sparse batch has it, before the rest of the range.
    fn first_at_or_above(&self, lo: usize, hi: usize, near: usize, pivot: u64) -> usize {
        let below = |i| (self.key)(i) < pivot;
        let (mut from, mut to) = (near.saturating_sub(NEAR).max(lo), (near + NEAR).min(hi));
        if from > lo && !below(from - 1) {
            (from, to) = (lo, from - 1);
        } else if to < hi && below(to) {
            (from, to) = (to + 1, hi);
        }
        search::partition_point(from, to, below)
    }

    /// Turn the midpoint's partition point into its leaf and the segment of
    /// the task destined for it — keys in `[head(leaf), head(next non-empty
    /// leaf))`, extended down to −∞ for the first non-empty leaf (elements
    /// below the global minimum route there) — plus what is left either side.
    fn settle(&self, task: Task, partition: usize) -> (Assignment, Option<Task>, Option<Task>) {
        let (core, mid) = (self.core, task.mid());
        let leaf = core
            .leaf_at_partition(partition)
            .expect("non-empty PMA always routes");
        debug_assert_eq!(
            partition,
            core.head_partition((self.key)(mid), 0, core.storage().num_leaves())
        );
        let start = if leaf == self.f0 {
            task.blo
        } else {
            self.first_at_or_above(task.blo, mid, mid, core.storage().head(leaf))
        };
        let next = core.next_nonempty_leaf(leaf);
        let end = match next {
            Some(nn) => self.first_at_or_above(mid + 1, task.bhi, mid + 1, core.storage().head(nn)),
            None => task.bhi,
        };
        let left = (task.blo < start).then(|| Task::new(task.blo, start, task.plo, leaf));
        let right = next
            .filter(|_| end < task.bhi)
            .map(|nn| Task::new(end, task.bhi, nn + 1, task.phi));
        let assignment = Assignment { leaf, start, end };
        (assignment, left, right)
    }

    /// Route `task` by forking at its midpoint while it is above the serial
    /// cutoff.
    fn recurse(&self, task: Task) -> Vec<Assignment> {
        if task.bhi - task.blo <= serial_cutoff() {
            return self.breadth_first(task);
        }
        let (assignment, left, right) = self.settle(task, self.partitions(&[task])[0]);
        let side = |t: Option<Task>| t.map_or_else(Vec::new, |t| self.recurse(t));
        let (mut out, right) = rayon::join(|| side(left), || side(right));
        out.push(assignment);
        out.extend(right);
        out
    }

    /// Route `root` on this thread, level by level (module docs).
    fn breadth_first(&self, root: Task) -> Vec<Assignment> {
        // `(leaf, end)` of the assignment starting at `root.blo + i`; the
        // starts partition the range, so following the ends visits exactly
        // the filled slots, in leaf order.
        let mut slots = vec![(0usize, 0usize); root.bhi - root.blo];
        let mut queue = vec![root];
        let mut done = 0;
        while done < queue.len() {
            let group = done..queue.len().min(done + LANES);
            let partitions = self.partitions(&queue[group.clone()]);
            for (i, partition) in group.clone().zip(partitions) {
                let (a, left, right) = self.settle(queue[i], partition);
                slots[a.start - root.blo] = (a.leaf, a.end);
                queue.extend(left);
                queue.extend(right);
            }
            done = group.end;
        }
        let mut out = Vec::with_capacity(queue.len());
        let mut start = root.blo;
        while start < root.bhi {
            let (leaf, end) = slots[start - root.blo];
            out.push(Assignment { leaf, start, end });
            start = end;
        }
        out
    }
}

/// Test-only count of the head probes that narrow a search.
#[inline(always)]
fn note_probes(n: usize) {
    #[cfg(test)]
    tests::HEAD_PROBES.with(|c| c.set(c.get() + n));
    #[cfg(not(test))]
    let _ = n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::{LeafScratch, SharedLeaves};
    use crate::run::{Inserts, Removes, Run};
    use crate::{Cpma, Pma};
    use cpma_api::BatchOp;
    use cpma_api::BatchSet;
    use cpma_workloads::{ClusteredKeys, SplitMix64};

    thread_local! {
        /// Head probes made by routing on this thread (see `note_probes`).
        pub(super) static HEAD_PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn route_run<L: LeafStorage, R: Run>(p: &PmaCore<L>, run: R) -> (Vec<Assignment>, usize) {
        HEAD_PROBES.with(|c| c.set(0));
        let assignments = route(p, run.len(), |i| run.key(i));
        (assignments, HEAD_PROBES.with(|c| c.get()))
    }

    /// Lemma 1 by count: one search per touched leaf, each bounded by its
    /// window, sums to at most this many head probes.
    fn probe_bound(leaves: usize, assignments: usize) -> usize {
        let per_leaf = (leaves as f64 / assignments as f64).log2().ceil() as usize + 3;
        assignments * per_leaf
    }

    /// The router against the per-key oracle: the assignments cover the
    /// batch in order, ascend strictly by leaf, agree with `dest_leaf` key
    /// by key and across the three views, and stay inside the probe bound
    /// (counted per thread, so checked where routing does not fork).
    fn check_routing<L: LeafStorage>(p: &PmaCore<L>, batch: &[u64], what: &str) -> Vec<Assignment> {
        let (assignments, probes) = route_run(p, Inserts::new(batch));
        let mut pos = 0;
        let mut prev_leaf = None;
        for a in &assignments {
            assert_eq!(a.start, pos, "{what}: gap in coverage");
            assert!(a.start < a.end, "{what}: empty assignment");
            pos = a.end;
            assert!(prev_leaf < Some(a.leaf), "{what}: not in leaf order");
            prev_leaf = Some(a.leaf);
            for &e in &batch[a.start..a.end] {
                assert_eq!(p.dest_leaf(e), Some(a.leaf), "{what}: element {e}");
            }
        }
        assert_eq!(pos, batch.len(), "{what}: batch not covered");
        let ops: Vec<BatchOp<u64>> = batch
            .iter()
            .map(|&k| {
                if k % 3 == 0 {
                    BatchOp::Remove(k)
                } else {
                    BatchOp::Insert(k)
                }
            })
            .collect();
        assert_eq!(route_run(p, Removes::new(batch)).0, assignments, "{what}");
        assert_eq!(route_run(p, ops.as_slice()).0, assignments, "{what}");
        if batch.len() <= serial_cutoff() {
            let bound = probe_bound(p.storage().num_leaves(), assignments.len());
            assert!(
                probes <= bound,
                "{what}: {probes} head probes for {} assignments, bound {bound}",
                assignments.len()
            );
        }
        assignments
    }

    /// Up to `n` distinct keys drawn from `[lo, hi)`, ascending.
    fn draw(lo: u64, hi: u64, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut keys: Vec<u64> = (0..n).map(|_| lo + rng.next_below(hi - lo)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Empty `leaves` behind the maintenance's back, so they stay empty
    /// with their old (now inherited) heads.
    fn drain<L: LeafStorage>(p: &mut PmaCore<L>, leaves: std::ops::Range<usize>) {
        for leaf in leaves {
            let mut elems = Vec::new();
            p.storage().collect_leaf(leaf, &mut elems);
            let shared = p.storage_mut().shared();
            // SAFETY: single-threaded test, one leaf at a time.
            let out =
                unsafe { shared.apply_run(leaf, Removes::new(&elems), &mut LeafScratch::new()) };
            p.add_len_delta(-(out.removed as isize));
            p.add_units_delta(out.delta_units);
            p.refresh_occ(leaf);
        }
        p.check_invariants();
    }

    /// Batch sizes around the lane count, a pipeline-sized one, and one
    /// above the fork cutoff at any budget.
    const SIZES: [usize; 7] = [1, 15, 16, 17, 33, 1_000, 40_000];

    #[test]
    fn router_matches_the_per_key_oracle() {
        // Sparse: 60 000 keys 2²⁰ apart, a few per leaf.
        let spread: Vec<u64> = (1..=60_000u64).map(|i| i << 20).collect();
        let sparse = Pma::build_sorted(&spread);
        let (min, max) = (spread[0], *spread.last().unwrap());
        // The same with two long runs of emptied leaves, one of them at
        // the very front (keys there fall through to the first occupied
        // leaf), whose heads are inherited.
        let mut holed = Pma::build_sorted(&spread);
        let leaves = holed.storage().num_leaves();
        drain(&mut holed, 0..leaves / 8);
        drain(&mut holed, leaves / 2..leaves / 2 + leaves / 4);
        // Dense: runs of 256 at 42 % fill, the batch drawn from the other
        // 58 % of the same stretch — tens of keys per leaf.
        let mut rng = SplitMix64::new(42);
        let (kept, dropped): (Vec<u64>, Vec<u64>) = ClusteredKeys::new(256, 1 << 16, 1)
            .sorted(300_000)
            .into_iter()
            .partition(|_| rng.next_below(100) < 42);
        let dense = Cpma::build_sorted(&kept);
        let middle = spread[30_000];
        for (s, &size) in SIZES.iter().enumerate() {
            let seed = s as u64;
            check_routing(&sparse, &draw(0, max + (1 << 30), size, seed), "uniform");
            check_routing(&holed, &draw(0, max + (1 << 30), size, seed), "holed");
            let hole =
                holed.storage().head(leaves / 2)..holed.storage().head(leaves / 2 + leaves / 4);
            let a = check_routing(&holed, &draw(hole.start, hole.end, size, seed), "in a hole");
            assert_eq!(a.len(), 1, "one occupied leaf precedes the hole");
            let mut outside = draw(0, min, size.div_ceil(2), seed);
            outside.extend(draw(max + 1, u64::MAX, size / 2, seed));
            let a = check_routing(&sparse, &outside, "outside");
            assert_eq!(a[0].leaf, sparse.first_nonempty_leaf().unwrap());
            assert!(
                a.len() <= 2,
                "one leaf below the minimum, one above the maximum"
            );
            let a = check_routing(
                &sparse,
                &draw(middle + 1, middle + (1 << 20), size, seed),
                "one leaf",
            );
            assert_eq!(a.len(), 1);
            let from = (dropped.len() - size.min(dropped.len())) / 2;
            let batch = &dropped[from..][..size.min(dropped.len())];
            let a = check_routing(&dense, batch, "dense");
            assert!(
                size < 1_000 || batch.len() / a.len() >= 10,
                "dense: {} leaves",
                a.len()
            );
        }
    }

    #[test]
    fn routes_below_min_and_above_max() {
        let elems: Vec<u64> = (100..200).collect();
        let p = Pma::build_sorted(&elems);
        let batch = vec![1u64, 2, 3, 150, 500, 501];
        let assignments = check_routing(&p, &batch, "six keys");
        // 1,2,3 go to the first non-empty leaf.
        let first = p.first_nonempty_leaf().unwrap();
        assert_eq!(assignments[0].leaf, first);
        assert!(assignments[0].end >= 3);
    }

    #[test]
    fn single_element_batches() {
        let elems: Vec<u64> = (0..400).map(|i| i * 10).collect();
        let p = Pma::build_sorted(&elems);
        for e in [0u64, 5, 1995, 3990, 10_000] {
            let expected = Assignment {
                leaf: p.dest_leaf(e).unwrap(),
                start: 0,
                end: 1,
            };
            assert_eq!(check_routing(&p, &[e], "one key"), [expected]);
        }
    }

    /// `O(k log(n/k))` pinned by count, not by clock: 1 000 keys into 16 ×
    /// the leaves cost log₂ 16 = 4 more probes per key, not 16 × — measured
    /// against the model `log₂(leaves / touched) + 3`, the two sizes sit at
    /// the same fraction of it.
    #[test]
    fn probes_per_key_follow_k_log_n_over_k() {
        let fraction_of_model = |n: u64| {
            let keys: Vec<u64> = (0..n).map(|i| i << 12).collect();
            let set = Cpma::build_sorted(&keys);
            let batch = draw(0, n << 12, 1_000, n);
            let (assignments, probes) = route_run(&set, Inserts::new(&batch));
            let leaves = set.storage().num_leaves() as f64;
            let touched = assignments.len() as f64;
            eprintln!(
                "n={n} leaves={leaves} touched={touched} probes={probes} bound={}",
                probe_bound(leaves as usize, assignments.len())
            );
            (probes as f64 / touched) / ((leaves / touched).log2() + 3.0)
        };
        let (small, large) = (fraction_of_model(500_000), fraction_of_model(8_000_000));
        assert!(
            large <= small * 1.25 && small <= large * 1.25,
            "{small} of the model at 0.5 M keys, {large} at 8 M"
        );
    }
}
