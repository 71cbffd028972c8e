//! Phase 3 of the batch update: parallel redistribution.
//!
//! "The PMA redistributes regions by performing two copies of the relevant
//! data. The first copy packs the regions to redistribute from the PMA into
//! a buffer, and the second copy equalizes the densities in the regions to
//! redistribute by spreading the elements evenly from the buffer into the
//! target leaves." (§4, Lemma 4).
//!
//! The pipeline hands [`redistribute_ranges`] the maximal violating ranges
//! of a batch; a point update hands it the one node it unbalanced (below
//! the leaf cutoff everything here runs serially).
//!
//! Execution is strictly phased to keep the shared-leaf accesses disjoint:
//!
//! 1. **Collect** (parallel over ranges, read-only): pack each range's
//!    elements (including overflow buffers) and snapshot the *predecessor
//!    element* before the range — the stable quantity empty-prefix leaves
//!    inherit their head from (element order never changes during
//!    redistribution, so this snapshot cannot be invalidated by a
//!    concurrently-rewritten neighbouring range).
//! 2. **Plan** (same tasks, still read-only): size each range (one sweep,
//!    for the weight the cut spreads) and cut it with the storage's exact
//!    planner. A range no split of which fits its leaves (a hybrid leaf
//!    straddling two dense runs costs more than the runs apart) widens to
//!    its parent node and is collected again, one level at a time; only a
//!    root that does not fit grows the capacity — all of it before
//!    anything is written.
//! 3. **Write** (parallel over ranges, parallel over leaves within a
//!    range): overwrite every leaf with its slice at the cost the cut
//!    measured; clears overflows.
//! 4. **Repair** (serial, cheap): refresh inherited heads of empty-leaf
//!    runs that follow each range (their stale inherits could otherwise
//!    break the head array's monotonicity).
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::leaf::{Plan, SharedLeaves};
use crate::tree::Node;
use crate::{LeafStorage, PmaCore};
use rayon::prelude::*;

struct RangeJob {
    node: Node,
    elems: Vec<u64>,
    /// Largest element stored before `node.start`, or `0`.
    prev_elem: u64,
    /// The cut of `elems` into the node's leaves, or `None` when no split
    /// of `elems` fits them.
    plan: Option<Plan>,
}

/// Redistribute the given disjoint nodes (sorted by start).
pub(crate) fn redistribute_ranges<L: LeafStorage>(core: &mut PmaCore<L>, ranges: &[Node]) {
    debug_assert!(ranges.windows(2).all(|w| w[0].end <= w[1].start));
    if ranges.is_empty() {
        return; // what a batch, or a point update, usually asks for
    }
    let leaf_units = core.storage().leaf_units();
    let tree = core.tree();

    // Phases 1 and 2 (the plan reads the codec policy, so it must precede
    // the shared accessor's mutable borrow).
    let collect_one = |node: Node| {
        let storage = core.storage();
        let mut elems = Vec::new();
        for l in node.start..node.end {
            if storage.is_overflowed(l) || storage.count(l) > 0 {
                storage.collect_leaf(l, &mut elems);
            }
        }
        let prev_elem = (0..node.start)
            .rev()
            .find(|&l| storage.count(l) > 0)
            .and_then(|l| storage.leaf_max(l))
            .unwrap_or(0);
        debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
        let weight = storage.size_run(&elems, leaf_units).weight;
        RangeJob {
            node,
            plan: storage.plan_split(&elems, node.len(), leaf_units, weight),
            elems,
            prev_elem,
        }
    };
    let mut ranges = ranges.to_vec();
    let (serial, jobs) = loop {
        let total_leaves: usize = ranges.iter().map(|n| n.len()).sum();
        // Small redistributions run serially — fork overhead exceeds the copies.
        let serial = total_leaves <= (8192 / rayon::current_num_threads().max(1)).max(128);
        let jobs: Vec<RangeJob> = if serial {
            ranges.iter().map(|&n| collect_one(n)).collect()
        } else {
            ranges.par_iter().map(|&n| collect_one(n)).collect()
        };
        if jobs.iter().all(|job| job.plan.is_some()) {
            break (serial, jobs);
        }
        // Rare: widen. Nodes nest or are disjoint, so a parent swallows
        // whole neighbours.
        ranges.clear();
        for job in &jobs {
            let node = match (&job.plan, tree.parent_of(job.node)) {
                (Some(_), _) => job.node,
                (None, Some(parent)) => parent,
                (None, None) => {
                    let all = core.collect_all_par();
                    return core.grow_and_rebuild(&all);
                }
            };
            if ranges.last().is_some_and(|r| r.end >= node.end) {
                continue;
            }
            while ranges.last().is_some_and(|r| r.start >= node.start) {
                ranges.pop();
            }
            ranges.push(node);
        }
    };

    // Phase 3: write (disjoint leaves).
    let shared = core.storage_mut().shared();
    let write_leaf_j = |job: &RangeJob, j: usize| -> isize {
        let plan = job.plan.as_ref().expect("every plan fits");
        let leaf = job.node.start + j;
        let slice = plan.slice(&job.elems, j);
        let inherited = plan.inherited(&job.elems, j, job.prev_elem);
        // SAFETY: ranges are disjoint and each call owns a distinct leaf of
        // its range.
        unsafe {
            let old = shared.units_used(leaf) as isize;
            shared.write_leaf(leaf, slice, inherited, plan.costs[j]) as isize - old
        }
    };
    let units_delta: isize = if serial {
        let mut acc = 0isize;
        for job in &jobs {
            for j in 0..job.node.len() {
                acc += write_leaf_j(job, j);
            }
        }
        acc
    } else {
        jobs.par_iter()
            .map(|job| {
                (0..job.node.len())
                    .into_par_iter()
                    .map(|j| write_leaf_j(job, j))
                    .sum::<isize>()
            })
            .sum()
    };
    core.add_units_delta(units_delta);

    // Phase 4: repair inherited heads after each range, and refresh the
    // read index where elements moved: the occupancy bits of the ranges
    // themselves. Both the ranges and the repairs join the write set.
    for RangeJob { node, .. } in &jobs {
        core.log.leaves(node.start, node.end);
        core.fix_inherited_heads_after(node.end);
        core.rebuild_occ_range(node.start, node.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::SharedLeaves;
    use crate::tree::ImplicitTree;
    use crate::{Cpma, Pma};
    use cpma_api::{BatchSet, RangeSet};

    #[test]
    fn redistribute_whole_tree_evens_out() {
        // Sparse base keys so that leaf 0's key range can absorb a large
        // overflow without breaking global order.
        let elems: Vec<u64> = (0..4000u64).map(|e| e << 20).collect();
        let mut p = Pma::build_sorted(&elems);
        let extra: Vec<u64> = (1..2001u64).collect(); // all below (1 << 20)
        let mut scratch = crate::leaf::LeafScratch::new();
        let shared = p.storage_mut().shared();
        // SAFETY: single-threaded test, one leaf at a time.
        unsafe {
            shared.apply_run(0, crate::run::Inserts::new(&extra), &mut scratch);
        }
        p.add_units_delta(extra.len() as isize);
        p.add_len_delta(extra.len() as isize);
        let root = ImplicitTree::new(p.storage().num_leaves()).root();
        redistribute_ranges(&mut p, &[root]);
        // Everything is back in order and dense bounds hold.
        let got: Vec<u64> = p.iter_all().collect();
        let mut want = elems;
        want.extend(extra);
        want.sort_unstable();
        assert_eq!(got, want);
        p.check_invariants();
    }

    #[test]
    fn redistribute_subrange_only_touches_subrange() {
        let elems: Vec<u64> = (0..40_000).map(|e| e * 2).collect();
        let mut c = Cpma::build_sorted(&elems);
        let tree = ImplicitTree::new(c.storage().num_leaves());
        // Pick the left child of the root.
        let (left, _right) = tree.root().children();
        let before: Vec<u64> = c.iter_all().collect();
        redistribute_ranges(&mut c, &[left]);
        let after: Vec<u64> = c.iter_all().collect();
        assert_eq!(before, after, "redistribution must preserve contents");
        c.check_invariants();
    }

    #[test]
    fn empty_ranges_list_is_noop() {
        let mut p = Pma::build_sorted(&(0..100u64).collect::<Vec<_>>());
        redistribute_ranges(&mut p, &[]);
        p.check_invariants();
    }
}
