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
//! recursion, work, and span are identical to Lemma 1; the separation makes
//! the data-race argument trivial: routing only reads heads/counts, merges
//! only write disjoint leaves.

use crate::run::Run;
use crate::{LeafStorage, PmaCore, PmaKey};

/// One unit of merge work: `run.slice(start, end)` all belongs in `leaf`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Assignment {
    pub leaf: usize,
    pub start: usize,
    pub end: usize,
}

/// Below this many batch elements, route with a serial sweep instead of
/// forking; the grain shrinks as the pool grows (see `serial_merge_cutoff`).
fn serial_cutoff() -> usize {
    (32_768 / rayon::current_num_threads().max(1)).max(1024)
}

/// Compute the destination segments for a run (routing reads only its
/// keys, so every view of the same keys routes identically). The PMA must
/// be non-empty. Assignments come back ordered by leaf.
pub(crate) fn route_batch<K: PmaKey, L: LeafStorage<K>, R: Run<K>>(
    core: &PmaCore<K, L>,
    run: R,
) -> Vec<Assignment> {
    debug_assert!(!core.is_empty());
    let f0 = core
        .first_nonempty_leaf()
        .expect("route_batch requires a non-empty PMA");
    let ctx = RouteCtx { core, run, f0 };
    ctx.recurse(0, run.len(), 0, core.storage().num_leaves())
}

struct RouteCtx<'a, K: PmaKey, L: LeafStorage<K>, R: Run<K>> {
    core: &'a PmaCore<K, L>,
    run: R,
    /// First non-empty leaf: elements below the global minimum route here.
    f0: usize,
}

impl<K: PmaKey, L: LeafStorage<K>, R: Run<K>> RouteCtx<'_, K, L, R> {
    /// Segment of `self.run[blo..bhi)` destined for leaf `t`:
    /// keys in `[head(t), head(next non-empty leaf))`, extended down to
    /// −∞ when `t` is the first non-empty leaf.
    fn segment_for(&self, t: usize, blo: usize, bhi: usize) -> (usize, usize) {
        let rest = self.run.slice(blo, bhi);
        let lo = if t == self.f0 {
            blo
        } else {
            blo + rest.lower_bound(self.core.storage().head(t))
        };
        let hi = match self.core.next_nonempty_leaf(t) {
            Some(nn) => blo + rest.lower_bound(self.core.storage().head(nn)),
            None => bhi,
        };
        debug_assert!(lo <= hi);
        (lo, hi)
    }

    /// Recursive parallel routing over batch `[blo, bhi)` and leaves
    /// `[llo, lhi)`; every element's destination is within the leaf range.
    fn recurse(&self, blo: usize, bhi: usize, llo: usize, lhi: usize) -> Vec<Assignment> {
        if blo >= bhi {
            return Vec::new();
        }
        debug_assert!(llo < lhi, "batch elements with no leaf range");
        if bhi - blo <= serial_cutoff() {
            return self.serial_sweep(blo, bhi);
        }
        // Search for the batch midpoint's destination leaf.
        let mid = blo + (bhi - blo) / 2;
        let t = self
            .core
            .dest_leaf(self.run.key(mid))
            .expect("non-empty PMA always routes");
        debug_assert!((llo..lhi).contains(&t), "dest {t} outside [{llo},{lhi})");
        let (i, j) = self.segment_for(t, blo, bhi);
        debug_assert!(i <= mid && mid < j, "midpoint not in its own segment");
        let (mut left, right) = rayon::join(
            || self.recurse(blo, i, llo, t),
            || self.recurse(j, bhi, t + 1, lhi),
        );
        left.push(Assignment {
            leaf: t,
            start: i,
            end: j,
        });
        left.extend(right);
        left
    }

    /// Serial sweep: repeatedly route the first unassigned element and jump
    /// to the end of its segment.
    fn serial_sweep(&self, blo: usize, bhi: usize) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut b = blo;
        while b < bhi {
            let t = self
                .core
                .dest_leaf(self.run.key(b))
                .expect("non-empty PMA always routes");
            let (i, j) = self.segment_for(t, b, bhi);
            debug_assert!(i <= b && b < j);
            out.push(Assignment {
                leaf: t,
                start: b,
                end: j,
            });
            b = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Inserts, Removes};
    use crate::Pma;
    use cpma_api::BatchOp;

    fn setup() -> Pma<u64> {
        // 4 values per leaf-ish structure over 0..4000 step 10.
        let elems: Vec<u64> = (0..400).map(|i| i * 10).collect();
        Pma::from_sorted(&elems)
    }

    fn check_routing(p: &Pma<u64>, batch: &[u64]) {
        let assignments = route_batch(p, Inserts::new(batch));
        // Covers the batch exactly, in order, without overlap.
        let mut pos = 0;
        let mut prev_leaf = None;
        for a in &assignments {
            assert_eq!(a.start, pos, "gap in coverage");
            assert!(a.start < a.end);
            pos = a.end;
            if let Some(pl) = prev_leaf {
                assert!(a.leaf > pl, "assignments not in leaf order");
            }
            prev_leaf = Some(a.leaf);
            // Every element's dest matches the assignment.
            for &e in &batch[a.start..a.end] {
                assert_eq!(p.dest_leaf(e), Some(a.leaf), "element {e}");
            }
        }
        assert_eq!(pos, batch.len());
    }

    #[test]
    fn routes_cover_batch() {
        let p = setup();
        let batch: Vec<u64> = (0..200).map(|i| i * 17 + 3).collect();
        check_routing(&p, &batch);
    }

    #[test]
    fn routes_below_min_and_above_max() {
        let elems: Vec<u64> = (100..200).collect();
        let p = Pma::from_sorted(&elems);
        let batch = vec![1u64, 2, 3, 150, 500, 501];
        check_routing(&p, &batch);
        let assignments = route_batch(&p, Inserts::new(&batch));
        // 1,2,3 go to the first non-empty leaf.
        let first = p.first_nonempty_leaf().unwrap();
        assert_eq!(assignments[0].leaf, first);
        assert!(assignments[0].end >= 3);
    }

    #[test]
    fn single_element_batches() {
        let p = setup();
        for e in [0u64, 5, 1995, 3990, 10_000] {
            let batch = vec![e];
            let assignments = route_batch(&p, Inserts::new(&batch));
            assert_eq!(assignments.len(), 1);
            assert_eq!(
                assignments[0],
                Assignment {
                    leaf: p.dest_leaf(e).unwrap(),
                    start: 0,
                    end: 1
                }
            );
        }
    }

    #[test]
    fn large_batch_exercises_parallel_recursion() {
        let p = setup();
        let batch: Vec<u64> = (0..10_000u64).map(|i| i * 2 + 1).collect();
        check_routing(&p, &batch);
    }

    #[test]
    fn all_views_of_the_same_keys_route_alike() {
        let p = setup();
        let keys: Vec<u64> = (0..500).map(|i| i * 13 + 2).collect();
        let ops: Vec<BatchOp<u64>> = keys
            .iter()
            .map(|&k| {
                if k % 3 == 0 {
                    BatchOp::Remove(k)
                } else {
                    BatchOp::Insert(k)
                }
            })
            .collect();
        let by_op = route_batch(&p, ops.as_slice());
        assert_eq!(route_batch(&p, Inserts::new(&keys)), by_op);
        assert_eq!(route_batch(&p, Removes::new(&keys)), by_op);
    }

    #[test]
    fn all_elements_to_one_leaf() {
        let p = setup();
        // A tight cluster routes to a single leaf.
        let batch = vec![101u64, 102, 103, 104];
        let assignments = route_batch(&p, Inserts::new(&batch));
        assert_eq!(assignments.len(), 1);
    }
}
