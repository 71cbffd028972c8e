//! Phase 2 of the batch update: work-efficient counting.
//!
//! "This parallel algorithm avoids redundant work by processing the levels
//! serially from the leaves to the root and saving any counts for later
//! lookups by nodes in higher levels. At each level, we maintain a
//! thread-safe set of nodes that need to be counted. ... If any node at some
//! level i exceeds its density bound, the algorithm adds its parent to the
//! set of nodes to be counted at level i+1." (§4, Figure 5, Lemmas 2–3).
//!
//! The rule is the paper's — a node is counted iff it is a touched leaf or a
//! counted child violates its bound — but nothing is stored per level. A
//! counted leaf inside its bound has no effect on the outcome, and a leaf
//! sits at depth `max_depth` or `max_depth − 1`, so one comparison against
//! the tighter of those two bands ([`PmaCore::safe_leaf_units`]) drops it; what is
//! left, usually nothing, is the sorted list of *suspects*. One top-down
//! walk visits exactly the nodes with a suspect below them, splitting the
//! list at each node's midpoint. A counted node leaves its sub-total on a
//! stack; a counted ancestor folds the sub-totals of its subtree — they sit
//! on top, in leaf order — and reads only the leaves between them (Lemma
//! 2's "saved counts" without a lookup: a leaf is read once by the filter
//! and at most once by the walk). A counted node inside its bound likewise
//! replaces the candidates its subtree pushed, which leaves the maximal
//! ones in leaf order with no sort. The per-level sets reach the same nodes
//! bottom-up and decide each by the same comparison.
//!
//! Output: the *maximal* disjoint tree nodes to redistribute (nodes that
//! respect their bound but were counted because a child violated), or a
//! root-resize signal.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::density::BOUNDS;
use crate::tree::Node;
use crate::{LeafStorage, PmaCore};
use std::ops::RangeInclusive;

/// Which density band the phase enforces: upper bounds after inserts,
/// lower bounds after deletes, and both at once after a *mixed* batch —
/// one counting pass over the touched set catches leaves pushed over by
/// the inserts and leaves drained under by the removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    Upper,
    Lower,
    Both,
}

/// Which way a root violation points: over the upper bound (grow) or
/// under the lower bound (shrink).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RootResize {
    Grow,
    Shrink,
}

/// Result of the counting phase.
#[derive(Debug, Default)]
pub(crate) struct CountOutcome {
    /// Maximal disjoint nodes to redistribute, sorted by start leaf.
    pub ranges: Vec<Node>,
    /// The root itself violates a bound, and in which direction.
    pub resize_root: Option<RootResize>,
}

impl<L: LeafStorage> PmaCore<L> {
    /// Units a node of `leaves` leaves at `depth` may hold under `kind`
    /// (the side `kind` does not enforce is left open).
    fn band(&self, kind: BoundKind, leaves: usize, depth: u32) -> RangeInclusive<usize> {
        let max_depth = self.tree().max_depth();
        let cap = self.storage().leaf_units() * leaves;
        let min = match kind {
            BoundKind::Upper => 0,
            _ => BOUNDS.min_units(cap, depth, max_depth),
        };
        let max = match kind {
            BoundKind::Lower => usize::MAX,
            _ => BOUNDS.max_units(cap, depth, max_depth),
        };
        min..=max
    }

    /// Units a leaf may hold without violating `kind` whichever of the two
    /// leaf depths it sits at: the O(1) check that lets the pipeline and
    /// the point updates skip the tree for a leaf inside it.
    fn safe_leaf_units(&self, kind: BoundKind) -> RangeInclusive<usize> {
        let max_depth = self.tree().max_depth();
        let deep = self.band(kind, 1, max_depth);
        let shallow = self.band(kind, 1, max_depth.saturating_sub(1));
        *deep.start().max(shallow.start())..=*deep.end().min(shallow.end())
    }
}

/// The top-down walk over the suspects (module docs).
struct Walk<'a, L: LeafStorage> {
    core: &'a PmaCore<L>,
    kind: BoundKind,
    /// Sub-totals of the counted nodes not yet folded into a counted
    /// ancestor: disjoint, in leaf order, those of the subtree being
    /// visited on top.
    counted: Vec<(Node, usize)>,
    /// `ranges` holds the candidates so far, the same way.
    out: CountOutcome,
}

impl<L: LeafStorage> Walk<'_, L> {
    /// Units of leaves `[start, end)`, read now.
    fn read(&self, start: usize, end: usize) -> usize {
        let units = |leaf| {
            note(Some(leaf));
            self.core.storage().units_used(leaf)
        };
        (start..end).map(units).sum()
    }

    /// Count `node` if the rule says so, and say whether it then violates.
    /// `suspects` are the ones inside `node`, ascending.
    fn visit(&mut self, node: Node, suspects: &[usize]) -> bool {
        if suspects.is_empty() {
            return false;
        }
        note(None);
        let (below, nested) = (self.counted.len(), self.out.ranges.len());
        if !node.is_leaf() {
            let (l, r) = node.children();
            let (left, right) = suspects.split_at(suspects.partition_point(|&s| s < l.end));
            // Both sides, whatever the first one says.
            if !(self.visit(l, left) | self.visit(r, right)) {
                return false;
            }
        }
        // Counted: fold the sub-totals already taken inside `node` and
        // read, once, the leaves between them.
        let (mut used, mut next) = (0, node.start);
        for &(inner, units) in &self.counted[below..] {
            used += units + self.read(next, inner.start);
            next = inner.end;
        }
        used += self.read(next, node.end);
        self.counted.truncate(below);
        self.counted.push((node, used));
        let band = self.core.band(self.kind, node.len(), node.depth);
        let violates = !band.contains(&used);
        if violates && node.depth == 0 {
            self.out.resize_root = Some(match used > *band.end() {
                true => RootResize::Grow,
                false => RootResize::Shrink,
            });
        } else if !violates && !node.is_leaf() {
            // Counted because a child violated, and it satisfies its own
            // bound: a redistribution candidate, and every candidate its
            // subtree pushed is nested inside it.
            self.out.ranges.truncate(nested);
            self.out.ranges.push(node);
        }
        violates
    }
}

/// Run the counting phase over the touched leaves (strictly ascending).
pub(crate) fn count_phase<L: LeafStorage>(
    core: &PmaCore<L>,
    touched: &[usize],
    kind: BoundKind,
) -> CountOutcome {
    debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
    let mut walk = Walk {
        core,
        kind,
        counted: Vec::new(),
        out: CountOutcome::default(),
    };
    let safe = core.safe_leaf_units(kind);
    let suspects: Vec<usize> = touched
        .iter()
        .copied()
        .filter(|&leaf| !safe.contains(&walk.read(leaf, leaf + 1)))
        .collect();
    walk.visit(core.tree().root(), &suspects);
    if walk.out.resize_root.is_some() {
        walk.out.ranges.clear();
    }
    walk.out
}

/// Test-only accounting: a leaf read, or (`None`) a tree node visited.
#[inline(always)]
fn note(event: Option<usize>) {
    #[cfg(test)]
    tests::TRACE.with(|t| t.borrow_mut().push(event));
    #[cfg(not(test))]
    let _ = event;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Inserts, Removes};
    use crate::Pma;

    thread_local! {
        /// What the count phases of this thread did, in order (see `note`).
        pub(super) static TRACE: std::cell::RefCell<Vec<Option<usize>>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Build a PMA and then force specific leaves over their bound by
    /// merging directly through the shared interface (bypassing public
    /// maintenance), so the counting phase sees genuine violations.
    fn force_fill(p: &mut Pma, leaf: usize, extra: usize) {
        use crate::leaf::SharedLeaves;
        let base = 1_000_000 + leaf as u64 * 10_000;
        let add: Vec<u64> = (0..extra as u64).map(|i| base + i).collect();
        // Only valid in tests: keys must land in this leaf's range for
        // order; we instead use a fresh structure where leaf order is free.
        let mut scratch = crate::leaf::LeafScratch::new();
        let shared = p.storage_mut().shared();
        // SAFETY: single-threaded test, one leaf at a time.
        unsafe {
            shared.apply_run(leaf, Inserts::new(&add), &mut scratch);
        }
    }

    #[test]
    fn no_violation_no_ranges() {
        let elems: Vec<u64> = (0..1000).collect();
        let p = Pma::from_sorted(&elems);
        let touched: Vec<usize> = (0..p.storage().num_leaves().min(4)).collect();
        let out = count_phase(&p, &touched, BoundKind::Upper);
        assert!(out.ranges.is_empty());
        assert!(out.resize_root.is_none());
    }

    #[test]
    fn empty_touch_set() {
        let p = Pma::from_sorted(&(0..100u64).collect::<Vec<_>>());
        let out = count_phase(&p, &[], BoundKind::Upper);
        assert!(out.ranges.is_empty() && out.resize_root.is_none());
    }

    #[test]
    fn overfilled_leaf_produces_covering_range() {
        let elems: Vec<u64> = (0..4000).collect();
        let mut p = Pma::from_sorted(&elems);
        let leaf_cap = p.storage().leaf_units();
        // Overflow leaf 0 well past its capacity.
        force_fill(&mut p, 0, leaf_cap * 2);
        let out = count_phase(&p, &[0], BoundKind::Upper);
        assert!(out.resize_root.is_none());
        assert_eq!(out.ranges.len(), 1);
        assert!(
            out.ranges[0].start == 0 && out.ranges[0].end >= 2,
            "{:?}",
            out.ranges
        );
        // The mixed-batch kind sees the same upper violation.
        let both = count_phase(&p, &[0], BoundKind::Both);
        assert!(both.resize_root.is_none());
        assert_eq!(both.ranges.len(), 1);
    }

    #[test]
    fn massive_overfill_requests_resize() {
        let elems: Vec<u64> = (0..400).collect();
        let mut p = Pma::from_sorted(&elems);
        let total_cap = p.capacity_units();
        force_fill(&mut p, 0, total_cap);
        let out = count_phase(&p, &[0], BoundKind::Upper);
        assert_eq!(out.resize_root, Some(RootResize::Grow));
        let both = count_phase(&p, &[0], BoundKind::Both);
        assert_eq!(both.resize_root, Some(RootResize::Grow));
    }

    #[test]
    fn ranges_are_disjoint_and_sorted() {
        let elems: Vec<u64> = (0..20_000).collect();
        let mut p = Pma::from_sorted(&elems);
        let nl = p.storage().num_leaves();
        let cap = p.storage().leaf_units();
        // Overfill two far-apart leaves.
        force_fill(&mut p, 0, cap);
        force_fill(&mut p, nl - 1, cap);
        let out = count_phase(&p, &[0, nl - 1], BoundKind::Upper);
        assert!(out.resize_root.is_none());
        assert!(out.ranges.len() >= 2 || out.ranges[0].len() == nl);
        for w in out.ranges.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap {:?}", w);
        }
    }

    #[test]
    fn lower_bound_violation_detected() {
        let elems: Vec<u64> = (0..8000).collect();
        let mut p = Pma::from_sorted(&elems);
        // Empty leaf 0 manually.
        use crate::leaf::SharedLeaves;
        let mut elems0 = Vec::new();
        p.storage().collect_leaf(0, &mut elems0);
        let mut scratch = crate::leaf::LeafScratch::new();
        let shared = p.storage_mut().shared();
        // SAFETY: single-threaded test, one leaf at a time.
        unsafe {
            shared.apply_run(0, Removes::new(&elems0), &mut scratch);
        }
        let out = count_phase(&p, &[0], BoundKind::Lower);
        assert!(out.resize_root.is_none());
        assert_eq!(out.ranges.len(), 1);
        assert_eq!(out.ranges[0].start, 0);
        // The mixed-batch kind catches the same lower violation in its
        // single pass.
        let both = count_phase(&p, &[0], BoundKind::Both);
        assert!(both.resize_root.is_none());
        assert_eq!(both.ranges.len(), 1);
        assert_eq!(both.ranges[0].start, 0);
    }

    #[test]
    fn both_kind_catches_upper_and_lower_in_one_pass() {
        // Overfill one leaf and drain another: a single Both-pass must
        // surface ranges covering each violation.
        let elems: Vec<u64> = (0..20_000).collect();
        let mut p = Pma::from_sorted(&elems);
        let nl = p.storage().num_leaves();
        let cap = p.storage().leaf_units();
        force_fill(&mut p, 0, cap);
        use crate::leaf::SharedLeaves;
        let mut last = Vec::new();
        p.storage().collect_leaf(nl - 1, &mut last);
        let mut scratch = crate::leaf::LeafScratch::new();
        let shared = p.storage_mut().shared();
        // SAFETY: single-threaded test, one leaf at a time.
        unsafe {
            shared.apply_run(nl - 1, Removes::new(&last), &mut scratch);
        }
        let out = count_phase(&p, &[0, nl - 1], BoundKind::Both);
        assert!(out.resize_root.is_none());
        let covers = |leaf: usize| out.ranges.iter().any(|n| n.start <= leaf && leaf < n.end);
        assert!(covers(0), "upper violation uncovered: {:?}", out.ranges);
        assert!(
            covers(nl - 1),
            "lower violation uncovered: {:?}",
            out.ranges
        );
    }

    /// The rule of the module docs, taken literally and with nothing saved:
    /// a node is counted iff it is a touched leaf or a counted child
    /// violates; a counted non-leaf inside its bound is a candidate; the
    /// maximal candidates are the ranges; a violating root resizes.
    fn naive(p: &Pma, touched: &[usize], kind: BoundKind) -> (Vec<Node>, Option<RootResize>) {
        fn go(
            p: &Pma,
            node: Node,
            touched: &[usize],
            kind: BoundKind,
            out: &mut (Vec<Node>, Option<RootResize>),
        ) -> bool {
            let counted = if node.is_leaf() {
                touched.contains(&node.start)
            } else {
                let (l, r) = node.children();
                let (l, r) = (go(p, l, touched, kind, out), go(p, r, touched, kind, out));
                l || r
            };
            if !counted {
                return false;
            }
            let used: usize = (node.start..node.end)
                .map(|l| p.storage().units_used(l))
                .sum();
            let max_depth = p.tree().max_depth();
            let cap = p.storage().leaf_units() * node.len();
            let over = used > BOUNDS.max_units(cap, node.depth, max_depth);
            let under = used < BOUNDS.min_units(cap, node.depth, max_depth);
            let violates = match kind {
                BoundKind::Upper => over,
                BoundKind::Lower => under,
                BoundKind::Both => over || under,
            };
            if violates && node.depth == 0 {
                out.1 = Some(if over {
                    RootResize::Grow
                } else {
                    RootResize::Shrink
                });
            } else if !violates && !node.is_leaf() {
                out.0.push(node);
            }
            violates
        }
        let mut out = (Vec::new(), None);
        go(p, p.tree().root(), touched, kind, &mut out);
        let all = std::mem::take(&mut out.0);
        if out.1.is_none() {
            out.0.extend(
                all.iter()
                    .filter(|c| !all.iter().any(|o| o != *c && o.contains(c))),
            );
            out.0.sort_unstable_by_key(|n| n.start);
        }
        out
    }

    #[test]
    fn count_phase_matches_the_naive_rule() {
        use crate::leaf::SharedLeaves;
        use cpma_workloads::SplitMix64;
        let mut rng = SplitMix64::new(7);
        let (mut resized, mut ranged, mut quiet) = (0, 0, 0);
        for round in 0..300 {
            // Leaf counts that are not powers of two: both leaf depths occur.
            let n = [700u64, 3_000, 5_000, 20_000, 33_333][round % 5];
            let mut p = Pma::from_sorted(&(0..n).collect::<Vec<_>>());
            let (leaves, cap) = (p.storage().num_leaves(), p.storage().leaf_units());
            let depths: Vec<u32> = (0..leaves)
                .map(|l| p.tree().path_to_leaf(l).last().unwrap().depth)
                .collect();
            assert!(depths.iter().any(|&d| d != depths[0]), "{leaves} leaves");
            // Disturb a few leaves (sometimes a whole stretch, so violations
            // climb): over-fill, drain, or halve.
            let mut touched = Vec::new();
            for _ in 0..1 + rng.next_below(6) {
                let first = rng.next_below(leaves as u64) as usize;
                let widest = 1 + rng.next_below(leaves as u64 / 2);
                let stretch = 1 + rng.next_below(widest) as usize;
                let how = rng.next_below(4);
                for leaf in first..leaves.min(first + stretch) {
                    if touched.contains(&leaf) {
                        continue;
                    }
                    let mut elems = Vec::new();
                    p.storage().collect_leaf(leaf, &mut elems);
                    match how {
                        0 => {
                            force_fill(&mut p, leaf, cap / 8 + rng.next_below(cap as u64) as usize)
                        }
                        1 => force_fill(&mut p, leaf, cap * (1 + round % 3)),
                        _ => {
                            elems.truncate(elems.len() / (how as usize - 1));
                            let shared = p.storage_mut().shared();
                            // SAFETY: single-threaded test, one leaf at a time.
                            unsafe {
                                shared.apply_run(
                                    leaf,
                                    Removes::new(&elems),
                                    &mut crate::leaf::LeafScratch::new(),
                                );
                            }
                        }
                    }
                    touched.push(leaf);
                }
            }
            // Touched but undisturbed leaves ride along.
            touched.extend((0..4).map(|_| rng.next_below(leaves as u64) as usize));
            touched.sort_unstable();
            touched.dedup();
            for kind in [BoundKind::Upper, BoundKind::Lower, BoundKind::Both] {
                TRACE.with(|t| t.borrow_mut().clear());
                let got = count_phase(&p, &touched, kind);
                let trace = TRACE.with(|t| t.take());
                let nodes = trace.iter().filter(|e| e.is_none()).count();
                let mut reads = vec![0; leaves];
                trace.iter().flatten().for_each(|&leaf| reads[leaf] += 1);
                let what = format!("round {round}, {kind:?}, touched {touched:?}");
                assert_eq!(
                    (got.ranges.clone(), got.resize_root),
                    naive(&p, &touched, kind),
                    "{what}"
                );
                // Work: nothing below the root is visited for a batch that
                // leaves every leaf inside both leaf bands, and no leaf is
                // read more than twice (the filter, then the walk).
                let safe = p.safe_leaf_units(kind);
                let suspect = |l: &usize| !safe.contains(&p.storage().units_used(*l));
                if !touched.iter().any(suspect) {
                    assert_eq!(nodes, 0, "{what}");
                    quiet += 1;
                }
                assert!(reads.iter().all(|&r| r <= 2), "{what}: reads {reads:?}");
                resized += usize::from(got.resize_root.is_some());
                ranged += usize::from(!got.ranges.is_empty());
            }
        }
        assert!(
            resized > 20 && ranged > 200 && quiet > 20,
            "{resized} / {ranged} / {quiet}"
        );
    }
}
