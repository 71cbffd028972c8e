//! Phase 2 of the batch update: work-efficient parallel counting.
//!
//! "This parallel algorithm avoids redundant work by processing the levels
//! serially from the leaves to the root and saving any counts for later
//! lookups by nodes in higher levels. At each level, we maintain a
//! thread-safe set of nodes that need to be counted. ... If any node at some
//! level i exceeds its density bound, the algorithm adds its parent to the
//! set of nodes to be counted at level i+1." (§4, Figure 5, Lemmas 2–3).
//!
//! Output: the *maximal* disjoint tree nodes to redistribute (nodes that
//! respect their bound but were counted because a child violated), or a
//! root-resize signal.

use crate::tree::Node;
use crate::{LeafStorage, PmaCore, PmaKey};
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for `(start, end)` node keys: the counting phase
/// performs thousands of cache probes per batch, and SipHash costs more
/// than the counting itself.
#[derive(Default)]
pub(crate) struct NodeHasher(u64);

impl Hasher for NodeHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E3779B97F4A7C15);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        let z = self.0;
        z ^ (z >> 29)
    }
}

type NodeCache = HashMap<(usize, usize), usize, BuildHasherDefault<NodeHasher>>;

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

/// Units of `node`, using `cache` for already-counted descendants so every
/// leaf is visited at most once across the whole phase (Lemma 2).
fn units_of<K: PmaKey, L: LeafStorage<K>>(
    core: &PmaCore<K, L>,
    cache: &NodeCache,
    node: Node,
) -> usize {
    if let Some(&u) = cache.get(&(node.start, node.end)) {
        return u;
    }
    if node.is_leaf() {
        return core.storage().units_used(node.start);
    }
    let (l, r) = node.children();
    units_of(core, cache, l) + units_of(core, cache, r)
}

/// Run the counting phase over the touched leaves (ascending, deduplicated
/// is not required — duplicates are removed here).
pub(crate) fn count_phase<K: PmaKey, L: LeafStorage<K>>(
    core: &PmaCore<K, L>,
    touched: &[usize],
    kind: BoundKind,
) -> CountOutcome {
    if touched.is_empty() {
        return CountOutcome::default();
    }
    let tree = core.tree();
    let max_depth = tree.max_depth();
    let leaf_cap = core.storage().leaf_units();
    let bounds = core.config().bounds;

    // to_count[d] = nodes awaiting counting at depth d.
    let mut to_count: Vec<Vec<Node>> = vec![Vec::new(); max_depth as usize + 1];
    for &leaf in touched {
        let node = tree.leaf_node(leaf);
        to_count[node.depth as usize].push(node);
    }

    let mut cache: NodeCache = NodeCache::default();
    let mut candidates: Vec<Node> = Vec::new();
    let mut resize_root: Option<RootResize> = None;

    for d in (0..=max_depth as usize).rev() {
        let mut nodes = std::mem::take(&mut to_count[d]);
        if nodes.is_empty() {
            continue;
        }
        nodes.sort_unstable_by_key(|n| n.start);
        nodes.dedup();
        // Count all nodes of this level in parallel; the cache is read-only
        // during the level and extended between levels (the paper's "levels
        // are processed serially, but all nodes at each level in parallel").
        // Small levels count serially — fork overhead exceeds the work
        // (grain scales inversely with the pool size).
        let grain = (4096 / rayon::current_num_threads().max(1)).max(64);
        let counted: Vec<(Node, usize)> = if nodes.len() <= grain {
            nodes
                .iter()
                .map(|&n| (n, units_of(core, &cache, n)))
                .collect()
        } else {
            nodes
                .par_iter()
                .map(|&n| (n, units_of(core, &cache, n)))
                .collect()
        };
        for (n, used) in counted {
            cache.insert((n.start, n.end), used);
            let cap = leaf_cap * n.len();
            let over = used > bounds.max_units(cap, n.depth, max_depth);
            let under = used < bounds.min_units(cap, n.depth, max_depth);
            let violates = match kind {
                BoundKind::Upper => over,
                BoundKind::Lower => under,
                BoundKind::Both => over || under,
            };
            if violates {
                match tree.parent_of(n) {
                    Some(p) => to_count[p.depth as usize].push(p),
                    None => {
                        resize_root = Some(if over {
                            RootResize::Grow
                        } else {
                            RootResize::Shrink
                        })
                    }
                }
            } else if !n.is_leaf() {
                // Counted because a child violated, and it satisfies its own
                // bound: a redistribution candidate.
                candidates.push(n);
            }
        }
    }

    if resize_root.is_some() {
        return CountOutcome {
            ranges: Vec::new(),
            resize_root,
        };
    }

    // Keep only maximal candidates (the family is laminar: candidates are
    // nested or disjoint).
    candidates.sort_unstable_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));
    let mut ranges: Vec<Node> = Vec::new();
    let mut max_end = 0usize;
    for n in candidates {
        if ranges.is_empty() || n.end > max_end {
            debug_assert!(n.start >= max_end, "candidates not laminar");
            max_end = n.end;
            ranges.push(n);
        }
    }
    CountOutcome {
        ranges,
        resize_root: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Inserts, Removes};
    use crate::Pma;

    /// Build a PMA and then force specific leaves over their bound by
    /// merging directly through the shared interface (bypassing public
    /// maintenance), so the counting phase sees genuine violations.
    fn force_fill(p: &mut Pma<u64>, leaf: usize, extra: usize) {
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
}
