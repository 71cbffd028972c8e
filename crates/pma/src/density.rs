//! Height-interpolated density bounds for the implicit PMA tree.
//!
//! "Each node of the PMA tree has an upper density bound that determines the
//! allowed number of occupied cells in that node. ... The density bound of a
//! node depends on its height." (§3). Bounds are linear in the node's depth:
//! leaves tolerate the highest density (they absorb inserts), the root the
//! lowest (root violation triggers a resize). Lower bounds are symmetric and
//! drive shrinking on deletes.
//!
//! In the CPMA the same machinery runs on **byte** densities: "The density
//! in a CPMA node is the ratio of the number of filled bytes to the total
//! number of bytes available in the node" (§5). This module is agnostic to
//! the unit.

/// Density thresholds. All values are fractions of a node's unit capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct DensityBounds {
    /// Maximum density allowed in a leaf (depth = max).
    pub upper_leaf: f64,
    /// Maximum density allowed at the root; exceeding it grows the array.
    pub upper_root: f64,
    /// Minimum density required in a leaf (enforced on the delete path).
    pub lower_leaf: f64,
    /// Minimum density required at the root; undershooting it shrinks.
    pub lower_root: f64,
    /// Density targeted when (re)building, growing, or shrinking. Sits
    /// strictly inside the root band so resizes do not immediately re-trigger.
    pub rebuild_target: f64,
}

/// The bounds every PMA runs on — classic PMA parameters (Bender et al. /
/// Wheatman-Xu style): leaves run hot, the root keeps global slack. The
/// paper fixes them; `bounds_nest` pins the relations the maintenance
/// algorithms rely on.
pub(crate) const BOUNDS: DensityBounds = DensityBounds {
    upper_leaf: 0.9,
    upper_root: 0.7,
    lower_leaf: 0.08,
    lower_root: 0.3,
    rebuild_target: 0.55,
};

impl DensityBounds {
    /// Upper density bound for a node at `depth`, where the root has depth 0
    /// and leaves have depth `max_depth`. Interpolates linearly from
    /// `upper_root` (depth 0) to `upper_leaf` (max depth).
    #[inline]
    pub fn upper(&self, depth: u32, max_depth: u32) -> f64 {
        if max_depth == 0 {
            return self.upper_root;
        }
        let t = depth as f64 / max_depth as f64;
        self.upper_root + (self.upper_leaf - self.upper_root) * t
    }

    /// Lower density bound for a node at `depth` (root = 0). Interpolates
    /// from `lower_root` down to `lower_leaf` at the leaves.
    #[inline]
    pub fn lower(&self, depth: u32, max_depth: u32) -> f64 {
        if max_depth == 0 {
            return self.lower_root;
        }
        let t = depth as f64 / max_depth as f64;
        self.lower_root + (self.lower_leaf - self.lower_root) * t
    }

    /// Maximum units a node of `capacity` units at `depth` may hold.
    /// (The 1e-9 nudge keeps exact products like 0.9·100 from rounding the
    /// wrong way.)
    #[inline]
    pub fn max_units(&self, capacity: usize, depth: u32, max_depth: u32) -> usize {
        (self.upper(depth, max_depth) * capacity as f64 + 1e-9).floor() as usize
    }

    /// Minimum units a node of `capacity` units at `depth` should hold.
    #[inline]
    pub fn min_units(&self, capacity: usize, depth: u32, max_depth: u32) -> usize {
        (self.lower(depth, max_depth) * capacity as f64 - 1e-9).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The relations the maintenance algorithms rely on: each band nests
    /// inside the next-deeper one, and a rebuild lands strictly inside the
    /// root band so a resize never re-triggers itself.
    #[test]
    fn bounds_nest() {
        let b = BOUNDS;
        assert!(0.0 < b.upper_leaf && b.upper_leaf <= 1.0);
        assert!(b.upper_root < b.upper_leaf);
        assert!(0.0 <= b.lower_leaf && b.lower_leaf < b.lower_root);
        assert!(b.lower_root < b.rebuild_target && b.rebuild_target < b.upper_root);
    }

    #[test]
    fn upper_monotone_in_depth() {
        let b = BOUNDS;
        let h = 10;
        for d in 0..h {
            assert!(
                b.upper(d, h) <= b.upper(d + 1, h) + 1e-12,
                "upper bound must loosen toward the leaves"
            );
            assert!(b.lower(d, h) >= b.lower(d + 1, h) - 1e-12);
        }
        assert!((b.upper(0, h) - b.upper_root).abs() < 1e-12);
        assert!((b.upper(h, h) - b.upper_leaf).abs() < 1e-12);
        assert!((b.lower(0, h) - b.lower_root).abs() < 1e-12);
        assert!((b.lower(h, h) - b.lower_leaf).abs() < 1e-12);
    }

    #[test]
    fn bands_never_cross() {
        let b = BOUNDS;
        for h in [0u32, 1, 5, 30] {
            for d in 0..=h {
                assert!(b.lower(d, h) < b.upper(d, h));
            }
        }
    }

    #[test]
    fn unit_thresholds() {
        let b = BOUNDS;
        // Root of a 1000-unit tree of depth 4.
        assert_eq!(b.max_units(1000, 0, 4), 700);
        assert_eq!(b.min_units(1000, 0, 4), 300);
        // Leaf bounds.
        assert_eq!(b.max_units(100, 4, 4), 90);
        assert_eq!(b.min_units(100, 4, 4), 8);
    }

    #[test]
    fn degenerate_single_node_tree() {
        let b = BOUNDS;
        // A one-leaf PMA: the leaf *is* the root; use the root band so the
        // structure grows before the single leaf is full.
        assert!((b.upper(0, 0) - b.upper_root).abs() < 1e-12);
        assert!((b.lower(0, 0) - b.lower_root).abs() < 1e-12);
    }
}
