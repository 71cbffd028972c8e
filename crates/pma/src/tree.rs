//! The implicit PMA tree, realized as recursive range halving over leaves.
//!
//! "The PMA defines an implicit binary tree with leaves of size Θ(log N)
//! cells. ... Every node in the PMA tree has a corresponding region of
//! cells." (§3). Because the growing factor is 1.2× (Appendix C), the number
//! of leaves is rarely a power of two, so instead of bit tricks we define
//! the tree by recursive halving of the leaf range `[0, L)`: a node *is* a
//! half-open leaf range, its children are the two halves. This keeps every
//! operation O(log L) without restricting L.

/// A node of the implicit tree: a half-open range of leaves plus its depth
/// (root = depth 0). Two nodes are the same node iff their ranges are equal;
/// depth is derived but carried for density-bound lookups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Node {
    /// First leaf of the region.
    pub start: usize,
    /// One past the last leaf of the region.
    pub end: usize,
    /// Depth from the root (root = 0).
    pub depth: u32,
}

impl Node {
    /// Number of leaves in the region.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a tree node's range is never empty
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for single-leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.len() == 1
    }

    /// The two children of an internal node (left gets the smaller half when
    /// the range is odd, matching `start + len/2` splitting everywhere).
    #[inline]
    pub fn children(&self) -> (Node, Node) {
        debug_assert!(!self.is_leaf());
        let mid = self.start + self.len() / 2;
        (
            Node {
                start: self.start,
                end: mid,
                depth: self.depth + 1,
            },
            Node {
                start: mid,
                end: self.end,
                depth: self.depth + 1,
            },
        )
    }

    /// True if `other`'s region is contained in ours.
    #[inline]
    pub fn contains(&self, other: &Node) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// The implicit tree over `num_leaves` leaves.
#[derive(Clone, Copy, Debug)]
pub struct ImplicitTree {
    num_leaves: usize,
}

impl ImplicitTree {
    /// Tree over `num_leaves` ≥ 1 leaves.
    pub fn new(num_leaves: usize) -> Self {
        assert!(num_leaves >= 1);
        Self { num_leaves }
    }

    /// Number of leaves.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// The root node `[0, L)`.
    #[inline]
    pub fn root(&self) -> Node {
        Node {
            start: 0,
            end: self.num_leaves,
            depth: 0,
        }
    }

    /// Maximum depth of any leaf = ⌈log₂ L⌉. With range halving every leaf
    /// sits at depth ⌈log₂ L⌉ or ⌈log₂ L⌉ − 1.
    #[inline]
    pub fn max_depth(&self) -> u32 {
        usize::BITS - (self.num_leaves - 1).leading_zeros().min(usize::BITS)
    }

    /// The root-to-leaf path for `leaf`, root first, leaf node last.
    /// O(log L) time and output size. Only tests walk paths; the update
    /// paths need a leaf's depth alone, which is O(1).
    #[cfg(test)]
    pub fn path_to_leaf(&self, leaf: usize) -> Vec<Node> {
        debug_assert!(leaf < self.num_leaves);
        let mut path = Vec::with_capacity(self.max_depth() as usize + 1);
        let mut node = self.root();
        path.push(node);
        while !node.is_leaf() {
            let (l, r) = node.children();
            node = if leaf < l.end { l } else { r };
            path.push(node);
        }
        path
    }

    /// Parent of `node`, or `None` for the root. O(log L): re-descends from
    /// the root.
    pub fn parent_of(&self, node: Node) -> Option<Node> {
        if node.len() == self.num_leaves {
            return None;
        }
        let mut cur = self.root();
        loop {
            debug_assert!(cur.contains(&node) && cur != node);
            let (l, r) = cur.children();
            if l == node || r == node {
                return Some(cur);
            }
            cur = if node.start < l.end { l } else { r };
            debug_assert!(cur.contains(&node), "node is not a tree node");
        }
    }

    /// True if `node` is a node of this tree (reachable by halving).
    pub fn is_tree_node(&self, node: Node) -> bool {
        let mut cur = self.root();
        loop {
            if cur == node {
                return true;
            }
            if cur.is_leaf() || !cur.contains(&node) {
                return false;
            }
            let (l, r) = cur.children();
            cur = if node.start < l.end { l } else { r };
            if !cur.contains(&node) {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_leaf_basics() {
        let t = ImplicitTree::new(5);
        assert_eq!(
            t.root(),
            Node {
                start: 0,
                end: 5,
                depth: 0
            }
        );
        assert_eq!(t.max_depth(), 3);
        let leaf = *t.path_to_leaf(3).last().unwrap();
        assert_eq!((leaf.start, leaf.end), (3, 4));
    }

    #[test]
    fn single_leaf_tree() {
        let t = ImplicitTree::new(1);
        assert_eq!(t.max_depth(), 0);
        assert!(t.root().is_leaf());
        assert_eq!(t.path_to_leaf(0), vec![t.root()]);
        assert_eq!(t.parent_of(t.root()), None);
    }

    #[test]
    fn children_partition_parent() {
        for leaves in [2usize, 3, 7, 8, 13, 100] {
            let t = ImplicitTree::new(leaves);
            let mut stack = vec![t.root()];
            while let Some(n) = stack.pop() {
                if n.is_leaf() {
                    continue;
                }
                let (l, r) = n.children();
                assert_eq!(l.start, n.start);
                assert_eq!(l.end, r.start);
                assert_eq!(r.end, n.end);
                assert!(l.len() >= 1 && r.len() >= 1);
                // Halving keeps the tree balanced: |left - right| ≤ 1.
                assert!(l.len().abs_diff(r.len()) <= 1);
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn path_is_consistent_with_children() {
        let t = ImplicitTree::new(11);
        for leaf in 0..11 {
            let path = t.path_to_leaf(leaf);
            assert_eq!(path[0], t.root());
            let last = *path.last().unwrap();
            assert!(last.is_leaf());
            assert_eq!(last.start, leaf);
            for w in path.windows(2) {
                let (l, r) = w[0].children();
                assert!(w[1] == l || w[1] == r);
                assert_eq!(w[1].depth, w[0].depth + 1);
            }
            // Depth of every leaf is max_depth or max_depth - 1.
            let d = last.depth;
            assert!(
                d == t.max_depth() || d + 1 == t.max_depth(),
                "leaf {leaf} depth {d}"
            );
        }
    }

    #[test]
    fn parent_inverts_children() {
        for leaves in [2usize, 3, 9, 16, 37] {
            let t = ImplicitTree::new(leaves);
            let mut stack = vec![t.root()];
            while let Some(n) = stack.pop() {
                if n.is_leaf() {
                    continue;
                }
                let (l, r) = n.children();
                assert_eq!(t.parent_of(l), Some(n));
                assert_eq!(t.parent_of(r), Some(n));
                stack.push(l);
                stack.push(r);
            }
        }
    }

    #[test]
    fn is_tree_node_accepts_only_halving_ranges() {
        let t = ImplicitTree::new(8);
        assert!(t.is_tree_node(Node {
            start: 0,
            end: 8,
            depth: 0
        }));
        assert!(t.is_tree_node(Node {
            start: 4,
            end: 6,
            depth: 2
        }));
        // [1,3) is not reachable by halving [0,8).
        assert!(!t.is_tree_node(Node {
            start: 1,
            end: 3,
            depth: 2
        }));
    }

    #[test]
    fn max_depth_formula() {
        for (leaves, depth) in [
            (1usize, 0u32),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
        ] {
            assert_eq!(ImplicitTree::new(leaves).max_depth(), depth, "L={leaves}");
        }
    }
}
