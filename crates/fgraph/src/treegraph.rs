//! The C-PaC and Aspen graph baselines: one compressed tree per vertex.
//!
//! Both comparators of the paper's §6 store "compressed trees (one per
//! vertex)": C-PaC a PaC-tree per adjacency set (arXiv 2204.06077), Aspen
//! a C-tree (the paper's reference \[36]). [`TreeGraph`] is that shape over
//! any set backend, and [`PacGraph`] / [`AspenGraph`] name the two
//! instances. The vertex level is a flat vector indexed by vertex id — a
//! simplification of CPAM's and Aspen's vertex trees that, if anything,
//! *favours* the baselines (vertex lookup is O(1) here instead of a tree
//! descent), making F-Graph's measured advantage conservative.

use crate::{assert_endpoints, unpack_edge, GraphScan};
use cpma_api::{BatchSet, RangeSet};
use cpma_baselines::{CPac, CTreeSet};
use rayon::prelude::*;

/// A graph over `0..n` holding each vertex's out-neighbours in a set `T`.
pub struct TreeGraph<T> {
    verts: Vec<T>,
    m: usize,
}

/// Per-vertex compressed PaC-trees (the paper's C-PaC comparator).
pub type PacGraph = TreeGraph<CPac>;

/// Per-vertex Aspen-style C-trees.
pub type AspenGraph = TreeGraph<CTreeSet>;

/// Pair each source's run of a sorted packed-edge slice with that source's
/// vertex, in one ordered pass over `verts`: the runs have distinct
/// ascending sources, so each gets its own `&mut`.
///
/// # Panics
///
/// If a source is not a vertex of `verts`.
fn groups_by_src<'v, 'e, T>(
    mut verts: &'v mut [T],
    edges: &'e [u64],
) -> Vec<(&'v mut T, &'e [u64])> {
    let n = verts.len();
    let mut out = Vec::new();
    // Vertex id of `verts[0]`.
    let mut base = 0;
    let mut i = 0;
    while i < edges.len() {
        let src = unpack_edge(edges[i]).0;
        let j = if src == u32::MAX {
            edges.len() // all remaining edges share the maximal source
        } else {
            let hi = (src as u64 + 1) << 32;
            i + edges[i..].partition_point(|&e| e < hi)
        };
        let Some((vert, rest)) = std::mem::take(&mut verts)
            .get_mut(src as usize - base..)
            .and_then(<[T]>::split_first_mut)
        else {
            panic!("edge source {src} is not a vertex of a {n}-vertex graph");
        };
        out.push((vert, &edges[i..j]));
        verts = rest;
        base = src as usize + 1;
        i = j;
    }
    out
}

/// The destinations of one source's run of packed edges.
fn dsts(edges: &[u64]) -> Vec<u64> {
    edges.iter().map(|&e| unpack_edge(e).1 as u64).collect()
}

impl<T: BatchSet + RangeSet + Send + Sync> TreeGraph<T> {
    /// Empty graph over `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            verts: (0..n).map(|_| T::new_set()).collect(),
            m: 0,
        }
    }

    /// Build from sorted, deduplicated packed edges.
    ///
    /// # Panics
    ///
    /// If an endpoint is not a vertex of `0..n`.
    pub fn from_edges(n: usize, edges: &[u64]) -> Self {
        assert_endpoints(n, edges);
        let mut g = Self::new(n);
        groups_by_src(&mut g.verts, edges)
            .into_par_iter()
            .for_each(|(vert, es)| *vert = T::build_sorted(&dsts(es)));
        g.m = edges.len();
        g
    }

    /// Apply `update` to each source's deduplicated destinations, the
    /// sources in parallel; returns the summed counts.
    fn update_by_src(
        &mut self,
        batch: &mut [u64],
        sorted: bool,
        update: impl Fn(&mut T, &[u64]) -> usize + Sync,
    ) -> usize {
        if !sorted {
            batch.par_sort_unstable();
        }
        groups_by_src(&mut self.verts, batch)
            .into_par_iter()
            .map(|(vert, es)| {
                let mut dsts = dsts(es);
                dsts.dedup();
                update(vert, &dsts)
            })
            .sum()
    }

    /// Insert a batch of directed packed edges; returns edges added.
    ///
    /// # Panics
    ///
    /// If an endpoint is not a vertex of the graph.
    pub fn insert_edges(&mut self, batch: &mut [u64], sorted: bool) -> usize {
        assert_endpoints(self.verts.len(), batch);
        let added = self.update_by_src(batch, sorted, T::insert_batch_sorted);
        self.m += added;
        added
    }

    /// Remove a batch of directed packed edges; returns edges removed.
    pub fn delete_edges(&mut self, batch: &mut [u64], sorted: bool) -> usize {
        let removed = self.update_by_src(batch, sorted, T::remove_batch_sorted);
        self.m -= removed;
        removed
    }

    /// Edge-existence test.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.verts[src as usize].contains(dst as u64)
    }

    /// Bytes of backing memory (per-vertex trees + the vertex vector).
    pub fn size_bytes(&self) -> usize {
        let trees: usize = self.verts.par_iter().map(|t| t.size_bytes()).sum();
        trees + self.verts.len() * std::mem::size_of::<T>()
    }
}

impl<T: BatchSet + RangeSet + Send + Sync> GraphScan for TreeGraph<T> {
    fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn degree(&self, v: u32) -> usize {
        self.verts[v as usize].len()
    }

    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32) -> bool) {
        self.verts[v as usize].scan_chunks_from(0, &mut |chunk| chunk.iter().all(|&e| f(e as u32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_edge;

    #[test]
    fn groups_partition_edges() {
        let edges = vec![
            pack_edge(1, 2),
            pack_edge(1, 5),
            pack_edge(3, 0),
            pack_edge(7, 7),
        ];
        let mut verts: Vec<u32> = (0..8).collect();
        let groups = groups_by_src(&mut verts, &edges);
        let got: Vec<(u32, &[u64])> = groups.into_iter().map(|(v, es)| (*v, es)).collect();
        assert_eq!(
            got,
            vec![(1, &edges[..2]), (3, &edges[2..3]), (7, &edges[3..4])]
        );
    }

    fn build_insert_delete<T: BatchSet + RangeSet + Send + Sync>() {
        let mut edges = vec![
            pack_edge(0, 1),
            pack_edge(1, 0),
            pack_edge(1, 2),
            pack_edge(2, 1),
        ];
        edges.sort_unstable();
        let mut g = TreeGraph::<T>::from_edges(4, &edges);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        // Unsorted, with a duplicate.
        let mut b = vec![pack_edge(3, 0), pack_edge(0, 3), pack_edge(3, 0)];
        assert_eq!(g.insert_edges(&mut b, false), 2);
        assert!(g.has_edge(3, 0));
        let mut d = vec![pack_edge(1, 2), pack_edge(2, 1)];
        assert_eq!(g.delete_edges(&mut d, true), 2);
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.num_edges(), 4);
        let mut nbrs = Vec::new();
        g.for_each_neighbor(0, &mut |x| {
            nbrs.push(x);
            true
        });
        assert_eq!(nbrs, vec![1, 3]);
        // An early stop ends the scan.
        let mut first = Vec::new();
        g.for_each_neighbor(0, &mut |x| {
            first.push(x);
            false
        });
        assert_eq!(first, vec![1]);
    }

    #[test]
    fn pac_graph_builds_inserts_and_deletes() {
        build_insert_delete::<CPac>();
    }

    #[test]
    fn aspen_graph_builds_inserts_and_deletes() {
        build_insert_delete::<CTreeSet>();
    }
}
