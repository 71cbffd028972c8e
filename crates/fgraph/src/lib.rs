//! F-Graph and the dynamic-graph evaluation substrate (§6 of the CPMA
//! paper).
//!
//! The paper demonstrates the CPMA on dynamic-graph processing: F-Graph
//! stores an entire graph in **one** CPMA of packed `(src << 32) | dst`
//! edges, and is compared against C-PaC (per-vertex compressed PaC-trees)
//! and Aspen (per-vertex C-trees) on PageRank, Connected Components, and
//! Betweenness Centrality, all "via the Ligra interface" so the containers
//! are the only variable.
//!
//! * [`GraphScan`] — the neighbor-iteration interface all algorithms use;
//! * [`Csr`] — static Compressed Sparse Row reference (correctness oracle);
//! * [`FGraph`] — the paper's system: one CPMA, offsets rebuilt on demand;
//! * [`TreeGraph`] — the baseline containers, one tree per vertex:
//!   [`PacGraph`] (C-PaC) and [`AspenGraph`] (C-trees);
//! * [`ligra`] — `VertexSubset` + `edge_map` (sparse/dense with switching);
//! * [`algos`] — BFS, PageRank, label-propagation CC, Brandes BC.

pub mod algos;
pub mod csr;
pub mod fgraph;
pub mod ligra;
pub mod treegraph;

pub use csr::Csr;
pub use fgraph::{EdgeSet, FGraph, FGraphSnapshot, SetGraph, SetGraphSnapshot};
pub use ligra::{edge_map, VertexSubset};
pub use treegraph::{AspenGraph, PacGraph, TreeGraph};

/// Pack a directed edge the way F-Graph stores it: source in the upper 32
/// bits, destination in the lower 32 (§6, "F-Graph description").
#[inline]
pub fn pack_edge(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Inverse of [`pack_edge`].
#[inline]
pub fn unpack_edge(e: u64) -> (u32, u32) {
    ((e >> 32) as u32, e as u32)
}

/// Neighbor-scan interface shared by every container (the role the Ligra
/// `Graph` abstraction plays in the paper's evaluation: "all systems run
/// the same algorithms via the Ligra interface").
pub trait GraphScan: Send + Sync {
    /// Number of vertices (fixed id space `0..n`).
    fn num_vertices(&self) -> usize;
    /// Number of directed edges stored.
    fn num_edges(&self) -> usize;
    /// Out-degree of `v` (== in-degree: graphs are symmetrized).
    fn degree(&self, v: u32) -> usize;
    /// Visit `v`'s neighbors in ascending order; stop early on `false`.
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32) -> bool);

    /// Dense pull: `out[v] = Σ_{u ∈ N(v)} weights[u]` for every vertex —
    /// the whole-graph kernel behind PageRank. The default pulls per
    /// vertex; flat containers override it with a single pass over the
    /// edge array (the paper's "arbitrary-order algorithms ... can be cast
    /// as a straightforward pass through the data structure").
    fn pull_accumulate(&self, weights: &[f64], out: &mut [f64]) {
        use rayon::prelude::*;
        debug_assert_eq!(weights.len(), self.num_vertices());
        debug_assert_eq!(out.len(), self.num_vertices());
        out.par_iter_mut().enumerate().for_each(|(v, o)| {
            let mut acc = 0.0;
            self.for_each_neighbor(v as u32, &mut |u| {
                acc += weights[u as usize];
                true
            });
            *o = acc;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_packing_roundtrip() {
        for (s, d) in [(0u32, 0u32), (7, 9), (u32::MAX, 1)] {
            assert_eq!(unpack_edge(pack_edge(s, d)), (s, d));
        }
    }
}
