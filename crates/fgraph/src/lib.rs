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

pub use cpma_workloads::{pack_edge, unpack_edge};

/// Refuse a batch of packed edges that names a vertex outside `0..n`: one
/// parallel pass over `edges`, panicking on the first edge in batch order
/// whose source or destination is not a vertex. Every graph checks where
/// edges enter (build and insert), so a bad edge fails at its cause, not
/// later as an out-of-bounds index in a snapshot or an algorithm.
pub(crate) fn assert_endpoints(n: usize, edges: &[u64]) {
    use rayon::prelude::*;
    let outside = |(_, e): &(usize, u64)| {
        let (src, dst) = unpack_edge(*e);
        src as usize >= n || dst as usize >= n
    };
    let Some((_, e)) = edges.par_iter().copied().enumerate().filter(outside).min() else {
        return;
    };
    let (src, dst) = unpack_edge(e);
    if src as usize >= n {
        panic!("edge source {src} is not a vertex of a {n}-vertex graph");
    }
    panic!("edge destination {dst} is not a vertex of a {n}-vertex graph");
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

    /// Every graph type, built from or inserted `edge` on 4 vertices,
    /// panics with a message containing `what`.
    fn each_graph_refuses(edge: u64, what: &str) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let good = pack_edge(1, 2);
        assert!(good < edge, "the build takes sorted edges");
        let refuses = |graph: &str, enter: &dyn Fn(&mut [u64])| {
            let outcome = catch_unwind(AssertUnwindSafe(|| enter(&mut [good, edge])));
            let message = *outcome.unwrap_err().downcast::<String>().unwrap();
            assert!(message.contains(what), "{graph}: {message}");
        };
        macro_rules! refuses {
            ($($G:ty),+) => {$(
                refuses(concat!(stringify!($G), " build"), &|es| {
                    <$G>::from_edges(4, es);
                });
                refuses(concat!(stringify!($G), " insert"), &|es| {
                    <$G>::new(4).insert_edges(es, false);
                });
            )+};
        }
        refuses!(FGraph, SetGraph<cpma_pma::Pma>, PacGraph, AspenGraph);
    }

    #[test]
    fn a_source_past_the_last_vertex_panics() {
        each_graph_refuses(
            pack_edge(4, 0),
            "edge source 4 is not a vertex of a 4-vertex graph",
        );
    }

    #[test]
    fn a_destination_past_the_last_vertex_panics() {
        each_graph_refuses(
            pack_edge(2, 4),
            "edge destination 4 is not a vertex of a 4-vertex graph",
        );
    }
}
