//! F-Graph: a dynamic-graph container backed by **one** ordered edge set
//! (§6; the paper's instance stores packed edges in a CPMA).
//!
//! "F-Graph is built on a single batch-parallel CPMA with delta compression
//! and byte codes. It differs from traditional graph representations
//! because it uses only a single array to store both the vertex and edge
//! data." Edges are 64-bit words, source in the upper 32 bits, destination
//! in the lower 32; "the delta compression in the CPMA elides out the
//! source vertex in all edges except for the edges in the uncompressed PMA
//! leaf heads and the first edge of each vertex."
//!
//! The container itself ([`SetGraph`]) is generic over any
//! [`cpma_api::RangeSet`]/[`cpma_api::BatchSet`] backend (the [`EdgeSet`]
//! bound): [`FGraph`] is the paper's CPMA instantiation, while
//! `SetGraph<Pma>`, `SetGraph<BTreeSet<u64>>`, or any future backend drop
//! in unchanged — the same role the container abstraction plays in the
//! paper's own evaluation harness.
//!
//! Algorithms other than pure edge scans need per-vertex offsets; F-Graph
//! "must incur a fixed cost to reconstruct the vertex array of offsets" —
//! [`FGraph::snapshot`] is that reconstruction, and [`FGraphSnapshot`]
//! serves `degree` / neighbor scans straight off the backend's ordered
//! scans.

use crate::{pack_edge, unpack_edge, GraphScan};
use cpma_api::{BatchSet, ParallelChunks, RangeSet};
use cpma_pma::Cpma;
use std::sync::atomic::{AtomicU64, Ordering};

/// What F-Graph needs from its edge container: batch updates, ordered
/// scans, and chunked parallel traversal. Blanket-implemented for every
/// conforming set.
pub trait EdgeSet: BatchSet<u64> + RangeSet<u64> + ParallelChunks<u64> + Send + Sync {}

impl<T: BatchSet<u64> + RangeSet<u64> + ParallelChunks<u64> + Send + Sync> EdgeSet for T {}

/// Dynamic unweighted graph on a single ordered edge set. See module docs.
pub struct SetGraph<S: EdgeSet> {
    edges: S,
    n: usize,
}

/// The paper's F-Graph: a [`SetGraph`] on the CPMA.
pub type FGraph = SetGraph<Cpma>;

impl<S: EdgeSet> SetGraph<S> {
    /// Empty graph over vertex ids `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize + 1);
        Self {
            edges: S::new_set(),
            n,
        }
    }

    /// Build from sorted, deduplicated packed edges.
    pub fn from_edges(n: usize, edges: &[u64]) -> Self {
        assert!(n <= u32::MAX as usize + 1);
        Self {
            edges: S::build_sorted(edges),
            n,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Insert a batch of directed packed edges (duplicates and already-
    /// present edges are skipped); returns edges actually added.
    pub fn insert_edges(&mut self, batch: &mut [u64], sorted: bool) -> usize {
        self.edges.insert_batch(batch, sorted)
    }

    /// Remove a batch of directed packed edges; returns edges removed.
    pub fn delete_edges(&mut self, batch: &mut [u64], sorted: bool) -> usize {
        self.edges.remove_batch(batch, sorted)
    }

    /// Edge-existence test.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.edges.contains(pack_edge(src, dst))
    }

    /// Bytes of backing memory.
    pub fn size_bytes(&self) -> usize {
        self.edges.size_bytes()
    }

    /// The underlying edge set (read-only).
    pub fn backend(&self) -> &S {
        &self.edges
    }

    /// Rebuild the vertex offset array and return a scan handle. This is
    /// the fixed per-algorithm cost the paper measures (≈10% of BC's
    /// runtime); PR-style full scans could skip it, but we build it for
    /// every algorithm exactly as the paper's experiments do.
    pub fn snapshot(&self) -> SetGraphSnapshot<'_, S> {
        // Count edges per source over the backend's parallel chunks (one
        // atomic add per source-run per chunk — sources are contiguous in
        // the packed order), then prefix-sum into rank-of-first-edge.
        let counts: Vec<AtomicU64> = (0..self.n + 1).map(|_| AtomicU64::new(0)).collect();
        self.edges.par_chunks(&|chunk| {
            let mut i = 0;
            while i < chunk.len() {
                let (s, _) = unpack_edge(chunk[i]);
                let mut j = i + 1;
                while j < chunk.len() && unpack_edge(chunk[j]).0 == s {
                    j += 1;
                }
                counts[s as usize + 1].fetch_add((j - i) as u64, Ordering::Relaxed);
                i = j;
            }
        });
        let mut offsets: Vec<u64> = counts.into_iter().map(|a| a.into_inner()).collect();
        for v in 0..self.n {
            offsets[v + 1] += offsets[v];
        }
        SetGraphSnapshot { g: self, offsets }
    }
}

impl FGraph {
    /// The underlying CPMA (read-only); alias of [`SetGraph::backend`] for
    /// the paper's default instantiation.
    pub fn cpma(&self) -> &Cpma {
        &self.edges
    }
}

/// Read handle over a [`SetGraph`] with materialized vertex offsets;
/// neighbor scans decode directly from the backend's ordered leaves.
pub struct SetGraphSnapshot<'a, S: EdgeSet> {
    g: &'a SetGraph<S>,
    /// Rank of each vertex's first edge (length `n + 1`).
    offsets: Vec<u64>,
}

/// Snapshot of the paper's F-Graph (CPMA backend).
pub type FGraphSnapshot<'a> = SetGraphSnapshot<'a, Cpma>;

impl<S: EdgeSet> SetGraphSnapshot<'_, S> {
    /// Bytes used by the snapshot's auxiliary arrays.
    pub fn aux_bytes(&self) -> usize {
        self.offsets.len() * 8
    }
}

impl<S: EdgeSet> GraphScan for SetGraphSnapshot<'_, S> {
    fn num_vertices(&self) -> usize {
        self.g.n
    }

    fn num_edges(&self) -> usize {
        self.g.num_edges()
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Flat-scan pull: one pass over the packed edge array, visited as the
    /// backend's parallel chunks. A source whose run is interior to a chunk
    /// is written with plain stores (no other chunk can touch it), while
    /// runs that may continue across a chunk boundary accumulate
    /// atomically.
    fn pull_accumulate(&self, weights: &[f64], out: &mut [f64]) {
        let acc: Vec<AtomicU64> = (0..out.len()).map(|_| AtomicU64::new(0)).collect();
        let add = |src: u32, v: f64| {
            let cell = &acc[src as usize];
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return,
                    Err(c) => cur = c,
                }
            }
        };
        self.g.edges.par_chunks(&|chunk| {
            let mut cur_src: Option<u32> = None;
            let mut run = 0.0f64;
            let mut first_run = true;
            for &e in chunk {
                let (s, d) = unpack_edge(e);
                match cur_src {
                    Some(cs) if cs == s => run += weights[d as usize],
                    Some(cs) => {
                        if first_run {
                            add(cs, run); // may continue from the previous chunk
                            first_run = false;
                        } else {
                            // Interior run: only this chunk holds cs's edges.
                            acc[cs as usize].store(
                                (f64::from_bits(acc[cs as usize].load(Ordering::Relaxed)) + run)
                                    .to_bits(),
                                Ordering::Relaxed,
                            );
                        }
                        cur_src = Some(s);
                        run = weights[d as usize];
                    }
                    None => {
                        cur_src = Some(s);
                        run = weights[d as usize];
                    }
                }
            }
            if let Some(cs) = cur_src {
                add(cs, run); // may continue into the next chunk
            }
        });
        for (o, a) in out.iter_mut().zip(&acc) {
            *o = f64::from_bits(a.load(Ordering::Relaxed));
        }
    }

    /// `v`'s edges straight out of the backend's chunks: one indirect
    /// call per chunk, one per neighbour.
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32) -> bool) {
        if self.degree(v) == 0 {
            return;
        }
        self.g
            .edges
            .scan_chunks_from(pack_edge(v, 0), &mut |chunk| {
                chunk.iter().all(|&e| {
                    let (s, d) = unpack_edge(e);
                    s == v && f(d)
                })
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym_edges(pairs: &[(u32, u32)]) -> Vec<u64> {
        let mut edges = Vec::new();
        for &(a, b) in pairs {
            edges.push(pack_edge(a, b));
            edges.push(pack_edge(b, a));
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    #[test]
    fn build_and_query() {
        let edges = sym_edges(&[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let g = FGraph::from_edges(5, &edges);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        let s = g.snapshot();
        assert_eq!(s.degree(0), 2);
        assert_eq!(s.degree(2), 3);
        assert_eq!(s.degree(4), 0);
        let mut nbrs = Vec::new();
        s.for_each_neighbor(2, &mut |d| {
            nbrs.push(d);
            true
        });
        assert_eq!(nbrs, vec![0, 1, 3]);
    }

    #[test]
    fn incremental_inserts_visible_in_new_snapshot() {
        let mut g = FGraph::from_edges(10, &sym_edges(&[(0, 1)]));
        let mut batch = sym_edges(&[(1, 2), (2, 3), (0, 9)]);
        let added = g.insert_edges(&mut batch, true);
        assert_eq!(added, 6);
        let s = g.snapshot();
        assert_eq!(s.degree(0), 2);
        assert_eq!(s.degree(9), 1);
        let mut nbrs = Vec::new();
        s.for_each_neighbor(0, &mut |d| {
            nbrs.push(d);
            true
        });
        assert_eq!(nbrs, vec![1, 9]);
    }

    #[test]
    fn duplicate_and_existing_edges_skipped() {
        let mut g = FGraph::from_edges(4, &sym_edges(&[(0, 1)]));
        let mut batch = vec![pack_edge(0, 1), pack_edge(0, 1), pack_edge(1, 2)];
        let added = g.insert_edges(&mut batch, false);
        assert_eq!(added, 1);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn deletions() {
        let mut g = FGraph::from_edges(4, &sym_edges(&[(0, 1), (1, 2), (2, 3)]));
        let mut del = sym_edges(&[(1, 2)]);
        assert_eq!(g.delete_edges(&mut del, true), 2);
        assert!(!g.has_edge(1, 2));
        assert!(g.has_edge(0, 1));
        let s = g.snapshot();
        assert_eq!(s.degree(1), 1);
        assert_eq!(s.degree(2), 1);
    }

    #[test]
    fn neighbor_scan_spans_leaves() {
        // One high-degree vertex whose adjacency crosses many CPMA leaves.
        let mut pairs = Vec::new();
        for d in 1..5000u32 {
            pairs.push((0u32, d));
        }
        let edges = sym_edges(&pairs);
        let g = FGraph::from_edges(5000, &edges);
        let s = g.snapshot();
        assert_eq!(s.degree(0), 4999);
        let mut cnt = 0u32;
        let mut prev = 0u32;
        s.for_each_neighbor(0, &mut |d| {
            assert!(d > prev || cnt == 0);
            prev = d;
            cnt += 1;
            true
        });
        assert_eq!(cnt, 4999);
        // Early exit works mid-stream.
        let mut seen = 0;
        s.for_each_neighbor(0, &mut |_| {
            seen += 1;
            seen < 10
        });
        assert_eq!(seen, 10);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = FGraph::new(3);
        let s = g.snapshot();
        for v in 0..3 {
            assert_eq!(s.degree(v), 0);
            s.for_each_neighbor(v, &mut |_| panic!("no neighbors"));
        }
    }

    #[test]
    fn alternate_backends_present_the_same_graph() {
        use std::collections::BTreeSet;
        let edges = sym_edges(&[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let cpma_g: FGraph = FGraph::from_edges(6, &edges);
        let pma_g: SetGraph<cpma_pma::Pma<u64>> = SetGraph::from_edges(6, &edges);
        let btree_g: SetGraph<BTreeSet<u64>> = SetGraph::from_edges(6, &edges);
        let (a, b, c) = (cpma_g.snapshot(), pma_g.snapshot(), btree_g.snapshot());
        for v in 0..6u32 {
            assert_eq!(a.degree(v), b.degree(v));
            assert_eq!(a.degree(v), c.degree(v));
            let collect = |s: &dyn GraphScan| {
                let mut out = Vec::new();
                s.for_each_neighbor(v, &mut |d| {
                    out.push(d);
                    true
                });
                out
            };
            assert_eq!(collect(&a), collect(&b));
            assert_eq!(collect(&a), collect(&c));
        }
        // The flat pull kernel agrees across backends too.
        let w: Vec<f64> = (0..6).map(|i| i as f64 + 0.5).collect();
        let mut oa = vec![0.0; 6];
        let mut ob = vec![0.0; 6];
        a.pull_accumulate(&w, &mut oa);
        c.pull_accumulate(&w, &mut ob);
        for (x, y) in oa.iter().zip(&ob) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
