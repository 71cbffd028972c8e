//! RMAT (recursive-matrix) edge generator.
//!
//! Used in two places in the paper: the graph-update benchmark samples
//! directed edges "from an RMAT generator (with a=0.5; b=c=0.1; d=0.3 to
//! match the distribution from the PaC-tree paper)" (§6), and — in this
//! reproduction — RMAT graphs stand in for the SNAP social networks
//! (LiveJournal/Orkut/Twitter/Friendster), which we cannot download; RMAT
//! produces the same heavy-tailed degree distribution those graphs exhibit
//! (see "Substitutions" in REPRODUCTION.md).

use crate::pack_edge;
use crate::rng::{mix64, SplitMix64};
use rayon::prelude::*;

/// RMAT generator over a `2^scale × 2^scale` adjacency matrix.
#[derive(Clone, Debug)]
pub struct RmatGenerator {
    scale: u32,
    a: f64,
    ab: f64,
    abc: f64,
    seed: u64,
}

impl RmatGenerator {
    /// New generator; quadrant probabilities must sum to 1.
    pub fn new(scale: u32, a: f64, b: f64, c: f64, d: f64, seed: u64) -> Self {
        assert!((1..=32).contains(&scale));
        assert!(
            (a + b + c + d - 1.0).abs() < 1e-9,
            "probabilities must sum to 1"
        );
        Self {
            scale,
            a,
            ab: a + b,
            abc: a + b + c,
            seed,
        }
    }

    /// The paper's parameters: a=0.5, b=c=0.1, d=0.3.
    pub fn paper_config(scale: u32, seed: u64) -> Self {
        Self::new(scale, 0.5, 0.1, 0.1, 0.3, seed)
    }

    /// Number of vertices (2^scale).
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Sample one directed edge with an explicit RNG.
    #[inline]
    fn sample_with(&self, rng: &mut SplitMix64) -> (u32, u32) {
        let mut src = 0u64;
        let mut dst = 0u64;
        for _ in 0..self.scale {
            src <<= 1;
            dst <<= 1;
            let r = rng.next_f64();
            if r < self.a {
                // top-left quadrant: no bits set
            } else if r < self.ab {
                dst |= 1;
            } else if r < self.abc {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        (src as u32, dst as u32)
    }

    /// Generate `count` directed edges (with possible duplicates, as in the
    /// paper's insert streams), packed as `u64`s. Deterministic in the seed
    /// regardless of parallelism.
    pub fn directed_edges(&self, count: usize) -> Vec<u64> {
        const CHUNK: usize = 1 << 15;
        let mut out = vec![0u64; count];
        out.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                // Not `ci · γ` with SplitMix64's own increment γ: chunk `i`
                // would then start where chunk 0 stands after `i` draws and
                // replay it. `mix64(0) == 0`, so chunk 0 keeps the plain seed.
                let mut rng = SplitMix64::new(self.seed ^ mix64(ci as u64));
                for e in chunk.iter_mut() {
                    let (s, d) = self.sample_with(&mut rng);
                    *e = pack_edge(s, d);
                }
            });
        out
    }

    /// Generate a simple undirected graph with roughly `target_edges`
    /// *undirected* edges: samples directed edges, drops self-loops,
    /// symmetrizes, dedups. Returns sorted packed edges (both directions
    /// present). The result is what the graph benchmarks load as the base
    /// graph.
    pub fn undirected_graph(&self, target_edges: usize) -> Vec<u64> {
        // Oversample: duplicates and self-loops shrink the result.
        let mut sampled = self.directed_edges(target_edges * 2);
        let mut edges = Vec::with_capacity(sampled.len() * 2);
        for &e in &sampled {
            let (s, d) = crate::unpack_edge(e);
            if s != d {
                edges.push(pack_edge(s, d));
                edges.push(pack_edge(d, s));
            }
        }
        sampled.clear();
        edges.par_sort_unstable();
        edges.dedup();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unpack_edge;

    #[test]
    fn edges_within_vertex_space() {
        let g = RmatGenerator::paper_config(10, 1);
        for &e in &g.directed_edges(5000) {
            let (s, d) = unpack_edge(e);
            assert!((s as u64) < g.num_vertices());
            assert!((d as u64) < g.num_vertices());
        }
    }

    #[test]
    fn deterministic() {
        let g = RmatGenerator::paper_config(12, 5);
        assert_eq!(g.directed_edges(10_000), g.directed_edges(10_000));
    }

    #[test]
    fn first_chunk_stream_is_pinned() {
        // One chunk is what `benchmark/` draws per generator: its stream
        // must not move when the chunk seeding does.
        let e = RmatGenerator::paper_config(18, 1).directed_edges(1 << 15);
        let at = |i: usize| e[i];
        assert_eq!(at(0), 0x1994300039d11);
        assert_eq!(at(1), 0x3014000010371);
        assert_eq!(at(2), 0x1f7310003b331);
        assert_eq!(at(1000), 0x76a30000766b);
        assert_eq!(at(20_000), 0x2d0300008f21);
        assert_eq!(at((1 << 15) - 1), 0x2afc600006fc4);
        let fold = e.iter().fold(0u64, |a, &b| a.rotate_left(5) ^ b);
        assert_eq!(fold, 0xb341a45afd780a43);
    }

    #[test]
    fn chunks_do_not_replay_each_other() {
        // 62 chunks at scale 18. Seeded `seed ^ i·γ` they overlapped and
        // 2 M draws held 588 181 distinct edges.
        let g = RmatGenerator::paper_config(18, 1);
        let edges = g.directed_edges(2_000_000);
        let mut distinct = edges.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 1_800_000, "{} distinct", distinct.len());
        for budget in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(budget)
                .build()
                .unwrap();
            let got = pool.install(|| g.directed_edges(200_000));
            assert_eq!(got, edges[..200_000], "budget {budget}");
        }
    }

    #[test]
    fn skewed_out_degrees() {
        // a=0.5 concentrates mass on low vertex ids: the max out-degree must
        // far exceed the average.
        let g = RmatGenerator::paper_config(12, 3);
        let edges = g.directed_edges(100_000);
        let mut deg = vec![0u32; 1 << 12];
        for &e in &edges {
            deg[unpack_edge(e).0 as usize] += 1;
        }
        let avg = 100_000.0 / (1 << 12) as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > avg * 5.0, "max {max} vs avg {avg}");
    }

    #[test]
    fn undirected_graph_is_symmetric_simple() {
        let g = RmatGenerator::paper_config(8, 9);
        let edges = g.undirected_graph(2000);
        let set: std::collections::HashSet<u64> = edges.iter().copied().collect();
        assert_eq!(set.len(), edges.len(), "duplicates remain");
        for &e in &edges {
            let (s, d) = unpack_edge(e);
            assert_ne!(s, d, "self-loop remains");
            assert!(set.contains(&pack_edge(d, s)), "missing reverse edge");
        }
        // Sorted.
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }
}
