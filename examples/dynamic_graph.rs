//! Dynamic-graph processing with F-Graph (§6 of the paper): stream edge
//! batches into a single-CPMA graph while periodically running analytics,
//! using the paper's phased update/compute model.
//!
//! Run with: `cargo run --release --example dynamic_graph`

use cpma::fgraph::algos::{bc, cc, pagerank};
use cpma::fgraph::{FGraph, SetGraph};
use cpma::pma::Pma;
use cpma::workloads::RmatGenerator;
use std::time::Instant;

fn main() {
    let scale = 14u32; // 16k vertices
    let n = 1usize << scale;
    let gen = RmatGenerator::paper_config(scale, 7);

    // Start from a seed graph, then stream batches of new edges.
    let base = gen.undirected_graph(n * 4);
    let mut g = FGraph::from_edges(n, &base);
    println!(
        "seed graph: {} vertices, {} directed edges, {:.2} MB",
        g.num_vertices(),
        g.num_edges(),
        g.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    for round in 0..5u64 {
        // Update phase: a batch of 100k directed edge insertions
        // (duplicates allowed, as in the paper's RMAT update streams).
        // One generator per round: edge draws are a pure function of the
        // seed, so distinct rounds need distinct seeds.
        let stream_gen = RmatGenerator::paper_config(scale, 1234 + round);
        let mut batch = stream_gen.directed_edges(100_000);
        let t = Instant::now();
        let added = g.insert_edges(&mut batch, false);
        let ingest = t.elapsed().as_secs_f64();

        // Compute phase: snapshot (rebuilds the vertex offsets — the
        // fixed cost the paper quantifies) and run the kernel suite.
        let t = Instant::now();
        let snap = g.snapshot();
        let snap_time = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let pr = pagerank(&snap, 10);
        let pr_time = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let labels = cc(&snap);
        let cc_time = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let deps = bc(&snap, 0);
        let bc_time = t.elapsed().as_secs_f64();

        let components = {
            let mut l = labels.clone();
            l.sort_unstable();
            l.dedup();
            l.len()
        };
        let top = pr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let max_dep = deps.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "round {round}: +{added} edges ({:.0} e/s) | snapshot {:.1} ms | PR {:.1} ms (top v{} = {:.5}) | CC {:.1} ms ({components} comps) | BC {:.1} ms (max dep {max_dep:.1})",
            added as f64 / ingest,
            snap_time * 1e3,
            pr_time * 1e3,
            top.0,
            top.1,
            cc_time * 1e3,
            bc_time * 1e3,
        );
    }
    println!(
        "final graph: {} edges, {:.2} MB",
        g.num_edges(),
        g.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    // The container is generic over any `cpma::api::RangeSet` backend —
    // the same graph on an uncompressed PMA shows what the CPMA's delta
    // compression buys (F-Graph's headline in §6).
    let uncompressed: SetGraph<Pma> = SetGraph::from_edges(n, &base);
    println!(
        "backend swap: CPMA {:.2} MB vs uncompressed PMA {:.2} MB for the seed graph",
        FGraph::from_edges(n, &base).size_bytes() as f64 / (1024.0 * 1024.0),
        uncompressed.size_bytes() as f64 / (1024.0 * 1024.0),
    );
}
