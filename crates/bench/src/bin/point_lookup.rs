//! Read-heavy leg: uniform point-lookup throughput (lookups/s), per-key
//! vs batched, on `Pma` and `Cpma`.
//!
//! The per-key column is the in-place binary search over the leaf heads —
//! one dependent, unpredictable probe per level — followed by the leaf
//! probe. The batched column is `contains_batch`: probes sorted, routed
//! leaf to leaf, leaf data prefetched a dozen groups ahead, probes landing
//! in one leaf sharing a decode. Expected shape: batched lookups clear 2×
//! the per-key rate once the probe set is large enough to visit leaves in
//! address order (the default `--chunk`, the whole probe set).
//!
//! Emits `BENCH_point.json` (one entry per codec × mode); `--quick`
//! shrinks everything to CI-smoke scale.

use cpma_api::OrderedSet;
use cpma_bench::ubench::{black_box, Bencher};
use cpma_bench::{sci, time, Args};
use cpma_pma::{Cpma, Pma};
use cpma_workloads::{dedup_sorted, uniform_keys};

/// Probe mix: half cold uniform keys (mostly misses at 40-bit density),
/// half sampled from the stored set (hits), shuffled together.
fn probe_mix(base: &[u64], probes: usize, bits: u32, seed: u64) -> Vec<u64> {
    let mut v = uniform_keys(probes, bits, seed ^ 0xF00D);
    let stride = (base.len() / (probes / 2).max(1)).max(1);
    for (slot, hit) in v.iter_mut().step_by(2).zip(base.iter().step_by(stride)) {
        *slot = *hit;
    }
    v
}

/// Lookups/s for the per-key loop and for chunked `contains_batch`
/// (the better of two passes each; the first pass doubles as warmup).
fn measure<S: OrderedSet<u64>>(s: &S, probes: &[u64], chunk: usize) -> (f64, f64) {
    let mut point = 0f64;
    let mut batched = 0f64;
    for _ in 0..2 {
        let (_, secs) = time(|| {
            let mut acc = 0usize;
            for &p in probes {
                acc += usize::from(s.contains(p));
            }
            black_box(acc)
        });
        point = point.max(probes.len() as f64 / secs);
        let (_, secs) = time(|| {
            let mut acc = 0usize;
            for c in probes.chunks(chunk) {
                acc += s.contains_batch(c).iter().filter(|&&h| h).count();
            }
            black_box(acc)
        });
        batched = batched.max(probes.len() as f64 / secs);
    }
    (point, batched)
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let n: usize = args.get_or("n", if quick { 200_000 } else { 10_000_000 });
    let probes: usize = args.get_or("probes", if quick { 60_000 } else { 1_000_000 });
    let bits: u32 = args.get_or("bits", 40);
    // Default: the whole probe set as one batch — sorted routing then
    // visits leaves in address order, which is where batching pays.
    // `--chunk` bounds the batch size to model incremental callers.
    let chunk: usize = match args.get_or("chunk", 0) {
        0 => probes,
        c => c,
    };
    let seed: u64 = args.get_or("seed", 42);

    let base = dedup_sorted(uniform_keys(n, bits, seed));
    let mix = probe_mix(&base, probes, bits, seed);

    let b = Bencher::new();
    println!(
        "# point_lookup — uniform point lookups, {} stored keys, {probes} probes, batch chunk {chunk}",
        base.len()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "codec", "per-key/s", "batched/s", "vs per-key"
    );

    let row = |codec: &str, (point, batched): (f64, f64)| {
        println!(
            "{:>6} {:>12} {:>12} {:>9.2}x",
            codec,
            sci(point),
            sci(batched),
            batched / point.max(1e-12)
        );
        println!("csv,point,{codec},{point},{batched}");
        for (mode, tput) in [("point", point), ("batched", batched)] {
            b.record(
                &format!("point/{codec}/{mode}"),
                &[("n", base.len().to_string()), ("chunk", chunk.to_string())],
                if tput > 0.0 { 1.0 / tput } else { 0.0 },
            );
        }
    };
    row("pma", measure(&Pma::<u64>::from_sorted(&base), &mix, chunk));
    row("cpma", measure(&Cpma::from_sorted(&base), &mix, chunk));

    b.write_json("point").expect("write BENCH_point.json");
}
