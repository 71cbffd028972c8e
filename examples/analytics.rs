//! Side-by-side analytics workload across the paper's set implementations:
//! the same ingest-and-scan loop on the CPMA, the uncompressed PMA,
//! P-trees, compressed PaC-trees, C-trees, and the std `BTreeSet`,
//! reporting throughput and footprint.
//!
//! A miniature of the paper's headline claim: the CPMA matches tree space,
//! beats trees on scans *and* batch ingest. The whole driver is one
//! generic function over `cpma::api`'s `BatchSet + RangeSet` — adding a
//! structure to the comparison is a single line in `main`. Every row's
//! length and checksum must equal the `BTreeSet` row's; the example
//! panics otherwise.
//!
//! Run with: `cargo run --release --example analytics`

use cpma::prelude::*;
use cpma::workloads::{uniform_keys, ZipfGenerator};
use std::time::Instant;

/// Ingest `batches`, scan `windows` and print the row; returns the set's
/// length and the windows' checksum.
fn drive<S: BatchSet + RangeSet>(batches: &[Vec<u64>], windows: &[(u64, u64)]) -> (usize, u64) {
    let mut store = S::new_set();
    let t = Instant::now();
    let mut added = 0;
    let mut scratch = Vec::new();
    for b in batches {
        scratch.clear();
        scratch.extend_from_slice(b);
        let uniq = normalize_batch(&mut scratch);
        added += store.insert_batch_sorted(uniq);
    }
    let ingest = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut checksum = 0u64;
    for &(lo, hi) in windows {
        checksum = checksum.wrapping_add(store.range_sum(lo..hi));
    }
    let scan = t.elapsed().as_secs_f64();

    println!(
        "{:>8}: ingest {:>9.0} keys/s | {} window scans in {:>6.1} ms | {:>6.2} B/key | checksum {:#x}",
        S::NAME,
        added as f64 / ingest,
        windows.len(),
        scan * 1e3,
        store.size_bytes() as f64 / added.max(1) as f64,
        checksum
    );
    (store.len(), checksum)
}

fn main() {
    // A mixed feed: mostly uniform keys with a zipfian hot set.
    let total = 1_000_000usize;
    let mut zipf = ZipfGenerator::paper_config(99);
    let batches: Vec<Vec<u64>> = (0..50)
        .map(|i| {
            let mut b = uniform_keys(total / 100, 40, 1000 + i);
            b.extend(zipf.keys(total / 100));
            b
        })
        .collect();
    // 200 fixed analytics windows of ~0.5% of the key space each.
    let windows: Vec<(u64, u64)> = (0..200u64)
        .map(|i| {
            let lo = (i * 5 + 1) << 31;
            (lo, lo + (1u64 << 33))
        })
        .collect();

    println!(
        "ingesting {} batches of {} keys, then scanning...",
        batches.len(),
        total / 50
    );
    let rows = [
        (Cpma::NAME, drive::<Cpma>(&batches, &windows)),
        (Pma::NAME, drive::<Pma>(&batches, &windows)),
        (PTree::NAME, drive::<PTree>(&batches, &windows)),
        (CPac::NAME, drive::<CPac>(&batches, &windows)),
        (CTreeSet::NAME, drive::<CTreeSet>(&batches, &windows)),
    ];
    let oracle = drive::<std::collections::BTreeSet<u64>>(&batches, &windows);
    for (name, row) in rows {
        assert_eq!(
            row, oracle,
            "{name}: (len, checksum) differs from BTreeSet's"
        );
    }
    println!("every row's length and checksum equal the BTreeSet row's");
}
