//! Race-hunting stress tests — `#[ignore]`d by default.
//!
//! The small conformance and determinism suites can miss windows that only
//! open under real contention: many leaves merging at once, redistributes
//! racing workers across pool helpers, whole-structure rebuilds mid-sweep.
//! These tests run repeated *large* mixed batches (the paper's zipf and
//! R-MAT key distributions) on `Pma`/`Cpma` under the full thread pool,
//! checking against `BTreeSet` after every round and re-validating the
//! structure invariants.
//!
//! Run with `cargo test -q -- --ignored` (the CI `stress` job does, on a
//! schedule and on manual dispatch). They take minutes, which is the
//! point.

use cpma::api::testkit::SplitMix64;
use cpma::prelude::*;
use cpma::workloads::{RmatGenerator, ZipfGenerator};
use std::collections::BTreeSet;

/// Thread budget for the stress runs: oversubscribed relative to small CI
/// runners on purpose — preemption inside the merge/redistribute phases
/// opens exactly the windows this suite hunts (`CPMA_THREADS=1` still caps
/// it for a sequential control run).
const STRESS_THREADS: usize = 8;

/// One full mixed-workload run of `rounds` large batches drawn by `next`,
/// checked against the oracle after every round.
fn pounded<S>(next_batch: impl FnMut(usize) -> Vec<u64> + Send, rounds: usize, tag: &str)
where
    S: BatchSet<u64> + RangeSet<u64>,
{
    rayon::ThreadPoolBuilder::new()
        .num_threads(STRESS_THREADS)
        .build()
        .unwrap()
        .install(move || pounded_inner::<S>(next_batch, rounds, tag))
}

fn pounded_inner<S>(mut next_batch: impl FnMut(usize) -> Vec<u64>, rounds: usize, tag: &str)
where
    S: BatchSet<u64> + RangeSet<u64>,
{
    let mut s = S::new_set();
    let mut model: BTreeSet<u64> = BTreeSet::new();
    let mut rng = SplitMix64::new(0x57E5_5000 ^ rounds as u64);
    for round in 0..rounds {
        let mut ins = next_batch(round);
        let added = s.insert_batch(&mut ins, false);
        let mut want_added = 0;
        let mut seen = BTreeSet::new();
        for &k in &ins {
            if seen.insert(k) && model.insert(k) {
                want_added += 1;
            }
        }
        assert_eq!(added, want_added, "{tag} round {round}: insert count");

        // Delete half of a freshly drawn batch (same distribution, so a
        // mix of present keys and misses) plus guaranteed-miss noise.
        let mut del: Vec<u64> = next_batch(round)
            .into_iter()
            .step_by(2)
            .chain((0..1000).map(|_| rng.next_u64()))
            .collect();
        let removed = s.remove_batch(&mut del, false);
        let mut want_removed = 0;
        let mut seen = BTreeSet::new();
        for &k in &del {
            if seen.insert(k) && model.remove(&k) {
                want_removed += 1;
            }
        }
        assert_eq!(removed, want_removed, "{tag} round {round}: remove count");

        assert_eq!(s.len(), model.len(), "{tag} round {round}: len");
        let lo = rng.next_bits(30);
        let hi = lo.saturating_add(1 << 28);
        let want_sum = model.range(lo..=hi).fold(0u64, |a, &k| a.wrapping_add(k));
        assert_eq!(
            s.range_sum(lo..=hi),
            want_sum,
            "{tag} round {round}: range_sum"
        );
    }
    let final_contents: Vec<u64> = model.iter().copied().collect();
    assert_eq!(s.to_vec(), final_contents, "{tag}: final contents");
}

#[test]
#[ignore = "stress: minutes of runtime; run via `cargo test -- --ignored` (CI stress job)"]
fn cpma_zipf_mixed_batches_under_full_pool() {
    let mut zipf = ZipfGenerator::paper_config(0xC0FFEE);
    pounded::<Cpma>(|_| zipf.keys(200_000), 12, "CPMA/zipf");
}

#[test]
#[ignore = "stress: minutes of runtime; run via `cargo test -- --ignored` (CI stress job)"]
fn pma_zipf_mixed_batches_under_full_pool() {
    let mut zipf = ZipfGenerator::paper_config(0xBEEF);
    pounded::<Pma<u64>>(|_| zipf.keys(200_000), 12, "PMA/zipf");
}

#[test]
#[ignore = "stress: minutes of runtime; run via `cargo test -- --ignored` (CI stress job)"]
fn cpma_rmat_edge_batches_under_full_pool() {
    // R-MAT edges as raw u64 keys: highly skewed, heavy duplicate rate —
    // the distribution that hammers single-leaf contention hardest.
    let gen = RmatGenerator::paper_config(20, 0xABCD);
    pounded::<Cpma>(
        |round| gen.directed_edges(150_000 + round * 10_000),
        10,
        "CPMA/rmat",
    );
}

#[test]
#[ignore = "stress: minutes of runtime; run via `cargo test -- --ignored` (CI stress job)"]
fn cpma_full_rebuild_regime_under_full_pool() {
    // Batches at k >= n/10 force the parallel whole-structure rebuild path
    // every round.
    let mut rng = SplitMix64::new(0x9E37);
    pounded::<Cpma>(|_| rng.keys(400_000, 26), 8, "CPMA/rebuild");
}

#[test]
#[ignore = "stress: minutes of runtime; run via `cargo test -- --ignored` (CI stress job)"]
fn store_combiner_oversubscribed_multi_writers() {
    // The cpma-store front-end under more writer threads than any CI
    // runner has cores, on top of an already-oversubscribed internal
    // pool: preemption inside combining epochs, snapshot publication,
    // and the sharded parallel batch apply all race for the same few
    // cores. Every writer owns a key stripe, so each acknowledgement is
    // oracle-checked, and every acknowledged write must be visible in
    // the next published snapshot.
    const WRITERS: u64 = 16;
    const OPS_PER_WRITER: usize = 25_000;

    let store: Combiner<ShardedSet<Cpma, 8>> = Combiner::new(BatchSet::new_set());

    let models: Vec<BTreeSet<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                let store = &store;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0x57E5_5100 + t);
                    let mut model: BTreeSet<u64> = BTreeSet::new();
                    for i in 0..OPS_PER_WRITER {
                        let k = (t << 40) | rng.next_bits(14);
                        match rng.next_below(4) {
                            0 | 1 => {
                                assert_eq!(store.insert(k), model.insert(k), "t{t} insert({k})")
                            }
                            2 => {
                                assert_eq!(store.remove(k), model.remove(&k), "t{t} remove({k})")
                            }
                            _ => assert_eq!(
                                store.contains(k),
                                model.contains(&k),
                                "t{t} contains({k})"
                            ),
                        }
                        if i % 4096 == 4095 {
                            let snap = store.snapshot();
                            for &k in &model {
                                assert!(snap.contains(k), "t{t}: acked {k} not in snapshot");
                            }
                        }
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut want: Vec<u64> = models.iter().flatten().copied().collect();
    want.sort_unstable();
    assert_eq!(store.snapshot().to_vec(), want, "final snapshot");
    // The leader never waits: with 16 writers on a few cores, epochs of
    // more than one op formed from contention alone, and the oracles above
    // checked that they still resolve in submission order.
    let stats = store.stats();
    assert_eq!(stats.ops, WRITERS * OPS_PER_WRITER as u64);
    assert!(stats.ops > stats.epochs, "{}", stats.summary());
    assert_eq!(store.into_inner().to_vec(), want, "final contents");
}
