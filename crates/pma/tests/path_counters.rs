//! Which path ran, by count: the leaf-update kernels
//! (`cpma.leaf.fused_runs` / `cpma.leaf.general_runs`) and the auxiliary
//! head-array rebuild (`pma.head_index_rebuilds`).
//!
//! All three are process-global `Unit::Count` counters, exact and
//! schedule-independent, so this file holds exactly one test and reads
//! them as deltas around single calls.

use cpma_pma::BatchOp::{self, Insert, Remove};
use cpma_pma::{Cpma, CpmaEytzinger};

fn counter(name: &str) -> u64 {
    cpma_obs::global().snapshot().counter(name).unwrap_or(0)
}

/// `(fused, general, codec flips)`.
fn leaf_paths() -> (u64, u64, u64) {
    (
        counter("cpma.leaf.fused_runs"),
        counter("cpma.leaf.general_runs"),
        counter("cpma.codec.flips"),
    )
}

#[test]
fn counters_name_the_path_that_ran() {
    // ---- Leaf kernels -------------------------------------------------
    // Sparse keys: every leaf is a delta chain with room to spare (bulk
    // loads fill to 55 %), so a batch that adds about one key per leaf is
    // fused end to end — as many fused runs as routed runs, none general.
    let sparse: Vec<u64> = (0..200_000u64).map(|i| i << 20).collect();
    let mut c = Cpma::from_sorted(&sparse);
    assert_eq!(c.storage().codec_census().1, 0, "no bitmap leaves");
    let (fused, general, flips) = leaf_paths();
    let routed = c.stats().routed_runs;
    let ops: Vec<BatchOp<u64>> = (0..2_000u64)
        .map(|i| {
            let at = (i * 97) << 20;
            if i % 4 == 0 {
                Remove(at)
            } else {
                Insert(at + 1 + i)
            }
        })
        .collect();
    let out = c.apply_batch_sorted(&ops);
    assert_eq!((out.added, out.removed), (1_500, 500));
    let runs = c.stats().routed_runs - routed;
    assert!(runs > 1_000, "about one key per leaf: {runs} runs");
    assert_eq!(leaf_paths(), (fused + runs, general, flips));
    // The point path is the same kernel behind a one-key run; a no-op
    // run is still a fused run.
    assert!(c.insert(12_345));
    assert!(!c.insert(12_345));
    assert!(c.remove(12_345));
    assert_eq!(leaf_paths(), (fused + runs + 3, general, flips));
    c.check_invariants();

    // Keys 16 apart are cheaper as deltas (1 B a key against 2 B of
    // bitmap); filling a stretch in solid makes neither encoding fit the
    // leaves it lands in. The fused kernel declines, the general path
    // spills them, and the redistribution re-encodes the range as bitmaps.
    let spaced: Vec<u64> = (0..50_000u64).map(|i| i * 16).collect();
    let mut c = Cpma::from_sorted(&spaced);
    assert_eq!(c.storage().codec_census().1, 0, "no bitmap leaves");
    let (fused, general, flips) = leaf_paths();
    let fill: Vec<u64> = (16_000..20_000u64).filter(|k| k % 16 != 0).collect();
    assert_eq!(c.insert_batch_sorted(&fill), fill.len());
    let (fused_now, general_now, flips_now) = leaf_paths();
    assert!(
        general_now > general,
        "a spilling run must take the general path"
    );
    assert!(flips_now > flips, "the re-spread range flips to bitmaps");
    assert_eq!(
        fused_now, fused,
        "every run of this batch outgrows its leaf"
    );
    assert!(c.storage().codec_census().1 > 0);
    c.check_invariants();

    // ---- Head-array rebuilds --------------------------------------------
    // A point update that moves no head and triggers no rebalance must
    // not rebuild the O(leaves) auxiliary head array.
    let keys: Vec<u64> = (1..=10_000u64).map(|i| i * 1000).collect();
    let mut e = CpmaEytzinger::from_sorted(&keys);
    let rebuilds = counter("pma.head_index_rebuilds");
    // `k + 1` sits right after a stored key: never a new leaf minimum.
    for &k in keys.iter().step_by(211) {
        assert!(e.insert(k + 1));
        assert!(!e.insert(k + 1));
    }
    for &k in keys.iter().step_by(211) {
        assert!(e.remove(k + 1));
        assert!(!e.remove(k + 1));
    }
    assert_eq!(counter("pma.head_index_rebuilds"), rebuilds);
    e.check_invariants();
    // Moving a head pays exactly one: a key below the global minimum
    // lowers leaf 0's head, removing it raises the head again.
    assert!(e.insert(7));
    assert_eq!(counter("pma.head_index_rebuilds"), rebuilds + 1);
    assert!(e.has(7) && e.has(1000));
    assert!(e.remove(7));
    assert_eq!(counter("pma.head_index_rebuilds"), rebuilds + 2);
    assert!(!e.has(7) && e.has(1000));
    e.check_invariants();
}
