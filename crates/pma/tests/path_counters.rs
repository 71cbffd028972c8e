//! Which path ran, by count: the leaf-update kernels
//! (`cpma.leaf.fused_runs` / `cpma.leaf.general_runs`) and the reporting
//! apply's regime fallback (`pma.report_fallbacks`).
//!
//! All are process-global `Unit::Count` counters, exact and
//! schedule-independent, so this file holds exactly one test and reads
//! them as deltas around single calls.

use cpma_api::BatchSet;
use cpma_pma::BatchOp::{self, Insert, Remove};
use cpma_pma::Cpma;

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
    // Sparse keys: every leaf is a delta chain with room to spare (bulk
    // loads fill to 55 %), so a batch that adds about one key per leaf is
    // fused end to end — as many fused runs as routed runs, none general.
    let sparse: Vec<u64> = (0..200_000u64).map(|i| i << 20).collect();
    let mut c = Cpma::build_sorted(&sparse);
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
    let mut c = Cpma::build_sorted(&spaced);
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

    // A reporting apply is routed by the length of its normal form but
    // must end as its net batch would: a pipeline-sized form whose net
    // batch is below the point cutoff, or past the rebuild bound, falls
    // back to applying the net batch from scratch; one that stays in the
    // pipeline, or changes nothing, does not.
    let keys: Vec<u64> = (0..30_000u64).map(|i| i * 4).collect();
    let fallbacks = || counter("pma.report_fallbacks");
    let noops = |range: std::ops::Range<u64>| -> Vec<BatchOp<u64>> {
        range.map(|i| Insert(i * 4)).collect() // stored keys: no-ops
    };
    let cases: [(Vec<BatchOp<u64>>, u64); 4] = [
        // 300 ops, 30 of them effective: point-sized net.
        (
            (0..300u64)
                .map(|i| {
                    if i % 10 == 0 {
                        Insert(i * 4 + 1)
                    } else {
                        Insert(i * 4)
                    }
                })
                .collect(),
            1,
        ),
        // 2 000 effective ops: the pipeline, no fallback.
        ((0..2_000u64).map(|i| Insert(i * 4 + 2)).collect(), 0),
        // Nothing changes.
        (noops(0..2_000), 0),
        // 9 000 effective ops ≥ len / 10: the full rebuild.
        ((0..9_000u64).map(|i| Insert(i * 4 + 3)).collect(), 1),
    ];
    let mut was = Vec::new();
    for (n, (ops, want)) in cases.iter().enumerate() {
        let mut c = Cpma::build_sorted(&keys);
        let before = fallbacks();
        c.apply_batch_sorted_reporting(ops, &mut was);
        assert_eq!(fallbacks() - before, *want, "case {n}");
    }
}
