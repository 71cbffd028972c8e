//! Layouts that must not move, pinned by a fingerprint of what their
//! snapshot image *carries* — `codec_id ‖ meta ‖ payload` — not of the
//! envelope around it: the envelope's version and digests belong to
//! `cpma-persist` and may change without a leaf byte moving (they did, from
//! FNV-1a to XXH64, and these constants stayed). The fingerprint is a
//! test-local FNV-1a, fixed here for good.
//!
//! The leaf planner decides every rebuild's capacity and every cut, so a
//! change to it can silently move `bytes_per_elem` of every workload. The
//! delta-only images below (no leaf of theirs chooses the bitmap form) were
//! read off the commit before the planner became one streaming sweep and
//! must stay bit-identical: that is `set_uniform`, `graph_rmat` and
//! `service_mixed` of the repository benchmark not drifting, checked
//! before the benchmark is run. The clustered image is pinned where the
//! exact planner puts it.

use cpma_api::{BatchOp, BatchSet};
use cpma_persist::snapshot::SnapshotEnvelope;
use cpma_pma::{Cpma, LeafStorage};
use cpma_workloads::{dedup_sorted, uniform_keys, ClusteredKeys, RmatGenerator, SplitMix64};

fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in parts.iter().flat_map(|p| p.iter()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn image(c: &Cpma) -> (usize, u64) {
    c.check_invariants();
    let bytes = c.to_snapshot_bytes();
    let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
    let layout = fnv1a64(&[&env.codec_id.to_le_bytes(), env.meta, env.payload]);
    (c.storage().num_leaves(), layout)
}

/// 20 pipeline batches of 1 000 ops, 3 inserts : 1 remove, around `keys`.
fn pipeline(mut c: Cpma, keys: &[u64]) -> Cpma {
    let mut rng = SplitMix64::new(7);
    for _ in 0..20 {
        let mut ops: Vec<BatchOp<u64>> = (0..1000)
            .map(|_| {
                let k = keys[rng.next_below(keys.len() as u64) as usize];
                if rng.next_below(4) == 0 {
                    BatchOp::Remove(k)
                } else {
                    BatchOp::Insert(k ^ rng.next_below(1 << 12))
                }
            })
            .collect();
        c.apply_batch(&mut ops, false);
    }
    assert_eq!(c.stats().full_rebuilds, 1, "the batches must stay pipeline");
    c
}

#[test]
fn delta_only_layouts_are_bit_identical_to_the_prefix_array_planner() {
    let uniform = dedup_sorted(uniform_keys(1_000_000, 40, 1));
    let c = Cpma::build_sorted(&uniform);
    assert_eq!(image(&c), (23_519, 0xe245_8db4_4245_b786));
    assert_eq!(
        image(&pipeline(c, &uniform)),
        (23_519, 0x319b_91c3_b96d_482e)
    );

    let rmat = dedup_sorted(RmatGenerator::paper_config(18, 1).directed_edges(1_000_000));
    let c = Cpma::build_sorted(&rmat);
    assert_eq!(c.storage().codec_census().1, 0, "a leaf chose the bitmap");
    assert_eq!(image(&c), (21_847, 0x320b_874d_f015_d78b));
    assert_eq!(image(&pipeline(c, &rmat)), (21_847, 0xd6b3_1820_9b89_93f1));
}

#[test]
fn clustered_layout_is_pinned_where_the_exact_planner_puts_it() {
    // The benchmark's `set_clustered` base: runs of 256, every run 42 % full.
    let mut rng = SplitMix64::new(99);
    let keys: Vec<u64> = ClusteredKeys::new(256, 1 << 16, 1)
        .sorted(2_000_000)
        .into_iter()
        .filter(|_| rng.next_below(100) < 42)
        .collect();
    assert_eq!(keys.len(), 840_557);
    // Before the exact planner: 6 171 leaves — a capacity sized from the
    // units a first, overflowing attempt happened to write.
    assert_eq!(
        image(&Cpma::build_sorted(&keys)),
        (6_045, 0x68f6_8865_26a1_4ba5)
    );
}
