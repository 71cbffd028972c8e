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
use cpma_pma::{Cpma, ForceCodec, LeafStorage, PmaConfig, FULL_REBUILD_DIVISOR, MIN_LEAVES};
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

// ----------------------------------------------------------------------
// The build cells: every whole-structure rebuild (a build, a grow, a
// shrink) pinned at the edges of the planner's input space. Read off the
// layouts the three-sweep planner wrote, and bit-identical since.
// ----------------------------------------------------------------------

/// A build of `keys` under `force`: an empty set bulk-loads its first batch.
fn build_with(keys: &[u64], force: ForceCodec) -> Cpma {
    let mut c = Cpma::with_config(PmaConfig {
        force_codec: force,
        ..PmaConfig::default()
    });
    c.insert_batch_sorted(keys);
    assert_eq!(c.len(), keys.len());
    c
}

/// `n` keys at `gap` apart, each gap jittered by up to `jitter`.
fn spaced(n: usize, gap: u64, jitter: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut k = rng.next_below(gap);
    (0..n)
        .map(|_| {
            let key = k;
            k += gap + rng.next_below(jitter + 1);
            key
        })
        .collect()
}

#[test]
fn small_builds_are_pinned() {
    let keys = spaced(40, 1_000, 500, 3);
    let got: Vec<(usize, (usize, u64))> = [1, 15, 16, 17, 33]
        .into_iter()
        .map(|n| (n, image(&Cpma::build_sorted(&keys[..n]))))
        .collect();
    assert_eq!(
        got,
        vec![
            (1, (4, 0xb438_666f_c504_76ca)),
            (15, (4, 0xc0fe_1fe2_4311_c02b)),
            (16, (4, 0xb5d8_0728_7715_d186)),
            (17, (4, 0xcccb_e999_58f3_dc5c)),
            (33, (4, 0x2a62_fdc7_aeb1_9edf)),
        ]
    );
}

#[test]
fn builds_around_the_min_leaves_boundary_are_pinned() {
    // 2-byte gaps: the last build on `MIN_LEAVES` leaves and the first
    // builds past it.
    let keys = spaced(1_000, 1_000, 15_000, 5);
    let first_past = (1..keys.len())
        .find(|&n| Cpma::build_sorted(&keys[..n]).storage().num_leaves() > MIN_LEAVES)
        .unwrap();
    let got: Vec<(usize, (usize, u64))> = (first_past - 1..=first_past + 1)
        .map(|n| (n, image(&Cpma::build_sorted(&keys[..n]))))
        .collect();
    assert_eq!(
        got,
        vec![
            (266, (4, 0xa3af_b6cc_2e29_facd)),
            (267, (5, 0x948f_770d_d13f_e2f7)),
            (268, (5, 0xb0b8_4db8_40bc_24be)),
        ]
    );
}

#[test]
fn every_code_length_is_pinned_across_block_edges() {
    // Runs of one code length (1 to 9 bytes: 9 + 8·c bytes is never a
    // multiple of 64 for long, so codes straddle every block edge), then
    // all lengths interleaved with one 10-byte gap at the end.
    let mut got = Vec::new();
    for len in 1..=9u32 {
        // At least 64 apart: a run of 1-byte gaps this dense would be a bitmap.
        let gap = (1u64 << (7 * (len - 1))).max(64);
        let n = if len == 9 { 120 } else { 400 };
        let keys = spaced(n, gap, gap / 2, len as u64);
        got.push((len, image(&Cpma::build_sorted(&keys))));
    }
    let mut keys = vec![0u64];
    let mut rng = SplitMix64::new(11);
    for i in 0..450 {
        let low = 1u64 << (7 * (i % 9));
        let gap = low + rng.next_below(low);
        keys.push(keys.last().unwrap() + gap);
    }
    keys.push(keys.last().unwrap() + (1 << 63));
    got.push((10, image(&Cpma::build_sorted(&keys))));
    assert_eq!(
        got,
        vec![
            (1, (4, 0xed3e_1b7b_7ce1_2abb)),
            (2, (7, 0x27b0_eced_0b6a_822e)),
            (3, (10, 0x34c9_c438_7010_006c)),
            (4, (13, 0x8e99_658e_fce8_6aa5)),
            (5, (16, 0x4a3c_e7d7_dc14_5d45)),
            (6, (19, 0x71bd_d2ea_8da3_b190)),
            (7, (21, 0x7570_5638_af8f_0d13)),
            (8, (24, 0x056c_c074_5f5b_f680)),
            (9, (9, 0x5f10_57fe_0abc_96d7)),
            (10, (17, 0x4f24_f076_f8fa_69ff)),
        ]
    );
}

#[test]
fn clustered_builds_at_two_fills_are_pinned() {
    let got: Vec<(u64, (usize, u64))> = [20, 80]
        .into_iter()
        .map(|fill| {
            let mut rng = SplitMix64::new(fill);
            let keys: Vec<u64> = ClusteredKeys::new(256, 1 << 16, fill)
                .sorted(200_000)
                .into_iter()
                .filter(|_| rng.next_below(100) < fill)
                .collect();
            (fill, image(&Cpma::build_sorted(&keys)))
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (20, (295, 0x75ee_a898_4a69_a4ec)),
            (80, (1060, 0xd0af_fcc9_1d74_2f40)),
        ]
    );
}

#[test]
fn every_codec_policy_is_pinned() {
    // Dense runs between sparse stretches: each policy writes its own mix.
    let mut keys = uniform_keys(20_000, 36, 13);
    keys.extend(ClusteredKeys::new(256, 1 << 20, 13).sorted(40_000));
    let keys = dedup_sorted(keys);
    let got: Vec<(ForceCodec, (usize, u64))> =
        [ForceCodec::Auto, ForceCodec::Delta, ForceCodec::Bitmap]
            .into_iter()
            .map(|force| (force, image(&build_with(&keys, force))))
            .collect();
    assert_eq!(
        got,
        vec![
            (ForceCodec::Auto, (714, 0x9aac_d525_f575_37f3)),
            (ForceCodec::Delta, (834, 0x0f50_73a2_8f25_edb7)),
            (ForceCodec::Bitmap, (714, 0x4310_1cb0_63a0_c275)),
        ]
    );
}

#[test]
fn a_grow_and_a_shrink_rebuild_are_pinned() {
    // Pipeline batches (each under a tenth of the set) until the root
    // bound rebuilds the whole set, once each way.
    let base = dedup_sorted(uniform_keys(100_000, 40, 17));
    let mut c = Cpma::build_sorted(&base);
    let leaves = c.storage().num_leaves();
    let mut rng = SplitMix64::new(19);
    while c.stats().full_rebuilds == 1 {
        let batch = dedup_sorted((0..5_000).map(|_| rng.next_bits(40)).collect());
        assert!(batch.len() < c.len() / FULL_REBUILD_DIVISOR);
        c.insert_batch_sorted(&batch);
    }
    assert!(c.storage().num_leaves() > leaves, "the rebuild must grow");
    let grown = image(&c);

    let mut c = Cpma::build_sorted(&base);
    let mut left = base.clone();
    while c.stats().full_rebuilds == 1 {
        let batch: Vec<u64> = left.iter().copied().step_by(left.len() / 2_000).collect();
        assert!(batch.len() < c.len() / FULL_REBUILD_DIVISOR);
        left.retain(|k| batch.binary_search(k).is_err());
        c.remove_batch_sorted(&batch);
    }
    assert!(c.storage().num_leaves() < leaves, "the rebuild must shrink");
    assert_eq!(c.len(), left.len());
    assert_eq!(
        (grown, image(&c)),
        (
            (3_447, 0x2f3e_439c_c392_13ad),
            (1_155, 0x020e_e292_2d57_2e5e)
        )
    );
}

#[test]
fn a_symmetric_rmat_graph_is_pinned() {
    let edges = RmatGenerator::paper_config(16, 3).undirected_graph(150_000);
    assert_eq!(
        (edges.len(), image(&Cpma::build_sorted(&edges))),
        (575_090, (9_451, 0x2abb_cea4_b937_d035))
    );
}
