//! Byte-traffic regression for the compressed codec's early-stopping
//! probes (needs `--features stats`; the counters are process-global, so
//! this file holds exactly one test).
//!
//! `leaf_contains` and `leaf_successor` must decode only until the running
//! value reaches the probe and account only the bytes they consumed. An
//! earlier `leaf_contains` delegated to `leaf_successor`, and
//! `leaf_successor` charged the whole run
//! before walking, so probing a leaf's head read `units_used(leaf)` bytes
//! instead of 8: that is what the exact equalities below would report.
#![cfg(feature = "stats")]

use cpma_api::BatchSet;
use cpma_pma::{stats, Cpma, ForceCodec, LeafStorage, PmaConfig};

#[test]
fn compressed_membership_probe_stops_early() {
    // Gap-7 keys are dense enough that the hybrid policy would pick the
    // bitmap encoding; pin the delta codec — this test is specifically
    // about the delta probe's early exit.
    let mut c = Cpma::with_config(PmaConfig {
        force_codec: ForceCodec::Delta,
        ..PmaConfig::default()
    });
    let mut elems: Vec<u64> = (0..200_000u64).map(|i| i * 7 + 3).collect();
    c.insert_batch(&mut elems, false);
    let storage = c.storage();

    // Pick the fullest leaf so the early-exit saving is unambiguous.
    let leaf = (0..storage.num_leaves())
        .max_by_key(|&l| storage.count(l))
        .unwrap();
    let mut run = Vec::new();
    storage.collect_leaf(leaf, &mut run);
    assert!(
        run.len() >= 8,
        "fullest leaf unexpectedly small: {}",
        run.len()
    );
    let used = storage.units_used(leaf) as u64;

    // Probing the head must touch only the 8-byte head itself.
    let (hit, t) = stats::measure(|| storage.leaf_contains(leaf, run[0]));
    assert!(hit);
    assert_eq!(t.bytes_read, 8, "head probe decoded past the head");

    // A probe below the head answers from the head alone too.
    let (hit, t) = stats::measure(|| storage.leaf_contains(leaf, run[0].wrapping_sub(1)));
    assert!(!hit);
    assert_eq!(t.bytes_read, 8, "below-head probe decoded past the head");

    // An early element must not cost a full-run decode.
    let (hit, t) = stats::measure(|| storage.leaf_contains(leaf, run[2]));
    assert!(hit);
    assert!(
        t.bytes_read < used,
        "early-element probe read the whole run ({} of {used} bytes)",
        t.bytes_read
    );

    // The last element legitimately needs the whole run — upper bound.
    let (hit, t) = stats::measure(|| storage.leaf_contains(leaf, *run.last().unwrap()));
    assert!(hit);
    assert!(t.bytes_read <= used);

    // The successor probe stops where the membership probe does.
    let (succ, t) = stats::measure(|| storage.leaf_successor(leaf, run[0]));
    assert_eq!(succ, Some(run[0]));
    assert_eq!(t.bytes_read, 8, "head successor decoded past the head");
    let (succ, t) = stats::measure(|| storage.leaf_successor(leaf, run[1] + 1));
    assert_eq!(succ, Some(run[2]));
    assert!(
        t.bytes_read < used,
        "early successor read the whole run ({} of {used} bytes)",
        t.bytes_read
    );

    // Bitmap leaves answer any membership probe from the base plus one
    // word: a flat 16 bytes no matter where the key sits in the leaf.
    let mut dense = Cpma::new();
    let mut keys: Vec<u64> = (0..200_000u64).collect();
    dense.insert_batch(&mut keys, false);
    let storage = dense.storage();
    let leaf = (0..storage.num_leaves())
        .max_by_key(|&l| storage.count(l))
        .unwrap();
    let mut run = Vec::new();
    storage.collect_leaf(leaf, &mut run);
    assert!(storage.units_used(leaf) as u64 > 16);
    let (hit, t) = stats::measure(|| storage.leaf_contains(leaf, *run.last().unwrap()));
    assert!(hit);
    assert_eq!(t.bytes_read, 16, "bitmap probe is O(1) bytes");
}
