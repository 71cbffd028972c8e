//! A run that changes nothing must not rewrite its leaf.
//!
//! Before the batch pipeline was unified, the insert-only leaf merge
//! re-encoded and rewrote a leaf even when every key of its run was
//! already present (the mixed path returned early). The codec write
//! counters are process-global, so this file holds exactly one test.

use cpma_api::BatchSet;
use cpma_pma::{Cpma, ForceCodec, LeafStorage, PmaConfig};

/// `(cpma.codec.delta_writes, cpma.codec.bitmap_writes)`.
fn codec_writes() -> (u64, u64) {
    let snap = cpma_obs::global().snapshot();
    (
        snap.counter("cpma.codec.delta_writes").unwrap_or(0),
        snap.counter("cpma.codec.bitmap_writes").unwrap_or(0),
    )
}

fn leaf_bytes(c: &Cpma) -> Vec<u8> {
    let mut out = Vec::new();
    c.storage().write_payload(&mut out);
    out
}

#[test]
fn all_present_insert_runs_leave_leaves_untouched() {
    // Consecutive keys: forced-delta leaves on one pass, bitmap leaves
    // (the wordwise path) on the other.
    for force in [ForceCodec::Delta, ForceCodec::Auto] {
        let cfg = PmaConfig::builder().force_codec(force).build().unwrap();
        let mut c = Cpma::with_config(cfg);
        let keys: Vec<u64> = (0..50_000u64).collect();
        c.insert_batch_sorted(&keys);
        let (delta_leaves, bitmap_leaves) = c.storage().codec_census();
        match force {
            ForceCodec::Delta => assert_eq!(bitmap_leaves, 0),
            _ => assert_eq!(delta_leaves, 0),
        }

        let bytes = leaf_bytes(&c);
        let writes = codec_writes();
        let stats = c.stats();
        // Pipeline regime: point cutoff ≤ 2 000 keys < len / 10.
        let dup: Vec<u64> = keys.iter().copied().skip(7).step_by(25).collect();
        assert_eq!(c.insert_batch_sorted(&dup), 0);
        assert_eq!(c.stats().pipeline_batches, stats.pipeline_batches + 1);
        // The point path goes through the same leaf method.
        assert!(!c.insert(keys[123]));
        assert_eq!(
            codec_writes(),
            writes,
            "{force:?}: a no-op run rewrote a leaf"
        );
        assert_eq!(leaf_bytes(&c), bytes, "{force:?}: leaf bytes changed");
        c.check_invariants();
    }
}
