//! Snapshot roundtrips and corruption fuzzing for `Pma`/`Cpma`.
//!
//! The contract under test: `save`/`load` (and the in-memory
//! `to_snapshot_bytes`/`from_snapshot_bytes`) roundtrip *whole-structure*
//! equality, and every flipped or truncated byte in a snapshot yields a
//! typed `PersistError` — never a panic, never an unchecked allocation.

use cpma_api::testkit::{assert_all_refused, Damage};
use cpma_api::{BatchOp, BatchSet, Persist, PersistError, RangeSet};
use cpma_pma::{Cpma, Pma, PmaConfig, PmaCore};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpma-pma-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_keys(n: u64) -> Vec<u64> {
    // Mixed-stride keys: dense runs (small deltas) and sparse jumps
    // (multi-byte codes) so the CPMA payload exercises both shapes.
    (0..n)
        .map(|i| i * 7 + (i % 13) * 1_000_003 + (i % 3) * (1 << 33))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

fn build<S: BatchSet<u64>>(keys: &[u64]) -> S {
    let mut set = S::new_set();
    let mut batch = keys.to_vec();
    set.insert_batch(&mut batch, false);
    // A remove wave so the structure has lived through both batch paths.
    let mut rm: Vec<u64> = keys.iter().copied().step_by(5).collect();
    set.remove_batch(&mut rm, false);
    set
}

#[test]
fn pma_file_roundtrip_whole_structure_equality() {
    let dir = tmp_dir("pma-file");
    for n in [0u64, 1, 100, 20_000] {
        let set: Pma = build(&sample_keys(n));
        let path = dir.join(format!("pma-{n}.snap"));
        set.save(&path).unwrap();
        let back = Pma::load(&path).unwrap();
        // The PartialEq satellite: element + config equality in one shot.
        assert_eq!(set, back, "n = {n}");
        back.check_invariants();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cpma_file_roundtrip_whole_structure_equality() {
    let dir = tmp_dir("cpma-file");
    for n in [0u64, 1, 100, 20_000] {
        let set: Cpma = build(&sample_keys(n));
        let path = dir.join(format!("cpma-{n}.snap"));
        set.save(&path).unwrap();
        let back = Cpma::load(&path).unwrap();
        assert_eq!(set, back, "n = {n}");
        back.check_invariants();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_bytes_roundtrip_and_are_stable() {
    let set: Cpma = build(&sample_keys(5_000));
    let bytes = set.to_snapshot_bytes();
    let back = Cpma::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(set, back);
    // save → load → save is byte-identical (canonical image).
    assert_eq!(back.to_snapshot_bytes(), bytes);
}

#[test]
fn u32_keys_roundtrip_and_width_mismatch_is_typed() {
    let mut set = Pma::<u32>::new();
    let mut batch: Vec<u32> = (0..3_000u32).map(|i| i * 7 + (i % 13) * 10_003).collect();
    set.insert_batch(&mut batch, false);
    let mut rm: Vec<u32> = (0..3_000u32).step_by(5).map(|i| i * 7).collect();
    set.remove_batch(&mut rm, false);
    let bytes = set.to_snapshot_bytes();
    let back = Pma::<u32>::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(set, back);
    // A u32 image must not open as a u64 PMA.
    assert!(matches!(
        Pma::<u64>::from_snapshot_bytes(&bytes),
        Err(PersistError::KeyWidthMismatch {
            expected: 8,
            found: 4
        })
    ));
}

#[test]
fn codec_mismatch_is_typed() {
    let pma: Pma = build(&sample_keys(500));
    let cpma: Cpma = build(&sample_keys(500));
    assert!(matches!(
        Cpma::from_snapshot_bytes(&pma.to_snapshot_bytes()),
        Err(PersistError::CodecMismatch { .. })
    ));
    assert!(matches!(
        Pma::<u64>::from_snapshot_bytes(&cpma.to_snapshot_bytes()),
        Err(PersistError::CodecMismatch { .. })
    ));
}

/// The meta section ends in a head-layout word. Heads are searched in
/// place and nothing else was ever a default, so the word is always 0; a
/// file naming another layout (with checksums that verify) is foreign and
/// must fail typed, whichever codec opens it.
#[test]
fn head_layout_tag_roundtrips_and_mismatch_is_typed() {
    use cpma_persist::snapshot::SnapshotEnvelope;
    fn check<L: cpma_pma::LeafStorage<u64>>(set: PmaCore<u64, L>) {
        let bytes = set.to_snapshot_bytes();
        let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
        let word_at = env.meta.len() - 8;
        assert_eq!(env.meta[word_at..], 0u64.to_le_bytes());
        let back = PmaCore::<u64, L>::from_snapshot_bytes(&env.to_bytes()).unwrap();
        assert_eq!(set, back);
        back.check_invariants();
        for word in [1u64, 2, 3, 7] {
            let mut meta = env.meta.to_vec();
            meta[word_at..].copy_from_slice(&word.to_le_bytes());
            let forged = SnapshotEnvelope { meta: &meta, ..env };
            match PmaCore::<u64, L>::from_snapshot_bytes(&forged.to_bytes()) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains("head layout"), "word {word}: {msg}")
                }
                other => panic!("word {word}: expected Corrupt, got {other:?}"),
            }
        }
    }
    check::<cpma_pma::UncompressedLeaves<u64>>(build(&sample_keys(20_000)));
    check::<cpma_pma::CompressedLeaves>(build(&sample_keys(10_000)));
}

#[test]
fn non_default_config_survives_roundtrip() {
    let cfg = PmaConfig::builder()
        .growing_factor(1.5)
        .point_update_cutoff(0)
        .build()
        .unwrap();
    let mut set = Cpma::with_config(cfg);
    let mut batch: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
    set.insert_batch(&mut batch, true);
    let back = Cpma::from_snapshot_bytes(&set.to_snapshot_bytes()).unwrap();
    assert_eq!(back.config(), &cfg);
    assert_eq!(set, back);
    // Config differences break equality even with identical elements.
    let mut default_cfg = Cpma::new();
    let mut batch2: Vec<u64> = (0..10_000u64).map(|i| i * 3).collect();
    default_cfg.insert_batch(&mut batch2, true);
    assert_ne!(back, default_cfg);
}

#[test]
fn loaded_structure_remains_fully_usable() {
    let set: Cpma = build(&sample_keys(10_000));
    let mut back = Cpma::from_snapshot_bytes(&set.to_snapshot_bytes()).unwrap();
    let expect = set.range_sum(..);
    assert_eq!(back.range_sum(..), expect);
    // Updates after load go through every pipeline path unharmed.
    let mut more: Vec<u64> = (0..50_000u64).map(|i| i * 11 + 5).collect();
    back.insert_batch(&mut more, false);
    back.check_invariants();
    let mut ops: Vec<BatchOp<u64>> = (0..1_000u64)
        .map(|i| {
            if i % 2 == 0 {
                BatchOp::Insert(i * 13)
            } else {
                BatchOp::Remove(i * 11 + 5)
            }
        })
        .collect();
    back.apply_batch(&mut ops, false);
    back.check_invariants();
}

/// Flip (a sample of) single bytes across the whole snapshot, and cut it
/// at the same positions: every flip and every truncation must produce a
/// typed error whose `Display` does not panic either. The envelope digests
/// make this exhaustive in effect — a flip lands in either the header
/// (header digest) or the payload (payload digest) or a digest field
/// itself. The table is the one the envelope, the WAL record and the wire
/// frame all run (`cpma_api::testkit`): the first 128 bytes (header +
/// meta) exhaustively, every third byte after them, and the last.
fn assert_every_flip_detected(bytes: &[u8], load: impl Fn(&[u8]) -> Result<(), PersistError>) {
    assert_all_refused(bytes, Damage::sweep(bytes.len(), 128, 3, &[0x08]), load);
}

#[test]
fn fuzz_pma_snapshot_byte_flips() {
    let set: Pma = build(&sample_keys(2_000));
    let bytes = set.to_snapshot_bytes();
    assert_every_flip_detected(&bytes, |b| Pma::<u64>::from_snapshot_bytes(b).map(|_| ()));
}

#[test]
fn fuzz_cpma_snapshot_byte_flips() {
    let set: Cpma = build(&sample_keys(2_000));
    let bytes = set.to_snapshot_bytes();
    assert_every_flip_detected(&bytes, |b| Cpma::from_snapshot_bytes(b).map(|_| ()));
}

#[test]
fn fuzz_cpma_snapshot_truncations() {
    let set: Cpma = build(&sample_keys(2_000));
    let bytes = set.to_snapshot_bytes();
    let cuts = Damage::sweep(bytes.len(), 0, 7, &[]);
    assert_all_refused(&bytes, cuts, |b| Cpma::from_snapshot_bytes(b).map(|_| ()));
}

/// Attack the *validated* layer directly: forge a structurally invalid
/// payload with correct checksums (flip bytes, then recompute the crcs by
/// rebuilding the envelope). Loads must still fail typed, proving the
/// per-leaf validation pass — not just the checksums — guards the codecs.
#[test]
fn forged_payloads_with_valid_checksums_are_rejected() {
    use cpma_persist::snapshot::SnapshotEnvelope;
    let set: Cpma = build(&sample_keys(2_000));
    let bytes = set.to_snapshot_bytes();
    let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
    let mut rejected = 0usize;
    for i in (0..env.payload.len()).step_by(11) {
        let mut payload = env.payload.to_vec();
        payload[i] ^= 0x55;
        let forged = SnapshotEnvelope {
            payload: &payload,
            ..env
        };
        match Cpma::from_snapshot_bytes(&forged.to_bytes()) {
            Err(_) => rejected += 1,
            Ok(back) => {
                // A flip in don't-care bytes (slack past a leaf's used
                // prefix) may legitimately load; it must load *correctly*.
                back.check_invariants();
            }
        }
    }
    assert!(rejected > 0, "validation layer never fired");

    // Element-count inflation in the meta section must be caught by the
    // recount, not trusted.
    let mut meta = env.meta.to_vec();
    let len_at = 4 + 7 * 8 + 4 * 8; // key width + seven f64 + four u64
    let huge = (u32::MAX as u64).to_le_bytes();
    meta[len_at..len_at + 8].copy_from_slice(&huge);
    let inflated = SnapshotEnvelope { meta: &meta, ..env };
    assert!(matches!(
        Cpma::from_snapshot_bytes(&inflated.to_bytes()),
        Err(PersistError::Corrupt(_))
    ));
}
