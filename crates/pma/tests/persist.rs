//! Snapshot roundtrips and corruption fuzzing for `Pma`/`Cpma`.
//!
//! The contract under test: `save`/`load` (and the in-memory
//! `to_snapshot_bytes`/`from_snapshot_bytes`) roundtrip *whole-structure*
//! equality, and every flipped or truncated byte in a snapshot yields a
//! typed `PersistError` — never a panic, never an unchecked allocation.

use cpma_api::testkit::{assert_all_refused, Damage};
use cpma_api::{BatchOp, BatchSet, Persist, PersistError, RangeSet};
use cpma_pma::{Cpma, ForceCodec, Pma, PmaConfig};
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

fn build<S: BatchSet>(keys: &[u64]) -> S {
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

/// Keys are `u64`, so the meta section's first word, the key width, is
/// written as 8. An image claiming any other width (crafted here from a
/// valid one, re-sealed so its checksums verify) is foreign input: it is
/// refused as `KeyWidthMismatch`, for either codec, without a panic.
#[test]
fn key_width_word_other_than_8_is_typed() {
    use cpma_persist::snapshot::SnapshotEnvelope;
    let check = |bytes: Vec<u8>, load: &dyn Fn(&[u8]) -> Result<(), PersistError>| {
        let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
        assert_eq!(env.meta[..4], 8u32.to_le_bytes(), "key width written");
        for found in [4u32, 16] {
            let mut meta = env.meta.to_vec();
            meta[..4].copy_from_slice(&found.to_le_bytes());
            match load(&SnapshotEnvelope { meta: &meta, ..env }.to_bytes()) {
                Err(PersistError::KeyWidthMismatch {
                    expected: 8,
                    found: f,
                }) if f == found => {}
                other => panic!("key width {found}: expected KeyWidthMismatch, got {other:?}"),
            }
        }
    };
    let pma: Pma = build(&sample_keys(3_000));
    check(pma.to_snapshot_bytes(), &|b| {
        Pma::from_snapshot_bytes(b).map(drop)
    });
    let cpma: Cpma = build(&sample_keys(3_000));
    check(cpma.to_snapshot_bytes(), &|b| {
        Cpma::from_snapshot_bytes(b).map(drop)
    });
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
        Pma::from_snapshot_bytes(&cpma.to_snapshot_bytes()),
        Err(PersistError::CodecMismatch { .. })
    ));
}

/// The meta section keeps a word for every knob that became a constant —
/// the five density bounds, the bitmap break-even ratio, the capacity
/// floor, the two regime boundaries — and ends in a head-layout word
/// (heads are searched in place; nothing else was ever a default). Each
/// is always written as its constant; a file carrying any other value
/// (with checksums that verify) is foreign and must fail typed, naming
/// the word, whichever codec opens it.
#[test]
fn fixed_meta_words_roundtrip_and_forgeries_are_typed() {
    use cpma_persist::snapshot::SnapshotEnvelope;
    use cpma_pma::{FULL_REBUILD_DIVISOR, MIN_LEAVES, POINT_UPDATE_CUTOFF};
    // (offset into the meta section, name, the constant written there)
    let words: [(usize, &str, u64); 10] = [
        (4, "upper_leaf", 0.9f64.to_bits()),
        (12, "upper_root", 0.7f64.to_bits()),
        (20, "lower_leaf", 0.08f64.to_bits()),
        (28, "lower_root", 0.3f64.to_bits()),
        (36, "rebuild_target", 0.55f64.to_bits()),
        (52, "bitmap_leaf_threshold", 1f64.to_bits()),
        (60, "min_leaves", MIN_LEAVES as u64),
        (68, "point_update_cutoff", POINT_UPDATE_CUTOFF as u64),
        (76, "full_rebuild_divisor", FULL_REBUILD_DIVISOR as u64),
        (116, "head layout", 0),
    ];
    let check = |bytes: Vec<u8>, load: &dyn Fn(&[u8]) -> Result<(), PersistError>| {
        let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
        assert_eq!(env.meta.len(), 124);
        load(&env.to_bytes()).unwrap();
        for (at, name, want) in words {
            let word = |meta: &[u8]| u64::from_le_bytes(meta[at..at + 8].try_into().unwrap());
            assert_eq!(word(env.meta), want, "{name} written");
            for forged in [0, 1, 7, u64::MAX, want ^ 1, want ^ (1 << 52)] {
                if forged == want {
                    continue;
                }
                let mut meta = env.meta.to_vec();
                meta[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                let forgery = SnapshotEnvelope { meta: &meta, ..env };
                match load(&forgery.to_bytes()) {
                    Err(PersistError::Corrupt(msg)) => {
                        assert!(msg.contains(name), "{name} = {forged:#x}: {msg}")
                    }
                    other => panic!("{name} = {forged:#x}: expected Corrupt, got {other:?}"),
                }
            }
        }
    };
    let pma: Pma = build(&sample_keys(20_000));
    check(pma.to_snapshot_bytes(), &|b| {
        Pma::from_snapshot_bytes(b).map(|back| assert_eq!(back, pma))
    });
    let cpma: Cpma = build(&sample_keys(10_000));
    check(cpma.to_snapshot_bytes(), &|b| {
        Cpma::from_snapshot_bytes(b).map(|back| assert_eq!(back, cpma))
    });
}

/// The two settable words of the meta section: the growing factor (an
/// f64 at offset 44) and the codec override (a stable discriminant at
/// offset 84). Each value round-trips; a factor the builder would refuse
/// is a typed config error, an unknown discriminant a typed corruption.
#[test]
fn settable_meta_words_roundtrip_and_bad_values_are_typed() {
    use cpma_persist::snapshot::SnapshotEnvelope;
    let keys = sample_keys(3_000);
    for (tag, force) in [ForceCodec::Auto, ForceCodec::Delta, ForceCodec::Bitmap]
        .into_iter()
        .enumerate()
    {
        let cfg = PmaConfig::builder()
            .growing_factor(1.1 + tag as f64 / 2.0)
            .force_codec(force)
            .build()
            .unwrap();
        let mut set = Cpma::with_config(cfg);
        set.insert_batch_sorted(&keys);
        let bytes = set.to_snapshot_bytes();
        let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
        assert_eq!(env.meta[44..52], cfg.growing_factor.to_bits().to_le_bytes());
        assert_eq!(env.meta[84..92], (tag as u64).to_le_bytes());
        assert_eq!(Cpma::from_snapshot_bytes(&bytes).unwrap().config(), &cfg);
        let forge = |at: usize, word: u64| {
            let mut meta = env.meta.to_vec();
            meta[at..at + 8].copy_from_slice(&word.to_le_bytes());
            Cpma::from_snapshot_bytes(&SnapshotEnvelope { meta: &meta, ..env }.to_bytes())
        };
        for factor in [1.0, 0.5, f64::NAN, f64::INFINITY] {
            match forge(44, factor.to_bits()) {
                Err(PersistError::Config(e)) => assert_eq!(e.field, "growing_factor"),
                other => panic!("growing factor {factor}: got {other:?}"),
            }
        }
        assert!(matches!(forge(84, 3), Err(PersistError::Corrupt(_))));
    }
}

#[test]
fn non_default_config_survives_roundtrip() {
    let cfg = PmaConfig::builder()
        .growing_factor(1.5)
        .force_codec(ForceCodec::Delta)
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
    assert_every_flip_detected(&bytes, |b| Pma::from_snapshot_bytes(b).map(|_| ()));
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

/// Malformed delta runs, forged into leaf 0 of a real snapshot with valid
/// checksums and a matching element count, load as `Corrupt` from leaf
/// 0's own validation — never a panic, never a wrong set. The long codes
/// would read as small ascending deltas to a decoder that dropped the
/// bits past 63, so only the framing can refuse them. Canonical runs
/// forged the same way load and hold what they say.
#[test]
fn malformed_delta_runs_are_corrupt() {
    use cpma_persist::snapshot::SnapshotEnvelope;
    use cpma_pma::LeafStorage as _;
    let cfg = PmaConfig::builder()
        .force_codec(ForceCodec::Delta)
        .build()
        .unwrap();
    let mut set = Cpma::with_config(cfg);
    let mut keys: Vec<u64> = (0..20_000u64).map(|i| 1000 + i * 1_000_003).collect();
    set.insert_batch(&mut keys, true);
    let (leaves, units) = (set.storage().num_leaves(), set.storage().leaf_units());
    assert!(leaves > 1 && set.storage().head(1) > 1 << 20);
    let old_count = set.storage().count(0);
    let bytes = set.to_snapshot_bytes();
    let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
    let head = 1000u64;
    assert_eq!(set.storage().head(0), head);

    // Leaf 0 becomes `head` and `codes`, holding `count` elements.
    let forge = |codes: &[u8], count: usize| {
        let mut payload = env.payload.to_vec();
        let used_at = leaves;
        let count_at = used_at + 4 * leaves;
        let run_at = count_at + 4 * leaves + 8 * leaves;
        let used = 8 + codes.len();
        assert!(used <= units);
        payload[used_at..used_at + 4].copy_from_slice(&(used as u32).to_le_bytes());
        payload[count_at..count_at + 4].copy_from_slice(&(count as u32).to_le_bytes());
        payload[run_at..run_at + 8].copy_from_slice(&head.to_le_bytes());
        payload[run_at + 8..run_at + used].copy_from_slice(codes);
        let mut meta = env.meta.to_vec();
        let len_at = 4 + 7 * 8 + 4 * 8; // key width + seven f64 + four u64
        let len = set.len() - old_count + count;
        meta[len_at..len_at + 8].copy_from_slice(&(len as u64).to_le_bytes());
        let forged = SnapshotEnvelope {
            meta: &meta,
            payload: &payload,
            ..env
        };
        Cpma::from_snapshot_bytes(&forged.to_bytes())
    };

    // Canonical rows load, and hold what they say.
    for (codes, want) in [
        (vec![0x01, 0x02], vec![head, head + 1, head + 3]),
        (vec![0x81, 0x01, 0x05], vec![head, head + 129, head + 134]),
    ] {
        let back = forge(&codes, want.len()).unwrap_or_else(|e| panic!("{codes:x?}: {e}"));
        back.check_invariants();
        let mut got = Vec::new();
        back.for_range(.., |k| got.push(k));
        assert_eq!(&got[..want.len()], &want[..], "{codes:x?}");
    }

    let ten = |last: u8| [&[0x81][..], &[0x80; 8], &[last]].concat();
    let rows: [(&str, Vec<u8>, usize); 9] = [
        // 1 + 2^70 if the eleventh byte were taken, 1 if dropped.
        (
            "an 11-byte code",
            [&ten(0x80)[..], &[0x00, 0x01]].concat(),
            3,
        ),
        // 1 + 2^64 if the bit past 63 were kept, 1 if dropped.
        (
            "a 10-byte code past u64",
            [&ten(0x02)[..], &[0x01]].concat(),
            3,
        ),
        (
            "a 10-byte code of 0x7f",
            [&ten(0x7f)[..], &[0x01]].concat(),
            3,
        ),
        ("a run whose last byte continues", vec![0x01, 0x02, 0x81], 3),
        ("one terminator too many", vec![0x01, 0x02, 0x03], 3),
        ("one terminator too few", vec![0x01], 3),
        ("a zero delta", vec![0x01, 0x00], 3),
        // u64::MAX as a delta: the sum wraps to `head − 1`.
        (
            "a delta that wraps",
            [&[0x01][..], &[0xff; 9], &[0x01]].concat(),
            3,
        ),
        ("a count of one with a code", vec![0x01], 1),
    ];
    for (what, codes, count) in rows {
        match forge(&codes, count) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.starts_with("leaf 0 "), "{what}: refused by {msg:?}")
            }
            Err(other) => panic!("{what}: expected Corrupt, got {other:?}"),
            Ok(_) => panic!("{what}: loaded"),
        }
    }
}
