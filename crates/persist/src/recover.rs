//! Crash recovery: newest valid checkpoint + WAL tail replay.
//!
//! The recovery state machine (also documented in `docs/ARCHITECTURE.md`):
//!
//! ```text
//! scan dir ──▶ try checkpoints newest → oldest ──▶ all fail? use empty base
//!                  │ load ok (base seq B)
//!                  ▼
//!          replay segments in order, skipping records with seq ≤ B,
//!          requiring seq continuity B+1, B+2, ... (gap ⇒ Corrupt)
//!                  │
//!      ┌───────────┼────────────────────────┐
//!      ▼           ▼                        ▼
//!  valid record  damaged record          damaged record
//!  → apply       in the NEWEST segment   in an older segment
//!                → torn tail: truncate   → Corrupt (data loss
//!                  the file there, stop    beyond a torn write)
//! ```
//!
//! A damaged *checkpoint* is recoverable (older checkpoint + longer
//! replay) — but one of another format version is not damage, and is
//! refused as [`PersistError::UnsupportedVersion`], as is a segment of
//! another version; a damaged record below the WAL tail is not — every record
//! after it is unreachable, so recovery refuses rather than silently
//! dropping acknowledged epochs.

use std::fs::{self, OpenOptions};
use std::path::Path;

use cpma_api::{BatchSet, Persist, PersistError};

use crate::wal::{parse_record, parse_segment_header, scan_dir, SEG_HEADER_LEN};

/// What recovery found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the checkpoint recovery started from (0 = empty base).
    pub checkpoint_seq: u64,
    /// Epoch sequence of the recovered state — the last acked epoch.
    pub last_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// True iff a torn tail was found and truncated away.
    pub truncated_tail: bool,
    /// Checkpoints newer than the one used that failed to load.
    pub skipped_checkpoints: u64,
}

/// Recover the durable state in `dir`: load the newest checkpoint that
/// validates (falling back to an empty structure), replay the WAL tail,
/// and truncate any torn final record. Deterministic: the same directory
/// bytes always yield the same state.
pub fn recover<S: Persist + BatchSet>(dir: &Path) -> Result<(S, RecoveryReport), PersistError> {
    fs::create_dir_all(dir)?;
    let (checkpoints, segments) = scan_dir(dir)?;

    let mut skipped = 0u64;
    // Newest checkpoint first, then older ones, then the empty base.
    for (base_seq, path) in checkpoints
        .iter()
        .rev()
        .map(|(seq, p)| (*seq, Some(p)))
        .chain(std::iter::once((0, None)))
    {
        let mut set = match path {
            Some(p) => match S::load(p) {
                Ok(s) => s,
                // Written by another format version: old, not damaged. An
                // older checkpoint or the empty base would be the wrong
                // answer to "this directory needs the build that wrote it".
                Err(e @ PersistError::UnsupportedVersion { .. }) => return Err(e),
                Err(_) => {
                    skipped += 1;
                    continue;
                }
            },
            None => S::new_set(),
        };
        let tail = replay(&mut set, base_seq, &segments)?;
        return Ok((
            set,
            RecoveryReport {
                checkpoint_seq: base_seq,
                last_seq: tail.last_seq,
                replayed_records: tail.replayed,
                truncated_tail: tail.torn,
                skipped_checkpoints: skipped,
            },
        ));
    }
    unreachable!("the empty base candidate always returns");
}

struct TailState {
    last_seq: u64,
    replayed: u64,
    torn: bool,
}

fn replay<S: BatchSet>(
    set: &mut S,
    base_seq: u64,
    segments: &[(u64, std::path::PathBuf)],
) -> Result<TailState, PersistError> {
    let mut expected = base_seq + 1;
    let mut replayed = 0u64;
    let mut torn = false;

    'segments: for (idx, (name_seq, path)) in segments.iter().enumerate() {
        let is_newest = idx == segments.len() - 1;
        let bytes = fs::read(path)?;
        match parse_segment_header(&bytes) {
            Ok(first_seq) => {
                if first_seq != *name_seq {
                    return Err(PersistError::Corrupt(format!(
                        "segment {} header says first_seq {first_seq}",
                        path.display()
                    )));
                }
            }
            // The header is written and fsynced before the segment is
            // used, so an incomplete header can only be a torn segment
            // create at the very tail of the log.
            Err(e) => {
                if is_newest && bytes.len() < SEG_HEADER_LEN {
                    fs::remove_file(path)?;
                    torn = true;
                    break 'segments;
                }
                return Err(e);
            }
        }
        let mut at = SEG_HEADER_LEN;
        while at < bytes.len() {
            match parse_record(&bytes[at..]) {
                Some(rec) => {
                    if rec.seq > base_seq {
                        if rec.seq != expected {
                            return Err(PersistError::Corrupt(format!(
                                "wal sequence gap: expected {expected}, found {}",
                                rec.seq
                            )));
                        }
                        // `parse_record` admits only normal form.
                        set.apply_batch_sorted(&rec.ops);
                        replayed += 1;
                        expected += 1;
                    }
                    at += rec.encoded_len;
                }
                None if is_newest => {
                    // Torn tail: drop the incomplete record and every
                    // byte after it, so the next writer appends cleanly.
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(at as u64)?;
                    f.sync_all()?;
                    torn = true;
                    break 'segments;
                }
                None => {
                    return Err(PersistError::Corrupt(format!(
                        "damaged wal record below the tail in {}",
                        path.display()
                    )));
                }
            }
        }
    }
    Ok(TailState {
        last_seq: expected - 1,
        replayed,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotEnvelope;
    use crate::wal::{segment_file_name, FsyncPolicy, WalConfig, WalWriter};
    use cpma_api::BatchOp;
    use cpma_api::OrderedSet;
    use std::path::PathBuf;

    /// Minimal sorted-vec set with a `Persist` impl — enough structure to
    /// exercise the recovery driver without pulling in `cpma-pma`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct MiniSet(Vec<u64>);

    impl OrderedSet for MiniSet {
        const NAME: &'static str = "MiniSet";
        fn contains(&self, key: u64) -> bool {
            self.0.binary_search(&key).is_ok()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn min(&self) -> Option<u64> {
            self.0.first().copied()
        }
        fn max(&self) -> Option<u64> {
            self.0.last().copied()
        }
        fn successor(&self, key: u64) -> Option<u64> {
            let i = self.0.partition_point(|&e| e < key);
            self.0.get(i).copied()
        }
        fn size_bytes(&self) -> usize {
            self.0.len() * 8
        }
    }

    impl BatchSet for MiniSet {
        fn new_set() -> Self {
            MiniSet(Vec::new())
        }
        fn build_sorted(elems: &[u64]) -> Self {
            MiniSet(elems.to_vec())
        }
        fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
            let before = self.0.len();
            self.0.extend_from_slice(batch);
            self.0.sort_unstable();
            self.0.dedup();
            self.0.len() - before
        }
        fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
            let before = self.0.len();
            self.0.retain(|e| batch.binary_search(e).is_err());
            before - self.0.len()
        }
    }

    impl Persist for MiniSet {
        fn save(&self, path: &Path) -> Result<(), PersistError> {
            let mut payload = Vec::with_capacity(self.0.len() * 8);
            for &e in &self.0 {
                payload.extend_from_slice(&e.to_le_bytes());
            }
            SnapshotEnvelope {
                codec_id: 1000,
                meta: &[],
                payload: &payload,
            }
            .save_file(path)
        }
        fn load(path: &Path) -> Result<Self, PersistError> {
            let bytes = fs::read(path)?;
            let env = SnapshotEnvelope::from_bytes(&bytes)?;
            if env.codec_id != 1000 {
                return Err(PersistError::CodecMismatch {
                    expected: 1000,
                    found: env.codec_id,
                });
            }
            if env.payload.len() % 8 != 0 {
                return Err(PersistError::Truncated("miniset payload"));
            }
            let elems: Vec<u64> = env
                .payload
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            if elems.windows(2).any(|w| w[0] >= w[1]) {
                return Err(PersistError::Corrupt("miniset not ascending".into()));
            }
            Ok(MiniSet(elems))
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpma-rec-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ins(k: u64) -> BatchOp<u64> {
        BatchOp::Insert(k)
    }

    #[test]
    fn empty_dir_recovers_fresh() {
        let dir = tmp_dir("fresh");
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert!(set.0.is_empty());
        assert_eq!(report, RecoveryReport::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_only_replay() {
        let dir = tmp_dir("walonly");
        let mut w = WalWriter::open(WalConfig::new(&dir), 1).unwrap();
        w.append(1, &[ins(10), ins(20)]).unwrap();
        w.append(2, &[BatchOp::Remove(10), ins(30)]).unwrap();
        w.append(3, &[]).unwrap();
        drop(w);
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(set.0, vec![20, 30]);
        assert_eq!(report.last_seq, 3);
        assert_eq!(report.replayed_records, 3);
        assert!(!report.truncated_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_tail() {
        let dir = tmp_dir("ckpt");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 1).unwrap();
        w.append(1, &[ins(1)]).unwrap();
        w.append(2, &[ins(2)]).unwrap();
        MiniSet(vec![1, 2]).save(&w.checkpoint_path(2)).unwrap();
        w.rotate(2).unwrap();
        w.append(3, &[ins(3)]).unwrap();
        w.sync().unwrap();
        drop(w);
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(set.0, vec![1, 2, 3]);
        assert_eq!(report.checkpoint_seq, 2);
        assert_eq!(report.last_seq, 3);
        assert_eq!(report.replayed_records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back() {
        let dir = tmp_dir("fallback");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 1).unwrap();
        w.append(1, &[ins(1)]).unwrap();
        MiniSet(vec![1]).save(&w.checkpoint_path(1)).unwrap();
        w.rotate(1).unwrap();
        w.append(2, &[ins(2)]).unwrap();
        let newest = w.checkpoint_path(2);
        MiniSet(vec![1, 2]).save(&newest).unwrap();
        w.rotate(2).unwrap();
        w.append(3, &[ins(3)]).unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip a payload byte in the newest checkpoint.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() - 12;
        bytes[mid] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();

        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(set.0, vec![1, 2, 3]);
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(report.skipped_checkpoints, 1);
        assert_eq!(report.replayed_records, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Files of another format version are old, not corrupt: recovery
    /// names the version instead of skipping the checkpoint (which would
    /// quietly recover an older state) or calling the segment damaged.
    #[test]
    fn other_format_versions_are_refused_not_skipped() {
        let dir = tmp_dir("oldversion");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 1).unwrap();
        w.append(1, &[ins(1)]).unwrap();
        let checkpoint = w.checkpoint_path(1);
        MiniSet(vec![1]).save(&checkpoint).unwrap();
        w.rotate(1).unwrap();
        w.append(2, &[ins(2)]).unwrap();
        drop(w);
        let old_version = |path: &Path| {
            let mut bytes = fs::read(path).unwrap();
            bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
            fs::write(path, bytes).unwrap();
        };
        let refused = || match recover::<MiniSet>(&dir) {
            Err(PersistError::UnsupportedVersion { found: 1, .. }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        };

        old_version(&checkpoint);
        refused();
        // With the checkpoint gone the empty base is tried, and the
        // old-version segment under it is refused the same way.
        fs::remove_file(&checkpoint).unwrap();
        old_version(&dir.join(segment_file_name(2)));
        refused();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmp_dir("torn");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg.clone(), 1).unwrap();
        w.append(1, &[ins(1)]).unwrap();
        w.append(2, &[ins(2)]).unwrap();
        w.sync().unwrap();
        drop(w);
        let seg = dir.join(segment_file_name(1));
        let full = fs::read(&seg).unwrap();
        // Chop into the middle of record 2.
        let cut = full.len() - 5;
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();

        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(set.0, vec![1]);
        assert_eq!(report.last_seq, 1);
        assert!(report.truncated_tail);
        // The torn bytes are physically gone; appending resumes cleanly.
        let mut w = WalWriter::open(cfg, 2).unwrap();
        w.append(2, &[ins(7)]).unwrap();
        w.sync().unwrap();
        drop(w);
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(set.0, vec![1, 7]);
        assert_eq!(report.last_seq, 2);
        assert!(!report.truncated_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_damage_is_refused() {
        use crate::wal::{encode_record, encode_segment_header};
        let dir = tmp_dir("midlog");
        // Two live segments, no checkpoint: both must replay cleanly.
        let mut seg1 = encode_segment_header(1).to_vec();
        encode_record(&mut seg1, 1, &[ins(1)]);
        let mut seg2 = encode_segment_header(2).to_vec();
        encode_record(&mut seg2, 2, &[ins(2)]);
        // Damage the record in the OLDER segment.
        let n = seg1.len();
        seg1[n - 3] ^= 0x01;
        fs::write(dir.join(segment_file_name(1)), &seg1).unwrap();
        fs::write(dir.join(segment_file_name(2)), &seg2).unwrap();

        let err = recover::<MiniSet>(&dir).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_gap_is_refused() {
        let dir = tmp_dir("gap");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 5).unwrap();
        // First record claims seq 5 with no checkpoint ≥ 4 to anchor it.
        w.append(5, &[ins(1)]).unwrap();
        w.sync().unwrap();
        drop(w);
        let err = recover::<MiniSet>(&dir).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_create_is_dropped() {
        let dir = tmp_dir("torncreate");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 1).unwrap();
        w.append(1, &[ins(1)]).unwrap();
        w.sync().unwrap();
        drop(w);
        // Simulate a crash mid-create of the next segment: header cut short.
        fs::write(dir.join(segment_file_name(2)), [0u8; 7]).unwrap();
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(set.0, vec![1]);
        assert_eq!(report.last_seq, 1);
        assert!(report.truncated_tail);
        assert!(!dir.join(segment_file_name(2)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fuzz_random_tail_truncations_never_panic() {
        // Truncate the single-segment WAL at EVERY byte length; recovery
        // must always succeed with a prefix of the acked epochs.
        let dir = tmp_dir("fuzztrunc");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 1).unwrap();
        let mut boundaries = vec![];
        for seq in 1..=5u64 {
            w.append(seq, &[ins(seq * 100), ins(seq * 100 + 1)])
                .unwrap();
            w.sync().unwrap();
            boundaries.push(fs::metadata(dir.join(segment_file_name(1))).unwrap().len());
        }
        drop(w);
        let seg = dir.join(segment_file_name(1));
        let full = fs::read(&seg).unwrap();
        for cut in 0..=full.len() {
            let case = tmp_dir(&format!("fuzztrunc-{cut}"));
            fs::write(case.join(segment_file_name(1)), &full[..cut]).unwrap();
            if (cut as u64) < SEG_HEADER_LEN as u64 {
                // Torn create: dropped entirely, fresh state.
                let (set, _) = recover::<MiniSet>(&case).unwrap();
                assert!(set.0.is_empty());
            } else {
                let (set, report) = recover::<MiniSet>(&case).unwrap();
                let complete = boundaries.iter().filter(|&&b| b <= cut as u64).count() as u64;
                assert_eq!(report.last_seq, complete, "cut at {cut}");
                assert_eq!(set.len(), complete as usize * 2);
            }
            fs::remove_dir_all(&case).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fuzz_byte_flips_never_panic() {
        // Flip every byte of a two-record segment: recovery must either
        // succeed (flip landed past the tail we keep) or return a typed
        // error — never panic.
        let dir = tmp_dir("fuzzflip");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 1).unwrap();
        w.append(1, &[ins(10)]).unwrap();
        w.append(2, &[ins(20)]).unwrap();
        w.sync().unwrap();
        drop(w);
        let seg = dir.join(segment_file_name(1));
        let full = fs::read(&seg).unwrap();
        for i in 0..full.len() {
            let case = tmp_dir(&format!("fuzzflip-{i}"));
            let mut bytes = full.clone();
            bytes[i] ^= 0x20;
            fs::write(case.join(segment_file_name(1)), &bytes).unwrap();
            match recover::<MiniSet>(&case) {
                Ok((set, report)) => {
                    assert!(report.last_seq <= 2);
                    assert!(set.len() <= 2);
                }
                Err(e) => {
                    let _ = e.to_string();
                }
            }
            fs::remove_dir_all(&case).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
