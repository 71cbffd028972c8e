//! Crash recovery: newest valid checkpoint + WAL tail replay.
//!
//! The recovery state machine (also documented in `docs/ARCHITECTURE.md`):
//!
//! ```text
//! scan dir ──▶ try checkpoints newest → oldest ──▶ all fail? use empty base
//!                  │ load ok (base seq B)
//!                  ▼
//!          read segments in order, skipping records with seq ≤ B,
//!          requiring seq continuity B+1, B+2, ... (gap ⇒ Corrupt)
//!                  │
//!      ┌───────────┼────────────────────────┐
//!      ▼           ▼                        ▼
//!  valid record  damaged record          damaged record
//!  → queue its   in the NEWEST segment   in an older segment
//!    ops         → torn tail: truncate   → Corrupt (data loss
//!      │           the file there, stop    beyond a torn write)
//!      ▼           ▼
//!  end of the segment (or of its complete prefix): normalise the queue
//!  (last op per key wins) and apply it as ONE batch, then the next segment
//! ```
//!
//! One batch per segment leaves the presence of every key exactly as
//! replaying the records one by one would, at the batch cost the paper's
//! structures are built for. The recovered state is the contents and
//! `last_seq`; the leaf layout may differ from the one the set had before
//! the crash (it is the same at every thread budget).
//!
//! A damaged *checkpoint* is recoverable (older checkpoint + longer
//! replay) — but one of another format version is not damage, and is
//! refused as [`PersistError::UnsupportedVersion`], as is a segment of
//! another version; a damaged record below the WAL tail is not — every record
//! after it is unreachable, so recovery refuses rather than silently
//! dropping acknowledged epochs.

use std::fs::{self, OpenOptions};
use std::path::Path;

use cpma_api::{normalize_ops, BatchOp, BatchSet, Persist, PersistError};
use cpma_obs::{Counter, Unit};

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

/// Process-shared recovery metrics (`persist.recover.*`), both counts and
/// so bit-identical at any thread budget.
struct RecoverMetrics {
    batches: Counter,
    ops: Counter,
}

fn metrics() -> &'static RecoverMetrics {
    static M: std::sync::OnceLock<RecoverMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = cpma_obs::global();
        RecoverMetrics {
            batches: r.shared_counter("persist.recover.batches", Unit::Count),
            ops: r.shared_counter("persist.recover.ops", Unit::Count),
        }
    })
}

/// Replay the WAL tail past `base_seq` onto `set`, one batch per segment:
/// every record is validated in order, its ops queued, and the queue
/// normalised and applied once the segment (or the complete prefix of a
/// torn newest segment) has been read. Last-op-wins across the queued
/// epochs is exactly what replaying them one by one leaves, and one large
/// batch costs a fraction of hundreds of small ones (§4).
fn replay<S: BatchSet>(
    set: &mut S,
    base_seq: u64,
    segments: &[(u64, std::path::PathBuf)],
) -> Result<TailState, PersistError> {
    let mut expected = base_seq + 1;
    let mut replayed = 0u64;
    let mut torn = false;
    let mut queued: Vec<BatchOp<u64>> = Vec::new();

    for (idx, (name_seq, path)) in segments.iter().enumerate() {
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
                    break;
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
                        queued.extend_from_slice(&rec.ops);
                        replayed += 1;
                        expected += 1;
                    }
                    at += rec.encoded_len;
                }
                None if is_newest => {
                    // Torn tail: drop the incomplete record and every
                    // byte after it, so the next writer appends cleanly.
                    // The complete prefix is still applied below.
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(at as u64)?;
                    f.sync_all()?;
                    torn = true;
                    break;
                }
                None => {
                    return Err(PersistError::Corrupt(format!(
                        "damaged wal record below the tail in {}",
                        path.display()
                    )));
                }
            }
        }
        if !queued.is_empty() {
            let m = metrics();
            m.batches.inc();
            m.ops.add(queued.len() as u64);
            set.apply_batch_sorted(normalize_ops(&mut queued));
            queued.clear();
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
    use cpma_api::{BatchOutcome, OrderedSet};
    use std::collections::BTreeSet;
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
        fn apply_batch_sorted(&mut self, ops: &[BatchOp<u64>]) -> BatchOutcome {
            APPLIED.with(|a| a.borrow_mut().push(ops.to_vec()));
            let keys = |insert: bool| -> Vec<u64> {
                ops.iter()
                    .filter(|op| op.is_insert() == insert)
                    .map(|op| op.key())
                    .collect()
            };
            let (ins, del) = (keys(true), keys(false));
            BatchOutcome {
                removed: self.remove_batch_sorted(&del),
                added: self.insert_batch_sorted(&ins),
            }
        }
    }

    thread_local! {
        /// Every batch a `MiniSet` on this thread applied, in order:
        /// recovery applies on the calling thread, so each test sees its own.
        static APPLIED: std::cell::RefCell<Vec<Vec<BatchOp<u64>>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// The batches applied on this thread since the last call.
    fn take_applied() -> Vec<Vec<BatchOp<u64>>> {
        APPLIED.with(|a| std::mem::take(&mut *a.borrow_mut()))
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

    /// `records` epochs `1..=records`, each flipping a few keys of a small
    /// domain (`key_base..key_base + 64`), so later epochs undo earlier ones.
    fn flipping_records(records: u64, key_base: u64) -> Vec<Vec<BatchOp<u64>>> {
        (1..=records)
            .map(|seq| {
                let mut keys: Vec<u64> =
                    (0..5).map(|j| key_base + (seq * 7 + j * 13) % 64).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.into_iter()
                    .map(|k| {
                        if (k + seq) % 3 == 0 {
                            BatchOp::Remove(k)
                        } else {
                            ins(k)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Write `records` (epoch `i + 1` is `records[i]`) as segments starting
    /// at each of `firsts`, and return the contents after every epoch.
    fn write_segments(dir: &Path, records: &[Vec<BatchOp<u64>>], firsts: &[u64]) -> Vec<Vec<u64>> {
        use crate::wal::{encode_record, encode_segment_header};
        let mut model = BTreeSet::new();
        let mut states = vec![Vec::new()];
        for (i, &first) in firsts.iter().enumerate() {
            let end = firsts.get(i + 1).map_or(records.len() as u64 + 1, |&n| n);
            let mut seg = encode_segment_header(first).to_vec();
            for seq in first..end {
                let ops = &records[seq as usize - 1];
                encode_record(&mut seg, seq, ops);
                for op in ops {
                    match *op {
                        BatchOp::Insert(k) => model.insert(k),
                        BatchOp::Remove(k) => model.remove(&k),
                    };
                }
                states.push(model.iter().copied().collect());
            }
            fs::write(dir.join(segment_file_name(first)), &seg).unwrap();
        }
        states
    }

    /// Replay is one batch per segment, whatever the segment holds: the
    /// apply count is pinned, and so are the contents and the report a
    /// record-by-record replay gives.
    #[test]
    fn one_apply_per_segment() {
        let dir = tmp_dir("batched");
        let records = flipping_records(300, 0);
        let states = write_segments(&dir, &records, &[1]);
        take_applied();
        // The registry is process-wide and other tests recover too, so
        // the counters can only be bounded from below here.
        let (batches, ops) = (metrics().batches.value(), metrics().ops.value());
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(take_applied().len(), 1, "300 records, one segment");
        assert!(metrics().batches.value() > batches);
        let queued: usize = records.iter().map(Vec::len).sum();
        assert!(metrics().ops.value() - ops >= queued as u64);
        assert_eq!(set.0, states[300]);
        assert_eq!((report.replayed_records, report.last_seq), (300, 300));
        fs::remove_dir_all(&dir).unwrap();

        let dir = tmp_dir("batched3");
        let states = write_segments(&dir, &records, &[1, 101, 201]);
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        let applied = take_applied();
        assert_eq!(applied.len(), 3, "three segments");
        assert!(applied
            .iter()
            .all(|b| b.windows(2).all(|w| w[0].key() < w[1].key())));
        assert_eq!(set.0, states[300]);
        assert_eq!((report.replayed_records, report.last_seq), (300, 300));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_applies_its_complete_prefix_at_once() {
        let dir = tmp_dir("batchedtorn");
        let records = flipping_records(40, 0);
        let states = write_segments(&dir, &records, &[1, 21]);
        let newest = dir.join(segment_file_name(21));
        let len = fs::metadata(&newest).unwrap().len();
        // Cut into the last record: epochs 21..=39 survive.
        let f = fs::OpenOptions::new().write(true).open(&newest).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        take_applied();
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        assert_eq!(take_applied().len(), 2);
        assert_eq!(set.0, states[39]);
        assert!(report.truncated_tail);
        assert_eq!((report.replayed_records, report.last_seq), (39, 39));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint taken inside a segment (crash before rotation): the
    /// records it covers are read and checked but never reach the batch.
    #[test]
    fn records_under_the_checkpoint_never_reach_the_batch() {
        let dir = tmp_dir("batchedckpt");
        // Epochs 1..=150 touch keys below 1000, epochs 151..=300 keys from
        // 1000 up, so any covered op in the batch would show by its key.
        let mut records = flipping_records(150, 0);
        records.extend(flipping_records(150, 1000));
        let states = write_segments(&dir, &records, &[1]);
        MiniSet(states[150].clone())
            .save(&dir.join(crate::wal::checkpoint_file_name(150)))
            .unwrap();
        take_applied();
        let (set, report) = recover::<MiniSet>(&dir).unwrap();
        let applied = take_applied();
        assert_eq!(applied.len(), 1);
        assert!(applied[0].iter().all(|op| op.key() >= 1000));
        assert_eq!(set.0, states[300]);
        assert_eq!(report.checkpoint_seq, 150);
        assert_eq!((report.replayed_records, report.last_seq), (150, 300));
        fs::remove_dir_all(&dir).unwrap();
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
