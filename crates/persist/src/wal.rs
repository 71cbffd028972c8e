//! The epoch write-ahead log: segments, records, fsync policy, rotation.
//!
//! One WAL directory holds three kinds of files:
//!
//! * `wal-<first_seq>.log` — a *segment*: a fixed header followed by one
//!   record per combiner epoch, in sequence order. `<first_seq>` is the
//!   zero-padded sequence number of the first record the segment holds,
//!   so lexical order equals replay order.
//! * `checkpoint-<seq>` — a full snapshot of the store as of epoch
//!   `<seq>` (written by the structure's `Persist` impl).
//! * `*.tmp` — in-flight atomic writes; ignored (and harmless) after a
//!   crash.
//!
//! ```text
//! segment header (28 bytes)            record: one crate::frame per epoch
//! ------------------------            ---------------------------------
//!  0  8  magic "CPMAWAL0"              0      4  body length L (LE u32)
//!  8  4  version (LE u32, 2)           4      L  body:
//! 12  8  first_seq (LE u64)                        seq   (LE u64)
//! 20  8  XXH64 of bytes [0,20)                     nops  (LE u32)
//!                                                  nops × [tag u8 | key LE u64]
//!                                      4+L    8  XXH64 of the body
//! ```
//!
//! Version 1 was the same layout under FNV-1a digests; the version check is
//! exact, so a v1 segment is [`PersistError::UnsupportedVersion`]. Records
//! carry no version of their own — the segment header speaks for them.
//!
//! `tag` is 1 for insert, 0 for remove. A record is appended (and fsynced
//! per [`FsyncPolicy`]) after the epoch's batch is applied to the
//! combiner's private replica but *before* that replica is published or
//! any of the epoch's operations is acknowledged — the WAL invariant that
//! makes every acknowledged epoch recoverable. Empty epochs still get a
//! (12-byte-body) record so the WAL sequence stays in lockstep with
//! `epochs_applied`.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use cpma_api::{BatchOp, ConfigError, PersistError};
use cpma_obs::{Counter, Histogram, Unit};

use crate::checksum::xxh64;
use crate::frame;
use crate::snapshot::sync_dir;

/// Process-shared WAL metrics (`persist.wal.*`): every [`WalWriter`] in
/// the process feeds the same cells, so the registry shows total WAL
/// traffic without threading handles through the writer's `Debug`-derived
/// struct. Byte/append counts are deterministic; the `.ns` histograms are
/// timing-derived.
struct WalMetrics {
    appends: Counter,
    appended_bytes: Counter,
    fsyncs: Counter,
    append_ns: Histogram,
    fsync_ns: Histogram,
}

fn metrics() -> &'static WalMetrics {
    static M: std::sync::OnceLock<WalMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = cpma_obs::global();
        WalMetrics {
            appends: r.shared_counter("persist.wal.appends", Unit::Count),
            appended_bytes: r.shared_counter("persist.wal.appended_bytes", Unit::Bytes),
            fsyncs: r.shared_counter("persist.wal.fsyncs", Unit::Count),
            append_ns: r.shared_histogram("persist.wal.append.ns", Unit::Nanos),
            fsync_ns: r.shared_histogram("persist.wal.fsync.ns", Unit::Nanos),
        }
    })
}

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: [u8; 8] = *b"CPMAWAL0";

/// Segment format version this build reads and writes.
pub const WAL_VERSION: u32 = 2;

/// Byte length of the segment header.
pub const SEG_HEADER_LEN: usize = 28;

/// Bytes per encoded op inside a record body.
const OP_BYTES: usize = 9;

/// Fixed body bytes before the ops (seq + nops).
const BODY_FIXED: usize = 12;

/// Checkpoints kept at rotation, with the segments they need; older ones
/// are deleted. Two, so that a checkpoint torn by a crash during rotation
/// still has a valid predecessor for recovery to fall back to.
pub const KEEP_CHECKPOINTS: usize = 2;

/// When the WAL file is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record — every acked epoch survives power loss.
    Always,
    /// fsync every N records — bounded loss window, much cheaper.
    EveryN(u64),
    /// never fsync explicitly — survives process crash, not power loss.
    Never,
}

/// Durability configuration for a combiner's WAL directory.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding segments and checkpoints (created if absent).
    pub dir: PathBuf,
    /// When records reach stable storage.
    pub fsync: FsyncPolicy,
    /// Once the live segment exceeds this many bytes, the next epoch
    /// boundary writes a checkpoint and rotates to a fresh segment, keeping
    /// [`KEEP_CHECKPOINTS`] checkpoints.
    pub rotate_bytes: u64,
}

impl WalConfig {
    /// Durable defaults: fsync every record, rotate at 4 MiB.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            rotate_bytes: 4 << 20,
        }
    }

    /// Validate the configuration.
    pub fn check(&self) -> Result<(), ConfigError> {
        if let FsyncPolicy::EveryN(0) = self.fsync {
            return Err(ConfigError::new(
                "fsync",
                "EveryN(0) is meaningless; use Always",
            ));
        }
        if self.rotate_bytes < SEG_HEADER_LEN as u64 + 1 {
            return Err(ConfigError::new(
                "rotate_bytes",
                "must exceed the segment header size",
            ));
        }
        Ok(())
    }
}

/// File name of the segment whose first record is `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// File name of the checkpoint taken at epoch `seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}")
}

/// Parse `wal-<seq>.log` back to its first sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    (digits.len() == 20).then(|| digits.parse().ok())?
}

/// Parse `checkpoint-<seq>` back to its sequence number.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("checkpoint-")?;
    (digits.len() == 20).then(|| digits.parse().ok())?
}

/// Ascending `(seq, path)` list — checkpoints or segments of one WAL dir.
pub type SeqPaths = Vec<(u64, PathBuf)>;

/// Scan a WAL directory: `(checkpoints, segments)`, each as ascending
/// `(seq, path)` lists. Unknown names and `*.tmp` leftovers are ignored.
pub fn scan_dir(dir: &Path) -> Result<(SeqPaths, SeqPaths), PersistError> {
    let mut checkpoints = Vec::new();
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let Some(name) = entry.file_name().to_str().map(str::to_owned) else {
            continue;
        };
        if let Some(seq) = parse_checkpoint_name(&name) {
            checkpoints.push((seq, entry.path()));
        } else if let Some(seq) = parse_segment_name(&name) {
            segments.push((seq, entry.path()));
        }
    }
    checkpoints.sort_unstable_by_key(|&(seq, _)| seq);
    segments.sort_unstable_by_key(|&(seq, _)| seq);
    Ok((checkpoints, segments))
}

/// Serialize the 28-byte segment header.
pub fn encode_segment_header(first_seq: u64) -> [u8; SEG_HEADER_LEN] {
    let mut h = [0u8; SEG_HEADER_LEN];
    h[0..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&first_seq.to_le_bytes());
    let digest = xxh64(&h[..20]);
    h[20..28].copy_from_slice(&digest.to_le_bytes());
    h
}

/// Validate a segment header, returning its `first_seq`.
pub fn parse_segment_header(bytes: &[u8]) -> Result<u64, PersistError> {
    if bytes.len() < SEG_HEADER_LEN {
        return Err(PersistError::Truncated("wal segment header"));
    }
    let magic: [u8; 8] = bytes[0..8].try_into().unwrap();
    if magic != WAL_MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let digest = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    if xxh64(&bytes[..20]) != digest {
        return Err(PersistError::ChecksumMismatch("wal segment header"));
    }
    Ok(u64::from_le_bytes(bytes[12..20].try_into().unwrap()))
}

/// Append one epoch record to `out`, its body written in place inside one
/// [`frame`].
pub fn encode_record(out: &mut Vec<u8>, seq: u64, ops: &[BatchOp<u64>]) {
    out.reserve(frame::OVERHEAD + BODY_FIXED + ops.len() * OP_BYTES);
    frame::write(out, |body| {
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for op in ops {
            body.push(op.is_insert() as u8);
            body.extend_from_slice(&op.key().to_le_bytes());
        }
    });
}

/// One record decoded from a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Epoch sequence number.
    pub seq: u64,
    /// The epoch's normalized op stream (ascending keys, one op/key).
    pub ops: Vec<BatchOp<u64>>,
    /// Total encoded bytes (length prefix + body + checksum).
    pub encoded_len: usize,
}

/// Parse the record at the start of `buf`. `Ok(None)` means the bytes do
/// not form a complete valid record — a torn tail if this is the end of
/// the newest segment, corruption otherwise; the caller knows which.
///
/// [`frame::parse`] checks the declared length against the bytes actually
/// present and the digest against the body; `nops` is then validated
/// against the body length — all before any allocation.
pub fn parse_record(buf: &[u8]) -> Option<WalRecord> {
    let (body, encoded_len) = frame::parse(buf, u32::MAX).ok()??;
    let (fixed, ops_bytes) = body.split_first_chunk::<BODY_FIXED>()?;
    let seq = u64::from_le_bytes(fixed[..8].try_into().unwrap());
    let nops = u32::from_le_bytes(fixed[8..].try_into().unwrap()) as usize;
    let (encoded, stray) = ops_bytes.as_chunks::<OP_BYTES>();
    if !stray.is_empty() || encoded.len() != nops {
        return None;
    }
    let mut ops = Vec::with_capacity(nops);
    let mut prev: Option<u64> = None;
    for [tag, key @ ..] in encoded {
        let key = u64::from_le_bytes(*key);
        // Normal form: strictly ascending keys (what the combiner logs).
        if *tag > 1 || prev.is_some_and(|p| p >= key) {
            return None;
        }
        prev = Some(key);
        ops.push(if *tag == 1 {
            BatchOp::Insert(key)
        } else {
            BatchOp::Remove(key)
        });
    }
    Some(WalRecord {
        seq,
        ops,
        encoded_len,
    })
}

/// Appends epoch records to the live segment; owns fsync and rotation.
#[derive(Debug)]
pub struct WalWriter {
    cfg: WalConfig,
    file: File,
    segment_bytes: u64,
    appends_since_sync: u64,
    /// The record being appended, encoded in place and reused.
    record: Vec<u8>,
}

impl WalWriter {
    /// Open the WAL at `cfg.dir` for appending, with the next record
    /// expected to carry sequence `next_seq`. Appends to the newest
    /// existing segment (recovery must already have truncated any torn
    /// tail) or starts `wal-<next_seq>.log` in an empty directory.
    pub fn open(cfg: WalConfig, next_seq: u64) -> Result<Self, PersistError> {
        cfg.check()?;
        fs::create_dir_all(&cfg.dir)?;
        let (_, segments) = scan_dir(&cfg.dir)?;
        let (file, segment_bytes) = if let Some((_, path)) = segments.last() {
            let file = OpenOptions::new().append(true).open(path)?;
            let segment_bytes = file.metadata()?.len();
            (file, segment_bytes)
        } else {
            Self::create_segment(&cfg.dir, next_seq)?
        };
        Ok(Self {
            cfg,
            file,
            segment_bytes,
            appends_since_sync: 0,
            record: Vec::new(),
        })
    }

    fn create_segment(dir: &Path, first_seq: u64) -> Result<(File, u64), PersistError> {
        let path = dir.join(segment_file_name(first_seq));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        file.write_all(&encode_segment_header(first_seq))?;
        file.sync_all()?;
        // The segment's name, and a checkpoint renamed into `dir` before
        // it, are durable before `rotate` deletes what they replace.
        sync_dir(dir)?;
        Ok((file, SEG_HEADER_LEN as u64))
    }

    /// Append the record for epoch `seq` and apply the fsync policy.
    /// Must be called with consecutive sequence numbers.
    pub fn append(&mut self, seq: u64, ops: &[BatchOp<u64>]) -> Result<(), PersistError> {
        let m = metrics();
        let mut span = cpma_obs::span_with(&m.append_ns, "persist.wal.append");
        self.record.clear();
        encode_record(&mut self.record, seq, ops);
        span.set_items(ops.len() as u64);
        m.appends.inc();
        m.appended_bytes.add(self.record.len() as u64);
        self.file.write_all(&self.record)?;
        self.segment_bytes += self.record.len() as u64;
        self.appends_since_sync += 1;
        match self.cfg.fsync {
            FsyncPolicy::Always => {
                self.fsync_data()?;
            }
            FsyncPolicy::EveryN(n) => {
                if self.appends_since_sync >= n {
                    self.fsync_data()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// `sync_data` with fsync accounting (`persist.wal.fsyncs`,
    /// `persist.wal.fsync.ns`).
    fn fsync_data(&mut self) -> Result<(), PersistError> {
        let m = metrics();
        m.fsyncs.inc();
        m.fsync_ns.time(|| self.file.sync_data())?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// True once the live segment has outgrown `rotate_bytes` — the
    /// caller should checkpoint at the current epoch and call
    /// [`rotate`](Self::rotate).
    pub fn should_rotate(&self) -> bool {
        self.segment_bytes >= self.cfg.rotate_bytes
    }

    /// Where the checkpoint for epoch `seq` belongs.
    pub fn checkpoint_path(&self, seq: u64) -> PathBuf {
        self.cfg.dir.join(checkpoint_file_name(seq))
    }

    /// Rotate after a checkpoint at `checkpoint_seq` has been written:
    /// seal the live segment, start `wal-<checkpoint_seq + 1>.log`, prune
    /// checkpoints beyond [`KEEP_CHECKPOINTS`], and delete segments wholly
    /// covered by the oldest retained checkpoint.
    pub fn rotate(&mut self, checkpoint_seq: u64) -> Result<(), PersistError> {
        // Everything the checkpoint covers must be durable before any
        // segment it replaces can be deleted.
        self.file.sync_all()?;
        let (file, segment_bytes) = Self::create_segment(&self.cfg.dir, checkpoint_seq + 1)?;
        self.file = file;
        self.segment_bytes = segment_bytes;
        self.appends_since_sync = 0;

        let (checkpoints, segments) = scan_dir(&self.cfg.dir)?;
        let keep = KEEP_CHECKPOINTS;
        if checkpoints.len() > keep {
            for (_, path) in &checkpoints[..checkpoints.len() - keep] {
                // A checkpoint may be a single file (PMA snapshot) or a
                // directory (sharded shard-per-file checkpoint).
                if path.is_dir() {
                    fs::remove_dir_all(path)?;
                } else {
                    fs::remove_file(path)?;
                }
            }
        }
        let oldest_kept = checkpoints[checkpoints.len().saturating_sub(keep)].0;
        // A segment covers [first_seq, next_segment.first_seq - 1]; it can
        // go once that whole range is at or below the oldest checkpoint.
        for w in segments.windows(2) {
            let (_, ref path) = w[0];
            let (next_first, _) = w[1];
            if next_first <= oldest_kept + 1 {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Flush buffered records to stable storage regardless of policy.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.fsync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::testkit::{assert_all_refused, Damage};

    fn record(seq: u64, ops: &[BatchOp<u64>]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(&mut out, seq, ops);
        out
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpma-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops(keys: &[(u64, bool)]) -> Vec<BatchOp<u64>> {
        keys.iter()
            .map(|&(k, ins)| {
                if ins {
                    BatchOp::Insert(k)
                } else {
                    BatchOp::Remove(k)
                }
            })
            .collect()
    }

    #[test]
    fn record_roundtrip_and_damage() {
        let ops = ops(&[(3, true), (7, false), (1000, true)]);
        let enc = record(42, &ops);
        let rec = parse_record(&enc).expect("valid record");
        assert_eq!(rec.seq, 42);
        assert_eq!(rec.ops, ops);
        assert_eq!(rec.encoded_len, enc.len());

        // Empty-op records are valid (idle epochs).
        let empty = record(7, &[]);
        let rec = parse_record(&empty).unwrap();
        assert_eq!((rec.seq, rec.ops.len()), (7, 0));

        // Any byte flip and any truncation kills the record, a huge
        // declared length cannot over-read or over-allocate, and a forged
        // digest is refused: the shared corruption table.
        assert_all_refused(
            &enc,
            Damage::sweep(enc.len(), usize::MAX, 1, &[0x02])
                .into_iter()
                .chain(Damage::FRAME_FORGERIES),
            |b| parse_record(b).map(|_| ()).ok_or("no record"),
        );
    }

    /// Appending encodes in place: a record lands after whatever the
    /// buffer already holds, and two in a row parse back to back.
    #[test]
    fn records_append_in_place() {
        let mut out = b"header".to_vec();
        encode_record(&mut out, 1, &ops(&[(5, true)]));
        let first = out.len();
        encode_record(&mut out, 2, &[]);
        assert_eq!(out[6..first], record(1, &ops(&[(5, true)])));
        assert_eq!(parse_record(&out[6..]).unwrap().encoded_len, first - 6);
        assert_eq!(parse_record(&out[first..]).unwrap().seq, 2);
    }

    /// A version-1 segment, byte for byte as the last FNV-1a build wrote
    /// it (header for `first_seq` 1, then the record of epoch 1 =
    /// `[Insert(5), Remove(9)]`): refused on the version — an old log is
    /// named as old — and, the header aside, its record no longer parses.
    #[test]
    fn a_v1_segment_is_an_unsupported_version() {
        const SEG_V1: [u8; 28] = [
            67, 80, 77, 65, 87, 65, 76, 48, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 32, 27, 159, 173,
            0, 231, 229, 60,
        ];
        const REC_V1: [u8; 42] = [
            30, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0,
            0, 0, 0, 0, 0, 201, 221, 225, 249, 216, 80, 29, 42,
        ];
        assert!(matches!(
            parse_segment_header(&SEG_V1),
            Err(PersistError::UnsupportedVersion {
                found: 1,
                supported: WAL_VERSION
            })
        ));
        assert!(parse_record(&REC_V1).is_none());
        // Same layout, new digest: only the last eight bytes differ.
        let today = record(1, &ops(&[(5, true), (9, false)]));
        assert_eq!(today[..34], REC_V1[..34]);
        assert_ne!(today[34..], REC_V1[34..]);
    }

    #[test]
    fn records_must_be_normal_form() {
        // Descending keys → rejected.
        let bad = record(1, &ops(&[(9, true), (3, true)]));
        assert!(parse_record(&bad).is_none());
        // Duplicate keys → rejected.
        let dup = record(1, &ops(&[(3, true), (3, false)]));
        assert!(parse_record(&dup).is_none());
    }

    #[test]
    fn segment_header_roundtrip() {
        let h = encode_segment_header(99);
        assert_eq!(parse_segment_header(&h).unwrap(), 99);
        let damage = Damage::sweep(h.len(), usize::MAX, 1, &[0x10]);
        assert_all_refused(&h, damage, |b| parse_segment_header(b).map(|_| ()));
        // Exact version: zero, older and newer are all refused as versions.
        for v in [0, WAL_VERSION - 1, WAL_VERSION + 1] {
            let mut other = h;
            other[8..12].copy_from_slice(&v.to_le_bytes());
            assert!(matches!(
                parse_segment_header(&other),
                Err(PersistError::UnsupportedVersion { found, .. }) if found == v
            ));
        }
    }

    #[test]
    fn file_names_roundtrip_and_sort() {
        assert_eq!(parse_segment_name(&segment_file_name(17)), Some(17));
        assert_eq!(parse_checkpoint_name(&checkpoint_file_name(17)), Some(17));
        assert_eq!(parse_segment_name("wal-17.log"), None); // unpadded
        assert_eq!(parse_segment_name("checkpoint-x"), None);
        assert!(segment_file_name(9) < segment_file_name(10));
        assert!(segment_file_name(999) < segment_file_name(1000));
    }

    #[test]
    fn writer_appends_and_reopens() {
        let dir = tmp_dir("append");
        let cfg = WalConfig {
            fsync: FsyncPolicy::EveryN(2),
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg.clone(), 1).unwrap();
        w.append(1, &ops(&[(5, true)])).unwrap();
        w.append(2, &ops(&[(5, false), (9, true)])).unwrap();
        drop(w);
        // Reopen appends to the same segment.
        let mut w = WalWriter::open(cfg, 3).unwrap();
        w.append(3, &[]).unwrap();
        w.sync().unwrap();

        let bytes = fs::read(dir.join(segment_file_name(1))).unwrap();
        assert_eq!(parse_segment_header(&bytes).unwrap(), 1);
        let mut at = SEG_HEADER_LEN;
        let mut seqs = Vec::new();
        while at < bytes.len() {
            let rec = parse_record(&bytes[at..]).expect("complete record");
            seqs.push(rec.seq);
            at += rec.encoded_len;
        }
        assert_eq!(seqs, vec![1, 2, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_prunes_old_state() {
        let dir = tmp_dir("rotate");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            rotate_bytes: 64, // tiny: rotate almost every epoch
            ..WalConfig::new(&dir)
        };
        let mut w = WalWriter::open(cfg, 1).unwrap();
        let mut rotations = Vec::new();
        for seq in 1..=20u64 {
            w.append(seq, &ops(&[(seq * 10, true)])).unwrap();
            if w.should_rotate() {
                // Stand-in for the structure checkpoint.
                fs::write(w.checkpoint_path(seq), b"checkpoint-stub").unwrap();
                w.rotate(seq).unwrap();
                rotations.push(seq);
            }
        }
        assert!(rotations.len() >= 3, "rotate_bytes=64 should rotate often");
        let (checkpoints, segments) = scan_dir(&dir).unwrap();
        assert_eq!(
            checkpoints.len(),
            KEEP_CHECKPOINTS,
            "prunes to KEEP_CHECKPOINTS"
        );
        let oldest_kept = checkpoints[0].0;
        // Every surviving segment still covers live ground.
        for w2 in segments.windows(2) {
            assert!(w2[1].0 > oldest_kept + 1, "covered segment not pruned");
        }
        assert!(!segments.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_validation() {
        let mut cfg = WalConfig::new("/tmp/x");
        assert!(cfg.check().is_ok());
        cfg.fsync = FsyncPolicy::EveryN(0);
        assert!(cfg.check().is_err());
        let mut cfg = WalConfig::new("/tmp/x");
        cfg.rotate_bytes = 8;
        assert!(cfg.check().is_err());
    }
}
