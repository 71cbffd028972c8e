//! The snapshot file format: a versioned, checksummed envelope.
//!
//! Because the paper's structures are pointer-free, a checkpoint is a
//! header plus a byte copy of the backing arrays — no pointer fixup, no
//! per-node walk. This module owns the *framing*; what goes inside `meta`
//! (config + geometry) and `payload` (the raw arrays) is up to each
//! structure's [`cpma_api::Persist`] impl.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic  "CPMASNAP"
//!      8     4  format version (LE u32, currently 2)
//!     12     4  codec id (LE u32, structure-specific)
//!     16     4  meta length M (LE u32)
//!     20     8  payload length P (LE u64)
//!     28     M  meta: structure header (config, geometry, counts)
//!   28+M     8  header digest (XXH64 over bytes [0, 28+M))
//!   36+M     P  payload: raw backing arrays, little-endian
//! 36+M+P     8  payload digest (XXH64 over the payload)
//! ```
//!
//! Version 1 was the same layout under FNV-1a digests; a reader accepts
//! exactly its own version, so a v1 file is
//! [`PersistError::UnsupportedVersion`], not a checksum failure.
//!
//! Both declared lengths are validated against the actual file size
//! *before* any slicing, so a corrupted length field yields
//! [`PersistError::Truncated`] — never an over-allocation. Parsing borrows:
//! `meta` and `payload` are views into the file's bytes, so the only copy
//! of a payload a load makes is the one into the structure it becomes.
//! The digest is the workspace's one, [`crate::checksum`].

use std::fs;
use std::io::Write;
use std::path::Path;

use cpma_api::PersistError;

use crate::checksum::xxh64;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"CPMASNAP";

/// The snapshot format version this build writes, and the only one it
/// reads.
pub const SNAP_VERSION: u32 = 2;

/// Bytes before `meta`: magic, version, codec id and the two lengths.
const FIXED_HEADER: usize = 28;

/// A snapshot's contents: codec id plus the two opaque sections, borrowed
/// — from the structure's own buffers on the way out, from the file's
/// bytes on the way in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotEnvelope<'a> {
    /// Which leaf codec wrote the payload (see `LeafStorage::CODEC_ID`
    /// in `cpma-pma`; other structures pick their own ids).
    pub codec_id: u32,
    /// Structure-specific header fields (config, geometry, counts).
    pub meta: &'a [u8],
    /// The raw backing arrays.
    pub payload: &'a [u8],
}

impl<'a> SnapshotEnvelope<'a> {
    /// Serialize to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta_len = u32::try_from(self.meta.len()).expect("snapshot meta exceeds u32::MAX");
        let mut out = Vec::with_capacity(FIXED_HEADER + 16 + self.meta.len() + self.payload.len());
        out.extend_from_slice(&SNAP_MAGIC);
        out.put_u32(SNAP_VERSION);
        out.put_u32(self.codec_id);
        out.put_u32(meta_len);
        out.put_u64(self.payload.len() as u64);
        out.extend_from_slice(self.meta);
        let header_digest = xxh64(&out);
        out.put_u64(header_digest);
        out.extend_from_slice(self.payload);
        out.put_u64(xxh64(self.payload));
        out
    }

    /// Parse and validate the on-disk byte layout; the sections of the
    /// result borrow from `bytes`.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::new(bytes);
        let magic: [u8; 8] = r.take(8, "snapshot header")?.try_into().unwrap();
        if magic != SNAP_MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let version = r.u32("snapshot header")?;
        if version != SNAP_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: SNAP_VERSION,
            });
        }
        let codec_id = r.u32("snapshot header")?;
        let meta_len = r.u32("snapshot header")? as usize;
        let payload_len = usize::try_from(r.u64("snapshot header")?)
            .map_err(|_| PersistError::Truncated("snapshot payload"))?;
        // Every `take` checks its length against the bytes actually left
        // (the lengths are attacker-controlled until the digests pass).
        let meta = r.take(meta_len, "snapshot meta")?;
        let header_digest = r.u64("snapshot meta")?;
        let payload = r.take(payload_len, "snapshot payload")?;
        let payload_digest = r.u64("snapshot payload")?;
        r.expect_end("snapshot")?;
        if xxh64(&bytes[..FIXED_HEADER + meta_len]) != header_digest {
            return Err(PersistError::ChecksumMismatch("snapshot header"));
        }
        if xxh64(payload) != payload_digest {
            return Err(PersistError::ChecksumMismatch("snapshot payload"));
        }
        Ok(Self {
            codec_id,
            meta,
            payload,
        })
    }

    /// Write the envelope to `path` atomically: serialize to a `.tmp`
    /// sibling, fsync it, then rename over `path`. A crash mid-save
    /// leaves either the old file or the new one, never a hybrid. Reading
    /// back is `fs::read` + [`from_bytes`](Self::from_bytes), the buffer
    /// staying with the caller the sections borrow from.
    pub fn save_file(&self, path: &Path) -> Result<(), PersistError> {
        write_atomic(path, &self.to_bytes())
    }
}

/// Process-shared checkpoint metrics (`persist.checkpoint.*`): every
/// atomic snapshot write in the process (whole-structure checkpoints,
/// per-shard files, manifests) funnels through [`write_atomic`], so these
/// cells see all checkpoint traffic. Counts/bytes are deterministic; the
/// `.ns` histogram is timing-derived.
struct CheckpointMetrics {
    writes: cpma_obs::Counter,
    bytes: cpma_obs::Counter,
    write_ns: cpma_obs::Histogram,
}

fn metrics() -> &'static CheckpointMetrics {
    static M: std::sync::OnceLock<CheckpointMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = cpma_obs::global();
        CheckpointMetrics {
            writes: r.shared_counter("persist.checkpoint.writes", cpma_obs::Unit::Count),
            bytes: r.shared_counter("persist.checkpoint.bytes", cpma_obs::Unit::Bytes),
            write_ns: r.shared_histogram("persist.checkpoint.write.ns", cpma_obs::Unit::Nanos),
        }
    })
}

/// Write `bytes` to `path` via a fsynced `.tmp` sibling and rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let m = metrics();
    let mut span = cpma_obs::span_with(&m.write_ns, "persist.checkpoint.write");
    span.set_items(bytes.len() as u64);
    m.writes.inc();
    m.bytes.add(bytes.len() as u64);
    let tmp = tmp_sibling(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "checkpoint".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// A little-endian cursor over persisted bytes; every read is
/// bounds-checked and yields [`PersistError::Truncated`] past the end.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume a LE u32.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Consume a LE u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Consume an f64 stored as LE bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Error unless every byte has been consumed.
    pub fn expect_end(&self, what: &'static str) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{what}: {} unexpected trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Append helpers for building `meta`/`payload` sections (all LE).
pub trait ByteSink {
    /// Append a LE u32.
    fn put_u32(&mut self, v: u32);
    /// Append a LE u64.
    fn put_u64(&mut self, v: u64);
    /// Append an f64 as its LE bit pattern.
    fn put_f64(&mut self, v: f64);
}

impl ByteSink for Vec<u8> {
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::testkit::{assert_all_refused, Damage};

    const META: &[u8] = b"config, geometry and counts, as the structure wrote them";

    fn payload() -> Vec<u8> {
        (0u16..500).map(|v| (v % 251) as u8).collect()
    }

    fn parses(bytes: &[u8]) -> Result<(), PersistError> {
        SnapshotEnvelope::from_bytes(bytes).map(|_| ())
    }

    fn sample(payload: &[u8]) -> SnapshotEnvelope<'_> {
        SnapshotEnvelope {
            codec_id: 7,
            meta: META,
            payload,
        }
    }

    #[test]
    fn roundtrip() {
        let payload = payload();
        let env = sample(&payload);
        let bytes = env.to_bytes();
        assert_eq!(SnapshotEnvelope::from_bytes(&bytes).unwrap(), env);
        // Empty sections are representable.
        let empty = SnapshotEnvelope {
            codec_id: 0,
            meta: &[],
            payload: &[],
        };
        let b = empty.to_bytes();
        assert_eq!(SnapshotEnvelope::from_bytes(&b).unwrap(), empty);
    }

    /// Parsing copies nothing: both sections point into the input.
    #[test]
    fn parsed_sections_borrow_from_the_input() {
        let bytes = sample(&payload()).to_bytes();
        let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
        assert_eq!(env.meta.as_ptr(), bytes[FIXED_HEADER..].as_ptr());
        assert_eq!(
            env.payload.as_ptr(),
            bytes[FIXED_HEADER + META.len() + 8..].as_ptr()
        );
    }

    // Both sweeps come from the corruption table the WAL record and the
    // wire frame run too (`cpma_api::testkit`).
    #[test]
    fn every_byte_flip_is_detected() {
        let bytes = sample(&payload()).to_bytes();
        let flips = Damage::sweep(bytes.len(), usize::MAX, 1, &[0x01]);
        assert_all_refused(&bytes, flips, parses);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample(&payload()).to_bytes();
        let cuts = Damage::sweep(bytes.len(), usize::MAX, 1, &[]);
        assert_all_refused(&bytes, cuts, parses);
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample(&payload()).to_bytes();
        bytes.push(0);
        assert!(matches!(
            SnapshotEnvelope::from_bytes(&bytes),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn huge_declared_lengths_do_not_allocate() {
        // Declare a multi-exabyte payload in a 100-byte file: must fail
        // with Truncated (lengths are checked against actual size first).
        let mut bytes = sample(&payload()).to_bytes();
        bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotEnvelope::from_bytes(&bytes),
            Err(PersistError::Truncated(_))
        ));
        let mut bytes2 = sample(&payload()).to_bytes();
        bytes2[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotEnvelope::from_bytes(&bytes2),
            Err(PersistError::Truncated(_))
        ));
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut bytes = sample(&payload()).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotEnvelope::from_bytes(&bytes),
            Err(PersistError::BadMagic { .. })
        ));
        // The version check is exact: newer, older and zero are all
        // refused on the version, before any digest is looked at.
        for v in [9u32, SNAP_VERSION - 1, 0] {
            let mut other = sample(&payload()).to_bytes();
            other[8..12].copy_from_slice(&v.to_le_bytes());
            assert!(matches!(
                SnapshotEnvelope::from_bytes(&other),
                Err(PersistError::UnsupportedVersion { found, supported: SNAP_VERSION }) if found == v
            ));
        }
    }

    /// A version-1 file, byte for byte as the last FNV-1a build wrote it
    /// (`codec_id` 7, meta `[1, 2, 3, 4]`, payload `"v1 payload"`): an old
    /// checkpoint is named as old, not mistaken for a corrupt one.
    #[test]
    fn a_v1_file_is_an_unsupported_version_not_a_checksum_failure() {
        const SNAP_V1: [u8; 58] = [
            67, 80, 77, 65, 83, 78, 65, 80, 1, 0, 0, 0, 7, 0, 0, 0, 4, 0, 0, 0, 10, 0, 0, 0, 0, 0,
            0, 0, 1, 2, 3, 4, 112, 115, 150, 115, 0, 58, 158, 36, 118, 49, 32, 112, 97, 121, 108,
            111, 97, 100, 38, 121, 143, 204, 154, 69, 219, 158,
        ];
        assert!(matches!(
            SnapshotEnvelope::from_bytes(&SNAP_V1),
            Err(PersistError::UnsupportedVersion {
                found: 1,
                supported: SNAP_VERSION
            })
        ));
        // The same sections written today differ only in version and digests.
        let today = SnapshotEnvelope {
            codec_id: 7,
            meta: &[1, 2, 3, 4],
            payload: b"v1 payload",
        }
        .to_bytes();
        assert_eq!(today.len(), SNAP_V1.len());
        assert_eq!(today[12..32], SNAP_V1[12..32]);
        assert_eq!(today[40..50], SNAP_V1[40..50]);
    }

    #[test]
    fn atomic_save_load() {
        let dir = std::env::temp_dir().join(format!("cpma-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.cpma");
        let payload = payload();
        let env = sample(&payload);
        env.save_file(&path).unwrap();
        let back = fs::read(&path).unwrap();
        assert_eq!(SnapshotEnvelope::from_bytes(&back).unwrap(), env);
        // Overwrite with different contents: atomic replace.
        let env2 = SnapshotEnvelope { codec_id: 9, ..env };
        env2.save_file(&path).unwrap();
        let back = fs::read(&path).unwrap();
        assert_eq!(SnapshotEnvelope::from_bytes(&back).unwrap(), env2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_reader_bounds() {
        let mut buf = Vec::new();
        buf.put_u32(7);
        buf.put_u64(1 << 40);
        buf.put_f64(1.25);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32("a").unwrap(), 7);
        assert_eq!(r.u64("b").unwrap(), 1 << 40);
        assert_eq!(r.f64("c").unwrap(), 1.25);
        assert!(r.expect_end("buf").is_ok());
        assert!(matches!(r.u32("d"), Err(PersistError::Truncated("d"))));
    }
}
