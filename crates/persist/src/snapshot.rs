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
//! There is one writer, [`SnapshotWriter`] over any [`Write`], and one
//! reader, [`SnapshotReader`] over any [`Read`]; each hashes the bytes it
//! passes on ([`Xxh64`]), so neither stages the file in a buffer of its
//! own. A save streams the structure's arrays straight to the file, and a
//! load reads each payload section straight into the array it becomes:
//! each payload byte is copied once either way. Before anything sized by
//! the file is allocated, the reader checks magic, version, both declared
//! lengths against the source's actual size — a corrupted length field
//! yields [`PersistError::Truncated`], never an over-allocation — and the
//! header digest; the payload digest is checked once the payload is read
//! and before any of it is validated. [`SnapshotEnvelope`] is the
//! in-memory form of the same two: its sections borrow, from the
//! structure on the way out and from the input bytes on the way in. The
//! digest is the workspace's one, [`crate::checksum`].

use std::fs;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use cpma_api::PersistError;

use crate::checksum::Xxh64;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"CPMASNAP";

/// The snapshot format version this build writes, and the only one it
/// reads.
pub const SNAP_VERSION: u32 = 2;

/// Bytes before `meta`: magic, version, codec id and the two lengths.
const FIXED_HEADER: usize = 28;

/// Bytes an envelope adds around its two sections: the fixed header and
/// the two digests.
pub const ENVELOPE_BYTES: usize = FIXED_HEADER + 16;

/// Payload bytes hashed per step of a large read or write: the piece just
/// copied is still in cache when it is hashed.
const HASH_STEP: usize = 256 << 10;

/// The stack buffer little-endian words pass through ([`write_le`],
/// [`SnapshotReader::read_le`]).
const WORD_BUF: usize = 8 << 10;

/// Buffer of the file reader and writer: header, meta and the small
/// per-leaf sections share syscalls; large sections bypass it.
const FILE_BUF: usize = 64 << 10;

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
        let mut out = Vec::with_capacity(ENVELOPE_BYTES + self.meta.len() + self.payload.len());
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Parse and validate the on-disk byte layout through
    /// [`SnapshotReader`]; the sections of the result borrow from `bytes`.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let mut r = SnapshotReader::new(bytes, bytes.len() as u64)?;
        let payload = r.borrow_payload();
        r.verify()?;
        Ok(Self {
            codec_id: r.codec_id(),
            meta: &bytes[FIXED_HEADER..FIXED_HEADER + r.meta().len()],
            payload,
        })
    }

    /// Stream the envelope to `out` through [`SnapshotWriter`].
    fn write_to(&self, out: impl Write) -> io::Result<()> {
        let mut w = SnapshotWriter::new(out, self.codec_id, self.meta, self.payload.len())?;
        w.write_all(self.payload)?;
        w.finish().map(drop)
    }

    /// Write the envelope to `path` atomically ([`write_atomic`]). Reading
    /// back is [`SnapshotReader::open`], or `fs::read` +
    /// [`from_bytes`](Self::from_bytes) where the caller keeps the buffer
    /// the sections borrow from.
    pub fn save_file(&self, path: &Path) -> Result<(), PersistError> {
        write_atomic(path, |out| self.write_to(out))
    }
}

/// The one snapshot writer: [`new`](Self::new) writes the header, the
/// meta and the header digest; the payload then goes through [`Write`] in
/// any number of pieces, hashed on the way; [`finish`](Self::finish)
/// writes the payload digest. Writing more or fewer payload bytes than
/// declared is an [`io::ErrorKind::InvalidInput`] error, so a writer bug
/// cannot produce a file whose lengths lie.
pub struct SnapshotWriter<W: Write> {
    out: W,
    hasher: Xxh64,
    /// Payload bytes still owed.
    left: usize,
}

impl<W: Write> SnapshotWriter<W> {
    /// Start a snapshot of `codec_id` with `meta`, announcing a payload of
    /// exactly `payload_len` bytes.
    pub fn new(mut out: W, codec_id: u32, meta: &[u8], payload_len: usize) -> io::Result<Self> {
        let meta_len = u32::try_from(meta.len()).expect("snapshot meta exceeds u32::MAX");
        let mut fixed = Vec::with_capacity(FIXED_HEADER);
        fixed.extend_from_slice(&SNAP_MAGIC);
        fixed.put_u32(SNAP_VERSION);
        fixed.put_u32(codec_id);
        fixed.put_u32(meta_len);
        fixed.put_u64(payload_len as u64);
        let mut header = Xxh64::new();
        header.update(&fixed);
        header.update(meta);
        out.write_all(&fixed)?;
        out.write_all(meta)?;
        out.write_all(&header.finish().to_le_bytes())?;
        Ok(Self {
            out,
            hasher: Xxh64::new(),
            left: payload_len,
        })
    }

    /// Seal the payload with its digest; the destination is handed back.
    pub fn finish(mut self) -> io::Result<W> {
        if self.left != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("snapshot payload {} bytes short of its length", self.left),
            ));
        }
        self.out.write_all(&self.hasher.finish().to_le_bytes())?;
        Ok(self.out)
    }
}

impl<W: Write> Write for SnapshotWriter<W> {
    /// Passes all of `buf` on, or fails.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.len() > self.left {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot payload longer than its length",
            ));
        }
        for piece in buf.chunks(HASH_STEP) {
            self.hasher.update(piece);
            self.out.write_all(piece)?;
        }
        self.left -= buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Write `words` little-endian (`to` is the type's `to_le_bytes`) through
/// a stack buffer.
pub fn write_le<T: Copy, const N: usize>(
    out: &mut impl Write,
    words: &[T],
    to: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    let mut buf = [0u8; WORD_BUF];
    for chunk in words.chunks(WORD_BUF / N) {
        let bytes = &mut buf[..chunk.len() * N];
        for (w, b) in chunk.iter().zip(bytes.as_chunks_mut::<N>().0) {
            *b = to(*w);
        }
        out.write_all(bytes)?;
    }
    Ok(())
}

/// The one snapshot reader. [`new`](Self::new) reads and checks
/// everything before the payload; the payload is then read in order into
/// the caller's buffers ([`read_exact`](Self::read_exact),
/// [`read_le`](Self::read_le)), hashed on the way, and
/// [`verify`](Self::verify) checks its digest once all of it is read.
pub struct SnapshotReader<R: Read> {
    src: R,
    codec_id: u32,
    meta: Vec<u8>,
    payload_len: usize,
    hasher: Xxh64,
    /// Payload bytes not yet read.
    left: usize,
}

impl SnapshotReader<BufReader<fs::File>> {
    /// Open the snapshot file at `path`, its size the file's length.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        Self::new(BufReader::with_capacity(FILE_BUF, file), len)
    }
}

impl<R: Read> SnapshotReader<R> {
    /// Read the header, meta and header digest from `src`, whose total
    /// size is `src_len` bytes. Magic, version, both declared lengths
    /// (against `src_len`, exactly) and the header digest are all checked
    /// here, before the meta — at most `src_len` bytes — is allocated.
    pub fn new(mut src: R, src_len: u64) -> Result<Self, PersistError> {
        let mut fixed = [0u8; FIXED_HEADER];
        let fixed = &mut fixed[..src_len.min(FIXED_HEADER as u64) as usize];
        read_exact(&mut src, fixed, "snapshot header")?;
        let mut r = ByteReader::new(fixed);
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
        let meta_len = r.u32("snapshot header")?;
        let payload_len = r.u64("snapshot header")?;
        // The lengths are attacker-controlled until the digests pass:
        // each must fit the bytes the source actually holds.
        let meta_end = FIXED_HEADER as u64 + meta_len as u64 + 8;
        if meta_end > src_len {
            return Err(PersistError::Truncated("snapshot meta"));
        }
        let end = (meta_end.checked_add(payload_len))
            .and_then(|e| e.checked_add(8))
            .filter(|&e| e <= src_len)
            .ok_or(PersistError::Truncated("snapshot payload"))?;
        if end < src_len {
            return Err(PersistError::Corrupt(format!(
                "snapshot: {} unexpected trailing bytes",
                src_len - end
            )));
        }
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| PersistError::Truncated("snapshot payload"))?;
        let mut meta = vec![0u8; meta_len as usize];
        read_exact(&mut src, &mut meta, "snapshot meta")?;
        let mut digest = [0u8; 8];
        read_exact(&mut src, &mut digest, "snapshot meta")?;
        let mut header = Xxh64::new();
        header.update(fixed);
        header.update(&meta);
        if header.finish() != u64::from_le_bytes(digest) {
            return Err(PersistError::ChecksumMismatch("snapshot header"));
        }
        Ok(Self {
            src,
            codec_id,
            meta,
            payload_len,
            hasher: Xxh64::new(),
            left: payload_len,
        })
    }

    /// The codec id the header names.
    pub fn codec_id(&self) -> u32 {
        self.codec_id
    }

    /// The meta section (header digest checked).
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// The payload's declared length, which the source's size backs.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Fill `buf` with the next payload bytes, hashing them.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), PersistError> {
        if buf.len() > self.left {
            return Err(PersistError::Truncated("snapshot payload"));
        }
        for piece in buf.chunks_mut(HASH_STEP) {
            read_exact(&mut self.src, piece, "snapshot payload")?;
            self.hasher.update(piece);
        }
        self.left -= buf.len();
        Ok(())
    }

    /// The next `n` little-endian words of the payload (`from` is the
    /// type's `from_le_bytes`), read through a stack buffer; `n` is
    /// checked against the payload left before the vector is allocated.
    pub fn read_le<T, const N: usize>(
        &mut self,
        n: usize,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, PersistError> {
        if n.checked_mul(N).is_none_or(|bytes| bytes > self.left) {
            return Err(PersistError::Truncated("snapshot payload"));
        }
        let mut out = Vec::with_capacity(n);
        let mut buf = [0u8; WORD_BUF];
        while out.len() < n {
            let bytes = &mut buf[..(n - out.len()).min(WORD_BUF / N) * N];
            self.read_exact(bytes)?;
            out.extend(bytes.as_chunks::<N>().0.iter().map(|w| from(*w)));
        }
        Ok(out)
    }

    /// Check the payload digest. Every payload byte must have been read:
    /// one left over is a reader that did not take the whole payload.
    pub fn verify(&mut self) -> Result<(), PersistError> {
        if self.left != 0 {
            return Err(PersistError::Corrupt(format!(
                "snapshot payload: {} bytes left unread",
                self.left
            )));
        }
        let mut digest = [0u8; 8];
        read_exact(&mut self.src, &mut digest, "snapshot payload")?;
        if self.hasher.finish() != u64::from_le_bytes(digest) {
            return Err(PersistError::ChecksumMismatch("snapshot payload"));
        }
        Ok(())
    }
}

impl<'a> SnapshotReader<&'a [u8]> {
    /// The rest of the payload, borrowed from the source instead of
    /// copied, and hashed like any read.
    fn borrow_payload(&mut self) -> &'a [u8] {
        let (payload, rest) = self.src.split_at(self.left);
        self.hasher.update(payload);
        self.src = rest;
        self.left = 0;
        payload
    }
}

/// `src.read_exact`, with a source that ends early named as the
/// truncation of `what`.
fn read_exact(src: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), PersistError> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => PersistError::Truncated(what),
        _ => PersistError::Io(e),
    })
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

/// Stream a file to `path` atomically: `write` fills a buffered `.tmp`
/// sibling, which is fsynced and then renamed over `path`. A crash
/// mid-save leaves either the old file or the new one, never a hybrid.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), PersistError> {
    let m = metrics();
    let mut span = cpma_obs::span_with(&m.write_ns, "persist.checkpoint.write");
    let tmp = tmp_sibling(path);
    let mut out = BufWriter::with_capacity(FILE_BUF, fs::File::create(&tmp)?);
    write(&mut out)?;
    let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.sync_all()?;
    let bytes = file.metadata()?.len();
    drop(file);
    span.set_items(bytes);
    m.writes.inc();
    m.bytes.add(bytes);
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Make the entries of directory `dir` durable: the files created in,
/// renamed into or removed from it since. A file's own fsync does not
/// cover its name, so a power loss could otherwise keep a later deletion
/// and lose a fresh file's entry.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
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

    /// The writer fed the payload in pieces writes what `to_bytes` does,
    /// and refuses a payload longer or shorter than it announced.
    #[test]
    fn writer_pieces_and_the_length_contract() {
        let payload = payload();
        let want = sample(&payload).to_bytes();
        for piece in [1, 7, 32, 33, 499] {
            let mut w = SnapshotWriter::new(Vec::new(), 7, META, payload.len()).unwrap();
            payload.chunks(piece).for_each(|c| w.write_all(c).unwrap());
            assert_eq!(w.finish().unwrap(), want, "pieces of {piece}");
        }
        let mut long = SnapshotWriter::new(Vec::new(), 7, META, 10).unwrap();
        let err = long.write_all(&[0; 11]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut short = SnapshotWriter::new(Vec::new(), 7, META, 10).unwrap();
        short.write_all(&[0; 9]).unwrap();
        let err = short.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// Little-endian words round-trip through the writer's and the
    /// reader's stack buffers, across more than one buffer's worth.
    #[test]
    fn words_roundtrip_through_the_stack_buffers() {
        let words: Vec<u64> = (0..3 * WORD_BUF as u64)
            .map(|i| i * 0x0101_0101_0101)
            .collect();
        let halves: Vec<u32> = (0..5).collect();
        let mut payload = Vec::new();
        write_le(&mut payload, &words, u64::to_le_bytes).unwrap();
        write_le(&mut payload, &halves, u32::to_le_bytes).unwrap();
        assert_eq!(payload[8..16], 0x0101_0101_0101u64.to_le_bytes());
        let bytes = sample(&payload).to_bytes();
        let mut r = SnapshotReader::new(&bytes[..], bytes.len() as u64).unwrap();
        assert_eq!(r.read_le(words.len(), u64::from_le_bytes).unwrap(), words);
        // More words than the payload has left is refused before allocating.
        assert!(matches!(
            r.read_le(usize::MAX / 2, u32::from_le_bytes),
            Err(PersistError::Truncated(_))
        ));
        assert_eq!(r.read_le(5, u32::from_le_bytes).unwrap(), halves);
        r.verify().unwrap();
    }

    /// A reader that stops short of the payload's end cannot vouch for
    /// the digest; one that reads it all sees a flipped byte.
    #[test]
    fn verify_needs_the_whole_payload() {
        let payload = payload();
        let bytes = sample(&payload).to_bytes();
        let mut r = SnapshotReader::new(&bytes[..], bytes.len() as u64).unwrap();
        let mut head = [0u8; 10];
        r.read_exact(&mut head).unwrap();
        assert!(matches!(r.verify(), Err(PersistError::Corrupt(_))));
        let mut flipped = bytes.clone();
        flipped[ENVELOPE_BYTES - 8 + META.len() + 3] ^= 1;
        let mut r = SnapshotReader::new(&flipped[..], flipped.len() as u64).unwrap();
        let mut all = vec![0u8; r.payload_len()];
        r.read_exact(&mut all).unwrap();
        assert!(matches!(
            r.verify(),
            Err(PersistError::ChecksumMismatch("snapshot payload"))
        ));
    }

    /// One pass over a snapshot hashes each byte it carries once: both
    /// digests together cover all of it but the two digest words.
    #[cfg(debug_assertions)]
    #[test]
    fn each_byte_is_hashed_once_each_way() {
        use crate::checksum::tally::hashed_by;
        let payload = payload();
        let (bytes, wrote) = hashed_by(|| sample(&payload).to_bytes());
        let (env, read) = hashed_by(|| SnapshotEnvelope::from_bytes(&bytes).unwrap());
        assert_eq!(env, sample(&payload));
        assert_eq!((wrote, read), (bytes.len() - 16, bytes.len() - 16));
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
        // The file reader sees the same sections.
        let mut r = SnapshotReader::open(&path).unwrap();
        let mut read = vec![0u8; r.payload_len()];
        r.read_exact(&mut read).unwrap();
        r.verify().unwrap();
        assert_eq!((r.codec_id(), r.meta(), &read[..]), (7, META, &payload[..]));
        // Overwrite with different contents: atomic replace.
        let env2 = SnapshotEnvelope { codec_id: 9, ..env };
        env2.save_file(&path).unwrap();
        let back = fs::read(&path).unwrap();
        assert_eq!(SnapshotEnvelope::from_bytes(&back).unwrap(), env2);
        // Its directory's entries can be made durable; a missing one fails
        // typed.
        sync_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(sync_dir(&dir).is_err());
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
