//! The wire protocol: length-prefixed, checksummed frames.
//!
//! Every message — request or reply — travels as one
//! [`cpma_persist::frame`], the same codec a WAL record uses:
//!
//! ```text
//! [ len: LE u32 ][ body: len bytes ][ digest: LE u64 ]
//! ```
//!
//! `len` counts the body only; the digest is XXH64 of the body (the same
//! integrity code every persisted region uses — the threat model is
//! truncation and corruption, not forgery). Frames are built in place:
//! [`Request::encode_frame`] / [`Reply::encode_frame`] append the body
//! straight into the output buffer and seal it there, so a 512 KiB `Keys`
//! reply is written once and hashed once. A request body is
//!
//! ```text
//! [ version: u8 = 2 ][ opcode: u8 ][ seq: LE u64 ][ payload ]
//! ```
//!
//! and a reply body is
//!
//! ```text
//! [ version: u8 ][ kind: u8 ][ seq: LE u64 ][ payload ]
//! ```
//!
//! where `seq` echoes the request's sequence id, so a pipelined client can
//! match replies to requests positionally *and* verify the pairing.
//! Version 1 was the same bodies under an FNV-1a frame digest; a v1 peer's
//! frame fails the digest and is answered with a typed error and a close.
//!
//! Decoding follows the persistence layer's doctrine: every malformed input
//! must produce a typed [`ProtoError`] — never a panic, and never an
//! allocation sized from an attacker-controlled length that the frame's
//! actual bytes do not back. The frame length is validated against
//! [`MAX_FRAME_BYTES`] *before* the body buffer is allocated, and the
//! `ContainsBatch` element count must exactly match the bytes present.

use cpma_persist::frame::{self, FrameError};
use std::io::{self, Read};

/// The only protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// Cap on a frame's body length, on both sides of the wire (1 MiB ≈ 131k
/// keys per batch): checked on the length prefix before a body buffer is
/// allocated.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// [`MAX_FRAME_BYTES`] under the name it had while servers could set
/// another cap; the repository benchmark still reads it by this name.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = MAX_FRAME_BYTES;

/// Most frames a server drains from one connection into one combined
/// submission: bounds a worker's memory per connection.
pub const MAX_PIPELINE_OPS: usize = 16 * 1024;

/// Most keys one `Scan` reply carries; a request's larger `max` is
/// clamped to it. Page through a larger range from the last key returned.
pub const SCAN_LIMIT: u32 = 64 * 1024;

/// Bytes a frame adds around its body: 4-byte length + 8-byte digest.
pub const FRAME_OVERHEAD: usize = frame::OVERHEAD;

/// Request/reply body header: version, opcode/kind, sequence id.
const BODY_HEADER: usize = 1 + 1 + 8;

// A full scan page — header, key count, keys — fits one frame.
const _: () = assert!(BODY_HEADER + 4 + 8 * SCAN_LIMIT as usize <= MAX_FRAME_BYTES as usize);

mod opcode {
    pub const INSERT: u8 = 1;
    pub const REMOVE: u8 = 2;
    pub const CONTAINS: u8 = 3;
    pub const CONTAINS_BATCH: u8 = 4;
    pub const RANGE_SUM: u8 = 5;
    pub const SCAN: u8 = 6;
}

mod kind {
    pub const BOOL: u8 = 1;
    pub const BOOLS: u8 = 2;
    pub const SUM: u8 = 3;
    pub const KEYS: u8 = 4;
    pub const ERROR: u8 = 0xff;
}

/// A malformed frame or body. Each variant maps to a stable one-byte code
/// carried in [`Reply::Error`], so clients see *why* the server hung up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended inside a frame (mid-length, mid-body, or
    /// mid-checksum). The label names the region that was cut.
    Truncated(&'static str),
    /// The body checksum did not match.
    ChecksumMismatch,
    /// The length prefix exceeds the frame cap; rejected before
    /// any allocation.
    Oversize { len: u32, max: u32 },
    /// The body's version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// Unknown opcode (requests) or kind (replies).
    BadOpcode(u8),
    /// The payload length is impossible for this opcode — too short, too
    /// long, or an element count that the bytes present do not back.
    BadLength { opcode: u8, len: usize },
}

impl ProtoError {
    /// Stable one-byte error code for the wire.
    pub fn code(self) -> u8 {
        match self {
            ProtoError::Truncated(_) => 1,
            ProtoError::ChecksumMismatch => 2,
            ProtoError::Oversize { .. } => 3,
            ProtoError::UnsupportedVersion(_) => 4,
            ProtoError::BadOpcode(_) => 5,
            ProtoError::BadLength { .. } => 6,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated(what) => write!(f, "stream truncated inside {what}"),
            ProtoError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ProtoError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            ProtoError::UnsupportedVersion(v) => {
                write!(f, "protocol version {v} (supported: {PROTOCOL_VERSION})")
            }
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadLength { opcode, len } => {
                write!(
                    f,
                    "impossible payload length {len} for opcode {opcode:#04x}"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Oversize { len, max } => ProtoError::Oversize { len, max },
            FrameError::BadDigest => ProtoError::ChecksumMismatch,
        }
    }
}

/// Receive-side failure: either the transport broke ([`io::Error`]) or the
/// peer sent bytes that do not parse ([`ProtoError`]).
#[derive(Debug)]
pub enum RecvError {
    Io(io::Error),
    Proto(ProtoError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "i/o: {e}"),
            RecvError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<ProtoError> for RecvError {
    fn from(e: ProtoError) -> Self {
        RecvError::Proto(e)
    }
}

/// One client request. `seq` is the per-connection sequence id echoed in
/// the matching reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert `key`; replied with `true` iff newly added. Linearized
    /// through the combiner.
    Insert { seq: u64, key: u64 },
    /// Remove `key`; replied with `true` iff it was present. Linearized.
    Remove { seq: u64, key: u64 },
    /// Linearized membership test (observes all earlier acked writes).
    Contains { seq: u64, key: u64 },
    /// Batched membership against a wait-free snapshot taken after this
    /// connection's earlier writes were acked.
    ContainsBatch { seq: u64, keys: Vec<u64> },
    /// Sum of keys in `lo..=hi` against a snapshot.
    RangeSum { seq: u64, lo: u64, hi: u64 },
    /// Up to `max` keys starting at `lo`, ascending, against a snapshot.
    /// The server additionally caps `max` at [`SCAN_LIMIT`].
    Scan { seq: u64, lo: u64, max: u32 },
}

impl Request {
    /// This request's sequence id.
    pub fn seq(&self) -> u64 {
        match *self {
            Request::Insert { seq, .. }
            | Request::Remove { seq, .. }
            | Request::Contains { seq, .. }
            | Request::ContainsBatch { seq, .. }
            | Request::RangeSum { seq, .. }
            | Request::Scan { seq, .. } => seq,
        }
    }

    /// Replace the sequence id (the client assigns ids at send time).
    pub fn set_seq(&mut self, new: u64) {
        match self {
            Request::Insert { seq, .. }
            | Request::Remove { seq, .. }
            | Request::Contains { seq, .. }
            | Request::ContainsBatch { seq, .. }
            | Request::RangeSum { seq, .. }
            | Request::Scan { seq, .. } => *seq = new,
        }
    }

    /// Serialize the body (header + payload) onto the end of `out`.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            Request::Insert { seq, key } => put_header(out, opcode::INSERT, seq, [key]),
            Request::Remove { seq, key } => put_header(out, opcode::REMOVE, seq, [key]),
            Request::Contains { seq, key } => put_header(out, opcode::CONTAINS, seq, [key]),
            Request::ContainsBatch { seq, ref keys } => encode_contains_batch(out, seq, keys),
            Request::RangeSum { seq, lo, hi } => put_header(out, opcode::RANGE_SUM, seq, [lo, hi]),
            Request::Scan { seq, lo, max } => {
                put_header(out, opcode::SCAN, seq, [lo]);
                out.extend_from_slice(&max.to_le_bytes());
            }
        }
    }

    /// Append this request to `out` as one frame, the body encoded in
    /// place.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        frame::write(out, |body| self.encode_body(body));
    }

    /// Parse a request body (as returned by [`read_frame`]).
    pub fn decode_body(body: &[u8]) -> Result<Request, ProtoError> {
        let (op, seq, payload) = split_body(body)?;
        let fixed = |n: usize| {
            if payload.len() == n {
                Ok(())
            } else {
                Err(ProtoError::BadLength {
                    opcode: op,
                    len: payload.len(),
                })
            }
        };
        match op {
            opcode::INSERT => {
                fixed(8)?;
                Ok(Request::Insert {
                    seq,
                    key: le_u64(payload, 0),
                })
            }
            opcode::REMOVE => {
                fixed(8)?;
                Ok(Request::Remove {
                    seq,
                    key: le_u64(payload, 0),
                })
            }
            opcode::CONTAINS => {
                fixed(8)?;
                Ok(Request::Contains {
                    seq,
                    key: le_u64(payload, 0),
                })
            }
            opcode::CONTAINS_BATCH => {
                // The declared element count must exactly match the bytes
                // present: a forged count can neither over-allocate nor
                // leave trailing garbage.
                let keys = decode_u64s(op, payload)?;
                Ok(Request::ContainsBatch { seq, keys })
            }
            opcode::RANGE_SUM => {
                fixed(16)?;
                Ok(Request::RangeSum {
                    seq,
                    lo: le_u64(payload, 0),
                    hi: le_u64(payload, 8),
                })
            }
            opcode::SCAN => {
                fixed(12)?;
                Ok(Request::Scan {
                    seq,
                    lo: le_u64(payload, 0),
                    max: le_u32(payload, 8),
                })
            }
            other => Err(ProtoError::BadOpcode(other)),
        }
    }
}

/// One server reply. `seq` echoes the request it answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Result of `Insert`/`Remove`/`Contains`.
    Bool { seq: u64, value: bool },
    /// Result of `ContainsBatch`, positional.
    Bools { seq: u64, values: Vec<bool> },
    /// Result of `RangeSum`.
    Sum { seq: u64, value: u64 },
    /// Result of `Scan`, ascending.
    Keys { seq: u64, keys: Vec<u64> },
    /// The request could not be served; `code` is [`ProtoError::code`].
    /// The server closes the connection after sending this.
    Error { seq: u64, code: u8 },
}

impl Reply {
    /// This reply's echoed sequence id.
    pub fn seq(&self) -> u64 {
        match *self {
            Reply::Bool { seq, .. }
            | Reply::Bools { seq, .. }
            | Reply::Sum { seq, .. }
            | Reply::Keys { seq, .. }
            | Reply::Error { seq, .. } => seq,
        }
    }

    /// Serialize the body (header + payload) onto the end of `out`.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            Reply::Bool { seq, value } => {
                put_header(out, kind::BOOL, seq, []);
                out.push(value as u8);
            }
            Reply::Bools { seq, ref values } => {
                put_header(out, kind::BOOLS, seq, []);
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                out.extend(values.iter().map(|&b| b as u8));
            }
            Reply::Sum { seq, value } => put_header(out, kind::SUM, seq, [value]),
            Reply::Keys { seq, ref keys } => {
                put_header(out, kind::KEYS, seq, []);
                put_counted(out, keys);
            }
            Reply::Error { seq, code } => {
                put_header(out, kind::ERROR, seq, []);
                out.push(code);
            }
        }
    }

    /// Append this reply to `out` as one frame, the body encoded in place.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        frame::write(out, |body| self.encode_body(body));
    }

    /// Parse a reply body.
    pub fn decode_body(body: &[u8]) -> Result<Reply, ProtoError> {
        let (k, seq, payload) = split_body(body)?;
        let fixed = |n: usize| {
            if payload.len() == n {
                Ok(())
            } else {
                Err(ProtoError::BadLength {
                    opcode: k,
                    len: payload.len(),
                })
            }
        };
        match k {
            kind::BOOL => {
                fixed(1)?;
                Ok(Reply::Bool {
                    seq,
                    value: payload[0] != 0,
                })
            }
            kind::BOOLS => {
                if payload.len() < 4 {
                    return Err(ProtoError::BadLength {
                        opcode: k,
                        len: payload.len(),
                    });
                }
                let n = le_u32(payload, 0) as usize;
                if payload.len() - 4 != n {
                    return Err(ProtoError::BadLength {
                        opcode: k,
                        len: payload.len(),
                    });
                }
                Ok(Reply::Bools {
                    seq,
                    values: payload[4..].iter().map(|&b| b != 0).collect(),
                })
            }
            kind::SUM => {
                fixed(8)?;
                Ok(Reply::Sum {
                    seq,
                    value: le_u64(payload, 0),
                })
            }
            kind::KEYS => {
                let keys = decode_u64s(k, payload)?;
                Ok(Reply::Keys { seq, keys })
            }
            kind::ERROR => {
                fixed(1)?;
                Ok(Reply::Error {
                    seq,
                    code: payload[0],
                })
            }
            other => Err(ProtoError::BadOpcode(other)),
        }
    }
}

/// Split a body into (opcode/kind, seq, payload), checking the version.
fn split_body(body: &[u8]) -> Result<(u8, u64, &[u8]), ProtoError> {
    if body.len() < BODY_HEADER {
        return Err(ProtoError::BadLength {
            opcode: 0,
            len: body.len(),
        });
    }
    if body[0] != PROTOCOL_VERSION {
        return Err(ProtoError::UnsupportedVersion(body[0]));
    }
    Ok((body[1], le_u64(body, 2), &body[BODY_HEADER..]))
}

/// Best-effort sequence id of a body that failed to decode, for the error
/// reply. Requires only that the header bytes are present.
pub fn seq_hint(body: &[u8]) -> u64 {
    if body.len() >= BODY_HEADER {
        le_u64(body, 2)
    } else {
        0
    }
}

/// Body header `[version][code][seq]`, then the payload's leading
/// fixed-width `words`, each LE.
fn put_header<const N: usize>(out: &mut Vec<u8>, code: u8, seq: u64, words: [u64; N]) {
    out.reserve(BODY_HEADER + 8 * N);
    out.extend_from_slice(&[PROTOCOL_VERSION, code]);
    out.extend_from_slice(&seq.to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// `[count: LE u32][count × LE u64]`.
fn put_counted(out: &mut Vec<u8>, keys: &[u64]) {
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    let at = out.len();
    out.resize(at + keys.len() * 8, 0);
    let (slots, _) = out[at..].as_chunks_mut::<8>();
    for (slot, k) in slots.iter_mut().zip(keys) {
        *slot = k.to_le_bytes();
    }
}

/// The body of [`Request::ContainsBatch`] from a borrowed key slice — what
/// lets the client frame a batch without first copying it into a `Request`.
pub(crate) fn encode_contains_batch(out: &mut Vec<u8>, seq: u64, keys: &[u64]) {
    put_header(out, opcode::CONTAINS_BATCH, seq, []);
    put_counted(out, keys);
}

/// Inverse of [`put_counted`], the count validated against the bytes
/// actually present before the vector is sized.
fn decode_u64s(opcode: u8, payload: &[u8]) -> Result<Vec<u64>, ProtoError> {
    let bad = ProtoError::BadLength {
        opcode,
        len: payload.len(),
    };
    let (count, rest) = payload.split_first_chunk::<4>().ok_or(bad)?;
    let (words, stray) = rest.as_chunks::<8>();
    if !stray.is_empty() || words.len() != u32::from_le_bytes(*count) as usize {
        return Err(bad);
    }
    Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Wrap an already-encoded `body` in a frame appended to `out`. The
/// [`Request::encode_frame`] / [`Reply::encode_frame`] pair skips the
/// staging buffer this one copies from.
pub fn encode_frame(body: &[u8], out: &mut Vec<u8>) {
    frame::write(out, |b| b.extend_from_slice(body));
}

/// Convenience: encode a request as one complete frame.
pub fn request_frame(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    req.encode_frame(&mut frame);
    frame
}

/// Convenience: encode a reply as one complete frame.
pub fn reply_frame(rep: &Reply) -> Vec<u8> {
    let mut frame = Vec::new();
    rep.encode_frame(&mut frame);
    frame
}

/// Read one frame from `r`, verifying length cap and digest.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary*
/// (zero bytes before the next length prefix); end-of-stream anywhere
/// inside a frame is [`ProtoError::Truncated`]. The buffer — body and
/// digest in one read — is only allocated after the length prefix passes
/// the `max_frame` check, and is handed back as the body once the digest
/// has matched.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Vec<u8>>, RecvError> {
    let mut buf = Vec::new();
    let Some(len) = read_frame_into(r, max_frame, &mut buf)?.map(<[u8]>::len) else {
        return Ok(None);
    };
    buf.truncate(len);
    Ok(Some(buf))
}

/// [`read_frame`] into `buf`, a buffer the caller keeps across frames: it
/// grows to the largest frame read so far and is otherwise reused as it
/// is, so once it has held a frame as large, a frame costs no allocation
/// and no zeroing. Returns the body, a prefix of `buf`. The length prefix
/// passes the `max_frame` check before `buf` grows.
pub(crate) fn read_frame_into<'b>(
    r: &mut impl Read,
    max_frame: u32,
    buf: &'b mut Vec<u8>,
) -> Result<Option<&'b [u8]>, RecvError> {
    let mut prefix = [0u8; frame::LEN_BYTES];
    match read_full(r, &mut prefix)? {
        0 => return Ok(None),
        frame::LEN_BYTES => {}
        _ => return Err(ProtoError::Truncated("length prefix").into()),
    }
    let len = frame::body_len(prefix, max_frame).map_err(ProtoError::from)?;
    let tail_len = len + frame::DIGEST_BYTES;
    if buf.len() < tail_len {
        buf.resize(tail_len, 0);
    }
    let tail = &mut buf[..tail_len];
    let got = read_full(r, tail)?;
    if got < tail_len {
        let cut = if got < len { "body" } else { "checksum" };
        return Err(ProtoError::Truncated(cut).into());
    }
    Ok(Some(frame::open(tail).map_err(ProtoError::from)?))
}

/// `read_exact` that reports how far it got instead of failing at
/// end-of-stream: zero bytes is a clean close, some a truncation.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = request_frame(&req);
        let body = read_frame(&mut &frame[..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(Request::decode_body(&body).unwrap(), req);
    }

    fn roundtrip_rep(rep: Reply) {
        let frame = reply_frame(&rep);
        let body = read_frame(&mut &frame[..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(Reply::decode_body(&body).unwrap(), rep);
    }

    fn every_request() -> Vec<Request> {
        vec![
            Request::Insert { seq: 7, key: 42 },
            Request::Remove {
                seq: u64::MAX,
                key: 0,
            },
            Request::Contains { seq: 0, key: 9 },
            Request::ContainsBatch {
                seq: 3,
                keys: vec![],
            },
            Request::ContainsBatch {
                seq: 3,
                keys: vec![1, u64::MAX, 5],
            },
            Request::RangeSum {
                seq: 11,
                lo: 100,
                hi: 200,
            },
            Request::Scan {
                seq: 12,
                lo: 0,
                max: 1000,
            },
        ]
    }

    fn every_reply() -> Vec<Reply> {
        vec![
            Reply::Bool {
                seq: 1,
                value: true,
            },
            Reply::Bools {
                seq: 2,
                values: vec![true, false, true],
            },
            Reply::Sum {
                seq: 3,
                value: u64::MAX,
            },
            Reply::Keys {
                seq: 4,
                keys: vec![],
            },
            Reply::Keys {
                seq: 4,
                keys: (0..1000).map(|k| k << 20).collect(),
            },
            Reply::Error { seq: 5, code: 2 },
        ]
    }

    #[test]
    fn request_roundtrips() {
        every_request().into_iter().for_each(roundtrip_req);
    }

    #[test]
    fn reply_roundtrips() {
        every_reply().into_iter().for_each(roundtrip_rep);
    }

    /// The in-place writer and the staged pair the benchmark still calls
    /// (`encode_body` into a buffer, `encode_frame` copying it) produce the
    /// same bytes for every variant, alone and appended after other frames.
    #[test]
    fn in_place_frames_equal_staged_frames_byte_for_byte() {
        fn staged(encode_body: impl Fn(&mut Vec<u8>), out: &mut Vec<u8>) {
            let mut body = Vec::new();
            encode_body(&mut body);
            encode_frame(&body, out);
        }
        let (mut in_place, mut by_copy) = (Vec::new(), Vec::new());
        for req in every_request() {
            req.encode_frame(&mut in_place);
            staged(|b| req.encode_body(b), &mut by_copy);
            assert_eq!(in_place, by_copy, "{req:?}");
            assert!(by_copy.ends_with(&request_frame(&req)));
            if let Request::ContainsBatch { seq, ref keys } = req {
                let mut borrowed = Vec::new();
                frame::write(&mut borrowed, |b| encode_contains_batch(b, seq, keys));
                assert_eq!(borrowed, request_frame(&req));
            }
        }
        for rep in every_reply() {
            rep.encode_frame(&mut in_place);
            staged(|b| rep.encode_body(b), &mut by_copy);
            assert_eq!(in_place, by_copy, "{rep:?}");
            assert!(by_copy.ends_with(&reply_frame(&rep)));
        }
    }

    /// Count, not clock: a full scan page — one `Keys` reply of *n* keys,
    /// 8 n + 14 body bytes — is hashed once and written once on each side.
    /// The server appends it to a buffer that neither moves nor grows past
    /// the frame; the client hashes the body it read and nothing else.
    #[cfg(debug_assertions)]
    #[test]
    fn a_keys_reply_is_hashed_once_and_written_once_per_side() {
        use cpma_persist::checksum::tally::hashed_by;
        let n = SCAN_LIMIT as usize;
        let rep = Reply::Keys {
            seq: 9,
            keys: (0..n as u64).map(|k| k * 3).collect(),
        };
        let body_len = 8 * n + BODY_HEADER + 4;

        let mut out = Vec::with_capacity(body_len + FRAME_OVERHEAD);
        let home = out.as_ptr();
        let ((), hashed) = hashed_by(|| rep.encode_frame(&mut out));
        assert_eq!(hashed, body_len, "server side hashes the body once");
        assert_eq!(
            (out.len(), out.as_ptr()),
            (body_len + FRAME_OVERHEAD, home),
            "every byte landed once, in the output buffer"
        );

        let (body, hashed) =
            hashed_by(|| read_frame(&mut &out[..], MAX_FRAME_BYTES).unwrap().unwrap());
        assert_eq!(hashed, body_len, "client side hashes the body once");
        assert_eq!(body.len(), body_len);
        let (back, hashed) = hashed_by(|| Reply::decode_body(&body).unwrap());
        assert_eq!((back, hashed), (rep, 0));
    }

    #[test]
    fn eof_at_boundary_is_clean() {
        assert!(read_frame(&mut &[][..], 1024).unwrap().is_none());
    }

    #[test]
    fn oversize_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut &frame[..], MAX_FRAME_BYTES) {
            Err(RecvError::Proto(ProtoError::Oversize { len, max })) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    /// Where the stream ends inside a frame names the region that was cut.
    #[test]
    fn truncation_names_the_region() {
        let frame = request_frame(&Request::Insert { seq: 7, key: 42 });
        for (cut, region) in [
            (2, "length prefix"),
            (4, "body"),
            (21, "body"),
            (22, "checksum"),
        ] {
            match read_frame(&mut &frame[..cut], 1024) {
                Err(RecvError::Proto(ProtoError::Truncated(what))) => {
                    assert_eq!(what, region, "cut {cut}")
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn forged_batch_count_is_bad_length() {
        // Claim 1000 keys but supply 1: must be BadLength, not a huge Vec.
        let mut body = vec![PROTOCOL_VERSION, opcode::CONTAINS_BATCH];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1000u32.to_le_bytes());
        body.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            Request::decode_body(&body),
            Err(ProtoError::BadLength { .. })
        ));
    }

    #[test]
    fn seq_hint_parses_header() {
        let mut body = Vec::new();
        Request::Insert { seq: 99, key: 1 }.encode_body(&mut body);
        assert_eq!(seq_hint(&body), 99);
        assert_eq!(seq_hint(&body[..4]), 0);
    }
}
