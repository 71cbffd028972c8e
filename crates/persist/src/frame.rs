//! The one length-prefixed, checksummed frame of the workspace.
//!
//! ```text
//! [ len: LE u32 ][ body: len bytes ][ digest: LE u64 ]
//! ```
//!
//! `len` counts the body only; the digest is [`xxh64`] of the body. A WAL
//! record ([`crate::wal`]) and every wire request and reply
//! (`cpma_service::proto`) is one such frame, and both sides of each go
//! through the two functions here: [`write()`] builds a frame *in place* at
//! the end of the caller's buffer — the body is appended straight into it,
//! hashed once where it lies, never staged in a buffer of its own — and
//! [`parse`] hands back the body *borrowed* from the input, after the
//! length cap and the digest have been checked and before anything is
//! allocated or copied.
//!
//! The snapshot envelope ([`crate::snapshot`]) is not a frame: it has two
//! lengths and two digests behind a magic and a version, and keeps its own
//! parser over the same digest.

use crate::checksum::xxh64;

/// Bytes of the length prefix.
pub const LEN_BYTES: usize = 4;

/// Bytes of the trailing digest.
pub const DIGEST_BYTES: usize = 8;

/// Bytes a frame adds around its body.
pub const OVERHEAD: usize = LEN_BYTES + DIGEST_BYTES;

/// Why bytes that are all present do not form a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the caller's cap.
    Oversize { len: u32, max: u32 },
    /// The digest does not match the body.
    BadDigest,
}

/// Append one frame to `out`, its body written in place by `body`.
///
/// Panics if the body exceeds `u32::MAX` bytes, which no caller's own cap
/// allows.
pub fn write(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; LEN_BYTES]);
    body(out);
    let start = at + LEN_BYTES;
    let len = u32::try_from(out.len() - start).expect("frame body exceeds u32::MAX bytes");
    out[at..start].copy_from_slice(&len.to_le_bytes());
    let digest = xxh64(&out[start..]);
    out.extend_from_slice(&digest.to_le_bytes());
}

/// The body length a prefix declares, refused above `max`.
pub fn body_len(prefix: [u8; LEN_BYTES], max: u32) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(prefix);
    if len > max {
        return Err(FrameError::Oversize { len, max });
    }
    Ok(len as usize)
}

/// Split `tail` — everything of one frame after its prefix — into the body
/// and the digest, and verify the one against the other.
pub fn open(tail: &[u8]) -> Result<&[u8], FrameError> {
    match tail.split_last_chunk::<DIGEST_BYTES>() {
        Some((body, digest)) if xxh64(body) == u64::from_le_bytes(*digest) => Ok(body),
        _ => Err(FrameError::BadDigest),
    }
}

/// Parse the frame at the start of `buf`: `(body, bytes consumed)`.
/// `Ok(None)` means `buf` ends before the frame does. The length is checked
/// against `max` as soon as its four bytes are present, and the body is
/// neither copied nor trusted before its digest has matched.
pub fn parse(buf: &[u8], max: u32) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(prefix) = buf.first_chunk::<LEN_BYTES>() else {
        return Ok(None);
    };
    let total = body_len(*prefix, max)? + OVERHEAD;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((open(&buf[LEN_BYTES..total])?, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpma_api::testkit::{assert_all_refused, Damage};

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write(&mut out, |b| b.extend_from_slice(body));
        out
    }

    #[test]
    fn roundtrip_back_to_back_and_after_a_prefix() {
        let mut out = b"already here".to_vec();
        write(&mut out, |b| b.extend_from_slice(b"first"));
        write(&mut out, |_| {});
        write(&mut out, |b| b.extend_from_slice(&[7; 100]));
        let mut rest = &out[12..];
        for want in [&b"first"[..], &[], &[7; 100]] {
            let (body, used) = parse(rest, 1 << 10).unwrap().unwrap();
            assert_eq!((body, used), (want, want.len() + OVERHEAD));
            rest = &rest[used..];
        }
        assert_eq!(parse(rest, 1 << 10), Ok(None));
    }

    /// The shared corruption table: a cut frame is "not yet", never an
    /// error and never a body; every flip and both forgeries are refused,
    /// each with its own reason.
    #[test]
    fn damage_is_refused_before_the_body_is_handed_out() {
        let frame = framed(&(0u8..77).collect::<Vec<u8>>());
        let whole = |b: &[u8]| match parse(b, 1 << 10) {
            Ok(Some((_, used))) if used == b.len() => Ok(()),
            other => Err(format!("{other:?}")),
        };
        assert!(whole(&frame).is_ok());
        assert_all_refused(
            &frame,
            Damage::sweep(frame.len(), usize::MAX, 1, &[0x01, 0x80])
                .into_iter()
                .chain(Damage::FRAME_FORGERIES),
            whole,
        );
        for cut in 0..frame.len() {
            assert_eq!(parse(&frame[..cut], 1 << 10), Ok(None), "cut {cut}");
        }
        assert_eq!(
            parse(&Damage::OversizeLength.apply(&frame), 1 << 10),
            Err(FrameError::Oversize {
                len: u32::MAX,
                max: 1 << 10
            })
        );
        assert_eq!(
            parse(&Damage::ForgedDigest.apply(&frame), 1 << 10),
            Err(FrameError::BadDigest)
        );
        // The cap is the caller's, checked on the prefix alone.
        assert_eq!(
            parse(&frame[..LEN_BYTES], 76),
            Err(FrameError::Oversize { len: 77, max: 76 })
        );
    }

    /// Count, not clock: a frame's body is hashed once per side — `write`
    /// hashes exactly the body it framed, `parse` exactly the body it
    /// returns — and `write` leaves the bytes where the caller put them.
    #[cfg(debug_assertions)]
    #[test]
    fn a_body_is_hashed_once_per_side_and_written_in_place() {
        use crate::checksum::tally::hashed_by;
        let body = vec![0xA5u8; 8 * 65_536 + 14];
        let mut out = Vec::with_capacity(body.len() + OVERHEAD);
        let home = out.as_ptr();
        let ((), hashed) = hashed_by(|| write(&mut out, |b| b.extend_from_slice(&body)));
        assert_eq!(hashed, body.len());
        assert_eq!((out.len(), out.as_ptr()), (body.len() + OVERHEAD, home));
        let (parsed, hashed) = hashed_by(|| parse(&out, u32::MAX).unwrap().unwrap().0);
        assert_eq!(hashed, body.len());
        assert_eq!(parsed.as_ptr(), out[LEN_BYTES..].as_ptr(), "borrowed");
    }
}
