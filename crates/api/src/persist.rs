//! The durability contract: [`Persist`] and its typed error.
//!
//! The paper's structures are pointer-free — one contiguous allocation plus
//! a few side arrays — which makes checkpointing a versioned header and a
//! byte copy instead of a serialization walk. This module holds only the
//! *contract*: the snapshot/WAL formats and the recovery driver live in
//! `cpma-persist`, and each structure implements [`Persist`] next to its
//! own definition (`Pma`/`Cpma` in `cpma-pma`, `ShardedSet` in
//! `cpma-store`).
//!
//! Everything on-disk is validated before use: loads must return a
//! [`PersistError`] — never panic, and never allocate from an
//! attacker-controlled length that the actual file size does not back.

use std::path::Path;

use crate::ConfigError;

/// A structure that can checkpoint itself to disk and be loaded back.
///
/// `save` must be atomic at the file level (write to a temporary sibling,
/// then rename) so a crash mid-save never destroys the previous
/// checkpoint. `load` must validate everything it reads and fail with a
/// typed error on any corruption.
pub trait Persist: Sized {
    /// Write a checkpoint of `self` at `path` (a file or directory,
    /// depending on the structure), atomically replacing any previous
    /// checkpoint there.
    fn save(&self, path: &Path) -> Result<(), PersistError>;

    /// Load a previously saved checkpoint. Corrupt, truncated, or
    /// mismatched inputs yield an error, never a panic.
    fn load(path: &Path) -> Result<Self, PersistError>;
}

/// Why a checkpoint or WAL operation failed. Every on-disk validation
/// failure maps to one of these variants so callers can distinguish
/// "wrong file" from "damaged file" from "I/O trouble".
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure (open, read, write, rename, fsync).
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The 8 bytes actually found at the start of the file.
        found: [u8; 8],
    },
    /// The format version is not the one this build reads — older or
    /// newer; there are no compatibility readers.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The one version this build reads and writes.
        supported: u32,
    },
    /// The snapshot was written by a different leaf codec than the one
    /// being loaded (e.g. a `Pma` snapshot opened as `Cpma`).
    CodecMismatch {
        /// Codec id the loading structure expects.
        expected: u32,
        /// Codec id recorded in the header.
        found: u32,
    },
    /// The snapshot's key-width word is not 8: every structure here
    /// stores `u64` keys, so an image claiming another width is foreign.
    KeyWidthMismatch {
        /// Key width in bytes the loading structure expects.
        expected: u32,
        /// Key width in bytes recorded in the header.
        found: u32,
    },
    /// A checksum over the named region did not match.
    ChecksumMismatch(&'static str),
    /// The file ended before the named region was complete.
    Truncated(&'static str),
    /// Structurally invalid contents (bad lengths, out-of-order keys,
    /// sequence gaps, ...) with a human-readable description.
    Corrupt(String),
    /// The header decoded to an invalid structure configuration.
    Config(ConfigError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist i/o error: {e}"),
            PersistError::BadMagic { found } => {
                write!(f, "bad magic: found {found:02x?}")
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads {supported})"
                )
            }
            PersistError::CodecMismatch { expected, found } => {
                write!(
                    f,
                    "codec mismatch: expected id {expected}, snapshot has {found}"
                )
            }
            PersistError::KeyWidthMismatch { expected, found } => {
                write!(
                    f,
                    "key width mismatch: expected {expected} bytes, snapshot has {found}"
                )
            }
            PersistError::ChecksumMismatch(what) => {
                write!(f, "checksum mismatch over {what}")
            }
            PersistError::Truncated(what) => write!(f, "truncated {what}"),
            PersistError::Corrupt(detail) => write!(f, "corrupt persisted data: {detail}"),
            PersistError::Config(e) => write!(f, "persisted config invalid: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<ConfigError> for PersistError {
    fn from(e: ConfigError) -> Self {
        PersistError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let cases: Vec<(PersistError, &str)> = vec![
            (
                PersistError::BadMagic {
                    found: *b"NOTCPMA!",
                },
                "bad magic",
            ),
            (
                PersistError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "unsupported format version 9",
            ),
            (
                PersistError::CodecMismatch {
                    expected: 1,
                    found: 2,
                },
                "codec mismatch",
            ),
            (
                PersistError::KeyWidthMismatch {
                    expected: 8,
                    found: 4,
                },
                "key width mismatch",
            ),
            (PersistError::ChecksumMismatch("header"), "header"),
            (PersistError::Truncated("payload"), "payload"),
            (
                PersistError::Corrupt("wal sequence gap".into()),
                "sequence gap",
            ),
            (
                PersistError::Config(ConfigError::new("min_leaves", "must be ≥ 1")),
                "min_leaves",
            ),
        ];
        for (err, needle) in cases {
            let s = err.to_string();
            assert!(s.contains(needle), "{s:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_conversions() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: PersistError = io.into();
        assert!(matches!(e, PersistError::Io(_)));
        use std::error::Error;
        assert!(e.source().is_some());

        let c: PersistError = ConfigError::new("growing_factor", "must exceed 1").into();
        assert!(matches!(c, PersistError::Config(_)));
    }
}
