//! Snapshot persistence for [`PmaCore`] — the paper's pointer-free layout
//! turned into a checkpoint format.
//!
//! Because a PMA is one contiguous allocation plus a few side arrays, a
//! snapshot is the `cpma-persist` envelope around a *byte view* of those
//! arrays: the meta section records the [`PmaConfig`] and the geometry,
//! the payload is the raw leaf storage (see each codec's
//! `read_payload`/`write_payload`). Saving does no structure walk;
//! loading does one validation pass plus an O(num_leaves) read-index
//! rebuild (the occupancy bitset is derived state and is never
//! serialized).
//!
//! Loads verify, in order: envelope magic/version/checksums (in
//! `cpma-persist`), codec id and key width, the words of retired knobs,
//! configuration validity ([`PmaConfig::check`]), geometry sanity, payload size, per-leaf
//! structure, and finally that the recomputed element/unit totals match
//! the header. Anything off yields a typed
//! [`PersistError`] — never a panic.

use std::path::Path;

use cpma_api::{Persist, PersistError};
use cpma_persist::snapshot::{ByteReader, ByteSink, SnapshotEnvelope};

use crate::core::{PmaCore, FULL_REBUILD_DIVISOR, MIN_LEAVES, POINT_UPDATE_CUTOFF};
use crate::density::BOUNDS;
use crate::{LeafStorage, PmaConfig, PmaKey};

/// Meta section: key width (u32), eleven config scalars (seven f64, four
/// u64 — the last being the [`crate::ForceCodec`] discriminant), three
/// geometry / count fields (u64 each), and the head-layout word (u64).
/// Floats travel as IEEE-754 bit patterns. Nine of the config scalars
/// belong to knobs that became constants (`RETIRED_BEFORE`,
/// `RETIRED_AFTER`); the layout keeps their words.
const META_LEN: usize = 4 + 7 * 8 + 4 * 8 + 3 * 8 + 8;

/// The meta words of retired knobs ahead of the growing factor — the
/// density bounds — as the format writes them (floats as bit patterns).
/// Like the head-layout word, each is always written as its constant, and
/// a file carrying any other value is foreign.
const RETIRED_BEFORE: [(&str, u64); 5] = [
    ("upper_leaf", BOUNDS.upper_leaf.to_bits()),
    ("upper_root", BOUNDS.upper_root.to_bits()),
    ("lower_leaf", BOUNDS.lower_leaf.to_bits()),
    ("lower_root", BOUNDS.lower_root.to_bits()),
    ("rebuild_target", BOUNDS.rebuild_target.to_bits()),
];

/// The retired words between the growing factor and the codec override:
/// the bitmap break-even ratio (1, folded into the codec choice's
/// hysteresis), the capacity floor and the two regime boundaries.
const RETIRED_AFTER: [(&str, u64); 4] = [
    ("bitmap_leaf_threshold", 1f64.to_bits()),
    ("min_leaves", MIN_LEAVES as u64),
    ("point_update_cutoff", POINT_UPDATE_CUTOFF as u64),
    ("full_rebuild_divisor", FULL_REBUILD_DIVISOR as u64),
];

/// The head-layout word of the meta section. The heads are searched in
/// place, which is the only layout this format describes: the word is
/// always written as this value and a file carrying any other is foreign.
const HEAD_LAYOUT_IN_PLACE: u64 = 0;

impl<K: PmaKey, L: LeafStorage<K>> PmaCore<K, L> {
    /// Serialize to the snapshot byte format without touching disk.
    /// The image is deterministic: equal histories yield equal bytes at
    /// any thread budget (checked by `tests/determinism.rs`).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.with_envelope(|env| env.to_bytes())
    }

    /// Deserialize a snapshot produced by
    /// [`to_snapshot_bytes`](Self::to_snapshot_bytes) (or read from a
    /// [`Persist::save`] file), validating everything.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        Self::from_envelope(SnapshotEnvelope::from_bytes(bytes)?)
    }

    /// Build the two sections and hand `f` the envelope borrowing them.
    fn with_envelope<R>(&self, f: impl FnOnce(SnapshotEnvelope<'_>) -> R) -> R {
        let mut meta = Vec::with_capacity(META_LEN);
        meta.put_u32(K::BYTES as u32);
        for (_, word) in RETIRED_BEFORE {
            meta.put_u64(word);
        }
        meta.put_f64(self.cfg.growing_factor);
        for (_, word) in RETIRED_AFTER {
            meta.put_u64(word);
        }
        meta.put_u64(force_codec_tag(self.cfg.force_codec));
        meta.put_u64(self.len as u64);
        meta.put_u64(self.storage.num_leaves() as u64);
        meta.put_u64(self.storage.leaf_units() as u64);
        meta.put_u64(HEAD_LAYOUT_IN_PLACE);
        debug_assert_eq!(meta.len(), META_LEN);
        let mut payload = Vec::with_capacity(
            L::payload_len(self.storage.num_leaves(), self.storage.leaf_units())
                .expect("live geometry cannot overflow"),
        );
        self.storage.write_payload(&mut payload);
        f(SnapshotEnvelope {
            codec_id: L::CODEC_ID,
            meta: &meta,
            payload: &payload,
        })
    }

    /// `env` borrows the file's bytes: the payload is copied once, by
    /// `read_payload`, into the storage it becomes.
    fn from_envelope(env: SnapshotEnvelope<'_>) -> Result<Self, PersistError> {
        if env.codec_id != L::CODEC_ID {
            return Err(PersistError::CodecMismatch {
                expected: L::CODEC_ID,
                found: env.codec_id,
            });
        }
        let mut r = ByteReader::new(env.meta);
        let key_bytes = r.u32("key width")?;
        if key_bytes != K::BYTES as u32 {
            return Err(PersistError::KeyWidthMismatch {
                expected: K::BYTES as u32,
                found: key_bytes,
            });
        }
        expect_retired(&mut r, &RETIRED_BEFORE)?;
        let growing_factor = r.f64("growing_factor")?;
        expect_retired(&mut r, &RETIRED_AFTER)?;
        let cfg = PmaConfig {
            growing_factor,
            force_codec: force_codec_from_tag(r.u64("force_codec")?)?,
        };
        cfg.check()?;
        let len = as_usize(r.u64("len")?, "len")?;
        let num_leaves = as_usize(r.u64("num_leaves")?, "num_leaves")?;
        let leaf_units = as_usize(r.u64("leaf_units")?, "leaf_units")?;
        let layout = r.u64("head layout")?;
        r.expect_end("snapshot meta")?;
        if layout != HEAD_LAYOUT_IN_PLACE {
            return Err(PersistError::Corrupt(format!(
                "snapshot names head layout {layout}; this format stores \
                 in-place heads only ({HEAD_LAYOUT_IN_PLACE})"
            )));
        }
        if num_leaves == 0 {
            return Err(PersistError::Corrupt("snapshot has zero leaves".into()));
        }
        if leaf_units < L::MIN_LEAF_UNITS {
            return Err(PersistError::Corrupt(format!(
                "leaf capacity {leaf_units} below the codec minimum {}",
                L::MIN_LEAF_UNITS
            )));
        }
        let mut storage = L::read_payload(num_leaves, leaf_units, env.payload)?;
        storage.set_codec_policy(cfg.force_codec);
        let (mut total_len, mut total_units) = (0usize, 0usize);
        for leaf in 0..num_leaves {
            total_len += storage.count(leaf);
            total_units += storage.units_used(leaf);
        }
        if total_len != len {
            return Err(PersistError::Corrupt(format!(
                "header says {len} elements, leaves hold {total_len}"
            )));
        }
        let mut this = Self {
            storage,
            cfg,
            len,
            units: total_units,
            batch_stats: Default::default(),
            occ: Vec::new(),
            log: crate::writeset::WriteLog::new(),
            _marker: std::marker::PhantomData,
        };
        this.rebuild_read_index();
        Ok(this)
    }
}

/// Consume the retired `words`, refusing any that is not its constant.
fn expect_retired(
    r: &mut ByteReader<'_>,
    words: &[(&'static str, u64)],
) -> Result<(), PersistError> {
    for &(what, want) in words {
        let found = r.u64(what)?;
        if found != want {
            return Err(PersistError::Corrupt(format!(
                "snapshot meta word {what} is {found:#x}; this format writes the \
                 constant {want:#x}"
            )));
        }
    }
    Ok(())
}

fn as_usize(v: u64, what: &'static str) -> Result<usize, PersistError> {
    usize::try_from(v).map_err(|_| PersistError::Corrupt(format!("{what} {v} exceeds usize")))
}

/// Stable on-disk discriminant of a [`crate::ForceCodec`]. Never renumber.
fn force_codec_tag(f: crate::ForceCodec) -> u64 {
    match f {
        crate::ForceCodec::Auto => 0,
        crate::ForceCodec::Delta => 1,
        crate::ForceCodec::Bitmap => 2,
    }
}

fn force_codec_from_tag(v: u64) -> Result<crate::ForceCodec, PersistError> {
    match v {
        0 => Ok(crate::ForceCodec::Auto),
        1 => Ok(crate::ForceCodec::Delta),
        2 => Ok(crate::ForceCodec::Bitmap),
        _ => Err(PersistError::Corrupt(format!(
            "unknown force_codec discriminant {v}"
        ))),
    }
}

impl<K: PmaKey, L: LeafStorage<K>> Persist for PmaCore<K, L> {
    fn save(&self, path: &Path) -> Result<(), PersistError> {
        self.with_envelope(|env| env.save_file(path))
    }

    fn load(path: &Path) -> Result<Self, PersistError> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
    }
}
