//! Deterministic randomized-test support.
//!
//! The workspace's property tests (and the [`conformance`](crate::conformance)
//! suite) need seeded, reproducible randomness with no external
//! dependencies: [`SplitMix64`] is the generator the workloads crate draws
//! the paper's inputs from, re-exported here with its test-shaped draws
//! (`chance`, `keys`, `sorted_batch`, `raw_keys`). [`Damage`] /
//! [`assert_all_refused`] are the corruption table every checksummed
//! container's suite runs.

pub use cpma_workloads::SplitMix64;

/// Sort + dedup by value: the tests' model-side normal form.
pub fn sorted_unique(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    v
}

/// One way to damage an encoded, checksummed container — a snapshot image,
/// a WAL record, a wire frame. The corruption suites of all three are
/// tables of these run through [`assert_all_refused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damage {
    /// Keep only the first `n` bytes.
    Truncate(usize),
    /// Xor `mask` into the byte at `at`.
    Flip { at: usize, mask: u8 },
    /// Rewrite the leading `LE u32` length of a `[len][body][digest]` frame
    /// to `u32::MAX`.
    OversizeLength,
    /// Rewrite the trailing `LE u64` digest to a plausible wrong value.
    ForgedDigest,
}

impl Damage {
    /// The two forgeries of a `[len LE u32][body][digest LE u64]` frame.
    pub const FRAME_FORGERIES: [Damage; 2] = [Damage::OversizeLength, Damage::ForgedDigest];

    /// Truncation to, and each of `masks` flipped at, every one of the
    /// first `dense` positions of a `len`-byte buffer, every `stride`-th
    /// after them, and the last. `dense = usize::MAX` is exhaustive.
    pub fn sweep(len: usize, dense: usize, stride: usize, masks: &[u8]) -> Vec<Damage> {
        let dense = dense.min(len);
        let mut positions: Vec<usize> = (0..dense)
            .chain((dense..len).step_by(stride))
            .chain(len.checked_sub(1))
            .collect();
        positions.dedup();
        let mut table = Vec::new();
        for at in positions {
            table.push(Damage::Truncate(at));
            table.extend(masks.iter().map(|&mask| Damage::Flip { at, mask }));
        }
        table
    }

    /// A damaged copy of `encoded`.
    pub fn apply(self, encoded: &[u8]) -> Vec<u8> {
        let mut bad = encoded.to_vec();
        match self {
            Damage::Truncate(n) => bad.truncate(n),
            Damage::Flip { at, mask } => bad[at] ^= mask,
            Damage::OversizeLength => bad[..4].copy_from_slice(&u32::MAX.to_le_bytes()),
            Damage::ForgedDigest => {
                let at = bad.len() - 8;
                bad[at..].copy_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
            }
        }
        bad
    }
}

/// Run `parse` over `encoded` under every [`Damage`] of `table`: each must
/// come back `Err` — typed, and printable without a panic — never `Ok`.
/// `parse` is whatever reads the container back: a decoder over the bytes,
/// or a closure that sends them to a live server and reports whether
/// anything was acknowledged.
pub fn assert_all_refused<E: std::fmt::Display>(
    encoded: &[u8],
    table: impl IntoIterator<Item = Damage>,
    mut parse: impl FnMut(&[u8]) -> Result<(), E>,
) {
    for damage in table {
        match parse(&damage.apply(encoded)) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(()) => panic!("{damage:?} of {} bytes went undetected", encoded.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damage_sweep_covers_what_it_says() {
        let all = Damage::sweep(5, usize::MAX, 1, &[1]);
        assert_eq!(all.len(), 10);
        assert_eq!(all[0], Damage::Truncate(0));
        assert_eq!(all[9], Damage::Flip { at: 4, mask: 1 });
        // 0, 1 dense; 2, 5, 8 strided; 9 the last.
        let cuts: Vec<Damage> = Damage::sweep(10, 2, 3, &[]);
        assert_eq!(cuts, [0, 1, 2, 5, 8, 9].map(Damage::Truncate));
        assert!(Damage::sweep(0, 8, 1, &[1]).is_empty());
        assert_eq!(
            Damage::ForgedDigest.apply(&[0; 12])[4..],
            0xDEAD_BEEF_u64.to_le_bytes()
        );
        assert_all_refused(&[0u8; 4], all[..8].iter().copied(), |b| {
            if b == [0u8; 4] {
                Ok(())
            } else {
                Err("damaged")
            }
        });
    }
}
