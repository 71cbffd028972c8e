//! Regressions for the O(n) read-path hazards: empty-run routing and
//! successor resumption must not touch per-leaf metadata leaf-by-leaf,
//! and the two leaf codecs must agree on every per-leaf query.
//!
//! The routing tests use a counting [`LeafStorage`] adapter: the engine's
//! read path (`has`/`successor`/batched lookups) is expected to consult
//! the occupancy bitset, never `count()`. The previous implementation
//! walked `count(leaf)` backward (destination routing) or forward
//! (successor resumption) across every leaf of an empty run, so on the
//! sparse structures below it made hundreds of `count()` calls per probe
//! — these tests fail loudly against it.

use cpma_api::{BatchSet, OrderedSet, PersistError};
use cpma_persist::snapshot::SnapshotReader;
use cpma_pma::{
    ChunkBlock, LeafStorage, Plan, Pma, PmaCore, RunSize, UncompressedLeaves, CHUNK_KEYS,
};
use std::sync::atomic::{AtomicUsize, Ordering};

type Inner = UncompressedLeaves;

/// Fewest leaves [`CountingLeaves`] sizes any run at.
const SPARSE_LEAVES: usize = 4096;

/// `UncompressedLeaves` plus a counter of trait-level `count()` calls —
/// the per-leaf probe the old empty-run walks were made of — and a sizing
/// that asks for at least [`SPARSE_LEAVES`] leaves, so a handful of
/// elements is laid out with empty runs of hundreds of leaves between them.
struct CountingLeaves {
    inner: Inner,
    count_calls: AtomicUsize,
}

impl CountingLeaves {
    fn wrap(inner: Inner) -> Self {
        Self {
            inner,
            count_calls: AtomicUsize::new(0),
        }
    }

    fn count_calls(&self) -> usize {
        self.count_calls.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count_calls.store(0, Ordering::Relaxed);
    }
}

impl LeafStorage for CountingLeaves {
    type Shared<'a> = <Inner as LeafStorage>::Shared<'a>;

    const NAME: &'static str = "PMA(counting)";
    const MIN_LEAF_UNITS: usize = Inner::MIN_LEAF_UNITS;
    const LEAF_ALIGN: usize = Inner::LEAF_ALIGN;
    const HEAD_UNITS: usize = Inner::HEAD_UNITS;
    const LEAF_SCALE: usize = Inner::LEAF_SCALE;
    const CODEC_ID: u32 = Inner::CODEC_ID;

    fn with_geometry(num_leaves: usize, leaf_units: usize) -> Self {
        Self::wrap(Inner::with_geometry(num_leaves, leaf_units))
    }

    fn payload_len(num_leaves: usize, leaf_units: usize) -> Option<usize> {
        Inner::payload_len(num_leaves, leaf_units)
    }

    fn write_payload(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        self.inner.write_payload(out)
    }

    fn read_payload(
        num_leaves: usize,
        leaf_units: usize,
        src: &mut SnapshotReader<impl std::io::Read>,
    ) -> Result<Self, PersistError> {
        Inner::read_payload(num_leaves, leaf_units, src).map(Self::wrap)
    }

    fn num_leaves(&self) -> usize {
        self.inner.num_leaves()
    }

    fn leaf_units(&self) -> usize {
        self.inner.leaf_units()
    }

    fn units_used(&self, leaf: usize) -> usize {
        self.inner.units_used(leaf)
    }

    fn count(&self, leaf: usize) -> usize {
        self.count_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.count(leaf)
    }

    fn head(&self, leaf: usize) -> u64 {
        self.inner.head(leaf)
    }

    fn is_overflowed(&self, leaf: usize) -> bool {
        self.inner.is_overflowed(leaf)
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn leaf_successor(&self, leaf: usize, key: u64) -> Option<u64> {
        self.inner.leaf_successor(leaf, key)
    }

    fn leaf_contains(&self, leaf: usize, key: u64) -> bool {
        self.inner.leaf_contains(leaf, key)
    }

    fn leaf_max(&self, leaf: usize) -> Option<u64> {
        self.inner.leaf_max(leaf)
    }

    fn leaf_chunks<F: FnMut(&[u64]) -> bool>(
        &self,
        leaf: usize,
        start: u64,
        block: &mut ChunkBlock,
        f: F,
    ) -> bool {
        self.inner.leaf_chunks(leaf, start, block, f)
    }

    fn collect_leaf(&self, leaf: usize, out: &mut Vec<u64>) {
        self.inner.collect_leaf(leaf, out)
    }

    fn leaf_sum(&self, leaf: usize) -> u64 {
        self.inner.leaf_sum(leaf)
    }

    fn size_run(&self, elems: &[u64], leaf_units: usize) -> RunSize {
        let size = self.inner.size_run(elems, leaf_units);
        RunSize {
            min_leaves: size.min_leaves.max(SPARSE_LEAVES),
            ..size
        }
    }

    fn plan_split(&self, elems: &[u64], k: usize, leaf_units: usize, weight: u64) -> Option<Plan> {
        self.inner.plan_split(elems, k, leaf_units, weight)
    }

    fn copy_leaves_from(&mut self, src: &Self, start: usize, end: usize) -> usize {
        self.inner.copy_leaves_from(&src.inner, start, end)
    }

    fn shared(&mut self) -> Self::Shared<'_> {
        self.inner.shared()
    }
}

type CountingPma = PmaCore<CountingLeaves>;

/// A structure whose occupied leaves are separated by empty runs of
/// hundreds of leaves: 6 elements spread across ≥ 4096 leaves.
fn sparse_pma() -> CountingPma {
    let elems: Vec<u64> = (0..6u64).map(|i| i << 56).collect();
    let p = CountingPma::build_sorted(&elems);
    assert!(p.storage().num_leaves() >= SPARSE_LEAVES);
    p.storage().reset();
    p
}

#[test]
fn routing_over_long_empty_runs_never_scans_leaf_counts() {
    let p = sparse_pma();
    // Probes landing mid-run, on stored keys, below the minimum, and at
    // the very top: destination routing must come from the occupancy
    // bitset, not a per-leaf backward walk.
    for probe in [
        0u64,
        1,
        1 << 40,
        2 << 56,
        (2 << 56) + 1,
        (3 << 56) - 1,
        5 << 56,
        u64::MAX,
    ] {
        let expect = (0..6u64).map(|i| i << 56).any(|k| k == probe);
        assert_eq!(p.contains(probe), expect, "has({probe})");
    }
    assert_eq!(
        p.storage().count_calls(),
        0,
        "the point-lookup path walked per-leaf counts across an empty run"
    );
}

#[test]
fn successor_over_long_empty_runs_never_scans_leaf_counts() {
    let p = sparse_pma();
    let elems: Vec<u64> = (0..6u64).map(|i| i << 56).collect();
    for probe in [0u64, 1, (1 << 56) + 1, (4 << 56) + 12345, 5 << 56, u64::MAX] {
        let want = elems.iter().copied().find(|&k| k >= probe);
        assert_eq!(p.successor(probe), want, "successor({probe})");
    }
    assert_eq!(
        p.storage().count_calls(),
        0,
        "the successor path walked per-leaf counts across an empty run"
    );
}

#[test]
fn batched_lookups_never_scan_leaf_counts() {
    let p = sparse_pma();
    let elems: Vec<u64> = (0..6u64).map(|i| i << 56).collect();
    let probes: Vec<u64> = vec![0, 1, 1 << 56, (1 << 56) + 1, 3 << 56, 3 << 56, u64::MAX];
    let contains = p.contains_batch(&probes);
    let succ = p.successor_batch(&probes);
    for (i, &k) in probes.iter().enumerate() {
        assert_eq!(contains[i], elems.contains(&k), "contains_batch[{i}]");
        assert_eq!(
            succ[i],
            elems.iter().copied().find(|&e| e >= k),
            "successor_batch[{i}]"
        );
    }
    assert_eq!(
        p.storage().count_calls(),
        0,
        "the batched read path walked per-leaf counts across an empty run"
    );
}

/// Both codecs must give identical per-leaf answers: `leaf_contains` is an
/// independent early-exit decode for the compressed codec (it used to be
/// defined as `leaf_successor(..) == Some(key)`), so pin the agreement of
/// both per-leaf queries against a collect-derived oracle, per leaf, for
/// member keys and their neighbours — and the read visitor's chunks, on
/// delta leaves and on bitmap leaves that take several blocks.
#[test]
fn leaf_queries_agree_across_codecs() {
    use cpma_pma::{CompressedLeaves, Cpma};

    let elems: Vec<u64> = (0..30_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let p = Pma::build_sorted(&elems);
    let c = Cpma::build_sorted(&elems);

    fn check_storage<L: LeafStorage>(storage: &L, name: &str) {
        let mut buf = Vec::new();
        let mut block = ChunkBlock::new();
        for leaf in 0..storage.num_leaves() {
            buf.clear();
            storage.collect_leaf(leaf, &mut buf);
            if buf.is_empty() {
                continue;
            }
            // The read visitor hands out the collected keys from any start,
            // in chunks no larger than a block, and stops on a `false`.
            for start in [0, buf[0], buf[buf.len() / 2], buf[buf.len() - 1] + 1] {
                let mut got = Vec::new();
                let finished = storage.leaf_chunks(leaf, start, &mut block, |chunk| {
                    assert!(!chunk.is_empty() && chunk.len() <= CHUNK_KEYS);
                    got.extend_from_slice(chunk);
                    true
                });
                let want: Vec<u64> = buf.iter().copied().filter(|&k| k >= start).collect();
                assert!(finished, "{name}: leaf {leaf} chunks from {start} stopped");
                assert_eq!(got, want, "{name}: leaf {leaf} chunks from {start}");
            }
            let mut calls = 0;
            assert!(!storage.leaf_chunks(leaf, 0, &mut block, |_| {
                calls += 1;
                false
            }));
            assert_eq!(
                calls, 1,
                "{name}: leaf {leaf} chunks went on after a `false`"
            );
            for &e in &buf {
                for probe in [e.saturating_sub(1), e, e.saturating_add(1)] {
                    assert_eq!(
                        storage.leaf_contains(leaf, probe),
                        buf.contains(&probe),
                        "{name}: leaf {leaf} contains({probe})"
                    );
                    assert_eq!(
                        storage.leaf_successor(leaf, probe),
                        buf.iter().copied().find(|&k| k >= probe),
                        "{name}: leaf {leaf} successor({probe})"
                    );
                }
            }
        }
    }
    check_storage::<UncompressedLeaves>(p.storage(), "PMA");
    check_storage::<CompressedLeaves>(c.storage(), "CPMA");
    // Consecutive keys: bitmap leaves, wider than one chunk block.
    let dense = Cpma::build_sorted(&(0..50_000u64).collect::<Vec<_>>());
    let widest = (0..dense.storage().num_leaves())
        .map(|l| dense.storage().count(l))
        .max();
    assert!(widest > Some(CHUNK_KEYS), "no leaf wider than a block");
    check_storage::<CompressedLeaves>(dense.storage(), "CPMA, dense");

    // And the set-level answers agree between the codecs.
    for probe in elems.iter().step_by(97).copied() {
        assert_eq!(p.contains(probe), c.contains(probe));
        assert_eq!(p.contains(probe + 1), c.contains(probe + 1));
        assert_eq!(p.successor(probe + 1), c.successor(probe + 1));
    }
}
