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

use cpma_api::PersistError;
use cpma_pma::{LeafStorage, Pma, PmaConfig, PmaCore, RunSize, UncompressedLeaves};
use std::sync::atomic::{AtomicUsize, Ordering};

type Inner = UncompressedLeaves<u64>;

/// `UncompressedLeaves` plus a counter of trait-level `count()` calls —
/// the per-leaf probe the old empty-run walks were made of.
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

impl LeafStorage<u64> for CountingLeaves {
    type Shared<'a> = <Inner as LeafStorage<u64>>::Shared<'a>;

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

    fn write_payload(&self, out: &mut Vec<u8>) {
        self.inner.write_payload(out)
    }

    fn read_payload(
        num_leaves: usize,
        leaf_units: usize,
        payload: &[u8],
    ) -> Result<Self, PersistError> {
        Inner::read_payload(num_leaves, leaf_units, payload).map(Self::wrap)
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

    fn for_each_in_leaf(&self, leaf: usize, f: &mut dyn FnMut(u64) -> bool) -> bool {
        self.inner.for_each_in_leaf(leaf, f)
    }

    fn collect_leaf(&self, leaf: usize, out: &mut Vec<u64>) {
        self.inner.collect_leaf(leaf, out)
    }

    fn leaf_sum(&self, leaf: usize) -> u64 {
        self.inner.leaf_sum(leaf)
    }

    fn size_run(&self, elems: &[u64], leaf_units: usize) -> RunSize {
        self.inner.size_run(elems, leaf_units)
    }

    fn plan_split(&self, elems: &[u64], k: usize, leaf_units: usize) -> Option<Vec<usize>> {
        self.inner.plan_split(elems, k, leaf_units)
    }

    fn shared(&mut self) -> Self::Shared<'_> {
        self.inner.shared()
    }
}

type CountingPma = PmaCore<u64, CountingLeaves>;

/// A structure whose occupied leaves are separated by empty runs of
/// hundreds of leaves: 6 elements forced across ≥ 4096 leaves.
fn sparse_pma() -> CountingPma {
    let cfg = PmaConfig::builder().min_leaves(4096).build().unwrap();
    let elems: Vec<u64> = (0..6u64).map(|i| i << 56).collect();
    let p = CountingPma::from_sorted_with(&elems, cfg);
    assert!(p.storage().num_leaves() >= 4096);
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
        assert_eq!(p.has(probe), expect, "has({probe})");
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
/// member keys and their neighbours.
#[test]
fn leaf_queries_agree_across_codecs() {
    use cpma_pma::{CompressedLeaves, Cpma};

    let elems: Vec<u64> = (0..30_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let p = Pma::<u64>::from_sorted(&elems);
    let c = Cpma::from_sorted(&elems);

    fn check_storage<L: LeafStorage<u64>>(storage: &L, name: &str) {
        let mut buf = Vec::new();
        for leaf in 0..storage.num_leaves() {
            buf.clear();
            storage.collect_leaf(leaf, &mut buf);
            if buf.is_empty() {
                continue;
            }
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
    check_storage::<UncompressedLeaves<u64>>(p.storage(), "PMA");
    check_storage::<CompressedLeaves>(c.storage(), "CPMA");

    // And the set-level answers agree between the codecs.
    for probe in elems.iter().step_by(97).copied() {
        assert_eq!(p.has(probe), c.has(probe));
        assert_eq!(p.has(probe + 1), c.has(probe + 1));
        assert_eq!(p.successor(probe + 1), c.successor(probe + 1));
    }
}
