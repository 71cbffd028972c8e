//! Property tests for the baseline structures: the join-based P-tree, the
//! blocked PaC-tree, and the hash-chunked C-tree must all implement exact
//! set semantics, and their internal shape constraints must hold under
//! arbitrary inputs.
//!
//! Written against the in-repo randomized-test kit
//! ([`cpma_api::testkit::SplitMix64`]) — seeded and fully deterministic, no
//! external property-testing dependency (the build environment is offline).

use cpma_api::testkit::{sorted_unique, SplitMix64};
use cpma_api::{BatchSet, OrderedSet, RangeSet};
use cpma_baselines::{CPac, CTreeSet, PTree, UPac};
use std::collections::BTreeSet;

const CASES: u64 = 48;

/// P-tree union is set union with an exact added-count.
#[test]
fn ptree_union_semantics() {
    let mut rng = SplitMix64::new(0x9731);
    for _ in 0..CASES {
        let a = sorted_unique(rng.raw_keys(400));
        let b = sorted_unique(rng.raw_keys(400));
        let mut t = PTree::build_sorted(&a);
        let added = t.insert_batch_sorted(&b);
        let union: BTreeSet<u64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(added, union.len() - a.len());
        assert_eq!(t.to_vec(), union.iter().copied().collect::<Vec<_>>());
        assert_eq!(t.len(), union.len());
    }
}

/// P-tree difference is set difference with an exact removed-count.
#[test]
fn ptree_difference_semantics() {
    let mut rng = SplitMix64::new(0x9732);
    for _ in 0..CASES {
        let a = sorted_unique(rng.raw_keys(400));
        let b = sorted_unique(rng.raw_keys(400));
        let mut t = PTree::build_sorted(&a);
        let removed = t.remove_batch_sorted(&b);
        let diff: Vec<u64> = a
            .iter()
            .copied()
            .filter(|k| b.binary_search(k).is_err())
            .collect();
        assert_eq!(removed, a.len() - diff.len());
        assert_eq!(t.to_vec(), diff);
    }
}

/// The treap shape is canonical: building from sorted input equals
/// building by repeated unions (same keys ⇒ same structure ⇒ same
/// traversal and size accounting).
#[test]
fn ptree_canonical_shape() {
    let mut rng = SplitMix64::new(0x9734);
    for _ in 0..CASES {
        let keys = sorted_unique(rng.raw_keys(300));
        let built = PTree::build_sorted(&keys);
        let mut incremental = PTree::new();
        for chunk in keys.chunks(37) {
            incremental.insert_batch_sorted(chunk);
        }
        assert_eq!(built.to_vec(), incremental.to_vec());
        assert_eq!(built.size_bytes(), incremental.size_bytes());
    }
}

/// PaC-tree blocks never exceed BLOCK_SIZE elements, raw or compressed,
/// and both payloads agree with the model.
#[test]
fn pactree_matches_model_and_bounds() {
    let mut rng = SplitMix64::new(0x9AC1);
    for _ in 0..CASES {
        let mut raw = UPac::new();
        let mut comp = CPac::new();
        let mut model = BTreeSet::new();
        let rounds = rng.next_below(5) + 1;
        for _ in 0..rounds {
            let b = sorted_unique(rng.raw_keys(300).into_iter().chain([0]).collect());
            if rng.chance(1, 2) {
                let before = model.len();
                model.extend(b.iter().copied());
                let want = model.len() - before;
                assert_eq!(raw.insert_batch_sorted(&b), want);
                assert_eq!(comp.insert_batch_sorted(&b), want);
            } else {
                let mut want = 0;
                for k in &b {
                    if model.remove(k) {
                        want += 1;
                    }
                }
                assert_eq!(raw.remove_batch_sorted(&b), want);
                assert_eq!(comp.remove_batch_sorted(&b), want);
            }
        }
        let wantv: Vec<u64> = model.iter().copied().collect();
        assert_eq!(raw.to_vec(), wantv);
        assert_eq!(comp.to_vec(), wantv);
    }
}

/// C-tree chunk boundaries are value-determined: any order of inserts
/// and removes yields the identical structure footprint.
#[test]
fn ctree_order_independent() {
    let mut rng = SplitMix64::new(0xC731);
    for _ in 0..CASES {
        let keys = sorted_unique(rng.raw_keys(400).into_iter().chain([7]).collect());
        let one_shot = CTreeSet::build_sorted(&keys);
        let mut incremental = CTreeSet::new();
        for chunk in keys.chunks(29) {
            incremental.insert_batch_sorted(chunk);
        }
        assert_eq!(one_shot.to_vec(), incremental.to_vec());
        assert_eq!(one_shot.size_bytes(), incremental.size_bytes());
        // Local removes leave what a fresh build of the survivors has.
        let dels = sorted_unique(keys.iter().copied().filter(|_| rng.chance(1, 3)).collect());
        for chunk in dels.chunks(13) {
            incremental.remove_batch_sorted(chunk);
        }
        let survivors: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| dels.binary_search(k).is_err())
            .collect();
        let fresh = CTreeSet::build_sorted(&survivors);
        assert_eq!(incremental.to_vec(), survivors);
        assert_eq!(fresh.size_bytes(), incremental.size_bytes());
    }
}

/// for_range agrees with filtering for every structure, on the trait API.
#[test]
fn for_range_agreement() {
    let mut rng = SplitMix64::new(0xFA9E);
    for _ in 0..CASES {
        let keys = sorted_unique(rng.raw_keys(400));
        let a = rng.next_u64();
        let b = rng.next_u64();
        let (lo, hi) = (a.min(b), a.max(b));
        let want: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&e| e >= lo && e < hi)
            .collect();

        let t = PTree::build_sorted(&keys);
        let mut got = Vec::new();
        t.for_range(lo..hi, |k| got.push(k));
        assert_eq!(got, want);

        let t = CPac::build_sorted(&keys);
        let mut got = Vec::new();
        t.for_range(lo..hi, |k| got.push(k));
        assert_eq!(got, want);

        let t = CTreeSet::build_sorted(&keys);
        let mut got = Vec::new();
        t.for_range(lo..hi, |k| got.push(k));
        assert_eq!(got, want);
    }
}

/// successor on every baseline matches the model, via the trait.
#[test]
fn successor_matches_model() {
    use cpma_api::OrderedSet;
    let mut rng = SplitMix64::new(0x50CC);
    for _ in 0..CASES {
        let keys = sorted_unique(rng.raw_keys(300));
        let model: BTreeSet<u64> = keys.iter().copied().collect();
        let pt = PTree::build_sorted(&keys);
        let cp = CPac::build_sorted(&keys);
        let ct = CTreeSet::build_sorted(&keys);
        for _ in 0..20 {
            let probe = rng.next_u64();
            let want = model.range(probe..).next().copied();
            assert_eq!(pt.successor(probe), want, "P-tree successor({probe})");
            assert_eq!(
                OrderedSet::successor(&cp, probe),
                want,
                "C-PaC successor({probe})"
            );
            assert_eq!(
                OrderedSet::successor(&ct, probe),
                want,
                "C-tree successor({probe})"
            );
        }
    }
}

#[test]
fn compression_ratio_ordering_on_dense_keys() {
    // Dense keys: compressed structures must be far smaller than raw.
    let keys: Vec<u64> = (0..200_000u64).collect();
    let raw = UPac::build_sorted(&keys);
    let comp = CPac::build_sorted(&keys);
    let ctree = CTreeSet::build_sorted(&keys);
    let ptree = PTree::build_sorted(&keys);
    assert!(comp.size_bytes() < raw.size_bytes() / 3);
    assert!(ctree.size_bytes() < raw.size_bytes() / 3);
    assert_eq!(ptree.size_bytes(), keys.len() * 32);
}

#[test]
fn empty_batch_operations() {
    let mut t = PTree::new();
    assert_eq!(t.insert_batch_sorted(&[]), 0);
    assert_eq!(t.remove_batch_sorted(&[]), 0);
    let mut c = CPac::new();
    assert_eq!(c.insert_batch_sorted(&[]), 0);
    assert_eq!(c.remove_batch_sorted(&[]), 0);
    let mut s = CTreeSet::new();
    assert_eq!(s.insert_batch_sorted(&[]), 0);
    assert_eq!(s.remove_batch_sorted(&[]), 0);
}
