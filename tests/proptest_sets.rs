//! Property-based tests for the core invariants the paper's data
//! structures must uphold under arbitrary inputs, driven by the in-repo
//! randomized-test kit ([`cpma::api::testkit::SplitMix64`]) — seeded and fully
//! deterministic, no external property-testing dependency (the build
//! environment is offline).

use cpma::api::testkit::{sorted_unique, SplitMix64};
use cpma::pma::codec;
use cpma::prelude::*;
use std::collections::BTreeSet;
use std::ops::Bound;

const CASES: u64 = 64;

/// Byte codes round-trip any strictly increasing run.
#[test]
fn codec_roundtrip() {
    let mut rng = SplitMix64::new(0xC0DE);
    for _ in 0..CASES {
        let elems = sorted_unique(rng.raw_keys(300));
        let len = codec::encoded_run_len(&elems, 8);
        let mut buf = vec![0u8; len];
        let written = codec::encode_run(&elems, &mut buf);
        assert_eq!(written, len);
        let mut out = Vec::new();
        codec::decode_run(&buf, &mut out);
        assert_eq!(out, elems);
    }
}

/// Varints round-trip any u64.
#[test]
fn varint_roundtrip() {
    let mut rng = SplitMix64::new(0x7A21);
    let probe = |v: u64| {
        let mut buf = [0u8; codec::MAX_VARINT_BYTES];
        let n = codec::write_varint(v, &mut buf);
        assert_eq!(n, codec::varint_len(v));
        let (back, used) = codec::decode_varint(&buf);
        assert_eq!(back, v);
        assert_eq!(used, n);
    };
    probe(0);
    probe(u64::MAX);
    for _ in 0..CASES * 4 {
        // Vary magnitude so every varint width is hit.
        let bits = rng.next_below(64) as u32 + 1;
        probe(rng.next_bits(bits));
    }
}

/// Batch insert ≡ point inserts, for the PMA.
#[test]
fn pma_batch_equals_points() {
    let mut rng = SplitMix64::new(0xBA7C);
    for _ in 0..CASES {
        let base = sorted_unique(rng.raw_keys(500));
        let mut batched = Pma::build_sorted(&base);
        let mut pointed = Pma::build_sorted(&base);
        let b = sorted_unique(rng.raw_keys(800));
        let added = batched.insert_batch_sorted(&b);
        let mut point_added = 0;
        for &k in &b {
            if pointed.insert(k) {
                point_added += 1;
            }
        }
        assert_eq!(added, point_added);
        assert!(batched.iter_all().eq(pointed.iter_all()));
        batched.check_invariants();
        pointed.check_invariants();
    }
}

/// The CPMA stores exactly the same set as the PMA under the same
/// operations (compression must be invisible).
#[test]
fn cpma_equals_pma() {
    let mut rng = SplitMix64::new(0xCE0A);
    for _ in 0..CASES {
        let mut pma = Pma::new();
        let mut cpma = Cpma::new();
        let rounds = rng.next_below(7) + 1;
        for _ in 0..rounds {
            let b = sorted_unique(rng.raw_keys(400).into_iter().chain([1]).collect());
            if rng.chance(1, 2) {
                assert_eq!(pma.insert_batch_sorted(&b), cpma.insert_batch_sorted(&b));
            } else {
                assert_eq!(pma.remove_batch_sorted(&b), cpma.remove_batch_sorted(&b));
            }
        }
        assert!(pma.iter_all().eq(cpma.iter_all()));
        pma.check_invariants();
        cpma.check_invariants();
    }
}

/// delete ∘ insert ≡ identity on the CPMA.
#[test]
fn cpma_insert_then_delete_is_identity() {
    let mut rng = SplitMix64::new(0x1DE7);
    for _ in 0..CASES {
        let base = sorted_unique(rng.raw_keys(600));
        let extra: Vec<u64> = sorted_unique(rng.raw_keys(600).into_iter().chain([3]).collect())
            .into_iter()
            .filter(|k| base.binary_search(k).is_err())
            .collect();
        let mut c = Cpma::build_sorted(&base);
        let before: Vec<u64> = c.iter_all().collect();
        let added = c.insert_batch_sorted(&extra);
        assert_eq!(added, extra.len());
        let removed = c.remove_batch_sorted(&extra);
        assert_eq!(removed, extra.len());
        assert_eq!(c.iter_all().collect::<Vec<_>>(), before);
        c.check_invariants();
    }
}

/// THE range-agreement property of the new API: on every structure,
/// `range_iter(range)` ≡ `for_range(range)` ≡ `BTreeSet::range(range)`,
/// for random windows in every `RangeBounds` shape (including ones only
/// the inclusive forms can express, like `..=u64::MAX`).
#[test]
fn range_iter_agrees_with_for_range_and_btreeset_on_every_structure() {
    fn check<S: BatchSet + RangeSet>(rng: &mut SplitMix64) {
        let elems = sorted_unique(
            rng.raw_keys(500)
                .into_iter()
                .chain([0, u64::MAX, rng.next_u64()])
                .collect(),
        );
        let s = S::build_sorted(&elems);
        let model: BTreeSet<u64> = elems.iter().copied().collect();
        for _ in 0..12 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            let (lo, hi) = (a.min(b), a.max(b));
            let shapes: [(Bound<u64>, Bound<u64>); 6] = [
                (Bound::Included(lo), Bound::Excluded(hi)),
                (Bound::Included(lo), Bound::Included(hi)),
                (Bound::Excluded(lo), Bound::Included(hi)),
                (Bound::Included(lo), Bound::Unbounded),
                (Bound::Unbounded, Bound::Excluded(hi)),
                (Bound::Unbounded, Bound::Unbounded),
            ];
            for range in shapes {
                let want: Vec<u64> = model.range(range).copied().collect();
                let got_iter: Vec<u64> = s.range_iter(range).collect();
                assert_eq!(got_iter, want, "{}: range_iter {range:?}", S::NAME);
                let mut got_for = Vec::new();
                s.for_range(range, |k| got_for.push(k));
                assert_eq!(got_for, want, "{}: for_range {range:?}", S::NAME);
                let want_sum = want.iter().fold(0u64, |x, &y| x.wrapping_add(y));
                assert_eq!(
                    s.range_sum(range),
                    want_sum,
                    "{}: range_sum {range:?}",
                    S::NAME
                );
            }
        }
    }
    let mut rng = SplitMix64::new(0x4A63);
    for _ in 0..8 {
        check::<Pma>(&mut rng);
        check::<Cpma>(&mut rng);
        check::<PTree>(&mut rng);
        check::<UPac>(&mut rng);
        check::<CPac>(&mut rng);
        check::<CTreeSet>(&mut rng);
        check::<BTreeSet<u64>>(&mut rng);
    }
}

/// successor() is the BTreeSet range lower bound.
#[test]
fn successor_matches_model() {
    let mut rng = SplitMix64::new(0x5CCE);
    for _ in 0..CASES {
        let elems = sorted_unique(rng.raw_keys(400));
        let model: BTreeSet<u64> = elems.iter().copied().collect();
        let p = Pma::build_sorted(&elems);
        let probe = rng.next_u64();
        let want = model.range(probe..).next().copied();
        assert_eq!(p.successor(probe), want);
    }
}

/// Tree baselines implement the same set as the PMA (union semantics).
#[test]
fn baselines_match_pma() {
    let mut rng = SplitMix64::new(0xBA5E);
    for _ in 0..CASES {
        let base = sorted_unique(rng.raw_keys(400));
        let batch = sorted_unique(rng.raw_keys(400));
        let dels = sorted_unique(rng.raw_keys(200));
        let mut pma = Pma::build_sorted(&base);
        let mut pt = PTree::build_sorted(&base);
        let mut cp = CPac::build_sorted(&base);
        assert_eq!(
            pma.insert_batch_sorted(&batch),
            pt.insert_batch_sorted(&batch)
        );
        assert_eq!(
            cp.insert_batch_sorted(&batch),
            pt.len() - base.len().min(pt.len())
        );
        assert_eq!(
            pma.remove_batch_sorted(&dels),
            pt.remove_batch_sorted(&dels)
        );
        cp.remove_batch_sorted(&dels);
        let reference: Vec<u64> = pma.iter_all().collect();
        assert_eq!(pt.to_vec(), reference);
        assert_eq!(cp.to_vec(), reference);
    }
}

/// Structural invariants hold after arbitrary mixed point operations.
#[test]
fn pma_invariants_under_point_ops() {
    let mut rng = SplitMix64::new(0x1417);
    for _ in 0..CASES {
        let mut p = Pma::new();
        let mut c = Cpma::new();
        let ops = rng.next_below(600) as usize;
        for _ in 0..ops {
            let k = rng.next_bits(32);
            if rng.chance(1, 2) {
                p.insert(k);
                c.insert(k);
            } else {
                p.remove(k);
                c.remove(k);
            }
        }
        p.check_invariants();
        c.check_invariants();
        assert!(p.iter_all().eq(c.iter_all()));
    }
}

/// The std-idiom constructors agree with the batch API.
#[test]
fn from_iterator_and_extend_match_batches() {
    let mut rng = SplitMix64::new(0xF20E);
    for _ in 0..16 {
        let keys = rng.raw_keys(500);
        let collected: Cpma = keys.iter().copied().collect();
        let mut batched = Cpma::new();
        batched.insert_batch(&mut keys.clone(), false);
        assert!(collected.iter_all().eq(batched.iter_all()));
        let more = rng.raw_keys(300);
        let mut extended = collected;
        extended.extend(more.iter().copied());
        batched.insert_batch(&mut more.clone(), false);
        assert!(extended.iter_all().eq(batched.iter_all()));
    }
}
