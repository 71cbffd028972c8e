//! Crate-level property tests for the PMA/CPMA: structural invariants and
//! behavioural equivalences under adversarial inputs that unit tests don't
//! reach (dense runs, huge gaps, boundary keys, pathological batch mixes).
//!
//! Written against the in-repo randomized-test kit
//! ([`cpma_api::testkit::SplitMix64`]) — seeded and fully deterministic, no
//! external property-testing dependency (the build environment is offline).

use cpma_api::testkit::{sorted_unique, SplitMix64};
use cpma_api::{BatchSet, OrderedSet, RangeSet};
use cpma_pma::{Cpma, Pma, PmaConfig};
use std::collections::BTreeSet;

const CASES: u64 = 48;

/// Key generators spanning the distributions that stress different parts
/// of the structure: dense runs (tiny deltas), sparse (huge deltas), and
/// clustered (a few hot leaves).
fn key_batch(rng: &mut SplitMix64) -> Vec<u64> {
    match rng.next_below(3) {
        // dense run with a random base
        0 => {
            let base = rng.next_bits(32);
            let n = rng.next_below(600) + 1;
            (0..n).map(|i| base + i).collect()
        }
        // uniform sparse
        1 => {
            let n = rng.next_below(600) as usize;
            (0..n).map(|_| rng.next_u64()).collect()
        }
        // clustered around a handful of centers
        _ => {
            let centers: Vec<u64> = (0..rng.next_below(4) + 1)
                .map(|_| rng.next_bits(32))
                .collect();
            let n = rng.next_below(400) as usize + 1;
            (0..n)
                .map(|i| (centers[i % centers.len()] << 16) + (i as u64 % 1000))
                .collect()
        }
    }
}

/// from_sorted round-trips any distribution, both storages.
#[test]
fn build_roundtrip() {
    let mut rng = SplitMix64::new(0xB111);
    for _ in 0..CASES {
        let elems = sorted_unique(key_batch(&mut rng));
        let p = Pma::build_sorted(&elems);
        assert!(p.iter_all().eq(elems.iter().copied()));
        p.check_invariants();
        let c = Cpma::build_sorted(&elems);
        assert!(c.iter_all().eq(elems.iter().copied()));
        c.check_invariants();
    }
}

/// Alternating insert/delete batches keep both structures equal to the
/// model and internally consistent.
#[test]
fn mixed_batches_match_model() {
    let mut rng = SplitMix64::new(0x0112);
    for _ in 0..CASES {
        let mut p = Pma::new();
        let mut c = Cpma::new();
        let mut model = BTreeSet::new();
        let rounds = rng.next_below(5) + 1;
        for _ in 0..rounds {
            let b = sorted_unique(key_batch(&mut rng));
            if rng.chance(1, 2) {
                let before = model.len();
                model.extend(b.iter().copied());
                let want = model.len() - before;
                assert_eq!(p.insert_batch_sorted(&b), want);
                assert_eq!(c.insert_batch_sorted(&b), want);
            } else {
                let mut want = 0;
                for k in &b {
                    if model.remove(k) {
                        want += 1;
                    }
                }
                assert_eq!(p.remove_batch_sorted(&b), want);
                assert_eq!(c.remove_batch_sorted(&b), want);
            }
            p.check_invariants();
            c.check_invariants();
        }
        assert!(p.iter_all().eq(model.iter().copied()));
        assert!(c.iter_all().eq(model.iter().copied()));
    }
}

/// range_iter(start..) agrees with filtering the full iteration.
#[test]
fn iter_from_matches_filter() {
    let mut rng = SplitMix64::new(0x17E4);
    for _ in 0..CASES {
        let elems = sorted_unique(key_batch(&mut rng));
        let c = Cpma::build_sorted(&elems);
        // Probe both arbitrary values and stored values.
        let start = if rng.chance(1, 2) || elems.is_empty() {
            rng.next_u64()
        } else {
            elems[rng.next_below(elems.len() as u64) as usize]
        };
        let want: Vec<u64> = elems.iter().copied().filter(|&e| e >= start).collect();
        let got: Vec<u64> = c.range_iter(start..).collect();
        assert_eq!(got, want);
    }
}

/// scan_from with a count (the artifact's map_range_length) visits
/// exactly min(length, #elements ≥ start) elements, in order.
#[test]
fn scan_from_with_a_count() {
    let mut rng = SplitMix64::new(0x3A91);
    for _ in 0..CASES {
        let elems = sorted_unique(key_batch(&mut rng));
        let p = Pma::build_sorted(&elems);
        let start = rng.next_u64();
        let len = rng.next_below(50) as usize;
        let mut got = Vec::new();
        if len > 0 {
            p.scan_from(start, &mut |e| {
                got.push(e);
                got.len() < len
            });
        }
        let visited = got.len();
        let want: Vec<u64> = elems
            .iter()
            .copied()
            .filter(|&e| e >= start)
            .take(len)
            .collect();
        assert_eq!(visited, want.len());
        assert_eq!(got, want);
    }
}

/// min/max/len/range_sum(..) agree with the model after batch churn.
#[test]
fn aggregates_match() {
    let mut rng = SplitMix64::new(0xA66A);
    for _ in 0..CASES {
        let elems = sorted_unique(key_batch(&mut rng));
        let dels = sorted_unique(key_batch(&mut rng));
        let mut c = Cpma::build_sorted(&elems);
        c.remove_batch_sorted(&dels);
        let model: BTreeSet<u64> = elems
            .iter()
            .copied()
            .filter(|k| dels.binary_search(k).is_err())
            .collect();
        assert_eq!(c.len(), model.len());
        assert_eq!(c.min(), model.iter().next().copied());
        assert_eq!(c.max(), model.iter().next_back().copied());
        let want = model.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        assert_eq!(c.range_sum(..), want);
    }
}

/// Every growing factor in the paper's Appendix C sweep keeps the
/// structure correct. Exercises the fallible builder while at it.
#[test]
fn growing_factors_correct() {
    let mut rng = SplitMix64::new(0x6F01);
    for factor_tenths in 11u32..=20 {
        let cfg = PmaConfig::builder()
            .growing_factor(factor_tenths as f64 / 10.0)
            .build()
            .expect("legal growing factor");
        let mut c = Cpma::with_config(cfg);
        let mut model = BTreeSet::new();
        let keys: Vec<u64> = (0..rng.next_below(800) + 1)
            .map(|_| rng.next_u64())
            .collect();
        for chunk in keys.chunks(97) {
            let b = sorted_unique(chunk.to_vec());
            c.insert_batch_sorted(&b);
            model.extend(b);
        }
        assert!(c.iter_all().eq(model.iter().copied()));
        c.check_invariants();
    }
}

/// The builder rejects every illegal parameter with a named field.
#[test]
fn builder_rejects_bad_configs() {
    assert_eq!(
        PmaConfig::builder()
            .growing_factor(1.0)
            .build()
            .unwrap_err()
            .field,
        "growing_factor"
    );
    assert_eq!(
        PmaConfig::builder()
            .growing_factor(f64::INFINITY)
            .build()
            .unwrap_err()
            .field,
        "growing_factor"
    );
    assert_eq!(
        PmaConfig::builder()
            .growing_factor(f64::NAN)
            .build()
            .unwrap_err()
            .field,
        "growing_factor"
    );
}

#[test]
fn point_ops_at_extremes() {
    let mut c = Cpma::new();
    assert!(c.insert(u64::MAX));
    assert!(c.insert(0));
    assert!(c.insert(u64::MAX - 1));
    assert!(!c.insert(u64::MAX));
    assert_eq!(
        c.iter_all().collect::<Vec<_>>(),
        vec![0, u64::MAX - 1, u64::MAX]
    );
    assert!(c.remove(0));
    assert_eq!(c.min(), Some(u64::MAX - 1));
    c.check_invariants();
}

#[test]
fn batch_larger_than_structure() {
    // k >> n exercises the full-rebuild regime from a tiny base.
    let mut c = Cpma::build_sorted(&[5, 10]);
    let batch: Vec<u64> = (0..50_000u64).map(|i| i * 2 + 1).collect();
    // 5 is already present, so one batch key is a duplicate.
    assert_eq!(c.insert_batch_sorted(&batch), 49_999);
    assert_eq!(c.len(), 50_001);
    c.check_invariants();
}

#[test]
fn repeated_identical_batches_are_idempotent() {
    let batch: Vec<u64> = (0..10_000u64).map(|i| i * 7).collect();
    let mut p = Pma::new();
    assert_eq!(p.insert_batch_sorted(&batch), 10_000);
    for _ in 0..5 {
        assert_eq!(p.insert_batch_sorted(&batch), 0);
        p.check_invariants();
    }
    assert_eq!(p.len(), 10_000);
}

#[test]
fn alternating_grow_shrink_cycles() {
    // Pump the structure up and down across several resize boundaries.
    let mut c = Cpma::new();
    for round in 0..6u64 {
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * 31 + round).collect();
        let b = sorted_unique(keys);
        c.insert_batch_sorted(&b);
        c.check_invariants();
        c.remove_batch_sorted(&b);
        c.check_invariants();
    }
    assert!(c.is_empty());
}
