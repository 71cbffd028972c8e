//! Cross-crate integration test: every set implementation in the
//! evaluation (PMA, CPMA, P-tree, U-PaC, C-PaC, C-tree) plus the
//! `BTreeSet` oracle must behave as the same abstract ordered set — once
//! through the shared conformance suite, and once under a long randomized
//! mixed workload of batch inserts, batch deletes, and range scans, all
//! driven through the canonical `cpma::api` traits (no per-test shims).

use cpma::api::conformance::assert_ordered_set_contract;
use cpma::prelude::*;
use cpma::workloads::SplitMix64;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// The shared contract, against all seven implementations.
// ---------------------------------------------------------------------

#[test]
fn all_seven_implementations_pass_the_contract() {
    assert_ordered_set_contract::<Pma>(1);
    assert_ordered_set_contract::<Cpma>(2);
    assert_ordered_set_contract::<PTree>(3);
    assert_ordered_set_contract::<UPac>(4);
    assert_ordered_set_contract::<CPac>(5);
    assert_ordered_set_contract::<CTreeSet>(6);
    assert_ordered_set_contract::<BTreeSet<u64>>(7);
}

#[test]
fn sharded_cpma_passes_the_contract_at_1_4_16_shards() {
    // The cpma-store wrapper must be externally indistinguishable from
    // its backend at any shard count (including the degenerate 1).
    assert_ordered_set_contract::<ShardedSet<Cpma, 1>>(8);
    assert_ordered_set_contract::<ShardedSet<Cpma, 4>>(9);
    assert_ordered_set_contract::<ShardedSet<Cpma, 16>>(10);
}

// ---------------------------------------------------------------------
// Long-run equivalence under one generic driver.
// ---------------------------------------------------------------------

fn batch(rng: &mut SplitMix64, max_len: usize, bits: u32) -> Vec<u64> {
    let len = rng.next_below(max_len as u64) as usize + 1;
    let mut b: Vec<u64> = (0..len).map(|_| rng.next_bits(bits)).collect();
    b.sort_unstable();
    b.dedup();
    b
}

fn exercise<S: BatchSet + RangeSet>(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut s = S::new_set();
    let mut model: BTreeSet<u64> = BTreeSet::new();
    for round in 0..60 {
        let op = rng.next_below(10);
        if op < 6 {
            // Batch insert (sizes span the point / three-phase / rebuild
            // regimes relative to the structure size).
            let b = batch(&mut rng, 3000, 24);
            let before = model.len();
            model.extend(b.iter().copied());
            let added = s.insert_batch_sorted(&b);
            assert_eq!(
                added,
                model.len() - before,
                "{} round {round} insert",
                S::NAME
            );
        } else {
            let b = batch(&mut rng, 2000, 24);
            let mut expect = 0;
            for k in &b {
                if model.remove(k) {
                    expect += 1;
                }
            }
            let removed = s.remove_batch_sorted(&b);
            assert_eq!(removed, expect, "{} round {round} delete", S::NAME);
        }
        assert_eq!(s.len(), model.len(), "{} round {round} len", S::NAME);
        // Spot membership checks.
        for _ in 0..20 {
            let k = rng.next_bits(24);
            assert_eq!(s.contains(k), model.contains(&k), "{} has({k})", S::NAME);
        }
        // A range scan per round (random window).
        let a = rng.next_bits(24);
        let b = rng.next_bits(24);
        let (lo, hi) = (a.min(b), a.max(b));
        let want: Vec<u64> = model.range(lo..hi).copied().collect();
        assert_eq!(
            s.range_iter(lo..hi).collect::<Vec<_>>(),
            want,
            "{} round {round} range_iter",
            S::NAME
        );
    }
    let got = s.to_vec();
    let want: Vec<u64> = model.iter().copied().collect();
    assert_eq!(got, want, "{} final contents", S::NAME);
}

#[test]
fn pma_matches_model() {
    exercise::<Pma>(101);
}

#[test]
fn cpma_matches_model() {
    exercise::<Cpma>(202);
}

#[test]
fn ptree_matches_model() {
    exercise::<PTree>(303);
}

#[test]
fn upac_matches_model() {
    exercise::<UPac>(404);
}

#[test]
fn cpac_matches_model() {
    exercise::<CPac>(505);
}

#[test]
fn ctree_matches_model() {
    exercise::<CTreeSet>(606);
}

#[test]
fn btreeset_matches_model() {
    exercise::<BTreeSet<u64>>(707);
}

#[test]
fn sharded_cpma_matches_model() {
    exercise::<ShardedSet<Cpma, 4>>(808);
}

#[test]
fn all_structures_agree_with_each_other() {
    // One shared workload, six structures, identical final contents —
    // driven through the trait, structures in a homogeneous list of
    // drivers (the payoff of the canonical hierarchy: adding a structure
    // is one line here).
    let mut rng = SplitMix64::new(777);
    let batches: Vec<Vec<u64>> = (0..20).map(|_| batch(&mut rng, 5000, 30)).collect();
    let dels: Vec<Vec<u64>> = (0..10).map(|_| batch(&mut rng, 3000, 30)).collect();

    fn drive<S: BatchSet + RangeSet>(batches: &[Vec<u64>], dels: &[Vec<u64>]) -> (Vec<u64>, u64) {
        let mut s = S::new_set();
        for b in batches {
            s.insert_batch_sorted(b);
        }
        for d in dels {
            s.remove_batch_sorted(d);
        }
        let contents = s.to_vec();
        let sum = s.range_sum(..);
        (contents, sum)
    }

    let reference = drive::<Pma>(&batches, &dels);
    assert_eq!(drive::<Cpma>(&batches, &dels), reference, "CPMA");
    assert_eq!(drive::<PTree>(&batches, &dels), reference, "P-tree");
    assert_eq!(drive::<UPac>(&batches, &dels), reference, "U-PaC");
    assert_eq!(drive::<CPac>(&batches, &dels), reference, "C-PaC");
    assert_eq!(drive::<CTreeSet>(&batches, &dels), reference, "C-tree");
    assert_eq!(
        drive::<ShardedSet<Cpma, 8>>(&batches, &dels),
        reference,
        "Sharded CPMA"
    );
    assert_eq!(
        drive::<BTreeSet<u64>>(&batches, &dels),
        reference,
        "BTreeSet"
    );
    // The range_sum in the tuple exercises each structure's scan path; it
    // must also equal the naive fold over the reference contents.
    let want: u64 = reference.0.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    assert_eq!(reference.1, want);
}
