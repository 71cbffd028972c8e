//! Property test: the batched read API must agree with the per-key API
//! and with a `BTreeSet` oracle — for both codecs and after every
//! batch-update regime (point fallback, pipeline, full
//! rebuild), including duplicate probes, probes below the minimum, and
//! `u64::MAX`.

use cpma_api::testkit::{sorted_unique, SplitMix64};
use cpma_api::OrderedSet;
use cpma_pma::{CompressedLeaves, LeafStorage, PmaCore, UncompressedLeaves};
use std::collections::BTreeSet;

const KEY_BITS: u32 = 40;

/// Probe with duplicates, 0 (below any stored minimum), and `u64::MAX`,
/// and check the three-way agreement batched ≡ per-key ≡ oracle.
fn check_reads<S: OrderedSet>(s: &S, oracle: &BTreeSet<u64>, rng: &mut SplitMix64, tag: &str) {
    let mut probes: Vec<u64> = (0..120).map(|_| rng.next_bits(KEY_BITS)).collect();
    // Stored keys and their neighbours, to hit both sides of membership.
    for &k in oracle.iter().take(20) {
        probes.push(k);
        probes.push(k.wrapping_add(1));
    }
    probes.push(0);
    probes.push(u64::MAX);
    probes.push(probes[7]); // duplicate of an earlier probe
    probes.push(probes[7]);

    let got_contains = s.contains_batch(&probes);
    let got_succ = s.successor_batch(&probes);
    assert_eq!(
        got_contains.len(),
        probes.len(),
        "{tag}: contains_batch len"
    );
    assert_eq!(got_succ.len(), probes.len(), "{tag}: successor_batch len");
    for (i, &p) in probes.iter().enumerate() {
        let want_c = oracle.contains(&p);
        let want_s = oracle.range(p..).next().copied();
        assert_eq!(s.contains(p), want_c, "{tag}: contains({p})");
        assert_eq!(got_contains[i], want_c, "{tag}: contains_batch[{i}]({p})");
        assert_eq!(s.successor(p), want_s, "{tag}: successor({p})");
        assert_eq!(got_succ[i], want_s, "{tag}: successor_batch[{i}]({p})");
    }
    assert_eq!(
        s.contains_batch(&[]),
        Vec::<bool>::new(),
        "{tag}: empty batch"
    );
    assert_eq!(
        s.successor_batch(&[]),
        Vec::<Option<u64>>::new(),
        "{tag}: empty batch"
    );
}

fn reads_agree_across_regimes<L: LeafStorage>(name: &str) {
    let mut rng = SplitMix64::new(0xC0FFEE ^ name.len() as u64);
    let base = sorted_unique(rng.keys(3000, KEY_BITS));
    let mut s = PmaCore::<L>::from_sorted(&base);
    let mut oracle: BTreeSet<u64> = base.iter().copied().collect();
    check_reads(&s, &oracle, &mut rng, &format!("{name}/seed"));

    // One batch per update regime: below the point-update cutoff,
    // through the merge pipeline, and big enough (≥ len/10) to take
    // the full-rebuild path. Reads must agree after each.
    for (regime, batch_len) in [("point", 40usize), ("pipeline", 1500), ("rebuild", 6000)] {
        let mut ins: Vec<u64> = (0..batch_len).map(|_| rng.next_bits(KEY_BITS)).collect();
        s.insert_batch(&mut ins, false);
        oracle.extend(ins.iter().copied());

        // Remove a mix of present and absent keys, same regime.
        let mut rem: Vec<u64> = oracle
            .iter()
            .copied()
            .step_by(7)
            .take(batch_len / 2)
            .collect();
        rem.extend((0..batch_len / 2).map(|_| rng.next_bits(KEY_BITS)));
        s.remove_batch(&mut rem, false);
        for k in &rem {
            oracle.remove(k);
        }

        assert_eq!(s.len(), oracle.len(), "{regime}: len after batches");
        check_reads(&s, &oracle, &mut rng, &format!("{name}/{regime}"));
    }
}

#[test]
fn pma_inplace() {
    reads_agree_across_regimes::<UncompressedLeaves>("pma_inplace");
}

#[test]
fn cpma_inplace() {
    reads_agree_across_regimes::<CompressedLeaves>("cpma_inplace");
}
