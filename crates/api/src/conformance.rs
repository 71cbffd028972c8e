//! Generic conformance suite: the executable contract of the trait
//! hierarchy.
//!
//! Every set implementation in the workspace runs
//! [`assert_ordered_set_contract`] from its own test suite (and the
//! umbrella crate runs it for all seven implementations side by side). It
//! drives a randomized mixed workload against a [`BTreeSet`] oracle and
//! checks every trait method, including the `RangeBounds` forms on all five
//! range shapes, the `K::MAX`-inclusive edge that half-open `(start, end)`
//! pairs could never express, and the reporting apply and replica catch-up
//! a publishing front-end builds on.

use crate::testkit::SplitMix64;
use crate::{
    net_ops, normalize_batch, normalize_ops, BatchOp, BatchOutcome, BatchSet, ParallelChunks,
    RangeSet,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Assert the full `OrderedSet`/`BatchSet`/`RangeSet`/`ParallelChunks`
/// contract for `S`.
///
/// Panics with a structure-named message on the first violation. `seed`
/// varies the workload; any seed must pass.
pub fn assert_ordered_set_contract<S>(seed: u64)
where
    S: BatchSet<u64> + RangeSet<u64> + ParallelChunks<u64>,
{
    let name = S::NAME;
    let mut rng = SplitMix64::new(seed ^ 0xC0F0_12AE_5EED_0001);

    // --- empty-set behaviour -------------------------------------------
    let empty = S::new_set();
    assert_eq!(empty.len(), 0, "{name}: empty len");
    assert!(empty.is_empty(), "{name}: empty is_empty");
    assert!(!empty.contains(0), "{name}: empty contains(0)");
    assert!(!empty.contains(u64::MAX), "{name}: empty contains(MAX)");
    assert_eq!(empty.min(), None, "{name}: empty min");
    assert_eq!(empty.max(), None, "{name}: empty max");
    assert_eq!(empty.successor(0), None, "{name}: empty successor");
    assert_eq!(empty.range_sum(..), 0, "{name}: empty range_sum");
    assert_eq!(empty.range_iter(..).count(), 0, "{name}: empty range_iter");
    assert_eq!(S::build_sorted(&[]).len(), 0, "{name}: build_sorted([])");

    // --- build_sorted round-trips, including boundary keys -------------
    let elems: Vec<u64> = vec![0, 1, 5, 1 << 40, u64::MAX - 1, u64::MAX];
    let s = S::build_sorted(&elems);
    assert_eq!(s.len(), elems.len(), "{name}: build_sorted len");
    assert_eq!(s.to_vec(), elems, "{name}: build_sorted contents");
    assert_eq!(s.min(), Some(0), "{name}: min with 0 stored");
    assert_eq!(s.max(), Some(u64::MAX), "{name}: max with MAX stored");
    assert_eq!(
        s.successor(u64::MAX),
        Some(u64::MAX),
        "{name}: successor(MAX)"
    );
    assert_eq!(
        s.range_sum(0..=u64::MAX),
        s.range_sum(..),
        "{name}: full-range sum forms"
    );
    assert!(s.size_bytes() > 0, "{name}: size_bytes");

    // --- randomized mixed workload vs the oracle -----------------------
    let mut s = S::new_set();
    let mut model: BTreeSet<u64> = BTreeSet::new();
    let bits = 20; // dense enough for collisions, wide enough for growth
    for round in 0..40 {
        let batch = rng.sorted_batch(800, bits);
        if rng.chance(3, 5) {
            let added = s.insert_batch_sorted(&batch);
            let want = batch.iter().filter(|&&k| model.insert(k)).count();
            assert_eq!(added, want, "{name} round {round}: insert count");
        } else {
            let removed = s.remove_batch_sorted(&batch);
            let want = batch.iter().filter(|&&k| model.remove(&k)).count();
            assert_eq!(removed, want, "{name} round {round}: remove count");
        }
        assert_eq!(s.len(), model.len(), "{name} round {round}: len");
        assert_eq!(
            s.is_empty(),
            model.is_empty(),
            "{name} round {round}: is_empty"
        );
        assert_eq!(
            s.min(),
            model.iter().next().copied(),
            "{name} round {round}: min"
        );
        assert_eq!(
            s.max(),
            model.iter().next_back().copied(),
            "{name} round {round}: max"
        );

        // Point probes and their batched forms must agree with the oracle
        // AND each other; the probe vector deliberately mixes random keys
        // with duplicates, 0 (below any stored minimum most rounds), and
        // `u64::MAX` in arbitrary (unsorted) order.
        let mut probes: Vec<u64> = (0..25).map(|_| rng.next_bits(bits)).collect();
        probes.push(0);
        probes.push(u64::MAX);
        probes.push(probes[3]); // duplicate probe, out of sorted position
        let got_contains = s.contains_batch(&probes);
        let got_succ = s.successor_batch(&probes);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(
                s.contains(k),
                model.contains(&k),
                "{name} round {round}: contains({k})"
            );
            assert_eq!(
                s.successor(k),
                model.range(k..).next().copied(),
                "{name} round {round}: successor({k})"
            );
            assert_eq!(
                got_contains[i],
                model.contains(&k),
                "{name} round {round}: contains_batch[{i}] ({k})"
            );
            assert_eq!(
                got_succ[i],
                model.range(k..).next().copied(),
                "{name} round {round}: successor_batch[{i}] ({k})"
            );
        }
        assert_eq!(
            s.contains_batch(&[]),
            Vec::<bool>::new(),
            "{name} round {round}: contains_batch([])"
        );

        // Range queries on random windows, all five range shapes.
        let a = rng.next_bits(bits);
        let b = rng.next_bits(bits);
        let (lo, hi) = (a.min(b), a.max(b));
        check_range(&s, &model, lo..hi, name, round);
        check_range(&s, &model, lo..=hi, name, round);
        check_range(&s, &model, lo.., name, round);
        check_range(&s, &model, ..hi, name, round);
        check_range(&s, &model, .., name, round);
        assert_chunk_contract(&s, &model, lo, &format!("{name} round {round}"));
    }
    for start in [0, rng.next_bits(bits), u64::MAX] {
        assert_chunk_contract(&s, &model, start, name);
    }
    let want: Vec<u64> = model.iter().copied().collect();
    assert_eq!(s.to_vec(), want, "{name}: final contents");
    assert!(s.iter_all().eq(want.iter().copied()), "{name}: iter_all");

    // par_chunks: chunks must each be ascending, mutually disjoint, and
    // together cover exactly the set's contents — the contract parallel
    // whole-set consumers (F-Graph's pull kernel) rely on for their
    // non-atomic interior-run writes.
    let chunks: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    s.par_chunks(&|chunk| chunks.lock().unwrap().push(chunk.to_vec()));
    let mut chunks = chunks.into_inner().unwrap();
    for (i, c) in chunks.iter().enumerate() {
        assert!(!c.is_empty(), "{name}: par_chunks yielded an empty chunk");
        assert!(
            c.windows(2).all(|w| w[0] < w[1]),
            "{name}: par_chunks chunk {i} not strictly ascending"
        );
    }
    chunks.sort_by_key(|c| c[0]);
    for w in chunks.windows(2) {
        assert!(
            w[0].last().unwrap() < w[1].first().unwrap(),
            "{name}: par_chunks chunks overlap"
        );
    }
    let flat: Vec<u64> = chunks.into_iter().flatten().collect();
    assert_eq!(flat, want, "{name}: par_chunks does not cover the set");

    // Chunked parallel aggregation must agree with the sequential range
    // queries — the whole-set scan contract the parallel engine executes
    // for real, so every current and future backend is gated on
    // parallel-scan correctness at whatever thread count the suite runs
    // under (the results are schedule-independent by construction).
    let par_sum = AtomicU64::new(0);
    let par_count = AtomicUsize::new(0);
    s.par_chunks(&|chunk| {
        let local: u64 = chunk.iter().fold(0u64, |a, &k| a.wrapping_add(k));
        par_sum.fetch_add(local, Ordering::Relaxed);
        par_count.fetch_add(chunk.len(), Ordering::Relaxed);
    });
    assert_eq!(
        par_sum.into_inner(),
        s.range_sum(..),
        "{name}: parallel chunked sum != sequential range_sum(..)"
    );
    assert_eq!(
        par_count.into_inner(),
        s.len(),
        "{name}: parallel chunked count != len()"
    );

    // scan_from: suffix agreement and early exit.
    let probe = rng.next_bits(bits);
    let mut got = Vec::new();
    s.scan_from(probe, &mut |k| {
        got.push(k);
        got.len() < 10
    });
    let want_suffix: Vec<u64> = model.range(probe..).take(10).copied().collect();
    assert_eq!(
        got, want_suffix,
        "{name}: scan_from({probe}) early-exit prefix"
    );

    // Sparse structure: a handful of far-apart keys leaves almost every
    // internal region empty, so `successor`/`scan_from` resumption must
    // hop whole empty runs (an occupancy-aware skip, not a region-at-a-
    // time walk) and still agree with the oracle — including probes that
    // land inside an empty run, on a stored key, just past one, below the
    // minimum, and at `u64::MAX`.
    let sparse: Vec<u64> = (0..48u64).map(|i| (i << 40) | 3).collect();
    let sp = S::build_sorted(&sparse);
    let sparse_probes = [
        0u64,
        1,
        5 << 40,
        (5 << 40) | 3,
        (5 << 40) | 4,
        (47 << 40) | 3,
        (47 << 40) | 4,
        u64::MAX,
    ];
    for probe in sparse_probes {
        let want = sparse.iter().copied().find(|&k| k >= probe);
        assert_eq!(
            sp.successor(probe),
            want,
            "{name}: sparse successor({probe})"
        );
        let mut got = Vec::new();
        sp.scan_from(probe, &mut |k| {
            got.push(k);
            got.len() < 3
        });
        let want_prefix: Vec<u64> = sparse
            .iter()
            .copied()
            .filter(|&k| k >= probe)
            .take(3)
            .collect();
        assert_eq!(got, want_prefix, "{name}: sparse scan_from({probe})");
        assert_chunk_contract(&sp, &sparse.iter().copied().collect(), probe, name);
    }
    let want_contains: Vec<bool> = sparse_probes.iter().map(|k| sp.contains(*k)).collect();
    let want_succ: Vec<Option<u64>> = sparse_probes.iter().map(|k| sp.successor(*k)).collect();
    assert_eq!(
        sp.contains_batch(&sparse_probes),
        want_contains,
        "{name}: sparse contains_batch"
    );
    assert_eq!(
        sp.successor_batch(&sparse_probes),
        want_succ,
        "{name}: sparse successor_batch"
    );

    // --- unsorted wrappers route through normalize_batch ---------------
    let mut messy: Vec<u64> = (0..100).map(|_| rng.next_bits(12)).collect();
    let mut expected = messy.clone();
    let expected = normalize_batch(&mut expected);
    let mut a = S::new_set();
    let mut b = S::new_set();
    assert_eq!(
        a.insert_batch(&mut messy, false),
        b.insert_batch_sorted(expected),
        "{name}: unsorted insert wrapper count"
    );
    assert_eq!(
        a.to_vec(),
        b.to_vec(),
        "{name}: unsorted insert wrapper contents"
    );
    let mut kill: Vec<u64> = expected.iter().rev().copied().collect();
    assert_eq!(
        a.remove_batch(&mut kill, false),
        expected.len(),
        "{name}: unsorted remove wrapper count"
    );
    assert!(a.is_empty(), "{name}: unsorted remove wrapper emptied");

    // --- mixed-op batches (apply_batch_sorted / normalize_ops) ---------
    // Random interleaved insert/remove streams — duplicates included, so
    // last-op-wins normalization is exercised (remove-then-insert and
    // insert-then-remove of the same key inside one batch) — checked
    // against the oracle across batch sizes spanning every update regime
    // (point fallback, in-place pipeline, full rebuild).
    let mut s = S::new_set();
    let mut model: BTreeSet<u64> = BTreeSet::new();
    {
        // Bulk-seed so mid-size op batches are small relative to the set.
        let seedling = rng.sorted_batch(30_000, bits);
        s.insert_batch_sorted(&seedling);
        model.extend(seedling.iter().copied());
    }
    for (round, &op_count) in [40usize, 1_500, 1_500, 6_000, 40, 1_500].iter().enumerate() {
        let mut raw: Vec<BatchOp<u64>> = (0..op_count)
            .map(|_| {
                let k = rng.next_bits(bits - 4); // dense: plenty of same-key runs
                if rng.chance(11, 20) {
                    BatchOp::Insert(k)
                } else {
                    BatchOp::Remove(k)
                }
            })
            .collect();
        // Oracle A: replay the *raw* stream sequentially.
        let mut replay = model.clone();
        for op in &raw {
            match *op {
                BatchOp::Insert(k) => {
                    replay.insert(k);
                }
                BatchOp::Remove(k) => {
                    replay.remove(&k);
                }
            }
        }
        let ops = normalize_ops(&mut raw);
        assert!(
            ops.windows(2).all(|w| w[0].key() < w[1].key()),
            "{name} round {round}: normalize_ops not strictly increasing"
        );
        // Oracle B: apply the normal form to the model, tracking counts.
        let mut want = BatchOutcome::default();
        for op in ops {
            match *op {
                BatchOp::Insert(k) => {
                    if model.insert(k) {
                        want.added += 1;
                    }
                }
                BatchOp::Remove(k) => {
                    if model.remove(&k) {
                        want.removed += 1;
                    }
                }
            }
        }
        assert_eq!(
            model, replay,
            "{name} round {round}: last-op-wins normal form diverged from sequential replay"
        );
        let got = s.apply_batch_sorted(ops);
        assert_eq!(got, want, "{name} round {round}: apply_batch_sorted counts");
        assert_eq!(s.len(), model.len(), "{name} round {round}: mixed len");
        for _ in 0..10 {
            let k = rng.next_bits(bits - 4);
            assert_eq!(
                s.contains(k),
                model.contains(&k),
                "{name} round {round}: mixed contains({k})"
            );
        }
    }
    let want: Vec<u64> = model.iter().copied().collect();
    assert_eq!(s.to_vec(), want, "{name}: mixed final contents");

    reporting_and_catch_up_contract::<S>(&mut rng, bits);

    // Same-key collisions inside one batch, pinned explicitly: the later
    // op must win regardless of the key's prior presence.
    let mut s = S::new_set();
    s.insert_batch_sorted(&[5, 7]);
    let mut ops = vec![
        BatchOp::Remove(5u64), // present: remove…
        BatchOp::Insert(5),    // …then re-insert → net no-op, not added
        BatchOp::Insert(6),    // absent: insert…
        BatchOp::Remove(6),    // …then remove → net no-op, not removed
        BatchOp::Insert(7),    // present: plain no-op insert
        BatchOp::Remove(8),    // absent: plain no-op remove
        BatchOp::Insert(9),    // absent: real insert
        BatchOp::Remove(7),    // ops arrive unsorted across keys too
    ];
    let out = s.apply_batch(&mut ops, false);
    assert_eq!(
        out,
        BatchOutcome {
            added: 1,
            removed: 1
        },
        "{name}: same-key collision outcome"
    );
    assert_eq!(
        s.to_vec(),
        vec![5, 9],
        "{name}: same-key collision contents"
    );
}

/// [`BatchSet::apply_batch_sorted_reporting`] ≡ `contains_batch` followed
/// by `apply_batch_sorted` of the net batch — reports, outcome, contents
/// and `size_bytes` — on normal forms dense in no-ops (inserts of stored
/// keys, removes of absent ones) across the update regimes, down to forms
/// that change nothing; and [`BatchSet::catch_up_from`] a replica that
/// applied the net batch ≡ replaying it.
fn reporting_and_catch_up_contract<S: BatchSet<u64> + RangeSet<u64>>(
    rng: &mut SplitMix64,
    bits: u32,
) {
    let name = S::NAME;
    let seedling = rng.sorted_batch(30_000, bits);
    let mut model: BTreeSet<u64> = seedling.iter().copied().collect();
    // Three replicas of one history: one reports, one probes and applies
    // the net batch, one is caught up from the first.
    let (mut reporting, mut probing, mut spare) = (
        S::build_sorted(&seedling),
        S::build_sorted(&seedling),
        S::build_sorted(&seedling),
    );
    // (ops, in twenty: how many are no-ops)
    let rounds = [
        (40, 15),
        (1_500, 10),
        (1_500, 20),
        (300, 18),
        (6_000, 5),
        (40, 20),
        (3_000, 19),
    ];
    for (round, &(op_count, noops)) in rounds.iter().enumerate() {
        let what = format!("{name} reporting round {round}");
        let mut raw: Vec<BatchOp<u64>> = (0..op_count)
            .map(|_| {
                // Half stored keys (a random key's successor), half random.
                let probe = rng.next_bits(bits);
                let k = match model.range(probe..).next() {
                    Some(&next) if rng.chance(1, 2) => next,
                    _ => probe,
                };
                let stored = model.contains(&k);
                // A no-op keeps the key as it is; an effective op flips it.
                if rng.chance(noops, 20) == stored {
                    BatchOp::Insert(k)
                } else {
                    BatchOp::Remove(k)
                }
            })
            .collect();
        let ops = normalize_ops(&mut raw);
        let keys: Vec<u64> = ops.iter().map(|op| op.key()).collect();
        let want_was = probing.contains_batch(&keys);
        let net = net_ops(ops, &want_was);
        let want = if net.is_empty() {
            BatchOutcome::default()
        } else {
            probing.apply_batch_sorted(&net)
        };
        let mut was = vec![true; 2];
        let got = reporting.apply_batch_sorted_reporting(ops, &mut was);
        assert_eq!(was, want_was, "{what}: reports");
        assert_eq!(got, want, "{what}: outcome");
        for (op, &was) in ops.iter().zip(&was) {
            assert_eq!(was, model.contains(&op.key()), "{what}: report of {op:?}");
        }
        for op in &net {
            match *op {
                BatchOp::Insert(k) => model.insert(k),
                BatchOp::Remove(k) => model.remove(&k),
            };
        }
        let want_contents: Vec<u64> = model.iter().copied().collect();
        assert_eq!(reporting.to_vec(), want_contents, "{what}: contents");
        assert_eq!(probing.to_vec(), want_contents, "{what}: probed contents");
        assert_eq!(
            reporting.size_bytes(),
            probing.size_bytes(),
            "{what}: size_bytes"
        );

        // `spare` is `reporting` one apply of `net` ago.
        let caught = spare.catch_up_from(&reporting, &net);
        assert!(caught.replayed_ops <= net.len(), "{what}: over-replayed");
        assert_eq!(spare.to_vec(), want_contents, "{what}: caught-up contents");
        assert_eq!(spare.len(), model.len(), "{what}: caught-up len");
        assert_eq!(
            spare.size_bytes(),
            probing.size_bytes(),
            "{what}: caught-up size_bytes"
        );
    }
}

/// [`RangeSet::scan_chunks_from`] from `start` against the oracle: every
/// chunk non-empty, at or above `start`, strictly ascending within itself
/// and across the boundary with the chunk before; the chunks concatenate to
/// the oracle's suffix from `start`; and a `false` from the visitor stops
/// the scan right after that chunk. [`assert_ordered_set_contract`] runs it
/// on every structure; suites that build a structure the contract's
/// constructors cannot (a CPMA with its codec forced) call it directly.
pub fn assert_chunk_contract<S: RangeSet<u64>>(
    s: &S,
    model: &BTreeSet<u64>,
    start: u64,
    name: &str,
) {
    let what = format!("{name}: scan_chunks_from({start})");
    let (mut flat, mut lens) = (Vec::new(), Vec::new());
    s.scan_chunks_from(start, &mut |chunk| {
        let i = lens.len();
        assert!(!chunk.is_empty(), "{what}: chunk {i} is empty");
        assert!(
            chunk[0] >= start,
            "{what}: chunk {i} starts below the start"
        );
        assert!(
            flat.last().is_none_or(|&prev| prev < chunk[0]),
            "{what}: chunk {i} does not follow the chunk before it"
        );
        assert!(
            chunk.windows(2).all(|w| w[0] < w[1]),
            "{what}: chunk {i} not strictly ascending"
        );
        flat.extend_from_slice(chunk);
        lens.push(chunk.len());
        true
    });
    let want: Vec<u64> = model.range(start..).copied().collect();
    assert_eq!(flat, want, "{what}: chunks differ from the oracle's suffix");
    if lens.is_empty() {
        return;
    }
    for stop in [0, lens.len() / 2, lens.len() - 1] {
        let (mut calls, mut seen) = (0, 0);
        s.scan_chunks_from(start, &mut |chunk| {
            calls += 1;
            seen += chunk.len();
            calls <= stop
        });
        assert_eq!(
            (calls, seen),
            (stop + 1, lens[..=stop].iter().sum()),
            "{what}: `false` at chunk {stop} did not stop the scan there"
        );
    }
}

fn check_range<S: RangeSet<u64>>(
    s: &S,
    model: &BTreeSet<u64>,
    range: impl std::ops::RangeBounds<u64> + Clone,
    name: &str,
    round: usize,
) {
    let want: Vec<u64> = model
        .range((range.start_bound(), range.end_bound()))
        .copied()
        .collect();
    let mut got = Vec::new();
    s.for_range(range.clone(), |k| got.push(k));
    assert_eq!(got, want, "{name} round {round}: for_range");
    let got_iter: Vec<u64> = s.range_iter(range.clone()).collect();
    assert_eq!(got_iter, want, "{name} round {round}: range_iter");
    let want_sum = want.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    assert_eq!(
        s.range_sum(range),
        want_sum,
        "{name} round {round}: range_sum"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btreeset_passes_its_own_contract() {
        // The oracle must pass the suite it anchors (self-consistency).
        assert_ordered_set_contract::<BTreeSet<u64>>(0xB7EE);
    }
}
