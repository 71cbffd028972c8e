//! cpma-store integration tests: the sharded wrapper must pass the full
//! canonical contract over real CPMA/PMA backends at several shard
//! counts, and the combiner must linearize concurrent mixed traffic —
//! every acknowledged operation matching a per-thread oracle and visible
//! in the next published snapshot.

use cpma_api::conformance::assert_ordered_set_contract;
use cpma_api::testkit::SplitMix64;
use cpma_api::{BatchSet, OrderedSet, RangeSet};
use cpma_pma::{Cpma, Pma};
use cpma_store::{Combiner, Op, ShardedSet};
use std::collections::BTreeSet;
use std::time::Duration;

// ---------------------------------------------------------------------
// ShardedSet: the shared contract at shard counts 1 / 2 / 4 / 8 / 16.
// ---------------------------------------------------------------------

#[test]
fn sharded_cpma_passes_the_contract_at_1_4_16_shards() {
    assert_ordered_set_contract::<ShardedSet<Cpma, 1>>(0x5A1);
    assert_ordered_set_contract::<ShardedSet<Cpma, 4>>(0x5A4);
    assert_ordered_set_contract::<ShardedSet<Cpma, 16>>(0x5A16);
}

#[test]
fn sharded_pma_and_btreeset_pass_the_contract() {
    // The wrapper is backend-generic; gate it over an uncompressed PMA
    // and the oracle too.
    assert_ordered_set_contract::<ShardedSet<Pma<u64>, 4>>(0x5B4);
    assert_ordered_set_contract::<ShardedSet<BTreeSet<u64>, 4>>(0x5C4);
}

#[test]
fn sharded_cpma_passes_the_contract_at_2_and_8_shards() {
    // The contract's 30k-element mixed workload starts from the domain
    // prior, so both counts go through skew rebalances on the way.
    assert_ordered_set_contract::<ShardedSet<Cpma, 2>>(0xA570);
    assert_ordered_set_contract::<ShardedSet<Cpma, 8>>(0xA571);
}

#[test]
fn sharded_set_is_transparent_at_any_shard_count() {
    // One workload, three shard counts, plus the unsharded backend: all
    // four must externally behave as the same abstract set.
    let mut rng = SplitMix64::new(0x7A77);
    let mut plain = Cpma::new_set();
    let mut s1: ShardedSet<Cpma, 1> = BatchSet::new_set();
    let mut s4: ShardedSet<Cpma, 4> = BatchSet::new_set();
    let mut s16: ShardedSet<Cpma, 16> = BatchSet::new_set();
    for _ in 0..12 {
        let ins = rng.sorted_batch(2000, 22);
        let n = plain.insert_batch_sorted(&ins);
        assert_eq!(s1.insert_batch_sorted(&ins), n);
        assert_eq!(s4.insert_batch_sorted(&ins), n);
        assert_eq!(s16.insert_batch_sorted(&ins), n);
        let del = rng.sorted_batch(900, 22);
        let n = plain.remove_batch_sorted(&del);
        assert_eq!(s1.remove_batch_sorted(&del), n);
        assert_eq!(s4.remove_batch_sorted(&del), n);
        assert_eq!(s16.remove_batch_sorted(&del), n);
    }
    let want = plain.to_vec();
    assert_eq!(RangeSet::to_vec(&s1), want);
    assert_eq!(RangeSet::to_vec(&s4), want);
    assert_eq!(RangeSet::to_vec(&s16), want);
    assert_eq!(s4.range_sum(..), plain.range_sum(..));
}

// ---------------------------------------------------------------------
// Combiner: oracle-checked concurrent mixed readers and writers.
// ---------------------------------------------------------------------

/// Each writer owns a disjoint key stripe (thread id in the high bits),
/// so its per-op acknowledgements are checkable against a thread-local
/// model even under full concurrency, and an acknowledged write must be
/// visible in the next snapshot taken (the leader publishes before it
/// acknowledges).
fn striped_key(thread: u64, rng: &mut SplitMix64) -> u64 {
    (thread << 32) | rng.next_bits(10)
}

#[test]
fn combiner_linearizes_concurrent_mixed_traffic() {
    linearizes_mixed_traffic_under_pinning_readers(1, 200, 2_000);
}

/// Nightly variant: many readers pinning snapshots for random stretches,
/// so the leader keeps finding its spare replica held and has to copy
/// around it while writers pile on.
#[test]
#[ignore = "long: run with --ignored (nightly stress job)"]
fn combiner_linearizes_under_many_pinning_readers_long() {
    linearizes_mixed_traffic_under_pinning_readers(6, 4_000, 20_000);
}

/// `WRITERS` striped writers checked op by op against their own models
/// while `readers` threads take `reads_per_reader` snapshots each and hold
/// them for a random number of yields. A reader's snapshot is a retired or
/// soon-to-be-retired replica of the combiner's twin-replica publication:
/// it must be internally consistent and must read the same when let go as
/// when taken — the leader may never write a replica a reader holds.
fn linearizes_mixed_traffic_under_pinning_readers(
    readers: u64,
    reads_per_reader: usize,
    ops_per_writer: usize,
) {
    const WRITERS: u64 = 4;
    let store: Combiner<ShardedSet<Cpma, 4>> = Combiner::new(BatchSet::new_set());

    let models: Vec<BTreeSet<u64>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..readers)
            .map(|r| {
                let store = &store;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0x4EAD_0000 + r);
                    for _ in 0..reads_per_reader {
                        let snap = store.snapshot();
                        let contents = RangeSet::to_vec(&*snap);
                        assert!(
                            contents.windows(2).all(|w| w[0] < w[1]),
                            "snapshot contents must be strictly ascending"
                        );
                        assert_eq!(contents.len(), OrderedSet::len(&*snap));
                        for _ in 0..=rng.next_below(8) {
                            std::thread::yield_now();
                        }
                        assert_eq!(
                            RangeSet::to_vec(&*snap),
                            contents,
                            "a held snapshot must never change"
                        );
                    }
                })
            })
            .collect();

        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let store = &store;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xAC5_0000 + t);
                    let mut model: BTreeSet<u64> = BTreeSet::new();
                    for i in 0..ops_per_writer {
                        let k = striped_key(t, &mut rng);
                        match rng.next_below(4) {
                            0 | 1 => {
                                let acked = store.insert(k);
                                assert_eq!(acked, model.insert(k), "t{t} insert({k})");
                            }
                            2 => {
                                let acked = store.remove(k);
                                assert_eq!(acked, model.remove(&k), "t{t} remove({k})");
                            }
                            _ => {
                                let acked = store.contains(k);
                                assert_eq!(acked, model.contains(&k), "t{t} contains({k})");
                            }
                        }
                        // Periodically: everything acknowledged so far in
                        // this stripe must be visible in the snapshot.
                        if i % 256 == 255 {
                            let snap = store.snapshot();
                            for &k in &model {
                                assert!(
                                    snap.contains(k),
                                    "t{t}: acked key {k} missing from snapshot"
                                );
                            }
                        }
                    }
                    model
                })
            })
            .collect();

        for reader in readers {
            reader.join().unwrap();
        }
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Final state: the union of every thread's model, exactly.
    let mut want: Vec<u64> = models.iter().flatten().copied().collect();
    want.sort_unstable();
    let snap = store.snapshot();
    assert_eq!(RangeSet::to_vec(&*snap), want, "final snapshot contents");
    let total_ops = WRITERS * ops_per_writer as u64;
    let epochs = store.epochs_applied();
    assert!(epochs >= 1 && epochs <= total_ops);
    // The leader never waits, so any epoch of more than one op formed from
    // contention alone — writers piling up while the previous epoch
    // applied — and the per-op oracles above checked that such epochs
    // still resolve in submission order.
    let stats = store.stats();
    assert_eq!(stats.ops, total_ops, "every op counted exactly once");
    assert!(stats.ops > stats.epochs, "{}", stats.summary());
    // Every write epoch took exactly one of the four branches, and only
    // replaying ones replay anything.
    let published = stats.publish_copied
        + stats.publish_replayed
        + stats.publish_cloned_pinned
        + stats.publish_cloned_bulk;
    assert!((1..=epochs).contains(&published), "{}", stats.summary());
    assert!(stats.replay_ops >= stats.publish_replayed);
    assert_eq!(RangeSet::to_vec(&store.into_inner()), want);
}

/// Seeded bursty arrivals: concurrent writers publish bursts separated by
/// idle gaps. Every acknowledgement must match the per-stripe oracle, and
/// the always-on stats must account for every epoch and every op.
#[test]
fn combiner_linearizes_bursty_traffic() {
    const WRITERS: u64 = 4;
    const BURSTS_PER_WRITER: usize = 25;
    const BURST_LEN: usize = 32;

    let store: Combiner<ShardedSet<Cpma, 4>> = Combiner::new(BatchSet::new_set());

    let models: Vec<BTreeSet<u64>> = std::thread::scope(|scope| {
        (0..WRITERS)
            .map(|t| {
                let store = &store;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xB57_0000 + t);
                    let mut model: BTreeSet<u64> = BTreeSet::new();
                    for burst in 0..BURSTS_PER_WRITER {
                        let ops: Vec<Op<u64>> = (0..BURST_LEN)
                            .map(|_| {
                                let k = striped_key(t, &mut rng);
                                match rng.next_below(4) {
                                    0 | 1 => Op::Insert(k),
                                    2 => Op::Remove(k),
                                    _ => Op::Contains(k),
                                }
                            })
                            .collect();
                        let acks = store.submit_many(&ops);
                        for (i, (op, acked)) in ops.iter().zip(acks).enumerate() {
                            let want = match *op {
                                Op::Insert(k) => model.insert(k),
                                Op::Remove(k) => model.remove(&k),
                                Op::Contains(k) => model.contains(&k),
                            };
                            assert_eq!(acked, want, "t{t} burst {burst} op {i} ({op:?})");
                        }
                        // Inter-burst idle gap (seeded jitter).
                        std::thread::sleep(Duration::from_micros(200 + rng.next_below(300)));
                    }
                    model
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|w| w.join().unwrap())
            .collect()
    });

    let mut want: Vec<u64> = models.iter().flatten().copied().collect();
    want.sort_unstable();
    let stats = store.stats();
    let total_ops = WRITERS as usize * BURSTS_PER_WRITER * BURST_LEN;
    assert_eq!(stats.ops, total_ops as u64, "every op counted exactly once");
    assert_eq!(stats.epochs, store.epochs_applied());
    assert_eq!(
        stats.ops_per_epoch_log2.iter().sum::<u64>(),
        stats.epochs,
        "histogram covers every epoch"
    );
    // Bursts may combine across writers but never split: a publication
    // lands in one epoch, so there are at most WRITERS × BURSTS epochs.
    assert!(stats.epochs <= WRITERS * (BURSTS_PER_WRITER as u64));
    assert_eq!(RangeSet::to_vec(&store.into_inner()), want);
}
