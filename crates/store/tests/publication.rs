//! Twin-replica snapshot publication, pinned down without a clock.
//!
//! The combiner alternates two replicas of the set instead of copying it
//! every epoch (`combiner.rs`, "Snapshot readers"). Two things must hold
//! for that to be invisible: a replica that is caught up by *replaying*
//! the batch it missed is the same history as a set that applied one batch
//! per epoch — to the byte, not just by contents — and a snapshot a reader
//! holds is never the replica being written. Both, and which branch each
//! publication takes, are checked here by count.

use cpma_api::testkit::Rng;
use cpma_api::{BatchOp, BatchSet, OrderedSet, Persist, RangeSet};
use cpma_pma::Cpma;
use cpma_store::{Combiner, Op, ShardedSet};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The combiner's private break-even: a lag of `n` ops is replayed while
/// `n × 256 ≤ len`, copied around otherwise.
const BREAK_EVEN: usize = 256;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpma-publication-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every byte `Persist::save` leaves at `path`: one file, or a directory's
/// files sorted by name.
fn saved_image(path: &Path) -> Vec<(String, Vec<u8>)> {
    if path.is_file() {
        return vec![(String::new(), std::fs::read(path).unwrap())];
    }
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(path)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_str().unwrap().to_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn persisted<S: Persist>(path: &Path) -> impl Fn(&S) -> Vec<(String, Vec<u8>)> + '_ {
    move |set| {
        set.save(path).unwrap();
        saved_image(path)
    }
}

/// What a burst does to `model`, as the normal-form net batch the combiner
/// derives from it (ascending keys whose presence changed).
fn net_of(ops: &[Op<u64>], model: &mut BTreeSet<u64>) -> Vec<BatchOp<u64>> {
    let mut before: Vec<(u64, bool)> = Vec::new();
    for op in ops {
        let k = match *op {
            Op::Insert(k) | Op::Remove(k) | Op::Contains(k) => k,
        };
        before.push((k, model.contains(&k)));
        match *op {
            Op::Insert(k) => {
                model.insert(k);
            }
            Op::Remove(k) => {
                model.remove(&k);
            }
            Op::Contains(_) => {}
        }
    }
    before.sort_by_key(|&(k, _)| k); // stable: the first entry per key is its presence before the burst
    before.dedup_by_key(|&mut (k, _)| k);
    before
        .into_iter()
        .filter_map(|(k, was)| match (was, model.contains(&k)) {
            (false, true) => Some(BatchOp::Insert(k)),
            (true, false) => Some(BatchOp::Remove(k)),
            _ => None,
        })
        .collect()
}

/// A seeded mixed burst: fresh inserts, removes of stored keys, probes.
fn burst(rng: &mut Rng, base: &[u64], n: usize) -> Vec<Op<u64>> {
    (0..n)
        .map(|_| match rng.below(4) {
            0 | 1 => Op::Insert(rng.bits(40)),
            2 => Op::Remove(base[rng.below(base.len() as u64) as usize]),
            _ => Op::Contains(base[rng.below(base.len() as u64) as usize]),
        })
        .collect()
}

/// Drive a combiner and a reference `S` with the same seeded trace. The
/// reference applies each epoch's net batch with one `apply_batch_sorted`
/// — the single history. After every epoch the published snapshot's
/// `image` must equal the reference's, and the publication counters must
/// match the branch predicted from the lag, the set size and what this
/// test itself pins.
fn replay_matches_single_history<S>(
    seed: u64,
    pin_readers: bool,
    image: impl Fn(&S) -> Vec<(String, Vec<u8>)>,
) where
    S: BatchSet<u64> + RangeSet<u64> + Clone + Sync,
{
    let mut rng = Rng::new(seed);
    let mut base: Vec<u64> = (0..140_000).map(|_| rng.bits(40)).collect();
    base.sort_unstable();
    base.dedup();
    let mut model: BTreeSet<u64> = base.iter().copied().collect();
    let mut reference = S::build_sorted(&base);
    let comb: Combiner<S> = Combiner::new(S::build_sorted(&base));

    // Burst sizes on both sides of the break-even (≈ len / 256 = 546 net
    // ops), so small lags are replayed and large ones copied around.
    let sizes = [1, 8, 512, 1, 1_500, 8, 8, 512, 512, 4_000, 1, 700, 8];
    // (snapshot, its contents when taken, the epoch to release it at)
    let mut held: Vec<(Arc<S>, Vec<u64>, usize)> = Vec::new();
    // What the combiner holds as its spare replica, by address, and the
    // length of the net batch that spare has not seen.
    let mut spare: Option<(*const S, usize)> = None;
    let (mut recycled, mut pinned, mut bulk, mut replayed) = (0u64, 0u64, 0u64, 0u64);

    for epoch in 0..3 * sizes.len() {
        let ops = burst(&mut rng, &base, sizes[epoch % sizes.len()]);
        let front = comb.snapshot();
        let net = net_of(&ops, &mut model);
        if !net.is_empty() {
            match spare {
                Some((_, lag)) if lag * BREAK_EVEN > front.len() => bulk += 1,
                Some((ptr, _)) if held.iter().any(|(s, ..)| Arc::as_ptr(s) == ptr) => pinned += 1,
                Some((_, lag)) => {
                    recycled += 1;
                    replayed += lag as u64;
                }
                None => bulk += 1,
            }
            spare = Some((Arc::as_ptr(&front), net.len()));
            reference.apply_batch_sorted(&net);
        }
        drop(front);

        comb.submit_many(&ops);
        let snap = comb.snapshot();
        assert!(
            image(&snap) == image(&reference),
            "epoch {epoch}: published bytes differ from the single history"
        );
        let stats = comb.stats();
        assert_eq!(
            (
                stats.publish_recycled,
                stats.publish_cloned_pinned,
                stats.publish_cloned_bulk,
                stats.replay_ops
            ),
            (recycled, pinned, bulk, replayed),
            "epoch {epoch}: publication branches"
        );

        // Readers that pin a snapshot for a few epochs: it must read the
        // same when they let go of it.
        held.retain(|(s, contents, until)| {
            let keep = *until > epoch;
            if !keep {
                assert_eq!(&RangeSet::to_vec(&**s), contents, "held snapshot changed");
            }
            keep
        });
        if pin_readers && rng.chance(1, 2) {
            let until = epoch + 1 + rng.below(4) as usize;
            held.push((snap.clone(), RangeSet::to_vec(&*snap), until));
        }
    }
    assert!(recycled > 0 && bulk > 1, "both sides of the break-even ran");
    assert_eq!(pinned > 0, pin_readers, "pinned fallbacks need a pin");
    assert_eq!(
        RangeSet::to_vec(&comb.into_inner()),
        model.into_iter().collect::<Vec<_>>()
    );
}

fn contents(set: &BTreeSet<u64>) -> Vec<(String, Vec<u8>)> {
    vec![(
        String::new(),
        set.iter().flat_map(|k| k.to_le_bytes()).collect(),
    )]
}

#[test]
fn replay_is_byte_identical_to_single_history() {
    let dir = tmp_dir("replay");
    for pin in [false, true] {
        let path = dir.join("sharded");
        replay_matches_single_history::<ShardedSet<Cpma, 8>>(0x7A1, pin, persisted(&path));
        let path = dir.join("cpma");
        replay_matches_single_history::<Cpma>(0x7A2, pin, persisted(&path));
        replay_matches_single_history::<BTreeSet<u64>>(0x7A3, pin, contents);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A burst of `n` inserts of keys not stored yet (the base holds even
/// keys only), so every op is a net op.
fn fresh_inserts(next_odd: &mut u64, n: u64) -> Vec<Op<u64>> {
    let ops = (0..n).map(|i| Op::Insert(*next_odd + 2 * i)).collect();
    *next_odd += 2 * n;
    ops
}

#[test]
fn small_epochs_recycle_the_spare_and_a_pinned_snapshot_costs_one_clone() {
    let base: Vec<u64> = (0..1_000_000u64).map(|i| i * 2).collect();
    let comb: Combiner<Cpma> = Combiner::new(Cpma::build_sorted(&base));
    let mut next_odd = 1u64;

    // 1 000 small epochs, nobody reading: one copy (the first write epoch
    // has no spare yet), then every epoch replays the previous batch.
    for _ in 0..1_000 {
        let acks = comb.submit_many(&fresh_inserts(&mut next_odd, 8));
        assert!(acks.iter().all(|&a| a));
    }
    let s = comb.stats();
    assert_eq!(
        (s.publish_cloned_bulk, s.publish_cloned_pinned),
        (1, 0),
        "{}",
        s.summary()
    );
    assert_eq!((s.publish_recycled, s.replay_ops), (999, 999 * 8));

    // A snapshot held across 50 epochs: it never changes, and it costs
    // exactly one copy — when it comes up as the spare — after which the
    // copy and the other replica alternate.
    let pin = comb.snapshot();
    let (len, sum) = (pin.len(), pin.range_sum(..));
    for _ in 0..50 {
        comb.submit_many(&fresh_inserts(&mut next_odd, 8));
    }
    assert_eq!((pin.len(), pin.range_sum(..)), (len, sum));
    assert!(!pin.contains(next_odd - 2), "a later insert leaked in");
    let s = comb.stats();
    assert_eq!(
        (s.publish_cloned_bulk, s.publish_cloned_pinned),
        (1, 1),
        "{}",
        s.summary()
    );
    assert_eq!(s.publish_recycled, 999 + 49);

    // Dropped: recycling goes on as if it had never been held.
    drop(pin);
    for _ in 0..10 {
        comb.submit_many(&fresh_inserts(&mut next_odd, 8));
    }
    let s = comb.stats();
    assert_eq!((s.publish_cloned_bulk, s.publish_cloned_pinned), (1, 1));
    assert_eq!(s.publish_recycled, 999 + 49 + 10);
    assert_eq!(s.replay_ops, (999 + 49 + 10) * 8);

    // An epoch that changes nothing publishes nothing: same `Arc`, no
    // branch counted, but the epoch still counts.
    let before = comb.snapshot();
    let acks = comb.submit_many(&[Op::Contains(0), Op::Contains(1), Op::Insert(0)]);
    assert_eq!(acks, vec![true, true, false]);
    assert!(Arc::ptr_eq(&before, &comb.snapshot()));
    let t = comb.stats();
    assert_eq!(t.epochs, s.epochs + 1);
    assert_eq!(
        (
            t.publish_recycled,
            t.publish_cloned_pinned,
            t.publish_cloned_bulk,
            t.replay_ops
        ),
        (
            s.publish_recycled,
            s.publish_cloned_pinned,
            s.publish_cloned_bulk,
            s.replay_ops
        )
    );
    assert_eq!(comb.into_inner().len(), 1_000_000 + 1_060 * 8);
}
