//! Twin-replica snapshot publication, pinned down without a clock.
//!
//! The combiner alternates two replicas of the set instead of copying it
//! every epoch (`combiner.rs`, "Snapshot readers"): the spare is brought
//! level with the front by copying what the front's last apply wrote, or
//! by replaying that apply where the copy cannot bridge the two. Two
//! things must hold for that to be invisible: a caught-up replica is the
//! same history as a set that applied one net batch per epoch — to the
//! byte, not just by contents — and a snapshot a reader holds is never the
//! replica being written. Both, which branch every epoch takes and how
//! many bytes its catch-up copies are checked here by count.

use cpma_api::testkit::SplitMix64;
use cpma_api::{BatchOp, BatchSet, OrderedSet, Persist, RangeSet};
use cpma_pma::{Cpma, LeafStorage, Pma, PmaCore};
use cpma_store::{Combiner, CombinerStats, Op, ShardedSet};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The combiner's private break-even for replays: a lag of `n` ops that
/// only a replay can catch up is replayed while `n × 256 ≤ len`, copied
/// around otherwise.
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

fn contents(set: &BTreeSet<u64>) -> Vec<(String, Vec<u8>)> {
    vec![(
        String::new(),
        set.iter().flat_map(|k| k.to_le_bytes()).collect(),
    )]
}

/// How a spare one apply behind a front catches up, predicted from the
/// single history: `before` and `after` the apply of `lag`.
#[derive(Clone, Copy, Debug, Default)]
struct Plan {
    /// The catch-up works from the write set (`BatchSet::copies_from`),
    /// so no lag is too large for it.
    copies: bool,
    bytes: u64,
    replayed: u64,
}

trait Replica: BatchSet<u64> + RangeSet<u64> + Clone + Sync {
    fn plan(before: &Self, after: &Self, lag: &[BatchOp<u64>]) -> Plan;
}

fn geometry<L: LeafStorage<u64>>(s: &PmaCore<u64, L>) -> (usize, usize) {
    (s.storage().num_leaves(), s.storage().leaf_units())
}

/// A PMA copies its write set unless the apply moved the geometry.
impl<L: LeafStorage<u64> + Clone> Replica for PmaCore<u64, L> {
    fn plan(before: &Self, after: &Self, lag: &[BatchOp<u64>]) -> Plan {
        if geometry(before) == geometry(after) {
            Plan {
                copies: true,
                bytes: after.write_set_bytes() as u64,
                replayed: 0,
            }
        } else {
            Plan {
                copies: false,
                bytes: 0,
                replayed: lag.len() as u64,
            }
        }
    }
}

/// A sharded set replays everything after a splitter re-learn; otherwise
/// each shard the lag reaches copies or replays as a PMA does, and the set
/// copies when all of them do.
impl<L: LeafStorage<u64> + Clone, const N: usize> Replica for ShardedSet<PmaCore<u64, L>, N> {
    fn plan(before: &Self, after: &Self, lag: &[BatchOp<u64>]) -> Plan {
        let relearns = |s: &Self| {
            let r = s.rebalance_stats();
            r.skew_rebalances + r.grows + r.shrinks
        };
        if relearns(before) != relearns(after) {
            return Plan {
                copies: false,
                bytes: 0,
                replayed: lag.len() as u64,
            };
        }
        let mut plan = Plan::default();
        for (i, (old, new)) in before.shards().iter().zip(after.shards()).enumerate() {
            let shard_of = |k: u64| before.splitters().partition_point(|&s| s <= k);
            let sub: Vec<BatchOp<u64>> = lag
                .iter()
                .copied()
                .filter(|op| shard_of(op.key()) == i)
                .collect();
            if !sub.is_empty() {
                let p = PmaCore::plan(old, new, &sub);
                plan.bytes += p.bytes;
                plan.replayed += p.replayed;
            }
        }
        plan.copies = plan.replayed == 0;
        plan
    }
}

/// No write set: always a replay.
impl Replica for BTreeSet<u64> {
    fn plan(_: &Self, _: &Self, lag: &[BatchOp<u64>]) -> Plan {
        Plan {
            copies: false,
            bytes: 0,
            replayed: lag.len() as u64,
        }
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

/// The shapes of epoch the trace is made of.
#[derive(Clone, Copy, Debug)]
enum Epoch {
    /// Fresh inserts, removes of stored keys and probes, 2 : 1 : 1.
    Mixed(usize),
    /// Fresh inserts only — enough to cross a rebuild or resize bound.
    Fresh(usize),
    /// Removes of the smallest stored keys: whole leaves empty, so the
    /// lower density bounds come into play.
    Drain(usize),
    /// `Contains` probes only: no writes, no replica taken.
    Probes(usize),
    /// Writes that change nothing: inserts of stored keys, removes of
    /// absent ones, plus `effective` fresh inserts.
    NoOps { ops: usize, effective: usize },
}

/// Keys of the model are below 2⁴⁰; these never are.
fn absent(rng: &mut SplitMix64) -> u64 {
    (1 << 41) + rng.next_bits(30)
}

/// A stored key: the successor of a random one, wrapping to the minimum.
fn stored(rng: &mut SplitMix64, model: &BTreeSet<u64>) -> u64 {
    let probe = rng.next_bits(40);
    let next = model.range(probe..).next().or_else(|| model.first());
    *next.expect("the model is not empty")
}

fn burst(rng: &mut SplitMix64, base: &[u64], model: &BTreeSet<u64>, epoch: Epoch) -> Vec<Op<u64>> {
    let any_base = |rng: &mut SplitMix64| base[rng.next_below(base.len() as u64) as usize];
    match epoch {
        Epoch::Mixed(n) => (0..n)
            .map(|_| match rng.next_below(4) {
                0 | 1 => Op::Insert(rng.next_bits(40)),
                2 => Op::Remove(any_base(rng)),
                _ => Op::Contains(any_base(rng)),
            })
            .collect(),
        Epoch::Fresh(n) => (0..n).map(|_| Op::Insert(rng.next_bits(40))).collect(),
        Epoch::Drain(n) => model.iter().take(n).map(|&k| Op::Remove(k)).collect(),
        Epoch::Probes(n) => (0..n).map(|_| Op::Contains(any_base(rng))).collect(),
        Epoch::NoOps { ops, effective } => (0..ops)
            .map(|i| match (i < effective, rng.chance(1, 2)) {
                (true, _) => Op::Insert(rng.next_bits(40)),
                (false, true) => Op::Insert(stored(rng, model)),
                (false, false) => Op::Remove(absent(rng)),
            })
            .collect(),
    }
}

/// The spare as the test sees it: the snapshot it was published as (none
/// for a replica kept back by an epoch that changed nothing), the length
/// of the lag and the predicted catch-up.
struct Spare<S> {
    published: Option<*const S>,
    lag: usize,
    plan: Plan,
}

/// Drive a combiner and a reference `S` with the same seeded trace. The
/// reference applies each epoch's net batch with one `apply_batch_sorted`
/// — the single history. After every epoch the published snapshot's
/// `image` must equal the reference's, and the publication counters must
/// match the branch predicted from the spare's plan, the lag, the set size
/// and what this test itself pins. Returns the final counters.
fn catch_up_matches_single_history<S: Replica>(
    seed: u64,
    base_len: usize,
    trace: &[Epoch],
    pin_readers: bool,
    image: impl Fn(&S) -> Vec<(String, Vec<u8>)>,
) -> CombinerStats {
    let mut rng = SplitMix64::new(seed);
    let mut base: Vec<u64> = (0..base_len).map(|_| rng.next_bits(40)).collect();
    base.sort_unstable();
    base.dedup();
    let mut model: BTreeSet<u64> = base.iter().copied().collect();
    let mut reference = S::build_sorted(&base);
    let comb: Combiner<S> = Combiner::new(S::build_sorted(&base));

    // (snapshot, its contents when taken, the epoch to release it at)
    let mut held: Vec<(Arc<S>, Vec<u64>, usize)> = Vec::new();
    let mut spare: Option<Spare<S>> = None;
    let mut want = CombinerStats::default();

    for (e, &epoch) in trace.iter().enumerate() {
        let ops = burst(&mut rng, &base, &model, epoch);
        let front = comb.snapshot();
        let writes = ops.iter().any(|op| !matches!(op, Op::Contains(_)));
        let net = net_of(&ops, &mut model);
        if writes {
            match &spare {
                Some(s) if s.plan.copies || s.lag * BREAK_EVEN <= front.len() => {
                    let pinned = s
                        .published
                        .is_some_and(|ptr| held.iter().any(|(h, ..)| Arc::as_ptr(h) == ptr));
                    if pinned {
                        want.publish_cloned_pinned += 1;
                    } else if s.plan.replayed > 0 {
                        want.publish_replayed += 1;
                        want.replay_ops += s.plan.replayed;
                        want.catchup_bytes += s.plan.bytes;
                    } else {
                        want.publish_copied += 1;
                        want.catchup_bytes += s.plan.bytes;
                    }
                }
                _ => want.publish_cloned_bulk += 1,
            }
            spare = Some(if net.is_empty() {
                Spare {
                    published: None,
                    lag: 0,
                    plan: Plan::default(),
                }
            } else {
                let before = reference.clone();
                reference.apply_batch_sorted(&net);
                Spare {
                    published: Some(Arc::as_ptr(&front)),
                    lag: net.len(),
                    plan: S::plan(&before, &reference, &net),
                }
            });
        }

        comb.submit_many(&ops);
        let snap = comb.snapshot();
        assert_eq!(
            Arc::ptr_eq(&front, &snap),
            net.is_empty(),
            "epoch {e} ({epoch:?}): publishes iff something changed"
        );
        drop(front);
        assert!(
            image(&snap) == image(&reference),
            "epoch {e} ({epoch:?}): published bytes differ from the single history"
        );
        let got = comb.stats();
        assert_eq!(
            (
                got.publish_copied,
                got.publish_replayed,
                got.publish_cloned_pinned,
                got.publish_cloned_bulk,
                got.replay_ops,
                got.catchup_bytes,
            ),
            (
                want.publish_copied,
                want.publish_replayed,
                want.publish_cloned_pinned,
                want.publish_cloned_bulk,
                want.replay_ops,
                want.catchup_bytes,
            ),
            "epoch {e} ({epoch:?}): publication branches"
        );

        // Readers that pin a snapshot for a few epochs: it must read the
        // same when they let go of it.
        held.retain(|(s, contents, until)| {
            let keep = *until > e;
            if !keep {
                assert_eq!(&RangeSet::to_vec(&**s), contents, "held snapshot changed");
            }
            keep
        });
        if pin_readers && rng.chance(1, 2) {
            let until = e + 1 + rng.next_below(4) as usize;
            held.push((snap.clone(), RangeSet::to_vec(&*snap), until));
        }
    }
    assert_eq!(
        RangeSet::to_vec(&comb.into_inner()),
        model.into_iter().collect::<Vec<_>>()
    );
    want
}

/// Burst sizes on both sides of the replay break-even (≈ len / 256 ≈ 550
/// net ops), a fresh-insert burst past the full-rebuild bound (len / 10),
/// normal forms at or above the point cutoff (128) whose net batch falls
/// below it, epochs that only probe, and epochs whose writes all change
/// nothing.
const TRACE: [Epoch; 20] = [
    Epoch::Mixed(1),
    Epoch::Mixed(8),
    Epoch::Mixed(512),
    Epoch::Probes(20),
    Epoch::Mixed(1),
    Epoch::NoOps {
        ops: 200,
        effective: 0,
    },
    Epoch::Mixed(1_500),
    Epoch::NoOps {
        ops: 300,
        effective: 40,
    },
    Epoch::Mixed(8),
    Epoch::NoOps {
        ops: 5,
        effective: 0,
    },
    Epoch::Mixed(512),
    Epoch::Fresh(16_000),
    Epoch::Mixed(512),
    Epoch::Mixed(4_000),
    Epoch::Probes(3),
    Epoch::Mixed(1),
    Epoch::NoOps {
        ops: 2_000,
        effective: 200,
    },
    Epoch::Mixed(700),
    Epoch::Fresh(30_000),
    Epoch::Mixed(8),
];

#[test]
fn catch_up_is_byte_identical_to_single_history() {
    let dir = tmp_dir("catch-up");
    let trace: Vec<Epoch> = TRACE.iter().chain(&TRACE).copied().collect();
    for pin in [false, true] {
        let path = dir.join("sharded");
        let s = catch_up_matches_single_history::<ShardedSet<Cpma, 8>>(
            0x7A1,
            140_000,
            &trace,
            pin,
            persisted(&path),
        );
        assert!(
            s.publish_copied > 10 && s.catchup_bytes > 0,
            "{}",
            s.summary()
        );
        let path = dir.join("cpma");
        let c =
            catch_up_matches_single_history::<Cpma>(0x7A2, 140_000, &trace, pin, persisted(&path));
        assert!(c.publish_copied > 10, "{}", c.summary());
        let b =
            catch_up_matches_single_history::<BTreeSet<u64>>(0x7A3, 140_000, &trace, pin, contents);
        assert!(
            b.publish_replayed > 0 && b.publish_cloned_bulk > 1,
            "{}",
            b.summary()
        );
        for s in [&s, &c, &b] {
            assert_eq!(s.publish_cloned_pinned > 0, pin, "pinned clones need a pin");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Grow and shrink epochs. An uncompressed PMA (whose units are keys, so
/// its resizes come by count) takes small bursts of fresh inserts until
/// its capacity grows: the epoch after the grow finds the replicas in
/// different geometries and replays its small lag. A two-shard set does
/// the same — the grown shard replays its part of the lag, the other
/// copies — then has its smallest keys drained a pipeline-sized batch at a
/// time, until its shards shrink and its splitters re-learn, where the lag
/// is too large to replay and the set is copied instead.
#[test]
fn resizes_force_the_replay_fallback() {
    let dir = tmp_dir("resize");
    let grow = [Epoch::Fresh(150); 150];
    let path = dir.join("pma");
    let p = catch_up_matches_single_history::<Pma>(0x9E1, 40_000, &grow, false, persisted(&path));
    assert!(
        p.publish_replayed >= 1 && p.publish_copied > 100,
        "{}",
        p.summary()
    );
    let path = dir.join("sharded");
    let mut trace = grow.to_vec();
    trace.extend([Epoch::Drain(1_000); 40]);
    let s = catch_up_matches_single_history::<ShardedSet<Pma, 2>>(
        0x9E2,
        40_000,
        &trace,
        false,
        persisted(&path),
    );
    assert!(
        s.publish_replayed >= 2 && s.publish_copied > 100,
        "{}",
        s.summary()
    );
    assert!(s.publish_cloned_bulk >= 2, "{}", s.summary());
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
fn small_epochs_copy_into_the_spare_and_a_pinned_snapshot_costs_one_clone() {
    let base: Vec<u64> = (0..1_000_000u64).map(|i| i * 2).collect();
    let comb: Combiner<Cpma> = Combiner::new(Cpma::build_sorted(&base));
    let mut next_odd = 1u64;

    // 1 000 small epochs, nobody reading: one copy of the set (the first
    // write epoch has no spare yet), then every epoch copies the leaves
    // the previous one wrote — a few per op, never the set — and replays
    // nothing.
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
    assert_eq!(
        (s.publish_copied, s.publish_replayed, s.replay_ops),
        (999, 0, 0)
    );
    let leaf = comb.snapshot().size_bytes() / comb.snapshot().storage().num_leaves();
    assert!(
        s.catchup_bytes >= 999 && s.catchup_bytes <= 999 * 8 * 3 * leaf as u64,
        "{}",
        s.summary()
    );

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
    assert_eq!(s.publish_copied, 999 + 49);

    // Dropped: copying goes on as if it had never been held.
    drop(pin);
    for _ in 0..10 {
        comb.submit_many(&fresh_inserts(&mut next_odd, 8));
    }
    let s = comb.stats();
    assert_eq!((s.publish_cloned_bulk, s.publish_cloned_pinned), (1, 1));
    assert_eq!((s.publish_copied, s.replay_ops), (999 + 49 + 10, 0));

    // An epoch that only probes takes no replica; one whose writes change
    // nothing catches the spare up (one branch) but publishes nothing —
    // same `Arc` — and the next write epoch finds that spare level. Both
    // epochs still count.
    let before = comb.snapshot();
    let absent = u64::MAX;
    assert_eq!(
        comb.submit_many(&[Op::Contains(0), Op::Contains(absent)]),
        [true, false]
    );
    let acks = comb.submit_many(&[Op::Contains(0), Op::Insert(0), Op::Remove(absent)]);
    assert_eq!(acks, vec![true, false, false]);
    assert!(Arc::ptr_eq(&before, &comb.snapshot()));
    let t = comb.stats();
    assert_eq!(t.epochs, s.epochs + 2);
    assert_eq!(
        (
            t.publish_copied,
            t.publish_cloned_pinned,
            t.publish_cloned_bulk
        ),
        (s.publish_copied + 1, 1, 1)
    );
    drop(before);
    comb.submit_many(&fresh_inserts(&mut next_odd, 8));
    let u = comb.stats();
    assert_eq!(
        (u.publish_copied, u.catchup_bytes),
        (t.publish_copied + 1, t.catchup_bytes),
        "a level spare copies nothing"
    );
    assert_eq!(comb.into_inner().len(), 1_000_000 + 1_061 * 8);
}
