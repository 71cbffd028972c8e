//! Crash-recovery kill-point suite for the durable [`Combiner`].
//!
//! The durability contract: after a crash at *any* byte of the WAL
//! stream, reopening the directory recovers exactly the state of the
//! last fully-logged epoch — verified against a `BTreeSet` oracle at
//! every cut point (mid-record, at record boundaries, inside the segment
//! header), plus mid-checkpoint crashes and plain between-epoch reopens.

use cpma_api::testkit::SplitMix64;
use cpma_api::{BatchSet, OrderedSet, Persist, PersistError, RangeSet};
use cpma_persist::{recover, FsyncPolicy, WalConfig, KEEP_CHECKPOINTS};
use cpma_pma::Cpma;
use cpma_store::{Combiner, CombinerConfig, Op, ShardedSet};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpma-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The single live WAL segment in `dir` (these tests disable rotation
/// unless they rotate explicitly).
fn sole_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    assert_eq!(segs.len(), 1, "expected exactly one segment");
    segs.pop().unwrap()
}

/// One pseudo-random mixed burst per epoch; applying it to a `BTreeSet`
/// tracks exactly what the combiner acknowledges.
fn epoch_burst(rng: &mut SplitMix64, model: &mut BTreeSet<u64>) -> Vec<Op<u64>> {
    let n = 8 + rng.next_below(25) as usize;
    (0..n)
        .map(|_| {
            let k = rng.next_bits(9);
            if rng.next_below(3) == 0 {
                model.remove(&k);
                Op::Remove(k)
            } else {
                model.insert(k);
                Op::Insert(k)
            }
        })
        .collect()
}

fn wal_config(dir: &Path) -> WalConfig {
    let mut cfg = WalConfig::new(dir);
    // Rotation off unless a test forces it; no per-epoch fsync (the
    // "crash" is a copy of live file contents, and EveryN exercises the
    // non-Always policy paths).
    cfg.rotate_bytes = u64::MAX;
    cfg.fsync = FsyncPolicy::EveryN(4);
    cfg
}

/// Crash at every interesting WAL byte: each record boundary, one byte
/// short of it, mid-record, and inside the segment header. Recovery must
/// yield exactly the oracle state after the number of *complete* records,
/// and flag (plus truncate) a torn tail.
#[test]
fn kill_points_at_every_wal_byte() {
    let dir = tmp_dir("killpoints");
    let (combiner, report) =
        Combiner::<Cpma>::open_durable(CombinerConfig::default(), wal_config(&dir)).unwrap();
    assert_eq!(report.last_seq, 0);

    let mut rng = SplitMix64::new(0x4B31_0001);
    let mut model = BTreeSet::new();
    // `states[e]` = oracle contents after e epochs; `ends[e]` = segment
    // length once epoch e is fully logged (ends[0] = header only).
    let mut states: Vec<Vec<u64>> = vec![Vec::new()];
    let mut ends: Vec<u64> = vec![std::fs::metadata(sole_segment(&dir)).unwrap().len()];
    for _ in 0..10 {
        let burst = epoch_burst(&mut rng, &mut model);
        combiner.submit_many(&burst);
        states.push(model.iter().copied().collect());
        ends.push(std::fs::metadata(sole_segment(&dir)).unwrap().len());
    }
    drop(combiner);

    let mut cuts: Vec<u64> = vec![0, 1, ends[0] - 1];
    for e in 1..ends.len() {
        cuts.extend([ends[e], ends[e] - 1, (ends[e - 1] + ends[e]) / 2]);
    }
    let scratch = tmp_dir("killpoints-scratch");
    for &cut in &cuts {
        copy_dir(&dir, &scratch);
        let seg = sole_segment(&scratch);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let (recovered, report) = recover::<Cpma>(&scratch).unwrap();
        // A cut below the header drops the segment entirely; otherwise
        // the survivors are exactly the fully-contained records.
        let survivors = complete.saturating_sub(1);
        assert_eq!(
            report.last_seq, survivors as u64,
            "cut at byte {cut}: wrong epoch count"
        );
        assert_eq!(
            recovered.to_vec(),
            states[survivors],
            "cut at byte {cut}: wrong contents"
        );
        let at_boundary = complete > 0 && ends[complete - 1] == cut;
        assert_eq!(
            report.truncated_tail, !at_boundary,
            "cut at byte {cut}: torn-tail flag"
        );

        // Recovery is serviceable, not just correct: reopening the cut
        // directory appends new epochs from where it landed.
        let (reopened, r2) =
            Combiner::<Cpma>::open_durable(CombinerConfig::default(), wal_config(&scratch))
                .unwrap();
        assert_eq!(r2.last_seq, survivors as u64);
        reopened.insert(u64::MAX - cut);
        assert_eq!(reopened.epochs_applied(), survivors as u64 + 1);
        drop(reopened);
        let (again, r3) = recover::<Cpma>(&scratch).unwrap();
        assert_eq!(r3.last_seq, survivors as u64 + 1);
        assert!(again.contains(u64::MAX - cut));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// A crash *between* epochs is the trivial kill point: plain reopen, no
/// torn tail, every acknowledged epoch present — including empty-net
/// epochs (pure `Contains` traffic), which are logged too so the WAL
/// sequence never drifts from `epochs_applied`.
#[test]
fn between_epoch_reopen_continues_exactly() {
    let dir = tmp_dir("reopen");
    let mut rng = SplitMix64::new(0xEB0C);
    let mut model = BTreeSet::new();
    let mut epochs = 0u64;
    for round in 0..3 {
        let (combiner, report) =
            Combiner::<Cpma>::open_durable(CombinerConfig::default(), wal_config(&dir)).unwrap();
        assert_eq!(report.last_seq, epochs, "round {round}");
        assert!(!report.truncated_tail);
        assert_eq!(
            combiner.snapshot().to_vec(),
            model.iter().copied().collect::<Vec<_>>()
        );
        for _ in 0..4 {
            let burst = epoch_burst(&mut rng, &mut model);
            combiner.submit_many(&burst);
            epochs += 1;
        }
        // Read-only epochs advance the sequence without changing state.
        assert_eq!(combiner.contains(42), model.contains(&42));
        epochs += 1;
        assert_eq!(combiner.epochs_applied(), epochs);
        drop(combiner); // crash between epochs
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Mid-checkpoint crashes: a `.tmp` leftover is ignored, and a corrupt
/// newest checkpoint falls back to the older one — with the WAL replayed
/// from there, losing nothing.
#[test]
fn mid_checkpoint_crash_falls_back() {
    let dir = tmp_dir("ckpt-fallback");
    let (combiner, _) =
        Combiner::<Cpma>::open_durable(CombinerConfig::default(), wal_config(&dir)).unwrap();
    let mut rng = SplitMix64::new(0xC4A5);
    let mut model = BTreeSet::new();
    for _ in 0..5 {
        combiner.submit_many(&epoch_burst(&mut rng, &mut model));
    }
    let first = combiner.checkpoint().unwrap();
    for _ in 0..5 {
        combiner.submit_many(&epoch_burst(&mut rng, &mut model));
    }
    let second = combiner.checkpoint().unwrap();
    assert!(second > first);
    for _ in 0..3 {
        combiner.submit_many(&epoch_burst(&mut rng, &mut model));
    }
    let epochs = combiner.epochs_applied();
    drop(combiner);
    let oracle: Vec<u64> = model.iter().copied().collect();

    // Crash while writing the *next* checkpoint: a stray .tmp must not
    // disturb recovery.
    std::fs::write(
        dir.join(format!("checkpoint-{:020}.tmp", epochs)),
        b"half-written garbage",
    )
    .unwrap();
    let (set, report) = recover::<Cpma>(&dir).unwrap();
    assert_eq!(report.checkpoint_seq, second);
    assert_eq!(report.last_seq, epochs);
    assert_eq!(set.to_vec(), oracle);

    // Corrupt the newest checkpoint itself: recovery must fall back to
    // the first checkpoint and replay the longer WAL tail to the same
    // state.
    let ckpt = dir.join(format!("checkpoint-{second:020}"));
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&ckpt, &bytes).unwrap();
    let (set, report) = recover::<Cpma>(&dir).unwrap();
    assert_eq!(report.checkpoint_seq, first);
    assert!(report.skipped_checkpoints >= 1);
    assert_eq!(report.last_seq, epochs);
    assert_eq!(set.to_vec(), oracle);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint whose `seq` lands inside a segment: the leader wrote it
/// and crashed before rotating, so the restart appends to the segment
/// that holds the epochs the checkpoint covers. Recovery must skip those
/// and replay the rest as one batch. Two key groups flip insert → remove
/// → insert across the checkpoint; every record boundary past it is a
/// kill point checked against the per-epoch oracle.
#[test]
fn checkpoint_inside_a_segment() {
    fn run<S: BatchSet + RangeSet + Clone + Sync + Persist>(tag: &str) {
        let dir = tmp_dir(&format!("ckpt-in-segment-{tag}"));
        let mut rng = SplitMix64::new(0xC4EC_0001);
        let mut model = BTreeSet::new();
        // Keys above the bursts' 9-bit domain, so only the flips touch them.
        let (f, g) = ([1_000u64, 1_001, 1_500], [2_000u64, 2_222]);
        let burst_with = |extra: &[Op<u64>], rng: &mut SplitMix64, model: &mut BTreeSet<u64>| {
            let mut burst = epoch_burst(rng, model);
            for op in extra {
                match *op {
                    Op::Insert(k) => model.insert(k),
                    Op::Remove(k) => model.remove(&k),
                    Op::Contains(_) => unreachable!(),
                };
            }
            burst.extend_from_slice(extra);
            burst
        };
        let ins = |keys: &[u64]| keys.iter().map(|&k| Op::Insert(k)).collect::<Vec<_>>();
        let rem = |keys: &[u64]| keys.iter().map(|&k| Op::Remove(k)).collect::<Vec<_>>();

        let (combiner, _) =
            Combiner::<S>::open_durable(CombinerConfig::default(), wal_config(&dir)).unwrap();
        let mut states: Vec<Vec<u64>> = vec![Vec::new()];
        for epoch in 1..=8u64 {
            let extra = match epoch {
                7 => ins(&g),
                8 => [ins(&f), rem(&g)].concat(),
                _ => Vec::new(),
            };
            combiner.submit_many(&burst_with(&extra, &mut rng, &mut model));
            states.push(model.iter().copied().collect());
        }
        // The checkpoint lands; the crash comes before the rotation.
        let ckpt = combiner.epochs_applied();
        assert_eq!(ckpt, 8);
        combiner
            .snapshot()
            .save(&dir.join(cpma_persist::wal::checkpoint_file_name(ckpt)))
            .unwrap();
        drop(combiner);

        let (combiner, report) =
            Combiner::<S>::open_durable(CombinerConfig::default(), wal_config(&dir)).unwrap();
        assert_eq!(
            (
                report.checkpoint_seq,
                report.last_seq,
                report.replayed_records
            ),
            (ckpt, ckpt, 0)
        );
        let seg = sole_segment(&dir);
        assert!(seg.ends_with(cpma_persist::wal::segment_file_name(1)));
        // `ends[i]`: the segment's length once epoch `ckpt + i` is logged.
        let mut ends = vec![std::fs::metadata(&seg).unwrap().len()];
        for epoch in ckpt + 1..=ckpt + 6 {
            let extra = match epoch - ckpt {
                1 => [rem(&f), ins(&g)].concat(),
                2 => ins(&f),
                3 => rem(&g),
                _ => Vec::new(),
            };
            combiner.submit_many(&burst_with(&extra, &mut rng, &mut model));
            states.push(model.iter().copied().collect());
            ends.push(std::fs::metadata(&seg).unwrap().len());
        }
        drop(combiner);

        let scratch = tmp_dir(&format!("ckpt-in-segment-{tag}-scratch"));
        for epoch in ckpt..=ckpt + 6 {
            let end = ends[(epoch - ckpt) as usize];
            // At the record boundary, and 3 bytes into the next record.
            for cut in [end, end + 3] {
                if epoch == ckpt + 6 && cut > end {
                    continue;
                }
                copy_dir(&dir, &scratch);
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(sole_segment(&scratch))
                    .unwrap();
                f.set_len(cut).unwrap();
                drop(f);
                let (recovered, report) = recover::<S>(&scratch).unwrap();
                assert_eq!(report.checkpoint_seq, ckpt, "{tag}, cut at {cut}");
                assert_eq!(report.last_seq, epoch, "{tag}, cut at {cut}");
                assert_eq!(report.replayed_records, epoch - ckpt);
                assert_eq!(report.truncated_tail, cut != end);
                assert_eq!(
                    recovered.to_vec(),
                    states[epoch as usize],
                    "{tag}, cut at {cut}: wrong contents"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
    run::<Cpma>("cpma");
    run::<ShardedSet<Cpma, 4>>("sharded");
}

/// Size-triggered rotation end to end on the full production stack
/// (`Combiner<ShardedSet<Cpma>>`): directory checkpoints, pruning of
/// covered segments, crash, recover, continue.
#[test]
fn rotation_and_recovery_on_sharded_stack() {
    type Store = ShardedSet<Cpma, 4>;
    let dir = tmp_dir("sharded-stack");
    let mut cfg = wal_config(&dir);
    cfg.rotate_bytes = 2_000; // force frequent checkpoint+rotate
    let (combiner, _) = Combiner::<Store>::open_durable(CombinerConfig::default(), cfg).unwrap();
    let mut rng = SplitMix64::new(0x5AD0);
    let mut model = BTreeSet::new();
    for _ in 0..40 {
        combiner.submit_many(&epoch_burst(&mut rng, &mut model));
    }
    let epochs = combiner.epochs_applied();
    drop(combiner);

    let checkpoints = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_str()
                .unwrap()
                .starts_with("checkpoint-")
        })
        .count();
    assert!(checkpoints >= 1, "rotation never checkpointed");
    assert!(
        checkpoints <= KEEP_CHECKPOINTS,
        "pruning kept {checkpoints} checkpoints"
    );

    let (set, report) = recover::<Store>(&dir).unwrap();
    assert_eq!(report.last_seq, epochs);
    assert!(
        report.checkpoint_seq > 0,
        "recovery should use a checkpoint"
    );
    assert_eq!(set.to_vec(), model.iter().copied().collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shard-per-file checkpoint format: whole-structure roundtrip, and
/// typed errors for a corrupted manifest, a missing shard, and a foreign
/// snapshot posing as a manifest.
#[test]
fn sharded_manifest_roundtrip_and_corruption() {
    type Wide = ShardedSet<Cpma, 8>;
    let dir = tmp_dir("manifest");
    let mut set: Wide = BatchSet::new_set();
    let keys: Vec<u64> = (0..30_000u64).map(|i| i * 3 + 1).collect();
    set.insert_batch_sorted(&keys);
    assert_eq!(set.shard_count(), 8);
    let path = dir.join("ckpt");
    set.save(&path).unwrap();

    let back = Wide::load(&path).unwrap();
    assert_eq!(back.to_vec(), set.to_vec());
    assert_eq!(back.shard_count(), set.shard_count());
    assert_eq!(back.splitters(), set.splitters());

    // Loaded as `<Cpma, 2>`, the set keeps its 8 shards until its next
    // batch rebuilds it into 2; re-saving after that shrink must clear
    // the stale shard files.
    let mut shrunk = ShardedSet::<Cpma, 2>::load(&path).unwrap();
    assert_eq!(shrunk.shard_count(), 8);
    shrunk.remove_batch_sorted(&keys);
    shrunk.insert_batch_sorted(&[7, 9]);
    assert_eq!(shrunk.shard_count(), 2);
    assert_eq!(shrunk.rebalance_stats().shrinks, 1);
    shrunk.save(&path).unwrap();
    assert!(!path.join("shard-00002").exists(), "stale shard file kept");
    let reloaded = ShardedSet::<Cpma, 4>::load(&path).unwrap();
    assert_eq!(reloaded.to_vec(), vec![7, 9]);
    assert_eq!(reloaded.shard_count(), 2);

    // Manifest byte flips: typed error, never a panic.
    let manifest = path.join("MANIFEST");
    let good = std::fs::read(&manifest).unwrap();
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x10;
        std::fs::write(&manifest, &bad).unwrap();
        assert!(
            ShardedSet::<Cpma, 4>::load(&path).is_err(),
            "manifest flip at byte {i} went undetected"
        );
    }
    std::fs::write(&manifest, &good).unwrap();

    // A missing shard file is a load error, not a silent shrink.
    let shard0 = path.join("shard-00000");
    let kept = std::fs::read(&shard0).unwrap();
    std::fs::remove_file(&shard0).unwrap();
    assert!(matches!(
        ShardedSet::<Cpma, 4>::load(&path),
        Err(PersistError::Io(_))
    ));
    std::fs::write(&shard0, &kept).unwrap();

    // A PMA snapshot where the manifest should be: codec mismatch.
    Cpma::new().save(&manifest).unwrap();
    assert!(matches!(
        ShardedSet::<Cpma, 4>::load(&path),
        Err(PersistError::CodecMismatch {
            expected: 100,
            found: 3
        })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Shard files are saved and loaded in parallel, yet the outcome does not
/// depend on the schedule: the error is the first failing shard's in
/// index order, and a failed save leaves no `MANIFEST`.
#[test]
fn sharded_parallel_io_reports_the_first_failing_shard() {
    type Wide = ShardedSet<Cpma, 8>;
    let dir = tmp_dir("parallel-io");
    let keys: Vec<u64> = (0..20_000u64).map(|i| i * 5).collect();
    let set: Wide = BatchSet::build_sorted(&keys);
    let path = dir.join("ckpt");
    set.save(&path).unwrap();

    // Shard 2 missing (Io), shard 6 damaged (checksum): shard 2 is named.
    let shard = |i: usize| path.join(format!("shard-{i:05}"));
    let (two, six) = (
        std::fs::read(shard(2)).unwrap(),
        std::fs::read(shard(6)).unwrap(),
    );
    std::fs::remove_file(shard(2)).unwrap();
    let mut bad = six.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    std::fs::write(shard(6), &bad).unwrap();
    assert!(matches!(Wide::load(&path), Err(PersistError::Io(_))));
    // The other way round, the damaged shard comes first.
    std::fs::write(shard(2), &bad).unwrap();
    std::fs::remove_file(shard(6)).unwrap();
    assert!(matches!(
        Wide::load(&path),
        Err(PersistError::ChecksumMismatch(_))
    ));
    std::fs::write(shard(2), &two).unwrap();
    std::fs::write(shard(6), &six).unwrap();
    assert_eq!(Wide::load(&path).unwrap().to_vec(), keys);

    // A shard path that cannot be written fails the save before the
    // manifest; every other shard file is still written.
    let fresh = dir.join("fresh");
    std::fs::create_dir_all(fresh.join("shard-00003").join("occupied")).unwrap();
    assert!(set.save(&fresh).is_err());
    assert!(!fresh.join("MANIFEST").exists());
    for i in (0..8).filter(|&i| i != 3) {
        assert!(fresh.join(format!("shard-{i:05}")).is_file(), "shard {i}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The manifest's meta section is the shard count alone. One written in
/// the older layout — the count plus three tuning words, 28 bytes — under
/// checksums that verify is refused typed, not read as a count.
#[test]
fn old_manifest_meta_is_refused() {
    use cpma_persist::snapshot::{ByteSink, SnapshotEnvelope};
    let dir = tmp_dir("old-manifest");
    let set: ShardedSet<Cpma, 4> = BatchSet::build_sorted(&(0..5_000u64).collect::<Vec<_>>());
    let path = dir.join("ckpt");
    set.save(&path).unwrap();
    let manifest = path.join("MANIFEST");
    let bytes = std::fs::read(&manifest).unwrap();
    let env = SnapshotEnvelope::from_bytes(&bytes).unwrap();
    assert_eq!(env.meta, 4u32.to_le_bytes());
    let mut meta = env.meta.to_vec();
    for word in [4u64, 4, 1024] {
        meta.put_u64(word);
    }
    assert_eq!(meta.len(), 28);
    std::fs::write(
        &manifest,
        SnapshotEnvelope { meta: &meta, ..env }.to_bytes(),
    )
    .unwrap();
    assert!(matches!(
        ShardedSet::<Cpma, 4>::load(&path),
        Err(PersistError::Corrupt(_))
    ));
    std::fs::write(&manifest, &bytes).unwrap();
    assert_eq!(
        ShardedSet::<Cpma, 4>::load(&path).unwrap().to_vec(),
        set.to_vec()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `checkpoint()` on a non-durable combiner is a typed usage error (a
/// config error on the WAL, not data damage), and `wal_sync` is an
/// explicit no-op there.
#[test]
fn non_durable_combiner_rejects_checkpoint() {
    let combiner: Combiner<Cpma> = Combiner::new(Cpma::new());
    combiner.insert(1);
    match combiner.checkpoint() {
        Err(PersistError::Config(e)) => assert_eq!(e.field, "wal"),
        other => panic!("expected a config error on the WAL, got {other:?}"),
    }
    assert!(combiner.wal_sync().is_ok());
}
