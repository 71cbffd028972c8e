//! Determinism across thread counts.
//!
//! The paper's batch algorithm is deterministic by construction — leaf
//! merges are disjoint, counting reductions are integer sums, rebuild
//! offsets are precomputed — so **every** observable result must be
//! bit-identical no matter how many threads execute it. These tests run
//! the same seeded workload under thread budgets 1 (the sequential
//! oracle), 2, and 8 on every `BatchSet` backend and on the workload
//! generators, and require identical outputs.
//!
//! Budgets are pinned with `ThreadPool::install` on a fresh pool per arm.
//! A pool counts only its own threads and forks, so arms of tests running
//! side by side do not skew each other. The service round's budget
//! reaches its workers through the service, which sizes its pool by the
//! budget of the thread that starts it. A `CPMA_THREADS=1` run
//! caps all three budgets to one — the comparisons then hold trivially,
//! and the CI matrix's default-threads leg does the real cross-schedule
//! comparison.

use cpma::api::testkit::SplitMix64;
use cpma::prelude::*;
use std::collections::BTreeSet;

fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Everything a workload observes from a backend, in one comparable blob.
#[derive(Debug, PartialEq, Eq)]
struct Observations {
    contents: Vec<u64>,
    counts: Vec<usize>,
    sums: Vec<u64>,
    sizes: Vec<usize>,
    hits: Vec<bool>,
    succs: Vec<Option<u64>>,
}

/// A seeded mixed batch workload: large unsorted insert and remove batches
/// (well past the point-update cutoff, so the three-phase parallel
/// algorithm runs), a *mixed-op* batch per round (interleaved
/// inserts/removes through `apply_batch` — the single-pass pipeline on
/// PMA-family backends, parallel sort + dedup in `normalize_ops`
/// everywhere), plus range sums and len/min/max probes.
fn run_workload<S: BatchSet + RangeSet>(seed: u64) -> Observations {
    let mut rng = SplitMix64::new(seed);
    let mut s = S::new_set();
    let mut obs = Observations {
        contents: Vec::new(),
        counts: Vec::new(),
        sums: Vec::new(),
        sizes: Vec::new(),
        hits: Vec::new(),
        succs: Vec::new(),
    };
    for round in 0..6 {
        let mut ins = rng.keys(4000, 24);
        obs.counts.push(s.insert_batch(&mut ins, false));
        let mut del = rng.keys(1500, 24);
        obs.counts.push(s.remove_batch(&mut del, false));
        let mut ops: Vec<BatchOp<u64>> = rng
            .keys(3000, 24)
            .into_iter()
            .map(|k| {
                if k % 2 == 0 {
                    BatchOp::Insert(k)
                } else {
                    BatchOp::Remove(k ^ 1)
                }
            })
            .collect();
        let out = s.apply_batch(&mut ops, false);
        obs.counts.push(out.added);
        obs.counts.push(out.removed);
        let a = rng.next_bits(24);
        let b = rng.next_bits(24);
        obs.sums.push(s.range_sum(a.min(b)..=a.max(b)));
        obs.sums.push(s.range_sum(..));
        obs.sizes.push(s.len());
        // Batched point reads: sharded backends answer these with a
        // parallel per-shard fan-out, so the result order (original probe
        // order, duplicates preserved) must survive any schedule.
        let mut probes = rng.keys(600, 24);
        probes.push(0);
        probes.push(u64::MAX);
        probes.push(probes[0]);
        obs.hits.extend(s.contains_batch(&probes));
        obs.succs.extend(s.successor_batch(&probes));
        if round == 5 {
            obs.contents = s.to_vec();
        }
    }
    obs
}

fn assert_deterministic<S: BatchSet + RangeSet>(name: &str) {
    for seed in [0x5EED_0001u64, 0xD15C_0C0A] {
        let oracle = with_threads(1, || run_workload::<S>(seed));
        for threads in [2usize, 8] {
            let got = with_threads(threads, || run_workload::<S>(seed));
            assert_eq!(
                got, oracle,
                "{name}: results diverged between 1 and {threads} threads (seed {seed:#x})"
            );
        }
    }
}

#[test]
fn pma_batches_deterministic_across_thread_counts() {
    assert_deterministic::<Pma>("PMA");
}

#[test]
fn cpma_batches_deterministic_across_thread_counts() {
    assert_deterministic::<Cpma>("CPMA");
}

#[test]
fn ptree_batches_deterministic_across_thread_counts() {
    assert_deterministic::<PTree>("P-tree");
}

#[test]
fn upac_batches_deterministic_across_thread_counts() {
    assert_deterministic::<UPac>("U-PaC");
}

#[test]
fn cpac_batches_deterministic_across_thread_counts() {
    assert_deterministic::<CPac>("C-PaC");
}

#[test]
fn ctree_batches_deterministic_across_thread_counts() {
    assert_deterministic::<CTreeSet>("C-tree");
}

#[test]
fn btreeset_batches_deterministic_across_thread_counts() {
    assert_deterministic::<BTreeSet<u64>>("BTreeSet");
}

#[test]
fn sharded_cpma_batches_deterministic_across_thread_counts() {
    // The sharded wrapper adds two more schedule-sensitive layers — the
    // parallel per-shard batch application and the skew-triggered
    // rebalance — both of which must be invisible in the results: the
    // per-shard counts merge in shard index order and the rebalance
    // decision depends only on the stored contents.
    assert_deterministic::<ShardedSet<Cpma, 8>>("ShardedSet<Cpma, 8>");
    assert_deterministic::<ShardedSet<Cpma, 4>>("ShardedSet<Cpma, 4>");
    assert_deterministic::<ShardedSet<Cpma, 3>>("ShardedSet<Cpma, 3>");
    assert_deterministic::<ShardedSet<Cpma, 2>>("ShardedSet<Cpma, 2>");
}

#[test]
fn autotuned_sharded_cpma_deterministic_across_thread_counts() {
    // The shard count is the type's `N`, so the one resharding decision
    // left is the rebuild of a set loaded from a checkpoint saved at
    // another count, taken at its next batch. It reads only the stored
    // contents, so the new layout — and every result after it — must be
    // identical at every thread budget, growing (4 → 16) and shrinking
    // (32 → 2) alike.
    type Run = (Vec<usize>, Vec<u64>, Vec<usize>, RebalanceStats, Vec<u64>);
    fn run<const TO: usize>(dir: &std::path::Path, seed: u64) -> Run {
        let mut s = ShardedSet::<Cpma, TO>::load(dir).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0x5EA4);
        let mut counts = Vec::new();
        for _ in 0..3 {
            let mut ins = rng.keys(4000, 24);
            counts.push(s.insert_batch(&mut ins, false));
            let mut del = rng.keys(1500, 24);
            counts.push(s.remove_batch(&mut del, false));
        }
        assert_eq!(s.shard_count(), TO);
        let lens = s.shard_lens();
        (
            counts,
            s.splitters().to_vec(),
            lens,
            *s.rebalance_stats(),
            s.to_vec(),
        )
    }
    fn check<const FROM: usize, const TO: usize>(base: &std::path::Path) {
        for seed in [0x5EED_0001u64, 0xD15C_0C0A] {
            let dir = base.join(format!("{FROM}-{TO}-{seed:x}"));
            let _ = std::fs::remove_dir_all(&dir);
            let saved = with_threads(1, || build_history::<ShardedSet<Cpma, FROM>>(seed));
            saved.save(&dir).unwrap();
            let oracle = with_threads(1, || run::<TO>(&dir, seed));
            let stats = oracle.3;
            assert_eq!(
                (stats.grows, stats.shrinks),
                if TO > FROM { (1, 0) } else { (0, 1) },
                "{FROM} → {TO}: {}",
                stats.summary()
            );
            for threads in [2usize, 8] {
                assert_eq!(
                    with_threads(threads, || run::<TO>(&dir, seed)),
                    oracle,
                    "{FROM} → {TO} reshard diverged at {threads} threads (seed {seed:#x})"
                );
            }
        }
    }
    let base = std::env::temp_dir().join(format!("cpma-det-reshard-{}", std::process::id()));
    check::<4, 16>(&base);
    check::<32, 2>(&base);
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn combiner_deterministic_across_thread_counts() {
    // With one submitting thread, acknowledgements, final contents and
    // the epoch partitioning itself (the leader never waits, so every
    // publication is its own epoch) are a pure function of the op stream,
    // whatever the internal thread budget — and so are the publication
    // counters: which branch each epoch's catch-up took, the ops it
    // replayed and the bytes it copied (`Count`/`Bytes` cells). A tail of
    // ascending point inserts piles into the last shard until one of its
    // one-op epochs re-learns the splitters, and the next epoch's catch-up
    // falls back to a replay of that op.
    fn run(seed: u64) -> (Vec<bool>, Vec<u64>, cpma::store::CombinerStats) {
        let c: Combiner<ShardedSet<Cpma, 4>> = Combiner::new(BatchSet::new_set());
        let mut rng = SplitMix64::new(seed);
        let mut acks = Vec::new();
        for _ in 0..40 {
            let burst: Vec<cpma::store::Op<u64>> = (0..rng.next_below(200) + 1)
                .map(|_| {
                    let k = rng.next_bits(14);
                    match rng.next_below(3) {
                        0 => cpma::store::Op::Insert(k),
                        1 => cpma::store::Op::Remove(k),
                        _ => cpma::store::Op::Contains(k),
                    }
                })
                .collect();
            acks.extend(c.submit_many(&burst));
            acks.push(c.insert(rng.next_bits(14)));
        }
        for k in 0..1200 {
            acks.push(c.insert((1 << 14) + k));
        }
        assert_eq!(
            c.epochs_applied(),
            1280,
            "40 bursts + 1240 point ops, one epoch each"
        );
        let stats = c.stats();
        assert!(
            stats.publish_copied > 0 && stats.catchup_bytes > 0 && stats.publish_replayed >= 1,
            "{}",
            stats.summary()
        );
        let contents = RangeSet::to_vec(&c.into_inner());
        (acks, contents, stats)
    }
    for seed in [0xADA_0001u64, 0xADA_0002] {
        let oracle = with_threads(1, || run(seed));
        for threads in [2usize, 8] {
            let got = with_threads(threads, || run(seed));
            assert_eq!(
                got, oracle,
                "combiner diverged between 1 and {threads} threads (seed {seed:#x})"
            );
        }
    }
}

#[test]
fn service_round_trip_deterministic_across_thread_counts() {
    // A scripted single-connection op trace through the real TCP front
    // door. Reply bytes and final contents are a pure function of the op
    // stream: per-op acks replay against the epoch overlay, snapshot
    // reads are served only after the connection's earlier writes were
    // acked, and set contents are history-independent — so neither the
    // internal batch-application budget nor how TCP delivery splits the
    // pipeline into combining epochs may show through.
    fn run(seed: u64) -> (Vec<Vec<u8>>, Vec<u64>) {
        use cpma::service::{Client, Request, Service, ServiceConfig};
        let (mut service, combiner) =
            Service::serve(Cpma::new(), ServiceConfig::default()).unwrap();
        let mut client = Client::connect(service.local_addr()).unwrap();
        let mut rng = SplitMix64::new(seed);
        let mut reply_bytes: Vec<Vec<u8>> = Vec::new();
        for _ in 0..12 {
            let burst: Vec<Request> = (0..rng.next_below(150) + 1)
                .map(|_| {
                    let k = rng.next_bits(10);
                    match rng.next_below(6) {
                        0 => Request::Remove { seq: 0, key: k },
                        1 => Request::Contains { seq: 0, key: k },
                        2 => Request::RangeSum {
                            seq: 0,
                            lo: k,
                            hi: k + 64,
                        },
                        3 => Request::Scan {
                            seq: 0,
                            lo: k,
                            max: 16,
                        },
                        4 => Request::ContainsBatch {
                            seq: 0,
                            keys: rng.keys(4, 10),
                        },
                        _ => Request::Insert { seq: 0, key: k },
                    }
                })
                .collect();
            for reply in client.pipeline(burst).unwrap() {
                let mut body = Vec::new();
                reply.encode_body(&mut body);
                reply_bytes.push(body);
            }
        }
        let contents = combiner.snapshot().to_vec();
        service.shutdown();
        (reply_bytes, contents)
    }
    for seed in [0x5E2C_0001u64, 0x5E2C_0002] {
        let oracle = with_threads(1, || run(seed));
        for threads in [2usize, 8] {
            let got = with_threads(threads, || run(seed));
            assert_eq!(
                got, oracle,
                "service round trip diverged between 1 and {threads} threads (seed {seed:#x})"
            );
        }
    }
}

#[test]
fn workload_generators_deterministic_across_thread_counts() {
    // The paper's input generators are chunk-parallel with per-chunk seed
    // streams; their output must not depend on the thread count either.
    let uniform1 = with_threads(1, || cpma::workloads::uniform_keys(300_000, 40, 42));
    let rmat1 = with_threads(1, || {
        cpma::workloads::RmatGenerator::paper_config(12, 7).directed_edges(200_000)
    });
    for threads in [2usize, 8] {
        let uniform = with_threads(threads, || cpma::workloads::uniform_keys(300_000, 40, 42));
        assert_eq!(uniform, uniform1, "uniform_keys @ {threads} threads");
        let rmat = with_threads(threads, || {
            cpma::workloads::RmatGenerator::paper_config(12, 7).directed_edges(200_000)
        });
        assert_eq!(rmat, rmat1, "rmat edges @ {threads} threads");
    }
}

#[test]
fn normalize_batch_deterministic_across_thread_counts() {
    // normalize_batch is the parallel sort every unsorted wrapper routes
    // through; sorting u64s has one answer, but this pins the whole
    // pipeline (sort + dedup) across schedules.
    let mut rng = SplitMix64::new(0xBA7C4);
    let input = rng.keys(250_000, 18); // dense: plenty of duplicates
    let oracle = with_threads(1, || {
        let mut v = input.clone();
        normalize_batch(&mut v).to_vec()
    });
    for threads in [2usize, 8] {
        let got = with_threads(threads, || {
            let mut v = input.clone();
            normalize_batch(&mut v).to_vec()
        });
        assert_eq!(got, oracle, "normalize_batch @ {threads} threads");
    }
}

#[test]
fn normalize_ops_deterministic_across_thread_counts() {
    // normalize_ops leans on the *stable* parallel sort: with heavy
    // same-key duplication, last-op-wins dedup must pick the same op at
    // every thread count (submission order, not schedule order).
    let mut rng = SplitMix64::new(0x0B5C4);
    let input: Vec<BatchOp<u64>> = (0..200_000)
        .map(|_| {
            let k = rng.next_bits(12); // ~4k distinct keys: long same-key runs
            if rng.chance(1, 2) {
                BatchOp::Insert(k)
            } else {
                BatchOp::Remove(k)
            }
        })
        .collect();
    let oracle = with_threads(1, || {
        let mut v = input.clone();
        normalize_ops(&mut v).to_vec()
    });
    assert!(oracle.windows(2).all(|w| w[0].key() < w[1].key()));
    for threads in [2usize, 8] {
        let got = with_threads(threads, || {
            let mut v = input.clone();
            normalize_ops(&mut v).to_vec()
        });
        assert_eq!(got, oracle, "normalize_ops @ {threads} threads");
    }
}

/// All files of a checkpoint/WAL directory as `(name, bytes)`, sorted —
/// the unit of byte-identity for directory-shaped persistence.
fn dir_image(path: &std::path::Path) -> Vec<(String, Vec<u8>)> {
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

/// A seeded batch history for the snapshot-determinism tests: both batch
/// directions plus a mixed pass, all above the point-update cutoff.
fn build_history<S: BatchSet>(seed: u64) -> S {
    let mut rng = SplitMix64::new(seed);
    let mut s = S::new_set();
    for _ in 0..4 {
        let mut ins = rng.keys(4000, 24);
        s.insert_batch(&mut ins, false);
        let mut del = rng.keys(1500, 24);
        s.remove_batch(&mut del, false);
        let mut ops: Vec<BatchOp<u64>> = rng
            .keys(2000, 24)
            .into_iter()
            .map(|k| {
                if k % 2 == 0 {
                    BatchOp::Insert(k)
                } else {
                    BatchOp::Remove(k ^ 1)
                }
            })
            .collect();
        s.apply_batch(&mut ops, false);
    }
    s
}

#[test]
fn snapshot_images_bit_identical_across_thread_counts() {
    // A snapshot is the raw byte view of the PMA's backing arrays —
    // including the slack past each leaf's used prefix — so byte
    // identity here proves every array write of the batch pipeline is
    // deterministic, a strictly stronger claim than equal contents.
    for seed in [0x5EED_0001u64, 0xD15C_0C0A] {
        let pma = with_threads(1, || build_history::<Pma>(seed).to_snapshot_bytes());
        let cpma = with_threads(1, || build_history::<Cpma>(seed).to_snapshot_bytes());
        for threads in [2usize, 8] {
            let p = with_threads(threads, || build_history::<Pma>(seed).to_snapshot_bytes());
            assert_eq!(p, pma, "Pma image @ {threads} threads (seed {seed:#x})");
            let c = with_threads(threads, || build_history::<Cpma>(seed).to_snapshot_bytes());
            assert_eq!(c, cpma, "Cpma image @ {threads} threads (seed {seed:#x})");
        }
        // Load → re-save is the identity on bytes (canonical images).
        let back = cpma::pma::Cpma::from_snapshot_bytes(&cpma).unwrap();
        assert_eq!(back.to_snapshot_bytes(), cpma);
    }
}

#[test]
fn hybrid_codec_images_bit_identical_on_clustered_keys() {
    // Clustered runs push the CPMA through its hybrid machinery: dense
    // leaves adopt the bitmap encoding, removals flip them back, and the
    // wordwise merge paths run alongside the scalar ones. The per-leaf
    // codec choice is part of the snapshot image, so it must be exactly as
    // schedule-independent as the element contents.
    fn build(seed: u64) -> cpma::pma::Cpma {
        let keys = cpma::workloads::clustered_keys(40_000, 96, 1 << 22, seed);
        let mut s = cpma::pma::Cpma::new();
        for chunk in keys.chunks(5_000) {
            let mut batch = chunk.to_vec();
            s.insert_batch(&mut batch, false);
        }
        // Thin out some runs so leaves cross the codec threshold in both
        // directions across redistributes.
        let mut rng = SplitMix64::new(seed ^ 0xF11);
        let mut del: Vec<u64> = keys.iter().copied().filter(|_| rng.chance(1, 3)).collect();
        s.remove_batch(&mut del, false);
        let mut ops: Vec<BatchOp<u64>> = keys
            .iter()
            .take(8_000)
            .map(|&k| {
                if k % 2 == 0 {
                    BatchOp::Insert(k)
                } else {
                    BatchOp::Remove(k)
                }
            })
            .collect();
        s.apply_batch(&mut ops, false);
        s
    }
    for seed in [0xC1D5_0001u64, 0xC1D5_0002] {
        let oracle = with_threads(1, || build(seed).to_snapshot_bytes());
        for threads in [2usize, 8] {
            let got = with_threads(threads, || build(seed).to_snapshot_bytes());
            assert_eq!(
                got, oracle,
                "hybrid Cpma image @ {threads} threads (seed {seed:#x})"
            );
        }
        // Canonical image: load → re-save is the identity here too.
        let back = cpma::pma::Cpma::from_snapshot_bytes(&oracle).unwrap();
        assert_eq!(back.to_snapshot_bytes(), oracle);
        back.check_invariants();
    }
}

#[test]
fn sharded_checkpoint_dirs_bit_identical_across_thread_counts() {
    // Shard-per-file checkpoints add the parallel per-shard batch
    // application and the skew rebalance to the byte-identity claim.
    let base = std::env::temp_dir().join(format!("cpma-det-sharded-{}", std::process::id()));
    let save_image = |threads: usize, seed: u64| {
        let dir = base.join(format!("t{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let set = with_threads(threads, || build_history::<ShardedSet<Cpma, 4>>(seed));
        set.save(&dir).unwrap();
        dir_image(&dir)
    };
    for seed in [0x5EED_0001u64, 0xD15C_0C0A] {
        let oracle = save_image(1, seed);
        for threads in [2usize, 8] {
            assert_eq!(
                save_image(threads, seed),
                oracle,
                "sharded checkpoint @ {threads} threads (seed {seed:#x})"
            );
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn durable_combiner_wal_and_recovery_bit_identical_across_thread_counts() {
    // The full save/log/replay round: one seeded op stream through a
    // durable combiner must leave byte-identical WAL segments and
    // publication counters at every internal thread budget, and replaying
    // the segments (one merged batch per segment) must rebuild identical
    // contents and, saved shard by shard in parallel, identical bytes.
    let base = std::env::temp_dir().join(format!("cpma-det-wal-{}", std::process::id()));
    let run = |threads: usize, seed: u64| {
        let dir = base.join(format!("t{threads}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = WalConfig::new(&dir);
        wal.fsync = FsyncPolicy::Never;
        wal.rotate_bytes = u64::MAX;
        with_threads(threads, || {
            let (c, report) =
                Combiner::<ShardedSet<Cpma, 4>>::open_durable(CombinerConfig::default(), wal)
                    .unwrap();
            assert_eq!(report.last_seq, 0);
            let mut rng = SplitMix64::new(seed);
            for _ in 0..12 {
                let burst: Vec<cpma::store::Op<u64>> = (0..rng.next_below(300) + 8)
                    .map(|_| {
                        let k = rng.next_bits(12);
                        if rng.chance(1, 3) {
                            cpma::store::Op::Remove(k)
                        } else {
                            cpma::store::Op::Insert(k)
                        }
                    })
                    .collect();
                c.submit_many(&burst);
            }
            let stats = c.stats();
            drop(c);
            let (set, report) = cpma::persist::recover::<ShardedSet<Cpma, 4>>(&dir).unwrap();
            assert_eq!(report.last_seq, 12);
            assert!(!report.truncated_tail);
            let saved = base.join(format!("recovered-t{threads}"));
            let _ = std::fs::remove_dir_all(&saved);
            set.save(&saved).unwrap();
            (dir_image(&dir), set.to_vec(), dir_image(&saved), stats)
        })
    };
    for seed in [0xD04A_0001u64, 0xD04A_0002] {
        let oracle = run(1, seed);
        for threads in [2usize, 8] {
            assert_eq!(
                run(threads, seed),
                oracle,
                "durable combiner @ {threads} threads (seed {seed:#x})"
            );
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}
