//! A concurrent batch-ingesting ordered key store — the workload class
//! the paper's introduction motivates ("applications with a large number
//! of requests in a short time, such as stream processing"), served by
//! `cpma-store`.
//!
//! Several ingest threads stream bursts of event IDs into one
//! `Combiner<ShardedSet<Cpma>>`: the flat-combining leader folds
//! concurrent bursts into one batch-parallel CPMA update per epoch, and
//! an analytics thread runs range scans against swap-published snapshots
//! without ever blocking the writers. A periodic expiry pass batch-removes
//! old events through the same front-end.
//!
//! A final durability phase checkpoints the ingested store, streams more
//! bursts through a WAL-backed combiner, "crashes" (drops the store with
//! the WAL tail unapplied to any checkpoint), and recovers — verifying
//! the recovered epoch count and contents against the pre-crash state.
//!
//! Run with: `cargo run --release --example key_store`

use cpma::prelude::*;
use cpma::workloads::SplitMix64;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Compose an event key: a coarse timestamp in the high bits, a sequence
/// number in the low bits — keys arrive roughly ordered, the CPMA's best
/// case.
fn event_key(second: u64, seq: u64) -> u64 {
    (second << 20) | (seq & 0xFFFFF)
}

const INGEST_THREADS: u64 = 4;
const SECONDS: u64 = 120;
const EVENTS_PER_THREAD_SECOND: usize = 2_500;

fn main() {
    // Dump the span journal to stderr if anything below panics — the last
    // ~1024 phase spans are usually enough to see what the store was doing.
    cpma::obs::install_panic_hook();

    // The combining leader never waits, so epochs are as big as contention
    // makes them (no arrival-rate knob to guess); the 8 shards re-learn
    // their splitters as the time-ordered keys pile into the last one; and
    // snapshots publish every epoch so every acknowledged burst is
    // immediately visible to the analytics reader.
    let store: Combiner<ShardedSet<Cpma, 8>> = Combiner::new(BatchSet::new_set());
    let ingested = AtomicUsize::new(0);
    let finished_writers = AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    let start = Instant::now();
    // Pin the batch-update fan-out to 4 threads: demo runs are then
    // shaped the same on any machine (including single-core CI, where the
    // default pool would be 1 and would never fork). A pool's size is a
    // total shared by the threads inside it, and five threads in one pool
    // of 4 would fork nothing; so each thread installs a pool of its own,
    // and whichever writer leads an epoch fans it out to 4.
    let pool = || {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    };
    std::thread::scope(|scope| {
        // --- ingest: each thread streams one burst per simulated second.
        for t in 0..INGEST_THREADS {
            let store = &store;
            let ingested = &ingested;
            let finished_writers = &finished_writers;
            scope.spawn(move || {
                pool().install(|| {
                    let mut rng = SplitMix64::new(2024 + t);
                    for second in 0..SECONDS {
                        let burst: Vec<u64> = (0..EVENTS_PER_THREAD_SECOND)
                            .map(|_| event_key(second, rng.next_below(1 << 20)))
                            .collect();
                        ingested.fetch_add(store.insert_many(&burst), Ordering::Relaxed);
                    }
                    finished_writers.fetch_add(1, Ordering::Release);
                })
            });
        }

        // --- expiry: batch-remove events older than 40 "seconds", read
        // from a snapshot, removed through the combiner like any writer.
        scope.spawn(|| {
            pool().install(|| {
                let mut expired_total = 0usize;
                while !done.load(Ordering::Acquire) {
                    let snap = store.snapshot();
                    if let Some(newest) = snap.max() {
                        let horizon = (newest >> 20).saturating_sub(40);
                        let victims: Vec<u64> = snap.range_iter(..event_key(horizon, 0)).collect();
                        let ops: Vec<_> = victims
                            .iter()
                            .map(|&k| cpma::store::Op::Remove(k))
                            .collect();
                        expired_total += store
                            .submit_many(&ops)
                            .into_iter()
                            .filter(|&removed| removed)
                            .count();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                println!("expiry: removed {expired_total} old events");
            })
        });

        // --- analytics: trailing-window scans on snapshots; never blocks
        // the ingest path.
        let reports = scope.spawn(|| {
            let mut reports = 0u32;
            while !done.load(Ordering::Acquire) {
                let snap = store.snapshot();
                if let Some(newest) = snap.max() {
                    let second = newest >> 20;
                    let window = event_key(second.saturating_sub(10), 0)..event_key(second + 1, 0);
                    let count = snap.range_iter(window.clone()).count();
                    let checksum = snap.range_sum(window);
                    if reports.is_multiple_of(16) {
                        println!(
                            "t≈{second:>3}s  trailing-10s events: {count:>6}  checksum: {checksum:#018x}"
                        );
                    }
                    reports += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            reports
        });

        // The reader loops run until every ingest thread has finished
        // (joining the scope directly would deadlock their `while !done`
        // loops, so signal them instead).
        while finished_writers.load(Ordering::Acquire) < INGEST_THREADS as usize {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        done.store(true, Ordering::Release);
        let reports = reports.join().unwrap();
        println!("analytics: {reports} snapshot reports while ingesting");
    });
    let elapsed = start.elapsed().as_secs_f64();

    let total = ingested.load(Ordering::Relaxed);
    let epochs = store.epochs_applied();
    println!("combiner: {}", store.stats().summary());
    let set = store.into_inner();
    println!("shards:   {}", set.rebalance_stats().summary());
    println!(
        "\ningested {total} unique events in {elapsed:.2}s ({:.0} acked inserts/s)",
        total as f64 / elapsed
    );
    println!(
        "combined into {epochs} epochs (~{:.0} ops per batch-parallel update)",
        (INGEST_THREADS as usize * SECONDS as usize * EVENTS_PER_THREAD_SECOND) as f64
            / epochs.max(1) as f64
    );
    println!(
        "final store: {} events, {:.2} B/event (CPMA-compressed, {} shards)",
        set.len(),
        set.size_bytes() as f64 / set.len().max(1) as f64,
        set.shard_count()
    );

    // --- durability: checkpoint → simulated crash → recover -----------
    type Store = ShardedSet<Cpma, 8>;
    println!("\n-- durability: checkpoint -> crash -> recover --");
    let wal_dir = std::env::temp_dir().join(format!("key-store-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).unwrap();
    // The ingested store becomes the log's base checkpoint (epoch 0) —
    // a shard-per-file directory with a checksummed manifest.
    let base_len = set.len();
    set.save(&wal_dir.join(format!("checkpoint-{:020}", 0)))
        .expect("checkpoint the ingested store");
    let mut wal = WalConfig::new(&wal_dir);
    wal.fsync = FsyncPolicy::EveryN(8);
    let (durable, report) = Combiner::<Store>::open_durable(CombinerConfig::default(), wal.clone())
        .expect("open durable store");
    assert_eq!(durable.snapshot().len(), base_len);
    println!(
        "opened durable store from checkpoint (epoch {}): {} events",
        report.checkpoint_seq, base_len
    );

    // Stream more bursts: each epoch's net batch hits the WAL before it
    // is applied. A mid-stream checkpoint rotates the log; everything
    // after it lives only in the WAL tail when we "crash".
    let mut rng = SplitMix64::new(0xD00D);
    let mut burst_at = |second: u64| -> Vec<u64> {
        (0..EVENTS_PER_THREAD_SECOND)
            .map(|_| event_key(second, rng.next_below(1 << 20)))
            .collect()
    };
    for second in SECONDS..SECONDS + 20 {
        durable.insert_many(&burst_at(second));
    }
    let ckpt_epoch = durable.checkpoint().expect("mid-stream checkpoint");
    for second in SECONDS + 20..SECONDS + 40 {
        durable.insert_many(&burst_at(second));
    }
    let pre_crash_epochs = durable.epochs_applied();
    let pre_crash = durable.snapshot();
    let (pre_len, pre_sum) = (pre_crash.len(), pre_crash.range_sum(..));
    println!(
        "pre-crash: {pre_crash_epochs} epochs, {pre_len} events \
         (checkpoint at epoch {ckpt_epoch}, {} epochs only in the WAL tail)",
        pre_crash_epochs - ckpt_epoch
    );
    drop(pre_crash);
    drop(durable); // simulated crash: no shutdown checkpoint

    let (recovered, report) = Combiner::<Store>::open_durable(CombinerConfig::default(), wal)
        .expect("recover after crash");
    println!(
        "recovered {} epochs: checkpoint at epoch {}, {} replayed from the WAL tail",
        report.last_seq, report.checkpoint_seq, report.replayed_records
    );
    assert_eq!(report.last_seq, pre_crash_epochs, "every acked epoch back");
    let snap = recovered.snapshot();
    assert_eq!(snap.len(), pre_len, "recovered contents match pre-crash");
    assert_eq!(snap.range_sum(..), pre_sum);
    println!(
        "recovered store matches pre-crash state: {} events, checksum {:#018x}",
        snap.len(),
        snap.range_sum(..)
    );
    drop(snap);
    drop(recovered);
    std::fs::remove_dir_all(&wal_dir).expect("clean up WAL dir");

    // --- observability: one snapshot, every layer ---------------------
    let snap = cpma::obs::global().snapshot();
    if let Some(h) = snap.histogram("combiner.epoch.ns") {
        println!(
            "\ncombiner epoch latency: p50 {:.1}µs  p99 {:.1}µs  p999 {:.1}µs  \
             (mean {:.1}µs over {} epochs)",
            h.quantile(0.5) as f64 / 1e3,
            h.quantile(0.99) as f64 / 1e3,
            h.quantile(0.999) as f64 / 1e3,
            h.mean() / 1e3,
            h.count,
        );
    }
    println!("\n-- registry snapshot (Prometheus text exposition) --");
    print!("{}", snap.to_prometheus());
    println!("\n-- event journal tail (most recent phase spans) --");
    print!("{}", cpma::obs::journal().render());
}
