//! `store_throughput` — end-to-end throughput of the concurrent store
//! front-end (`cpma-store`), the "batches beat points under contention"
//! measurement.
//!
//! Sweeps writer-thread count × combining-window size × shard count on
//! zipfian and uniform key streams, comparing:
//!
//! * `combiner` — `Combiner<ShardedSet<Cpma, N>>`: every writer submits
//!   point ops, the flat-combining leader turns them into one
//!   batch-parallel update per epoch;
//! * `mutex_point` — the classic alternative: one `Mutex<Cpma>`, every
//!   writer locks and applies a point update (the regime the paper's
//!   Figure 1 shows losing by orders of magnitude once batching wins).
//!
//! Prints the usual human table + `csv,` lines and emits
//! `BENCH_store.json` with one entry per configuration.
//!
//! Defaults are laptop-scale; `--ops` scales the per-writer stream.

use cpma_bench::ubench::Bencher;
use cpma_bench::{sci, Args, OrderedSet};
use cpma_pma::Cpma;
use cpma_store::{Combiner, CombinerConfig, CombinerStats, ShardedSet, WindowPolicy};
use cpma_workloads::{uniform_keys, SplitMix64, ZipfGenerator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-writer op streams for one configuration (disjoint seeds per
/// writer so streams differ but the workload is reproducible).
fn streams(dist: &str, writers: usize, ops: usize, seed: u64) -> Vec<Vec<u64>> {
    (0..writers)
        .map(|t| {
            let s = seed ^ ((t as u64 + 1) << 32);
            match dist {
                "zipf" => ZipfGenerator::paper_config(s).keys(ops),
                _ => uniform_keys(ops, 34, s),
            }
        })
        .collect()
}

/// Drive `ops` point inserts per writer through the combiner; returns
/// ops/second of wall-clock.
fn run_combiner<const N: usize>(base: &[u64], streams: &[Vec<u64>], window: usize) -> (f64, u64) {
    // window == 1 is reactive flat combining (drain whatever is pending,
    // never wait); larger windows hold the epoch open briefly to build
    // bigger batches.
    let cfg = CombinerConfig {
        window_ops: window,
        window_wait: if window > 1 {
            Duration::from_micros(50)
        } else {
            Duration::ZERO
        },
        ..CombinerConfig::default()
    };
    let store: Combiner<ShardedSet<Cpma, N>> =
        Combiner::with_config(cpma_bench::BatchSet::build_sorted(base), cfg);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in streams {
            let store = &store;
            scope.spawn(move || {
                for &k in stream {
                    store.insert(k);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    (total as f64 / secs, store.epochs_applied())
}

/// Same epochs, but each writer submits `burst`-sized publications —
/// the stream-ingest regime where combined batches stay large.
fn run_combiner_burst<const N: usize>(
    base: &[u64],
    streams: &[Vec<u64>],
    burst: usize,
) -> (f64, u64) {
    // Hold each epoch open until every writer's burst has landed (or a
    // short timeout passes) — with a zero window the first writer to
    // wake would seal an epoch around just its own burst.
    let cfg = CombinerConfig {
        window_ops: burst.saturating_mul(streams.len()),
        window_wait: Duration::from_micros(200),
        ..CombinerConfig::default()
    };
    let store: Combiner<ShardedSet<Cpma, N>> =
        Combiner::with_config(cpma_bench::BatchSet::build_sorted(base), cfg);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in streams {
            let store = &store;
            scope.spawn(move || {
                for chunk in stream.chunks(burst) {
                    store.insert_many(chunk);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    (total as f64 / secs, store.epochs_applied())
}

/// Shared harness of the reader-heavy sweep: spawn one background
/// writer per stream (each looping `write_chunk` over 1024-key chunks
/// until stopped), then time `readers` threads each issuing `probes`
/// point probes; returns reader probes/second. The two variants below
/// differ only in how they build the store and what one write/probe is.
fn reader_probe_harness(
    streams: &[Vec<u64>],
    readers: usize,
    probes: usize,
    seed: u64,
    write_chunk: impl Fn(&[u64]) + Sync,
    probe: impl Fn(u64) -> bool + Sync,
) -> f64 {
    let stop = AtomicBool::new(false);
    let mut probed = 0.0;
    std::thread::scope(|scope| {
        for stream in streams {
            let (write_chunk, stop) = (&write_chunk, &stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for chunk in stream.chunks(1024) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        write_chunk(chunk);
                    }
                }
            });
        }
        let start = Instant::now();
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let probe = &probe;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ ((r as u64 + 1) << 40));
                    let mut hits = 0usize;
                    for _ in 0..probes {
                        hits += usize::from(probe(rng.next_below(1 << 34)));
                    }
                    hits
                })
            })
            .collect();
        let mut total_hits = 0usize;
        for h in handles {
            total_hits += h.join().unwrap();
        }
        let secs = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        std::hint::black_box(total_hits);
        probed = (readers * probes) as f64 / secs;
    });
    probed
}

/// Reader-heavy sweep, combiner side: every probe takes the published
/// snapshot — the wait-free read path under write pressure.
fn run_snapshot_readers<const N: usize>(
    base: &[u64],
    streams: &[Vec<u64>],
    readers: usize,
    probes: usize,
    seed: u64,
) -> f64 {
    let cfg = CombinerConfig {
        window_ops: 1024 * streams.len().max(1),
        window_wait: Duration::from_micros(200),
        ..CombinerConfig::default()
    };
    let store: Combiner<ShardedSet<Cpma, N>> =
        Combiner::with_config(cpma_bench::BatchSet::build_sorted(base), cfg);
    reader_probe_harness(
        streams,
        readers,
        probes,
        seed,
        |chunk| {
            store.insert_many(chunk);
        },
        |k| store.snapshot().contains(k),
    )
}

/// Reader-heavy sweep, baseline side: same writer load and probe count,
/// but every reader (and writer) goes through one `Mutex<Cpma>`.
fn run_mutex_readers(
    base: &[u64],
    streams: &[Vec<u64>],
    readers: usize,
    probes: usize,
    seed: u64,
) -> f64 {
    let store = Mutex::new(Cpma::from_sorted(base));
    reader_probe_harness(
        streams,
        readers,
        probes,
        seed,
        |chunk| {
            for &k in chunk {
                store.lock().unwrap().insert(k);
            }
        },
        |k| store.lock().unwrap().has(k),
    )
}

/// The window-policy sweep's traffic shapes.
#[derive(Clone, Copy, PartialEq)]
enum Traffic {
    /// Continuous burst publications, no idle gaps.
    Steady,
    /// Alternating regimes — back-to-back burst publications, then a
    /// sparse stretch of isolated point ops with inter-op idle gaps.
    /// No single fixed window fits both halves: a long wait wastes the
    /// sparse stretch, a reactive drain fragments the bursts.
    Bursty,
}

/// Drive the writers' streams through a combiner under `cfg`, shaping
/// arrivals per `traffic`; returns ops/sec of wall clock plus the
/// combiner's seal statistics.
///
/// Bursty shape, per writer: 8 × `burst`-op publications back to back,
/// then 32 point ops separated by a seeded ~150–200 µs idle gap, repeat.
fn run_policy(
    base: &[u64],
    streams: &[Vec<u64>],
    cfg: CombinerConfig,
    burst: usize,
    traffic: Traffic,
    seed: u64,
) -> (f64, CombinerStats) {
    let store: Combiner<ShardedSet<Cpma, 8>> =
        Combiner::with_config(cpma_bench::BatchSet::build_sorted(base), cfg);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (t, stream) in streams.iter().enumerate() {
            let store = &store;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(seed ^ ((t as u64 + 1) << 24));
                let mut i = 0usize;
                while i < stream.len() {
                    // Burst regime: 8 publications of `burst` ops.
                    for _ in 0..8 {
                        let hi = (i + burst).min(stream.len());
                        if i >= hi {
                            break;
                        }
                        store.insert_many(&stream[i..hi]);
                        i = hi;
                    }
                    if traffic == Traffic::Steady {
                        continue;
                    }
                    // Sparse regime: isolated point ops with idle gaps.
                    for _ in 0..32 {
                        if i >= stream.len() {
                            break;
                        }
                        store.insert(stream[i]);
                        i += 1;
                        std::thread::sleep(Duration::from_micros(150 + rng.next_below(50)));
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    (total as f64 / secs, store.stats())
}

/// The Fixed-vs-Adaptive window-policy candidates: hand-tuned fixed
/// windows spanning the reasonable range, and the self-tuning adaptive
/// policy with its out-of-the-box defaults.
fn policy_candidates(burst: usize, writers: usize) -> Vec<(&'static str, CombinerConfig)> {
    let fixed = |window_ops: usize, wait_us: u64| CombinerConfig {
        policy: WindowPolicy::Fixed,
        window_ops,
        window_wait: Duration::from_micros(wait_us),
        ..CombinerConfig::default()
    };
    vec![
        // Reactive: drain whatever is pending, never wait.
        ("fixed_reactive", fixed(1, 0)),
        // Tuned for one full wave of publications (the best static
        // choice for the burst regime).
        ("fixed_wave", fixed(burst * writers.max(1), 300)),
        // A middle-ground static window.
        ("fixed_mid", fixed(64, 50)),
        ("adaptive", CombinerConfig::adaptive()),
    ]
}

/// The contended baseline: every writer locks the whole set per op.
fn run_mutex_point(base: &[u64], streams: &[Vec<u64>]) -> f64 {
    let store = Mutex::new(Cpma::from_sorted(base));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for stream in streams {
            let store = &store;
            scope.spawn(move || {
                for &k in stream {
                    store.lock().unwrap().insert(k);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    total as f64 / secs
}

#[allow(clippy::too_many_arguments)]
fn report(
    b: &Bencher,
    name: &str,
    dist: &str,
    writers: usize,
    window: usize,
    shards: usize,
    ops: usize,
    throughput: f64,
) {
    println!("csv,store,{dist},{name},{writers},{window},{shards},{throughput}");
    b.record(
        &format!("store/{dist}/{name}"),
        &[
            ("dist", dist.to_string()),
            ("writers", writers.to_string()),
            ("window", window.to_string()),
            ("shards", shards.to_string()),
            ("ops_per_writer", ops.to_string()),
        ],
        if throughput > 0.0 {
            1.0 / throughput
        } else {
            0.0
        },
    );
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let ops: usize = args.get_or("ops", if quick { 3_000 } else { 30_000 });
    let base_n: usize = args.get_or("base", if quick { 60_000 } else { 1_000_000 });
    let seed: u64 = args.get_or("seed", 42);

    // The pre-built base set: large enough that point updates pay the
    // PMA's redistribution cost while batches amortize it — the regime
    // the store front-end exists for.
    let base = cpma_workloads::dedup_sorted(uniform_keys(base_n, 34, seed ^ 0xBA5E));

    let b = Bencher::new();
    // `--policy-only` runs just the window-policy sweep (fast iteration
    // on combining policies; the JSON then contains only those entries).
    let policy_only = args.flag("policy-only");
    let writer_sweep: &[usize] = if quick { &[2] } else { &[1, 4, 8] };
    let window_sweep: &[usize] = if quick { &[1] } else { &[1, 64] };
    let burst_sweep: &[usize] = if quick { &[256] } else { &[256, 4096] };
    let reader_sweep: &[usize] = if quick { &[2] } else { &[1, 4, 8] };
    let probes: usize = args.get_or("probes", if quick { 5_000 } else { 100_000 });

    if !policy_only {
        println!(
            "# store_throughput — concurrent front-end ops/sec ({ops} ops/writer, {} base elements)",
            base.len()
        );
        println!(
            "{:>8} {:>8} {:>8} {:>7} {:>12} {:>12}  {:>8}",
            "dist", "writers", "window", "shards", "combiner", "mutex_pt", "epochs"
        );
    }
    for dist in if policy_only {
        &[][..]
    } else {
        &["zipf", "uniform"][..]
    } {
        for &writers in writer_sweep {
            let streams = streams(dist, writers, ops, seed);
            let mutex = run_mutex_point(&base, &streams);
            report(&b, "mutex_point", dist, writers, 0, 1, ops, mutex);
            // Burst ingest: writers publish `burst`-op publications; the
            // combined epoch batch grows with both burst size and writer
            // count — the regime where batch-parallel updates pull away
            // from the point-locked baseline.
            for &burst in burst_sweep {
                let (burst_tp, burst_epochs) = run_combiner_burst::<8>(&base, &streams, burst);
                report(
                    &b,
                    &format!("combiner_burst{burst}"),
                    dist,
                    writers,
                    burst,
                    8,
                    ops,
                    burst_tp,
                );
                println!(
                    "{:>8} {:>8} {:>8} {:>7} {:>12} {:>12}  {:>8}  (burst {burst})",
                    dist,
                    writers,
                    "-",
                    8,
                    sci(burst_tp),
                    sci(mutex),
                    burst_epochs
                );
            }
            for &window in window_sweep {
                // Shard-count sweep (const generic, so enumerated).
                for (shards, tp, epochs) in [
                    {
                        let (tp, e) = run_combiner::<1>(&base, &streams, window);
                        (1usize, tp, e)
                    },
                    {
                        let (tp, e) = run_combiner::<8>(&base, &streams, window);
                        (8usize, tp, e)
                    },
                ] {
                    report(&b, "combiner", dist, writers, window, shards, ops, tp);
                    println!(
                        "{:>8} {:>8} {:>8} {:>7} {:>12} {:>12}  {:>8}",
                        dist,
                        writers,
                        window,
                        shards,
                        sci(tp),
                        sci(mutex),
                        epochs
                    );
                }
            }
        }
    }

    // Window-policy sweep: the same writer streams shaped as bursty or
    // steady arrivals, run under hand-tuned Fixed windows vs the
    // self-tuning Adaptive policy. The claim under test (and asserted by
    // docs/TUNING.md): Adaptive ≥ the best Fixed window on bursty
    // traffic and within noise of it on steady traffic, with no
    // arrival-rate knob to guess.
    let policy_writers: usize = if quick { 2 } else { 4 };
    let policy_burst: usize = 64;
    println!(
        "# window-policy sweep — ops/sec at {policy_writers} writers \
         (burst {policy_burst}; bursty = burst waves + sparse point-op stretches)"
    );
    println!(
        "{:>8} {:>8} {:>16} {:>12}  combiner stats",
        "dist", "traffic", "policy", "ops/sec"
    );
    for dist in ["zipf", "uniform"] {
        let streams = streams(dist, policy_writers, ops, seed ^ 0xB0A7);
        for (traffic, tname) in [(Traffic::Bursty, "bursty"), (Traffic::Steady, "steady")] {
            for (policy, cfg) in policy_candidates(policy_burst, policy_writers) {
                let (tp, stats) = run_policy(&base, &streams, cfg, policy_burst, traffic, seed);
                println!("csv,store,{dist},policy_{tname}_{policy},{policy_writers},{tp}");
                b.record(
                    &format!("store/{dist}/policy/{tname}/{policy}"),
                    &[
                        ("dist", dist.to_string()),
                        ("traffic", tname.to_string()),
                        ("policy", policy.to_string()),
                        ("writers", policy_writers.to_string()),
                        ("burst", policy_burst.to_string()),
                        ("ops_per_writer", ops.to_string()),
                        (
                            "mean_ops_per_epoch",
                            format!("{:.1}", stats.mean_ops_per_epoch()),
                        ),
                    ],
                    if tp > 0.0 { 1.0 / tp } else { 0.0 },
                );
                println!(
                    "{:>8} {:>8} {:>16} {:>12}  {}",
                    dist,
                    tname,
                    policy,
                    sci(tp),
                    stats.summary()
                );
            }
        }
    }

    // Reader-heavy sweep (fixed writer load of 2 burst-ingesting
    // writers): the combiner's wait-free snapshot readers vs readers
    // that must share the `Mutex<Cpma>` with the writers. This is the
    // read-path half of the store's value proposition — snapshot reads
    // never block behind a writing leader.
    let reader_writers = 2usize.min(writer_sweep[writer_sweep.len() - 1]);
    if !policy_only {
        println!(
            "# reader sweep — reader probes/sec at {reader_writers} background writers \
             ({probes} probes/reader)"
        );
        println!(
            "{:>8} {:>8} {:>14} {:>14}",
            "dist", "readers", "snapshot", "mutex_rd"
        );
    }
    for dist in if policy_only {
        &[][..]
    } else {
        &["zipf", "uniform"][..]
    } {
        let streams = streams(dist, reader_writers, ops, seed ^ 0x5EAD);
        for &readers in reader_sweep {
            let snap = run_snapshot_readers::<8>(&base, &streams, readers, probes, seed);
            let mutex_rd = run_mutex_readers(&base, &streams, readers, probes, seed);
            for (name, tp) in [("readers_snapshot", snap), ("readers_mutex", mutex_rd)] {
                println!("csv,store,{dist},{name},{readers},{tp}");
                b.record(
                    &format!("store/{dist}/{name}"),
                    &[
                        ("dist", dist.to_string()),
                        ("readers", readers.to_string()),
                        ("writers", reader_writers.to_string()),
                        ("probes", probes.to_string()),
                    ],
                    if tp > 0.0 { 1.0 / tp } else { 0.0 },
                );
            }
            println!(
                "{:>8} {:>8} {:>14} {:>14}",
                dist,
                readers,
                sci(snap),
                sci(mutex_rd)
            );
        }
    }
    b.write_json("store").expect("write BENCH_store.json");
}
