//! `service_load` — the million-user scenario harness: N loopback client
//! threads drive the TCP front door (`cpma-service`) with pipelined op
//! bursts over zipf / uniform / bursty key streams, against two servers:
//!
//! * `combiner` — the production engine: per-connection pipelines funnel
//!   through `Combiner::submit_many` over `ShardedSet<Cpma, 8>`, so the
//!   flat-combining layer turns concurrent connections into batch-parallel
//!   updates;
//! * `mutex` — the conventional baseline: the same protocol and thread
//!   model, but every op takes a global `Mutex<Cpma>` individually.
//!
//! Reports saturation throughput plus p50/p99/p999 burst round-trip
//! latency per configuration, and the combiner's epoch statistics, into
//! `BENCH_service.json`. The headline row (8 clients × 4096-op bursts) is
//! the end-to-end form of the paper's claim: batched updates through the
//! combining window beat per-op locking from the first client on.
//!
//! `--quick` runs the CI-smoke sizing; full mode builds a ≥10M-key base
//! store. `--ops`, `--base`, and `--seed` override the defaults.

use cpma_bench::ubench::Bencher;
use cpma_bench::{sci, Args, BatchOp, BatchSet};
use cpma_obs::HistSnapshot;
use cpma_pma::Cpma;
use cpma_service::{Client, Service, ServiceConfig};
use cpma_store::{Combiner, CombinerConfig, ShardedSet};
use cpma_workloads::{clustered_keys, dedup_sorted, uniform_keys, SplitMix64, ZipfGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Store = ShardedSet<Cpma, 8>;

/// Per-client op streams: keys from the named distribution, shaped into a
/// 3:1 insert:remove mix (disjoint per-client seeds, fully reproducible).
fn op_streams(dist: &str, clients: usize, ops: usize, seed: u64) -> Vec<Vec<BatchOp<u64>>> {
    (0..clients)
        .map(|t| {
            let s = seed ^ ((t as u64 + 1) << 32);
            let keys = match dist {
                "zipf" => ZipfGenerator::paper_config(s).keys(ops),
                // Bursty: runs of near-consecutive keys with large gaps —
                // auto-increment ids arriving in waves.
                "bursty" => clustered_keys(ops, 128, 1 << 30, s),
                _ => uniform_keys(ops, 34, s),
            };
            let mut rng = SplitMix64::new(s ^ 0x0b);
            keys.into_iter()
                .map(|k| {
                    if rng.next_below(4) == 0 {
                        BatchOp::Remove(k)
                    } else {
                        BatchOp::Insert(k)
                    }
                })
                .collect()
        })
        .collect()
}

enum EngineKind {
    Combiner,
    Mutex,
}

struct RunResult {
    ops_per_sec: f64,
    /// Burst round-trip latency quantiles, nanoseconds.
    p50: u64,
    p99: u64,
    p999: u64,
    epochs: u64,
    mean_ops_per_epoch: f64,
}

/// Serve `base` behind the chosen engine, drive every client stream in
/// `burst`-op pipelined publications, and collect throughput + latency.
fn run_load(
    kind: EngineKind,
    base: &[u64],
    streams: &[Vec<BatchOp<u64>>],
    burst: usize,
) -> RunResult {
    let clients = streams.len();
    // Hold the combining window open for one full wave of client bursts
    // (same tuning rule as the in-process store_throughput sweep).
    let cfg = ServiceConfig {
        workers: clients.max(1),
        read_timeout: Some(Duration::from_secs(120)),
        combiner: CombinerConfig {
            window_ops: burst.saturating_mul(clients.max(1)),
            window_wait: Duration::from_micros(200),
            ..CombinerConfig::default()
        },
        ..ServiceConfig::default()
    };

    let (mut service, combiner): (Service, Option<Arc<Combiner<Store>>>) = match kind {
        EngineKind::Combiner => {
            let (s, c) = Service::serve(Store::build_sorted(base), cfg).unwrap();
            (s, Some(c))
        }
        EngineKind::Mutex => (
            Service::serve_mutex(Cpma::build_sorted(base), cfg).unwrap(),
            None,
        ),
    };
    let addr = service.local_addr();

    let start = Instant::now();
    let hist = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .set_read_timeout(Some(Duration::from_secs(120)))
                        .unwrap();
                    let mut hist = HistSnapshot::new();
                    for chunk in stream.chunks(burst) {
                        let t0 = Instant::now();
                        let acks = client.mutate_burst(chunk).unwrap();
                        hist.record(t0.elapsed().as_nanos() as u64);
                        std::hint::black_box(acks);
                    }
                    hist
                })
            })
            .collect();
        let mut merged = HistSnapshot::new();
        for h in handles {
            merged.merge(&h.join().unwrap());
        }
        merged
    });
    let secs = start.elapsed().as_secs_f64();

    let total: usize = streams.iter().map(|s| s.len()).sum();
    let stats = combiner.as_ref().map(|c| c.stats());
    service.shutdown();
    RunResult {
        ops_per_sec: total as f64 / secs,
        p50: hist.quantile(0.50),
        p99: hist.quantile(0.99),
        p999: hist.quantile(0.999),
        epochs: stats.as_ref().map_or(0, |s| s.epochs),
        mean_ops_per_epoch: stats.as_ref().map_or(0.0, |s| s.mean_ops_per_epoch()),
    }
}

fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    // Full mode: a 10M-key base store and 100k ops per client — the
    // "millions of users" sizing. Quick mode: the CI smoke.
    let base_n: usize = args.get_or("base", if quick { 50_000 } else { 10_000_000 });
    let ops: usize = args.get_or("ops", if quick { 8_192 } else { 100_000 });
    let seed: u64 = args.get_or("seed", 42);

    let base = dedup_sorted(uniform_keys(base_n, 40, seed ^ 0xBA5E));
    let b = Bencher::new();

    let dists: &[&str] = if quick {
        &["zipf"]
    } else {
        &["zipf", "uniform", "bursty"]
    };
    let client_sweep: &[usize] = if quick { &[8] } else { &[1, 8] };
    let burst_sweep: &[usize] = if quick { &[4096] } else { &[64, 4096] };

    println!(
        "# service_load — TCP front door ops/sec over {} base keys ({ops} ops/client)",
        base.len()
    );
    println!(
        "{:>8} {:>8} {:>6} {:>9} {:>12} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "dist",
        "engine",
        "conns",
        "burst",
        "ops/sec",
        "p50_us",
        "p99_us",
        "p999_us",
        "epochs",
        "ops/epoch"
    );

    // The headline comparison the acceptance gate checks: combiner vs
    // per-op mutex at 8 clients × 4096-op bursts.
    let mut headline: (f64, f64) = (0.0, 0.0);

    for dist in dists {
        for &clients in client_sweep {
            let streams = op_streams(dist, clients, ops, seed);
            for &burst in burst_sweep {
                for (engine, kind) in [
                    ("combiner", EngineKind::Combiner),
                    ("mutex", EngineKind::Mutex),
                ] {
                    let r = run_load(kind, &base, &streams, burst);
                    if *dist == "zipf" && clients == 8 && burst == 4096 {
                        match engine {
                            "combiner" => headline.0 = r.ops_per_sec,
                            _ => headline.1 = r.ops_per_sec,
                        }
                    }
                    println!(
                        "{:>8} {:>8} {:>6} {:>9} {:>12} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>9.1}",
                        dist,
                        engine,
                        clients,
                        burst,
                        sci(r.ops_per_sec),
                        us(r.p50),
                        us(r.p99),
                        us(r.p999),
                        r.epochs,
                        r.mean_ops_per_epoch
                    );
                    println!(
                        "csv,service,{dist},{engine},{clients},{burst},{}",
                        r.ops_per_sec
                    );
                    b.record(
                        &format!("service/{dist}/{engine}"),
                        &[
                            ("dist", dist.to_string()),
                            ("engine", engine.to_string()),
                            ("clients", clients.to_string()),
                            ("burst", burst.to_string()),
                            ("ops_per_client", ops.to_string()),
                            ("base_keys", base.len().to_string()),
                            ("p50_us", format!("{:.1}", us(r.p50))),
                            ("p99_us", format!("{:.1}", us(r.p99))),
                            ("p999_us", format!("{:.1}", us(r.p999))),
                            ("epochs", r.epochs.to_string()),
                            ("mean_ops_per_epoch", format!("{:.1}", r.mean_ops_per_epoch)),
                        ],
                        if r.ops_per_sec > 0.0 {
                            1.0 / r.ops_per_sec
                        } else {
                            0.0
                        },
                    );
                }
            }
        }
    }

    if headline.1 > 0.0 {
        println!(
            "# headline (zipf, 8 clients, 4096-op bursts): combiner {} ops/s vs mutex {} ops/s — {:.2}x",
            sci(headline.0),
            sci(headline.1),
            headline.0 / headline.1
        );
    }

    b.write_json("service").expect("write BENCH_service.json");
}
