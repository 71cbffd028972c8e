//! The `service_mixed` workload: a durable `Service` over
//! `ShardedSet<Cpma, 8>`, driven by two loopback connections.
//!
//! Each connection owns one half of the key space (so every reply is
//! determined by that connection's own script and the oracle is exact),
//! and the two run half a cycle apart: while connection 0 writes,
//! connection 1 reads, then they swap. Snapshot reads therefore run beside
//! the other connection's writes, in the same combiner, the same shards
//! and the same WAL. Every request is timed at the client.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use cpma::api::{BatchOp, BatchSet, OrderedSet, RangeSet};
use cpma::persist::{FsyncPolicy, WalConfig};
use cpma::pma::Cpma;
use cpma::service::{proto, Client, Service, ServiceConfig};
use cpma::store::{Combiner, CombinerConfig, Op, ShardedSet};

use crate::calib::Calibrator;
use crate::inproc::Rec;
use crate::inputs::{self, Batch, KeyShape, Plan, Sizes};
use crate::obsd::{ObsDelta, ObsPoint};
use crate::report::{Checks, Samples};
use crate::spans::Tracer;
use crate::stats;

/// The served structure: the store's default shard count over the CPMA.
pub type Store = ShardedSet<Cpma, 8>;

/// Connections (and service workers): the box has two cores.
pub const CONNS: usize = 2;
/// Keys per `insert_many` call of the durable base ingest.
const INGEST_CHUNK: usize = 100_000;
/// Keys per `Client::scan` page at full size: the server's default scan
/// limit (smaller runs use smaller pages, see `ServiceRun::setup`).
const SCAN_PAGE: usize = 64 * 1024;

/// Range queries and lookup chunks per reader round (and one scan page):
/// about the same client time for each of the three read types.
const READ_ROUND: usize = 8;

/// Request types, in the order their times are kept.
const WRITE: usize = 0;
const BULK: usize = 1;
const RANGE: usize = 2;
const SCAN: usize = 3;
const LOOKUP: usize = 4;
const TYPES: usize = 5;

/// What one connection measured in one repetition.
#[derive(Default)]
struct ConnOut {
    /// Client-observed seconds and items moved, per request type.
    secs: [f64; TYPES],
    items: [u64; TYPES],
    burst_us: Vec<f64>,
    bulk_ms: Vec<f64>,
    checks: Checks,
}

pub struct ServiceRun {
    /// One plan per connection: connection 0 owns the lower half of the
    /// universe and writes first, connection 1 the upper half and reads
    /// first (its reads see the base).
    plans: Vec<Plan>,
    sizes: Sizes,
    dir: PathBuf,
    pub gen_s: f64,
    /// `(count, wrapping sum)` of the base and of the final contents.
    base_total: (u64, u64),
    final_total: (u64, u64),
    /// Keys per `Client::scan` page.
    scan_page: u32,
    pub cal: Calibrator,
}

fn wal_config(dir: &Path) -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::new(dir)
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: CONNS,
        ..ServiceConfig::default()
    }
}

fn to_ops(raw: &[BatchOp<u64>]) -> Vec<Op<u64>> {
    raw.iter()
        .map(|op| match *op {
            BatchOp::Insert(k) => Op::Insert(k),
            BatchOp::Remove(k) => Op::Remove(k),
        })
        .collect()
}

fn total(plans: &[Plan], f: impl Fn(&Plan) -> (u64, u64)) -> (u64, u64) {
    plans
        .iter()
        .map(f)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1.wrapping_add(b.1)))
}

impl ServiceRun {
    pub fn setup(sizes: Sizes, seed: u64, tmp: &Path) -> (Self, Checks) {
        let u = inputs::universe(KeyShape::Uniform, &sizes, seed);
        let mid = u.keys.len() / 2;
        let plans = vec![
            inputs::plan(&u, KeyShape::Uniform, 0..mid, &sizes, seed ^ 0xC0, false),
            inputs::plan(
                &u,
                KeyShape::Uniform,
                mid..u.keys.len(),
                &sizes,
                seed ^ 0xC1,
                true,
            ),
        ];
        let scan_page = SCAN_PAGE.min(sizes.universe / 16).max(1);
        let mut this = ServiceRun {
            base_total: total(&plans, |p| {
                (
                    p.base.len() as u64,
                    p.base.iter().fold(0u64, |s, &k| s.wrapping_add(k)),
                )
            }),
            final_total: total(&plans, |p| (p.final_len, p.final_sum)),
            plans,
            sizes,
            dir: tmp.join("wal"),
            gen_s: u.gen_s,
            scan_page: scan_page as u32,
            cal: Calibrator::new(),
        };
        drop(u);
        this.repetition(&mut Tracer::disabled(), 10, None);
        (this, Checks::default())
    }

    /// Numbers that must repeat when the same seed is set up again.
    pub fn identity(&self) -> [u64; 3] {
        [self.base_total.0, self.final_total.0, self.final_total.1]
    }

    /// Durable base ingest: `open_durable` on an empty directory,
    /// `insert_many` in chunks, `checkpoint()`. Returns the seconds of the
    /// ingest, of the closing checkpoint (fsyncs: the sandbox disk's time,
    /// kept out of the end-to-end number), the keys sent and the keys the
    /// combiner acknowledged as new.
    fn ingest(&self, t: &mut Tracer, div: usize) -> (f64, f64, usize, usize) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let mut keys = 0usize;
        let mut added = 0usize;
        let t0 = Instant::now();
        let (comb, _) = t
            .call("Combiner::open_durable", || {
                Combiner::<Store>::open_durable(CombinerConfig::default(), wal_config(&self.dir))
            })
            .expect("open an empty WAL directory");
        for p in &self.plans {
            let base = &p.base[..(p.base.len() / div).max(1)];
            for chunk in base.chunks(INGEST_CHUNK) {
                added += t.call("Combiner::insert_many", || comb.insert_many(chunk));
                keys += chunk.len();
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let ok = t.call("Combiner::checkpoint", || comb.checkpoint()).is_ok();
        let checkpoint_s = t0.elapsed().as_secs_f64() - secs;
        drop(comb);
        (secs, checkpoint_s, keys, if ok { added } else { 0 })
    }

    pub fn repetition(&mut self, t: &mut Tracer, div: usize, rec: Option<&mut Rec>) {
        let mut chk = if rec.is_some() {
            Checks::default()
        } else {
            Checks::silent()
        };
        let mut e2e: Vec<(&'static str, f64)> = Vec::new();
        let mut layer: Vec<(&'static str, f64)> = Vec::new();
        let traced = t.enabled();
        let check = div == 1;

        // Phase seconds are calibrated as in the in-process workloads; the
        // reference kernel runs on this thread while the others are idle.
        self.cal.sample();

        // build: durable base ingest
        // (library timing stays off during the ingest so that the traced
        // run's epoch histogram holds only the mixed phase's epochs)
        let phase = t.enter("phase.build");
        cpma::obs::set_timing_enabled(false);
        let (build_s, checkpoint_s, keys, added) = self.ingest(t, div);
        cpma::obs::set_timing_enabled(traced);
        t.exit(phase);
        let k = self.cal.factor();
        let build_s = build_s * k;
        layer.push(("persist.checkpoint_ms", checkpoint_s * k * 1e3));
        chk.record(
            "base ingest acks",
            keys as u64,
            (keys - added.min(keys)) as u64,
        );
        e2e.push(("build_keys_per_s", keys as f64 / build_s));
        layer.push(("pma.build_s", build_s));

        // serve what was ingested (recovery from the checkpoint, untimed
        // here; the restore phase times it)
        let obs0 = ObsPoint::take(traced);
        let (mut svc, comb, _) =
            Service::serve_durable::<Store>(service_config(), wal_config(&self.dir))
                .expect("serve the ingested directory");
        let addr = svc.local_addr();

        // mixed phase: both connections, half a cycle apart
        let phase = t.enter("phase.mixed");
        let barrier = Barrier::new(CONNS);
        let done = [AtomicBool::new(false), AtomicBool::new(false)];
        let outs: Vec<(ConnOut, Tracer)> = std::thread::scope(|sc| {
            let handles: Vec<_> = self
                .plans
                .iter()
                .enumerate()
                .map(|(c, plan)| {
                    let tr = t.fork(c as u32 + 1);
                    let (sync, sizes, page) = ((&barrier, &done), &self.sizes, self.scan_page);
                    sc.spawn(move || drive(c, addr, plan, sizes, page, div, check, sync, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        t.exit(phase);
        let k = self.cal.factor();
        let obs1 = ObsPoint::take(traced);

        let mut secs = [0.0; TYPES];
        let mut items = [0u64; TYPES];
        let mut burst_us = Vec::new();
        let mut bulk_ms = Vec::new();
        for (o, tr) in outs {
            for ty in 0..TYPES {
                secs[ty] += o.secs[ty] * k;
                items[ty] += o.items[ty];
            }
            burst_us.extend(o.burst_us.iter().map(|l| l * k));
            bulk_ms.extend(o.bulk_ms.iter().map(|l| l * k));
            chk.merge(o.checks);
            t.absorb(tr);
        }
        let per_s = |ty: usize| items[ty] as f64 / (secs[ty] / CONNS as f64);
        e2e.push(("write_ops_per_s", per_s(WRITE)));
        e2e.push(("bulk_ops_per_s", per_s(BULK)));
        e2e.push(("range_elems_per_s", per_s(RANGE)));
        e2e.push(("scan_elems_per_s", per_s(SCAN)));
        e2e.push(("lookup_keys_per_s", per_s(LOOKUP)));
        layer.push(("service.write_burst_us", stats::median(&burst_us)));
        layer.push(("service.bulk_burst_ms", stats::median(&bulk_ms)));
        layer.push((
            "pma.apply_max_us",
            burst_us.iter().copied().fold(0.0, f64::max),
        ));

        // contents and space after the updates
        let snap = comb.snapshot();
        if check {
            chk.expect("len after updates", snap.len() as u64 == self.final_total.0);
            chk.expect(
                "checksum after updates",
                snap.range_sum(..) == self.final_total.1,
            );
        }
        e2e.push((
            "bytes_per_elem",
            snap.size_bytes() as f64 / snap.len().max(1) as f64,
        ));
        layer.push(("pma.size_bytes", snap.size_bytes() as f64));
        layer.push(("store.shards", snap.shard_count() as f64));
        let rebalances = snap.rebalance_stats();
        layer.push((
            "store.rebalances",
            (rebalances.skew_rebalances + rebalances.grows + rebalances.shrinks) as f64,
        ));
        drop(snap);

        if traced {
            let dl = ObsDelta {
                before: &obs0,
                after: &obs1,
            };
            let client_ns = secs.iter().sum::<f64>() / k * 1e9;
            for (name, hist) in [
                ("service.decode_share", "service.decode_ns"),
                ("service.combine_share", "service.combine_ns"),
                ("service.reply_share", "service.reply_ns"),
            ] {
                layer.push((name, dl.hist_sum(hist) as f64 / client_ns));
            }
            layer.push((
                "service.proto_errors",
                dl.counter("service.proto_errors") as f64,
            ));
            let epochs = dl.counter("combiner.epochs");
            layer.push(("store.epochs", epochs as f64));
            layer.push((
                "store.ops_per_epoch",
                dl.counter("combiner.ops") as f64 / epochs.max(1) as f64,
            ));
            layer.push((
                "store.epoch_p99_us",
                obs1.hist_quantile("combiner.epoch.ns", 0.99) as f64 / 1e3,
            ));
            layer.push((
                "persist.wal_append_us",
                dl.hist_mean("persist.wal.append.ns") / 1e3,
            ));
            layer.push((
                "persist.wal_bytes_per_op",
                dl.counter("persist.wal.appended_bytes") as f64
                    / (items[WRITE] + items[BULK]).max(1) as f64,
            ));
            layer.push((
                "persist.checkpoints",
                dl.counter("persist.checkpoint.writes") as f64,
            ));
            let pool = dl.counters(&["pool.jobs", "pool.helped"]);
            layer.push((
                "parallel.jobs_per_bulk_batch",
                pool as f64 / dl.counter("combiner.epochs").max(1) as f64,
            ));
            layer.push((
                "parallel.helped_share",
                dl.counter("pool.helped") as f64 / (pool as f64).max(1.0),
            ));
            layer.push(("parallel.workers", obs1.gauge("pool.workers") as f64));
            layer.push(("pma.full_rebuilds", dl.counter("pma.full_rebuilds") as f64));
            layer.push(("pma.codec_flips", dl.counter("cpma.codec.flips") as f64));
        }

        // restore: shutdown → serve_durable on the same directory → first
        // `contains` reply, several restarts; the first also checks contents
        svc.shutdown();
        drop(svc);
        drop(comb);
        let probe = self.plans[0].base[0];
        let phase = t.enter("phase.restore");
        let restarts = (self.sizes.restores / div).max(1);
        let mut restart_s = Vec::with_capacity(restarts);
        let mut replayed = Vec::with_capacity(restarts);
        for i in 0..restarts {
            let t0 = Instant::now();
            let served = t.call("Service::serve_durable", || {
                Service::serve_durable::<Store>(service_config(), wal_config(&self.dir))
            });
            let Ok((mut svc, comb, report)) = served else {
                chk.expect("restart serves", false);
                continue;
            };
            let mut client = Client::connect(svc.local_addr());
            let reply = match client.as_mut() {
                Ok(c) => t.call("Client::contains", || c.contains(probe)).ok(),
                Err(_) => None,
            };
            restart_s.push(t0.elapsed().as_secs_f64());
            replayed.push(report.replayed_records as f64);
            // `probe` is a base key of connection 0; whether it survived
            // the updates is in the snapshot, which the oracle checks.
            chk.expect(
                "first reply after restart",
                reply == Some(comb.snapshot().contains(probe)),
            );
            if i == 0 && check {
                let sum = client
                    .as_mut()
                    .ok()
                    .and_then(|c| c.range_sum(0, u64::MAX).ok());
                chk.expect("checksum after restart", sum == Some(self.final_total.1));
                chk.expect(
                    "len after restart",
                    comb.snapshot().len() as u64 == self.final_total.0,
                );
            }
            drop(client);
            svc.shutdown();
        }
        t.exit(phase);
        let k = self.cal.factor();
        if !restart_s.is_empty() {
            e2e.push(("restore_s", stats::median(&restart_s) * k));
            layer.push(("persist.recover_replayed_epochs", stats::median(&replayed)));
        }

        if let Some(rec) = rec {
            e2e.into_iter().for_each(|(n, v)| rec.e2e.push(n, v));
            layer.into_iter().for_each(|(n, v)| rec.layer.push(n, v));
            rec.layer
                .push("write_p95_us", stats::percentile(&burst_us, 0.95));
            rec.layer
                .push("write_p99_us", stats::percentile(&burst_us, 0.99));
            rec.checks.merge(chk);
        }
    }

    /// The layer ladder: the connection-0 write-burst stream timed at each
    /// boundary going outward, each rung from a freshly built base, alone
    /// on the machine. A layer's added cost is the difference between
    /// neighbouring rungs.
    pub fn trace_extras(&mut self, t: &mut Tracer, layer: &mut Samples) {
        let plan = &self.plans[0];
        let all_base: Vec<u64> = self
            .plans
            .iter()
            .flat_map(|p| p.base.iter().copied())
            .collect();
        let bursts: &[Batch] = &plan.small;
        let bulks: &[Batch] = &plan.bulk;
        // normalisation, measured here because the in-process rungs need
        // the normal form (the service normalises inside the combiner)
        let t0 = Instant::now();
        let ops: usize = bursts
            .iter()
            .chain(bulks)
            .map(|b| {
                let mut raw = b.raw.clone();
                cpma::api::normalize_ops(&mut raw).len()
            })
            .sum();
        layer.push(
            "api.normalize_ns_per_op",
            t0.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64,
        );

        // rung 1: Cpma::apply_batch_sorted
        let mut cpma = Cpma::build_sorted(&all_base);
        let rung_pma = rung(
            &mut self.cal,
            t,
            "ladder.Cpma::apply_batch_sorted",
            bursts,
            &mut |b| {
                black_box(cpma.apply_batch_sorted(&b.norm));
            },
        );
        let bulk_us = rung(
            &mut self.cal,
            t,
            "ladder.Cpma::apply_batch_sorted",
            bulks,
            &mut |b| {
                black_box(cpma.apply_batch_sorted(&b.norm));
            },
        );
        layer.push("pma.apply_small_us", rung_pma);
        layer.push("pma.apply_bulk_ms", bulk_us / 1e3);
        drop(cpma);

        // rung 2: ShardedSet::apply_batch_sorted
        let mut sharded = Store::build_sorted(&all_base);
        let rung_sharded = rung(
            &mut self.cal,
            t,
            "ladder.ShardedSet::apply_batch_sorted",
            bursts,
            &mut |b| {
                black_box(sharded.apply_batch_sorted(&b.norm));
            },
        );
        let bulk_us = rung(
            &mut self.cal,
            t,
            "ladder.ShardedSet::apply_batch_sorted",
            bulks,
            &mut |b| {
                black_box(sharded.apply_batch_sorted(&b.norm));
            },
        );
        layer.push("store.sharded_apply_small_us", rung_sharded);
        layer.push("store.sharded_apply_bulk_ms", bulk_us / 1e3);

        // the per-epoch publication cost at the default `snapshot_every`
        let clones: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                black_box(t.call("ladder.ShardedSet::clone", || sharded.clone()));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        layer.push("store.clone_ms", stats::median(&clones) * 1e3);
        drop(sharded);

        // rung 3: Combiner::submit_many (in memory)
        let comb = Combiner::new(Store::build_sorted(&all_base));
        let rung_combiner = rung(
            &mut self.cal,
            t,
            "ladder.Combiner::submit_many",
            bursts,
            &mut |b| {
                black_box(comb.submit_many(&to_ops(&b.raw)));
            },
        );
        layer.push("store.combiner_submit_us", rung_combiner);
        drop(comb);

        // rung 4: durable Combiner::submit_many (adds the WAL append)
        self.ingest(&mut Tracer::disabled(), 1);
        let (comb, _) =
            Combiner::<Store>::open_durable(CombinerConfig::default(), wal_config(&self.dir))
                .expect("reopen the ingested directory");
        let rung_durable = rung(
            &mut self.cal,
            t,
            "ladder.durable Combiner::submit_many",
            bursts,
            &mut |b| {
                black_box(comb.submit_many(&to_ops(&b.raw)));
            },
        );
        layer.push("store.durable_submit_us", rung_durable);
        drop(comb);

        // rung 5: Client::mutate_burst, one connection alone; plus the
        // wire's own floor and the codec's cost per op
        self.ingest(&mut Tracer::disabled(), 1);
        let (mut svc, comb, _) =
            Service::serve_durable::<Store>(service_config(), wal_config(&self.dir))
                .expect("serve the ingested directory");
        let mut rung_solo = 0.0;
        if let Ok(mut client) = Client::connect(svc.local_addr()) {
            rung_solo = rung(
                &mut self.cal,
                t,
                "ladder.Client::mutate_burst",
                bursts,
                &mut |b| {
                    black_box(client.mutate_burst(&b.raw).map_or(0, |a| a.len()));
                },
            );
            let probe = plan.base[0];
            let rtt: Vec<f64> = (0..200)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(client.range_sum(probe, probe).unwrap_or(0));
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            layer.push("service.rtt_floor_us", stats::median(&rtt) * 1e6);
        }
        layer.push("service.solo_burst_us", rung_solo);
        svc.shutdown();
        drop(comb);

        let requests: Vec<proto::Request> = bursts
            .iter()
            .flat_map(|b| b.raw.iter())
            .enumerate()
            .map(|(i, op)| match *op {
                BatchOp::Insert(key) => proto::Request::Insert { seq: i as u64, key },
                BatchOp::Remove(key) => proto::Request::Remove { seq: i as u64, key },
            })
            .collect();
        let t0 = Instant::now();
        let mut wire = Vec::new();
        let mut body = Vec::new();
        for req in &requests {
            body.clear();
            req.encode_body(&mut body);
            proto::encode_frame(&body, &mut wire);
        }
        let encode_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut rest = &wire[..];
        let mut decoded = 0usize;
        while let Ok(Some(body)) = proto::read_frame(&mut rest, proto::DEFAULT_MAX_FRAME_BYTES) {
            decoded += proto::Request::decode_body(&body).is_ok() as usize;
        }
        let decode_s = t0.elapsed().as_secs_f64();
        assert_eq!(black_box(decoded), requests.len(), "own frames decode");
        let n = requests.len().max(1) as f64;
        layer.push("service.frame_encode_ns_per_op", encode_s * 1e9 / n);
        layer.push("service.frame_decode_ns_per_op", decode_s * 1e9 / n);

        // The mixed run's client-observed burst time is the top of the
        // ladder; what the rungs do not explain is its own row.
        let observed = layer.median("service.write_burst_us");
        layer.push("service.unaccounted_us", observed - rung_solo);
    }

    /// The ladder as a rendered JSON table for the trace file.
    pub fn ladder_json(layer: &Samples) -> String {
        let us = |n: &str| layer.median(n);
        let rows = [
            ("pma: Cpma::apply_batch_sorted", us("pma.apply_small_us")),
            (
                "store: + ShardedSet::apply_batch_sorted",
                us("store.sharded_apply_small_us") - us("pma.apply_small_us"),
            ),
            (
                "store: + Combiner::submit_many",
                us("store.combiner_submit_us") - us("store.sharded_apply_small_us"),
            ),
            (
                "persist: + durable submit_many (WAL)",
                us("store.durable_submit_us") - us("store.combiner_submit_us"),
            ),
            (
                "service: + Client::mutate_burst (wire, one connection)",
                us("service.solo_burst_us") - us("store.durable_submit_us"),
            ),
            (
                "unaccounted: second connection, queueing",
                us("service.unaccounted_us"),
            ),
            ("client-observed write burst", us("service.write_burst_us")),
        ];
        let body: Vec<String> = rows
            .iter()
            .map(|(name, us)| format!("{{\"row\":\"{name}\",\"us\":{us}}}"))
            .collect();
        format!("[{}]", body.join(","))
    }
}

/// Median calibrated microseconds of `f` over `batches`, each call one
/// span named `name`.
fn rung(
    cal: &mut Calibrator,
    t: &mut Tracer,
    name: &'static str,
    batches: &[Batch],
    f: &mut dyn FnMut(&Batch),
) -> f64 {
    cal.sample();
    let secs: Vec<f64> = batches
        .iter()
        .map(|b| {
            let t0 = Instant::now();
            t.call(name, || f(b));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&secs) * cal.factor() * 1e6
}

/// One connection's script for one repetition.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: usize,
    addr: SocketAddr,
    plan: &Plan,
    sizes: &Sizes,
    scan_page: u32,
    div: usize,
    check: bool,
    (barrier, done): (&Barrier, &[AtomicBool; 2]),
    mut t: Tracer,
) -> (ConnOut, Tracer) {
    let mut out = ConnOut::default();
    let mut client = Client::connect(addr).ok();
    if client.is_none() {
        out.checks.expect("connection accepted", false);
    }
    let d = |n: usize| (n / div).max(1);

    let writes = |client: &mut Client, out: &mut ConnOut, t: &mut Tracer| {
        for (ty, batches, n) in [
            (WRITE, &plan.small, d(plan.small.len())),
            (BULK, &plan.bulk, d(plan.bulk.len())),
        ] {
            for b in &batches[..n] {
                let t0 = Instant::now();
                let acks = t.call("Client::mutate_burst", || client.mutate_burst(&b.raw));
                let dt = t0.elapsed().as_secs_f64();
                out.secs[ty] += dt;
                out.items[ty] += b.raw.len() as u64;
                if ty == WRITE {
                    out.burst_us.push(dt * 1e6);
                } else {
                    out.bulk_ms.push(dt * 1e3);
                }
                match acks {
                    Ok(acks) if !check => drop(acks),
                    Ok(acks) => {
                        let bad = acks.iter().zip(&b.acks).filter(|(a, w)| a != w).count()
                            + acks.len().abs_diff(b.acks.len());
                        out.checks
                            .record("burst acks", b.raw.len() as u64, bad as u64);
                    }
                    Err(_) => {
                        out.checks
                            .record("burst reply", b.raw.len() as u64, b.raw.len() as u64)
                    }
                }
            }
        }
    };

    // The reader cycles through its queries in small rounds (ranges, one
    // scan page, lookups) for as long as the other connection writes, so
    // every read runs beside writes and every write beside reads whatever
    // their relative speed. The queries are idempotent: the reader's half
    // of the key space does not change while it reads.
    let reads =
        |client: &mut Client, out: &mut ConnOut, t: &mut Tracer, writer_done: &AtomicBool| {
            let list = if conn == 0 {
                &plan.final_keys
            } else {
                &plan.base
            };
            let chunk = sizes.probe_chunk;
            let mut queries = plan.ranges.iter().cycle();
            let mut probes = plan
                .probes
                .chunks(chunk)
                .zip(plan.probe_hits.chunks(chunk))
                .cycle();
            let (mut lo, mut seen) = (plan.slice_lo, 0usize);
            loop {
                for q in queries.by_ref().take(READ_ROUND) {
                    let t0 = Instant::now();
                    // the wire takes an inclusive range; hi_key itself is excluded
                    let sum = t.call("Client::range_sum", || {
                        client.range_sum(q.lo_key, q.hi_key - 1)
                    });
                    out.secs[RANGE] += t0.elapsed().as_secs_f64();
                    out.items[RANGE] += q.elems;
                    out.checks.record(
                        "range_sum reply",
                        1,
                        (check && sum.ok() != Some(q.sum)) as u64,
                    );
                }
                // One page of this connection's half, again from its start
                // when a full page no longer fits (beyond it is the half the
                // other connection is writing).
                if seen + scan_page as usize > list.len() {
                    (lo, seen) = (plan.slice_lo, 0);
                }
                let t0 = Instant::now();
                let page = t.call("Client::scan", || client.scan(lo, scan_page));
                out.secs[SCAN] += t0.elapsed().as_secs_f64();
                let page = page.unwrap_or_default();
                out.items[SCAN] += page.len() as u64;
                let want = list.get(seen..seen + page.len());
                out.checks.record(
                    "scan page",
                    1,
                    (check && (page.len() != scan_page as usize || want != Some(&page[..]))) as u64,
                );
                seen += page.len();
                lo = page.last().map_or(plan.slice_lo, |&k| k + 1);
                for (keys, want) in probes.by_ref().take(READ_ROUND) {
                    let t0 = Instant::now();
                    let got = t.call("Client::contains_batch", || client.contains_batch(keys));
                    out.secs[LOOKUP] += t0.elapsed().as_secs_f64();
                    out.items[LOOKUP] += keys.len() as u64;
                    out.checks.record(
                        "contains_batch reply",
                        1,
                        (check && got.ok().as_deref() != Some(want)) as u64,
                    );
                }
                if writer_done.load(Ordering::Acquire) {
                    break;
                }
            }
        };

    // Connection 0 writes then reads (its reads see the final contents of
    // its half); connection 1 reads then writes (its reads see the base).
    // The barriers align the halves; the writer of a half raises its flag
    // when its script is through.
    for (half, writer_done) in done.iter().enumerate() {
        barrier.wait();
        let writing = conn == half;
        if let Some(c) = client.as_mut() {
            let phase = t.enter(if writing { "conn.writes" } else { "conn.reads" });
            if writing {
                writes(c, &mut out, &mut t);
            } else {
                reads(c, &mut out, &mut t, writer_done);
            }
            t.exit(phase);
        }
        if writing {
            writer_done.store(true, Ordering::Release);
        }
    }
    (out, t)
}
