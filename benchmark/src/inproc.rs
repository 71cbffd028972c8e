//! The three in-process workloads: `set_uniform` and `set_clustered` drive
//! a `Cpma`, `graph_rmat` an `FGraph`. One repetition runs the seven
//! phases round-robin (build → write → bulk → range → scan → lookup →
//! restore) with fixed operation counts; every result is checked against
//! the oracle's expectation in [`crate::inputs::Plan`].

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cpma::api::{BatchOp, BatchSet, Persist, RangeSet};
use cpma::fgraph::{algos, Csr, FGraph};
use cpma::pma::Cpma;

use crate::calib::Calibrator;
use crate::inputs::{self, KeyShape, Plan, Sizes};
use crate::obsd::{ObsDelta, ObsPoint};
use crate::report::{Checks, Samples};
use crate::spans::Tracer;

/// What one run accumulates over its repetitions.
#[derive(Default)]
pub struct Rec {
    /// End-to-end samples, one per repetition and metric.
    pub e2e: Samples,
    /// Per-layer samples, one per repetition and metric.
    pub layer: Samples,
    pub checks: Checks,
}

/// What the scan phase of a target reports.
pub struct ScanOut {
    pub elems: u64,
    pub ok: bool,
    /// Layer timings of the parts, in seconds.
    pub parts: Vec<(&'static str, f64)>,
}

/// A structure the in-process repetition can drive. Everything else
/// (ranges, lookups, save/load) goes through the `Cpma` it exposes.
pub trait Target: Sized + Send + Sync {
    /// A normalised update batch in the form the structure's public
    /// update call takes.
    type Prepared: Send;
    fn prepare(norm: Vec<BatchOp<u64>>) -> Self::Prepared;
    fn build(t: &mut Tracer, base: &[u64]) -> Self;
    /// Apply one batch; returns `(added, removed)`.
    fn apply(&mut self, t: &mut Tracer, batch: &mut Self::Prepared) -> (usize, usize);
    fn set(&self) -> &Cpma;
    /// `scans` whole-structure passes (sets) or PageRank iterations (graph).
    fn scan(&self, t: &mut Tracer, plan: &Plan, scans: usize) -> ScanOut;
    /// End-of-run checks beyond the per-phase ones.
    fn verify(&self, _plan: &Plan, _checks: &mut Checks) {}
    /// Layer metrics only the traced run measures.
    fn trace_extras(&self, _t: &mut Tracer, _layer: &mut Samples) {}
}

impl Target for Cpma {
    type Prepared = Vec<BatchOp<u64>>;

    fn prepare(norm: Vec<BatchOp<u64>>) -> Self::Prepared {
        norm
    }

    fn build(t: &mut Tracer, base: &[u64]) -> Self {
        t.call("Cpma::build_sorted", || Cpma::build_sorted(base))
    }

    fn apply(&mut self, t: &mut Tracer, batch: &mut Self::Prepared) -> (usize, usize) {
        let out = t.call("Cpma::apply_batch_sorted", || {
            self.apply_batch_sorted(batch)
        });
        (out.added, out.removed)
    }

    fn set(&self) -> &Cpma {
        self
    }

    fn scan(&self, t: &mut Tracer, plan: &Plan, scans: usize) -> ScanOut {
        let mut ok = true;
        for _ in 0..scans {
            let sum = t.call("Cpma::range_sum(..)", || self.range_sum(..));
            ok &= black_box(sum) == plan.final_sum;
        }
        ScanOut {
            elems: (scans * self.len()) as u64,
            ok,
            parts: Vec::new(),
        }
    }
}

/// The graph target: an `FGraph` over the RMAT universe's vertices.
pub struct Graph {
    g: FGraph,
}

/// Vertices of the RMAT universe (`1 << scale`).
pub const RMAT_SCALE: u32 = 18;

impl Target for Graph {
    /// Sorted inserts and sorted deletes of one batch.
    type Prepared = (Vec<u64>, Vec<u64>);

    fn prepare(norm: Vec<BatchOp<u64>>) -> Self::Prepared {
        let (ins, del): (Vec<BatchOp<u64>>, Vec<BatchOp<u64>>) =
            norm.into_iter().partition(BatchOp::is_insert);
        let keys = |ops: Vec<BatchOp<u64>>| ops.iter().map(BatchOp::key).collect();
        (keys(ins), keys(del))
    }

    fn build(t: &mut Tracer, base: &[u64]) -> Self {
        Graph {
            g: t.call("FGraph::from_edges", || {
                FGraph::from_edges(1 << RMAT_SCALE, base)
            }),
        }
    }

    fn apply(&mut self, t: &mut Tracer, batch: &mut Self::Prepared) -> (usize, usize) {
        let added = t.call("FGraph::insert_edges", || {
            self.g.insert_edges(&mut batch.0, true)
        });
        let removed = t.call("FGraph::delete_edges", || {
            self.g.delete_edges(&mut batch.1, true)
        });
        (added, removed)
    }

    fn set(&self) -> &Cpma {
        self.g.cpma()
    }

    fn scan(&self, t: &mut Tracer, _plan: &Plan, scans: usize) -> ScanOut {
        let t0 = Instant::now();
        let snap = t.call("FGraph::snapshot", || self.g.snapshot());
        let t1 = Instant::now();
        let ranks = t.call("algos::pagerank", || algos::pagerank(&snap, scans));
        let t2 = Instant::now();
        let total: f64 = ranks.iter().sum();
        ScanOut {
            elems: (scans * self.g.num_edges()) as u64,
            ok: ranks.len() == self.g.num_vertices() && total > 0.0 && total <= 1.0 + 1e-9,
            parts: vec![
                ("fgraph.snapshot_s", (t1 - t0).as_secs_f64()),
                ("fgraph.pagerank_s", (t2 - t1).as_secs_f64()),
            ],
        }
    }

    /// PageRank and connected components against a CSR built from the
    /// oracle's final edge list, once per run.
    fn verify(&self, plan: &Plan, checks: &mut Checks) {
        let csr = Csr::from_sorted_edges(self.g.num_vertices(), &plan.final_keys);
        let snap = self.g.snapshot();
        let (want, got) = (algos::pagerank(&csr, 3), algos::pagerank(&snap, 3));
        let close = want.len() == got.len()
            && want
                .iter()
                .zip(&got)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(1e-6));
        checks.expect("pagerank equals CSR pagerank", close);
        checks.expect(
            "components equal CSR components",
            algos::cc(&csr) == algos::cc(&snap),
        );
    }

    fn trace_extras(&self, t: &mut Tracer, layer: &mut Samples) {
        let snap = self.g.snapshot();
        let t0 = Instant::now();
        black_box(t.call("algos::cc", || algos::cc(&snap)));
        layer.push("fgraph.cc_s", t0.elapsed().as_secs_f64());
        // Source: the first vertex that has an edge.
        let src = self.g.cpma().min().map_or(0, |e| (e >> 32) as u32);
        let t0 = Instant::now();
        black_box(t.call("algos::bfs", || algos::bfs(&snap, src)));
        layer.push("fgraph.bfs_s", t0.elapsed().as_secs_f64());
        layer.push(
            "fgraph.aux_bytes_per_edge",
            snap.aux_bytes() as f64 / self.g.num_edges().max(1) as f64,
        );
    }
}

/// One in-process workload, set up and ready to repeat.
pub struct InProc<T: Target> {
    pub plan: Plan,
    small: Vec<T::Prepared>,
    bulk: Vec<T::Prepared>,
    sizes: Sizes,
    snapshot_path: PathBuf,
    /// Seconds inside `cpma::workloads` generators during set-up.
    pub gen_s: f64,
    /// Nanoseconds per op inside `cpma::api::normalize_ops` during set-up.
    pub normalize_ns_per_op: f64,
    /// The structure the last full repetition left behind.
    last: Option<T>,
    pub cal: Calibrator,
}

impl<T: Target> InProc<T> {
    /// Input generation, op-stream normalisation and the warm-up pass (all
    /// phases at 1/10 size: spawns the pool workers, faults in the pages).
    pub fn setup(shape: KeyShape, sizes: Sizes, seed: u64, tmp: &Path) -> (Self, Checks) {
        let u = inputs::universe(shape, &sizes, seed);
        let mut plan = inputs::plan(&u, shape, 0..u.keys.len(), &sizes, seed ^ 0x5A17, false);
        let gen_s = u.gen_s;
        drop(u);

        let mut checks = Checks::default();
        let (small, s1, bad1) = inputs::normalize_all(&plan.small);
        let (bulk, s2, bad2) = inputs::normalize_all(&plan.bulk);
        let batches = (plan.small.len() + plan.bulk.len()) as u64;
        checks.record(
            "normalize_ops equals the harness normal form",
            batches,
            bad1 + bad2,
        );
        let ops: usize = small.iter().chain(&bulk).map(Vec::len).sum();
        // Only the expected counts of a batch are needed from here on.
        for b in plan.small.iter_mut().chain(&mut plan.bulk) {
            b.raw = Vec::new();
            b.norm = Vec::new();
            b.acks = Vec::new();
        }

        let mut this = InProc {
            plan,
            small: small.into_iter().map(T::prepare).collect(),
            bulk: bulk.into_iter().map(T::prepare).collect(),
            sizes,
            snapshot_path: tmp.join("snapshot.bin"),
            gen_s,
            normalize_ns_per_op: (s1 + s2) * 1e9 / ops.max(1) as f64,
            last: None,
            cal: Calibrator::new(),
        };
        this.repetition(&mut Tracer::disabled(), 10, None);
        (this, checks)
    }

    /// One repetition at `1/div` size. With `rec`, results are checked
    /// against the oracle and recorded (only meaningful at `div == 1`,
    /// where the structure holds what the oracle expects).
    pub fn repetition(&mut self, t: &mut Tracer, div: usize, rec: Option<&mut Rec>) {
        let mut chk = if rec.is_some() {
            Checks::default()
        } else {
            Checks::silent()
        };
        let mut e2e: Vec<(&'static str, f64)> = Vec::new();
        let mut layer: Vec<(&'static str, f64)> = Vec::new();
        let traced = t.enabled();
        let d = |n: usize| (n / div).max(1);
        self.last = None; // free the previous repetition's structure first

        // Every phase is closed by `cal.factor()`: its seconds are wall
        // seconds × that factor (see `calib`).
        self.cal.sample();

        // build
        let base = &self.plan.base[..d(self.plan.base.len())];
        let builds = d(self.sizes.builds);
        let phase = t.enter("phase.build");
        let t0 = Instant::now();
        let mut s = T::build(t, base);
        for _ in 1..builds {
            s = T::build(t, base);
        }
        let build_s = t0.elapsed().as_secs_f64() * self.cal.factor();
        t.exit(phase);
        chk.expect("len after build", s.set().len() == base.len());
        e2e.push(("build_keys_per_s", (builds * base.len()) as f64 / build_s));
        layer.push(("pma.build_s", build_s / builds as f64));

        // write: small batches, one latency sample each
        let n_small = d(self.small.len());
        let obs0 = ObsPoint::take(traced);
        let phase = t.enter("phase.write");
        let mut lat_us = Vec::with_capacity(n_small);
        let mut ops = 0usize;
        for (batch, want) in self.small[..n_small].iter_mut().zip(&self.plan.small) {
            let t0 = Instant::now();
            let got = s.apply(t, batch);
            lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            chk.expect("small batch outcome", got == (want.added, want.removed));
            ops += self.sizes.small_ops;
        }
        t.exit(phase);
        let k = self.cal.factor();
        lat_us.iter_mut().for_each(|l| *l *= k);
        let obs1 = ObsPoint::take(traced);
        let write_s: f64 = lat_us.iter().sum::<f64>() / 1e6;
        e2e.push(("write_ops_per_s", ops as f64 / write_s));
        layer.push(("pma.apply_small_us", crate::stats::median(&lat_us)));
        layer.push((
            "pma.apply_max_us",
            lat_us.iter().copied().fold(0.0, f64::max),
        ));
        if traced {
            let dl = ObsDelta {
                before: &obs0,
                after: &obs1,
            };
            let wall_ns = write_s / k * 1e9;
            for (name, hist) in [
                ("pma.route_share", "pma.route.ns"),
                ("pma.merge_share", "pma.merge.ns"),
                ("pma.count_share", "pma.count.ns"),
                ("pma.redistribute_share", "pma.redistribute.ns"),
            ] {
                layer.push((name, dl.hist_sum(hist) as f64 / wall_ns));
            }
            layer.push((
                "pma.leaves_touched_per_op",
                dl.counter("pma.leaves_touched") as f64 / ops as f64,
            ));
            layer.push((
                "pma.point_fallbacks",
                dl.counter("pma.point_fallbacks") as f64,
            ));
            layer.push((
                "pma.redistribute_ranges_per_batch",
                dl.counter("pma.redistribute_ranges") as f64 / n_small as f64,
            ));
        }

        // bulk: large batches
        let n_bulk = d(self.bulk.len());
        let phase = t.enter("phase.bulk");
        let mut bulk_ms = Vec::with_capacity(n_bulk);
        for (batch, want) in self.bulk[..n_bulk].iter_mut().zip(&self.plan.bulk) {
            let t0 = Instant::now();
            let got = s.apply(t, batch);
            bulk_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            chk.expect("bulk batch outcome", got == (want.added, want.removed));
        }
        t.exit(phase);
        let k = self.cal.factor();
        bulk_ms.iter_mut().for_each(|l| *l *= k);
        let obs2 = ObsPoint::take(traced);
        let bulk_s: f64 = bulk_ms.iter().sum::<f64>() / 1e3;
        e2e.push((
            "bulk_ops_per_s",
            (n_bulk * self.sizes.bulk_ops) as f64 / bulk_s,
        ));
        layer.push(("pma.apply_bulk_ms", crate::stats::median(&bulk_ms)));
        if traced {
            let dl = ObsDelta {
                before: &obs1,
                after: &obs2,
            };
            let jobs = dl.counters(&["pool.jobs", "pool.helped"]);
            layer.push(("parallel.jobs_per_bulk_batch", jobs as f64 / n_bulk as f64));
            let helped = dl.counter("pool.helped") as f64;
            layer.push(("parallel.helped_share", helped / (jobs as f64).max(1.0)));
            layer.push(("parallel.workers", obs2.gauge("pool.workers") as f64));
            let both = ObsDelta {
                before: &obs0,
                after: &obs2,
            };
            layer.push((
                "pma.full_rebuilds",
                both.counter("pma.full_rebuilds") as f64,
            ));
            layer.push(("pma.codec_flips", both.counter("cpma.codec.flips") as f64));
        }

        // contents and space after the updates (exact, schedule-independent)
        let set = s.set();
        chk.expect("len after updates", set.len() as u64 == self.plan.final_len);
        let (delta, bitmap) = set.storage().codec_census();
        e2e.push((
            "bytes_per_elem",
            set.size_bytes() as f64 / set.len().max(1) as f64,
        ));
        layer.push(("pma.size_bytes", set.size_bytes() as f64));
        layer.push((
            "pma.bitmap_leaf_share",
            bitmap as f64 / (delta + bitmap).max(1) as f64,
        ));

        // range
        let queries = &self.plan.ranges[..d(self.plan.ranges.len())];
        let phase = t.enter("phase.range");
        let t0 = Instant::now();
        let (mut elems, mut bad) = (0u64, 0u64);
        for q in queries {
            let sum = t.call("Cpma::range_sum", || set.range_sum(q.lo_key..q.hi_key));
            bad += (black_box(sum) != q.sum) as u64;
            elems += q.elems;
        }
        let range_s = t0.elapsed().as_secs_f64() * self.cal.factor();
        t.exit(phase);
        chk.record("range_sum", queries.len() as u64, bad);
        e2e.push(("range_elems_per_s", elems as f64 / range_s));
        layer.push(("pma.range_us", range_s * 1e6 / queries.len() as f64));

        // scan
        let phase = t.enter("phase.scan");
        let t0 = Instant::now();
        let scans = d(self.sizes.scans);
        let scan = s.scan(t, &self.plan, scans);
        let scan_s = t0.elapsed().as_secs_f64();
        let k = self.cal.factor();
        let scan_s = scan_s * k;
        t.exit(phase);
        chk.expect("scan", scan.ok);
        e2e.push(("scan_elems_per_s", scan.elems as f64 / scan_s));
        layer.push(("pma.scan_s", scan_s / scans as f64));
        layer.extend(scan.parts.into_iter().map(|(n, s)| (n, s * k)));

        // lookup
        let set = s.set();
        let n_probes = d(self.plan.probes.len());
        let chunk = self.sizes.probe_chunk;
        let phase = t.enter("phase.lookup");
        let t0 = Instant::now();
        let mut bad = 0u64;
        for (keys, want) in self.plan.probes[..n_probes]
            .chunks(chunk)
            .zip(self.plan.probe_hits.chunks(chunk))
        {
            let got = t.call("Cpma::contains_batch", || set.contains_batch(keys));
            bad += (black_box(got) != want) as u64;
        }
        let lookup_s = t0.elapsed().as_secs_f64() * self.cal.factor();
        t.exit(phase);
        chk.record("contains_batch chunk", n_probes.div_ceil(chunk) as u64, bad);
        e2e.push(("lookup_keys_per_s", n_probes as f64 / lookup_s));
        layer.push(("pma.lookup_ns_per_key", lookup_s * 1e9 / n_probes as f64));

        // restore: persisted form → verified queryable copy
        let path = &self.snapshot_path;
        // The warm-up's smaller structure has no oracle checksum.
        let want_sum = (div == 1).then_some(self.plan.final_sum);
        let restores = d(self.sizes.restores);
        let phase = t.enter("phase.restore");
        let (mut save_s, mut load_s, mut same) = (0.0, 0.0, true);
        let t0 = Instant::now();
        for _ in 0..restores {
            let t1 = Instant::now();
            let saved = t.call("Cpma::save", || set.save(path));
            let t2 = Instant::now();
            let loaded = t.call("Cpma::load", || Cpma::load(path));
            let t3 = Instant::now();
            save_s += (t2 - t1).as_secs_f64();
            load_s += (t3 - t2).as_secs_f64();
            same &= match (&saved, &loaded) {
                (Ok(()), Ok(copy)) => {
                    copy.len() == set.len()
                        && Some(t.call("Cpma::range_sum(..)", || copy.range_sum(..)))
                            == want_sum.or(Some(set.range_sum(..)))
                }
                _ => false,
            };
        }
        let restore_s = t0.elapsed().as_secs_f64();
        t.exit(phase);
        chk.expect("restored copy equals the saved set", same);
        // `save` ends in an fsync, whose time is the sandbox disk's and
        // swings by tens of percent: it is a layer metric, and restore_s
        // starts from the persisted form.
        let k = self.cal.factor() / restores as f64;
        e2e.push(("restore_s", (restore_s - save_s) * k));
        layer.push(("persist.save_s", save_s * k));
        layer.push(("persist.load_s", load_s * k));
        let file_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        layer.push((
            "persist.snapshot_bytes_per_elem",
            file_bytes as f64 / set.len().max(1) as f64,
        ));
        let _ = std::fs::remove_file(path);

        if let Some(rec) = rec {
            e2e.into_iter().for_each(|(n, v)| rec.e2e.push(n, v));
            layer.into_iter().for_each(|(n, v)| rec.layer.push(n, v));
            rec.layer
                .push("write_p95_us", crate::stats::percentile(&lat_us, 0.95));
            rec.layer
                .push("write_p99_us", crate::stats::percentile(&lat_us, 0.99));
            rec.checks.merge(chk);
            self.last = Some(s);
        }
    }

    /// Checks made once, on the structure the last repetition left.
    pub fn verify(&self, checks: &mut Checks) {
        let Some(s) = &self.last else { return };
        // Full contents against the oracle, key by key.
        let mut want = self.plan.final_keys.iter();
        let mut same = true;
        s.set().for_range(.., |k| same &= want.next() == Some(&k));
        checks.expect(
            "final contents equal the oracle",
            same && want.next().is_none(),
        );
        s.verify(&self.plan, checks);
    }

    /// Layer metrics that need extra work and so run only when traced: the
    /// bulk and scan phases at pool budget 1 and 2 (`CPMA_THREADS` caps
    /// both arms, so a budget-1 workload reads ≈ 1.0), and the target's own.
    pub fn trace_extras(&mut self, t: &mut Tracer, layer: &mut Samples) {
        let mut arm = |budget: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(budget)
                .build()
                .expect("pool budget");
            let off = &mut Tracer::disabled();
            let mut s = pool.install(|| T::build(off, &self.plan.base));
            self.cal.sample();
            let t0 = Instant::now();
            pool.install(|| {
                for batch in self.bulk.iter_mut() {
                    black_box(s.apply(off, batch));
                }
            });
            let bulk_s = t0.elapsed().as_secs_f64() * self.cal.factor();
            let t0 = Instant::now();
            black_box(pool.install(|| s.scan(off, &self.plan, self.sizes.scans).elems));
            (bulk_s, t0.elapsed().as_secs_f64() * self.cal.factor())
        };
        let (bulk1, scan1) = arm(1);
        let (bulk2, scan2) = arm(2);
        layer.push("parallel.bulk_speedup", bulk1 / bulk2);
        layer.push("parallel.scan_speedup", scan1 / scan2);
        if let Some(s) = &self.last {
            s.trace_extras(t, layer);
        }
    }
}
