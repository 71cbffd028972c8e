//! One benchmark run: set-up (several times, median reported), the
//! repetitions, the end-of-run checks and the reported metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cpma::pma::Cpma;

use crate::inproc::{Graph, InProc, Rec, Target, RMAT_SCALE};
use crate::inputs::{KeyShape, Sizes};
use crate::report::{Checks, Reported, Samples, END_TO_END, PER_LAYER};
use crate::service::ServiceRun;
use crate::spans::{self, Tracer};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SetUniform,
    SetClustered,
    GraphRmat,
    ServiceMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SetUniform,
        Workload::SetClustered,
        Workload::GraphRmat,
        Workload::ServiceMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SetUniform => "set_uniform",
            Workload::SetClustered => "set_clustered",
            Workload::GraphRmat => "graph_rmat",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    /// Why the workload exists: which layers it loads and which it
    /// bypasses (one line, in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SetUniform => "8M uniform 40-bit keys in one Cpma, larger than L2: every leaf is a delta-byte chain, so the delta codec, leaf merge, head search and redistribute do all the work; bitmap codec and pool none",
            Workload::SetClustered => "0.8M keys in runs of 256 at 42% density, fits in L2: mixed bitmap/delta leaves, codec flips as runs fill, popcount ranges, the slow hybrid capacity planner at build; delta path a minority",
            Workload::GraphRmat => "FGraph over a symmetric RMAT graph (scale 18, 8.9M edges): the paper's application; skewed degrees give short dense adjacency ranges, PageRank passes over the whole CPMA, edge updates come in pairs",
            Workload::ServiceMixed => "durable Service over ShardedSet<Cpma,8>, 2M keys, two connections, one reading while the other writes: service, store (epoch clones, shards) and persist (WAL, recovery) carry the cost, pma a minority",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Pool budget (`CPMA_THREADS`). The in-process workloads measure the
    /// kernels at budget 1: on the two-core reference box a second pool
    /// thread made 100k-edge batches 3× slower and their time swing by
    /// 16–80 % between runs of the same code (README, "Observations"), so
    /// the parallel path is reported as the ungated `parallel.*` layer
    /// metrics instead. The service keeps the budget of its deployment.
    pub fn budget(self) -> usize {
        match self {
            Workload::SetUniform | Workload::SetClustered | Workload::GraphRmat => 1,
            Workload::ServiceMixed => 2,
        }
    }

    pub fn shape(self) -> KeyShape {
        match self {
            Workload::SetUniform | Workload::ServiceMixed => KeyShape::Uniform,
            Workload::SetClustered => KeyShape::Clustered,
            Workload::GraphRmat => KeyShape::Rmat { scale: RMAT_SCALE },
        }
    }

    /// Operation counts of one full-size repetition (for the service: per
    /// connection). README.md explains each choice.
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::SetUniform => Sizes {
                universe: 10_000_000,
                base_share: 0.8,
                builds: 1,
                small_batches: 400,
                small_ops: 1000,
                bulk_batches: 5,
                bulk_ops: 100_000,
                range_queries: 5000,
                range_elems: 20_000,
                scans: 10,
                probes: 1_000_000,
                probe_chunk: 1000,
                restores: 1,
            },
            Workload::SetClustered => Sizes {
                universe: 2_000_000,
                base_share: 0.42,
                builds: 1,
                small_batches: 300,
                bulk_batches: 8,
                bulk_ops: 100_000,
                range_queries: 20_000,
                scans: 100,
                probes: 2_000_000,
                restores: 15,
                ..Workload::SetUniform.sizes()
            },
            Workload::GraphRmat => Sizes {
                universe: 11_100_000,
                small_batches: 300,
                bulk_batches: 1,
                range_queries: 300_000,
                probes: 700_000,
                ..Workload::SetUniform.sizes()
            },
            Workload::ServiceMixed => Sizes {
                universe: 2_500_000,
                base_share: 0.8,
                builds: 1,
                small_batches: 150,
                small_ops: 512,
                bulk_batches: 12,
                bulk_ops: 8192,
                range_queries: 2000,
                range_elems: 20_000,
                scans: 1,
                probes: 512 * 400,
                probe_chunk: 512,
                restores: 3,
            },
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// How long the repetitions measure; a repetition that has started is
    /// finished, and at least [`MIN_REPS`] are made.
    pub seconds: f64,
    pub trace: bool,
    /// 1/20 sizes, one set-up: a smoke run, not comparable with full runs.
    pub quick: bool,
}

/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUPS: usize = 3;
/// Fewest repetitions of a timed run.
pub const MIN_REPS: usize = 3;

pub struct Outcome {
    pub reported: Vec<Reported>,
    pub checks: Checks,
    pub reps: usize,
}

/// The directory the run may write: `benchmark/out`, next to the sources.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What `measure` needs from a workload's driver.
trait Driver {
    fn repetition(&mut self, t: &mut Tracer, rec: &mut Rec);
    /// Checks made once, after the repetitions.
    fn verify(&self, _checks: &mut Checks) {}
    fn trace_extras(&mut self, t: &mut Tracer, layer: &mut Samples);
    /// Layer metrics taken during set-up.
    fn setup_layer(&self) -> Vec<(&'static str, f64)>;
    /// Numbers that must repeat exactly when the same seed is set up again.
    fn identity(&self) -> [u64; 3];
    /// Host speed at every calibration sample (1 = the nominal speed).
    fn host_speeds(&self) -> &[f64];
    /// Extra rendered tables for the trace file.
    fn tables(&self, _layer: &Samples) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

impl<T: Target> Driver for InProc<T> {
    fn repetition(&mut self, t: &mut Tracer, rec: &mut Rec) {
        InProc::repetition(self, t, 1, Some(rec));
    }
    fn verify(&self, checks: &mut Checks) {
        InProc::verify(self, checks);
    }
    fn trace_extras(&mut self, t: &mut Tracer, layer: &mut Samples) {
        InProc::trace_extras(self, t, layer);
    }
    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("workloads.gen_s", self.gen_s),
            ("api.normalize_ns_per_op", self.normalize_ns_per_op),
        ]
    }
    fn identity(&self) -> [u64; 3] {
        [
            self.plan.base.len() as u64,
            self.plan.final_len,
            self.plan.final_sum,
        ]
    }
    fn host_speeds(&self) -> &[f64] {
        &self.cal.speeds
    }
}

impl Driver for ServiceRun {
    fn repetition(&mut self, t: &mut Tracer, rec: &mut Rec) {
        ServiceRun::repetition(self, t, 1, Some(rec));
    }
    fn trace_extras(&mut self, t: &mut Tracer, layer: &mut Samples) {
        ServiceRun::trace_extras(self, t, layer);
    }
    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        vec![("workloads.gen_s", self.gen_s)]
    }
    fn identity(&self) -> [u64; 3] {
        self.identity()
    }
    fn host_speeds(&self) -> &[f64] {
        &self.cal.speeds
    }
    fn tables(&self, layer: &Samples) -> Vec<(&'static str, String)> {
        vec![("ladder", ServiceRun::ladder_json(layer))]
    }
}

pub fn run(opts: &Opts, started: Instant) -> Outcome {
    let tmp = out_dir().join(format!(
        "tmp-{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&tmp).expect("create benchmark/out");
    let sizes = match opts.quick {
        true => opts.workload.sizes().scaled(20),
        false => opts.workload.sizes(),
    };
    let (shape, seed) = (opts.workload.shape(), opts.seed);
    let outcome = match opts.workload {
        Workload::SetUniform | Workload::SetClustered => measure(opts, started, || {
            InProc::<Cpma>::setup(shape, sizes, seed, &tmp)
        }),
        Workload::GraphRmat => measure(opts, started, || {
            InProc::<Graph>::setup(shape, sizes, seed, &tmp)
        }),
        Workload::ServiceMixed => measure(opts, started, || ServiceRun::setup(sizes, seed, &tmp)),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    outcome
}

fn measure<D: Driver>(opts: &Opts, started: Instant, setup: impl Fn() -> (D, Checks)) -> Outcome {
    cpma::obs::set_timing_enabled(false);
    let mut checks = Checks::default();

    // Set-up, several times: the first is timed from process start, every
    // one must produce the same inputs, the last one is kept.
    let mut setup_s = Vec::new();
    let mut identity = None;
    let mut driver = None;
    for i in 0..if opts.quick { 1 } else { SETUPS } {
        drop(driver.take());
        let t0 = if i == 0 { started } else { Instant::now() };
        let (d, c) = setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        checks.merge(c);
        checks.expect(
            "set-up repeats exactly",
            *identity.get_or_insert(d.identity()) == d.identity(),
        );
        driver = Some(d);
    }
    let mut driver = driver.expect("at least one set-up");

    let begin = Instant::now();
    let within = |share: f64| begin.elapsed().as_secs_f64() < opts.seconds * share;
    let mut plain = Rec::default();
    let mut traced = Rec::default();
    let mut tracer = Tracer::new(opts.trace, begin, 0);
    let mut off = Tracer::disabled();
    let mut reps = 0usize;
    if opts.trace {
        // One untraced repetition (the first of a process runs cold),
        // traced ones for half the time, one more untraced as the overhead
        // baseline, then the extra work only the layer metrics need.
        let mut cold = Rec::default();
        driver.repetition(&mut off, &mut cold);
        checks.merge(cold.checks);
        cpma::obs::set_timing_enabled(true);
        while reps == 0 || within(0.5) {
            tracer.set_rep(reps as u32);
            driver.repetition(&mut tracer, &mut traced);
            reps += 1;
        }
        cpma::obs::set_timing_enabled(false);
        driver.repetition(&mut off, &mut plain);
        cpma::obs::set_timing_enabled(true);
        driver.trace_extras(&mut tracer, &mut traced.layer);
        cpma::obs::set_timing_enabled(false);
    } else {
        let min_reps = if opts.quick { 1 } else { MIN_REPS };
        while reps < min_reps || within(1.0) {
            driver.repetition(&mut off, &mut plain);
            reps += 1;
        }
    }
    driver.verify(&mut checks);
    checks.merge(plain.checks);
    checks.merge(traced.checks);

    let reported = if opts.trace {
        let write_s = |r: &Rec| 1.0 / r.e2e.median("write_ops_per_s");
        let overhead = write_s(&traced) / write_s(&plain);
        let spread = rep_spread(&traced.e2e);
        let layer = &mut traced.layer;
        driver
            .setup_layer()
            .into_iter()
            .for_each(|(n, v)| layer.push(n, v));
        layer.push("obs.trace_overhead", overhead);
        layer.push("harness.rep_spread", spread);
        layer.push("harness.host_speed", stats::median(driver.host_speeds()));
        layer.push("harness.peak_rss_mb", peak_rss_mb());
        layer.push("harness.checks_failed", checks.failed as f64);
        let path = out_dir().join(format!("TRACE_{}.json", opts.workload.name()));
        let mut tables = vec![("per_layer", layer_json(layer))];
        tables.extend(driver.tables(layer));
        if let Err(e) = spans::write_trace(
            &path,
            opts.workload.name(),
            opts.seed,
            tracer.spans(),
            &tables,
        ) {
            eprintln!("cannot write {}: {e}", path.display());
            checks.expect("trace file written", false);
        }
        PER_LAYER
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                value: layer.median(m.name),
                samples: layer.get(m.name).to_vec(),
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let (value, samples) = match m.name {
                    "setup_s" => (stats::median(&setup_s), setup_s.clone()),
                    name => (plain.e2e.median(name), plain.e2e.get(name).to_vec()),
                };
                Reported {
                    name: m.name,
                    unit: m.unit,
                    value,
                    samples,
                }
            })
            .collect()
    };
    Outcome {
        reported,
        checks,
        reps,
    }
}

/// Largest interquartile share among the per-repetition end-to-end
/// samples: how much the repetitions of this run disagreed.
fn rep_spread(e2e: &Samples) -> f64 {
    END_TO_END
        .iter()
        .map(|m| e2e.get(m.name))
        .filter(|v| v.len() >= 2)
        .map(stats::iqr_share)
        .fold(0.0, f64::max)
}

fn layer_json(layer: &Samples) -> String {
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\"moves\":\"{}\"}}",
                m.name,
                m.unit,
                layer.median(m.name),
                m.moves
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// platform has no `/proc`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
