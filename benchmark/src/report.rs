//! The metric tables (the code's copy of `BENCHMARK.json`, kept equal by
//! `tests/contract.rs`), the per-run sample store and the result line.

use std::collections::BTreeMap;

use crate::run::Workload;
use crate::stats;

/// Direction of a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A per-layer metric: `layer` is the crate it measures, `moves` the
/// end-to-end metrics it should move (README has the workloads).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "build_keys_per_s",
        unit: "keys/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_ops_per_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "bulk_ops_per_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "range_elems_per_s",
        unit: "elems/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "scan_elems_per_s",
        unit: "elems/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lookup_keys_per_s",
        unit: "keys/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "restore_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_elem",
        unit: "B",
        better: Lower,
        bound: 0.005,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer("workloads.gen_s", "s", Lower, "setup_s"),
    layer("api.normalize_ns_per_op", "ns", Lower, "setup_s"),
    layer(
        "pma.build_s",
        "s",
        Lower,
        "build_keys_per_s setup_s restore_s",
    ),
    layer("pma.apply_small_us", "us", Lower, "write_ops_per_s"),
    layer("pma.route_share", "share", Lower, "write_ops_per_s"),
    layer("pma.merge_share", "share", Lower, "write_ops_per_s"),
    layer("pma.count_share", "share", Lower, "write_ops_per_s"),
    layer("pma.redistribute_share", "share", Lower, "write_ops_per_s"),
    layer(
        "pma.leaves_touched_per_op",
        "count",
        Lower,
        "write_ops_per_s",
    ),
    layer("pma.point_fallbacks", "count", Lower, "write_ops_per_s"),
    layer("write_p95_us", "us", Lower, "write_ops_per_s"),
    layer("write_p99_us", "us", Lower, "write_ops_per_s"),
    layer("pma.apply_max_us", "us", Lower, "write_p99_us"),
    layer("pma.full_rebuilds", "count", Lower, "write_p99_us"),
    layer(
        "pma.redistribute_ranges_per_batch",
        "count",
        Lower,
        "write_p99_us",
    ),
    layer("pma.apply_bulk_ms", "ms", Lower, "bulk_ops_per_s"),
    layer("parallel.bulk_speedup", "ratio", Higher, "bulk_ops_per_s"),
    layer("parallel.scan_speedup", "ratio", Higher, "scan_elems_per_s"),
    layer(
        "parallel.jobs_per_bulk_batch",
        "count",
        Lower,
        "bulk_ops_per_s",
    ),
    layer(
        "parallel.helped_share",
        "share",
        Lower,
        "bulk_ops_per_s scan_elems_per_s",
    ),
    layer(
        "parallel.workers",
        "count",
        Lower,
        "bulk_ops_per_s scan_elems_per_s",
    ),
    layer(
        "pma.bitmap_leaf_share",
        "share",
        Higher,
        "bytes_per_elem range_elems_per_s",
    ),
    layer(
        "pma.codec_flips",
        "count",
        Lower,
        "bytes_per_elem range_elems_per_s",
    ),
    layer("pma.size_bytes", "B", Lower, "bytes_per_elem"),
    layer("pma.range_us", "us", Lower, "range_elems_per_s"),
    layer("pma.scan_s", "s", Lower, "scan_elems_per_s"),
    layer("pma.lookup_ns_per_key", "ns", Lower, "lookup_keys_per_s"),
    layer("persist.save_s", "s", Lower, "restore_s"),
    layer("persist.load_s", "s", Lower, "restore_s"),
    layer("persist.snapshot_bytes_per_elem", "B", Lower, "restore_s"),
    layer(
        "persist.wal_append_us",
        "us",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "persist.wal_bytes_per_op",
        "B",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "persist.checkpoints",
        "count",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "persist.checkpoint_ms",
        "ms",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "persist.recover_replayed_epochs",
        "count",
        Lower,
        "restore_s",
    ),
    layer(
        "store.sharded_apply_small_us",
        "us",
        Lower,
        "write_ops_per_s",
    ),
    layer("store.sharded_apply_bulk_ms", "ms", Lower, "bulk_ops_per_s"),
    layer(
        "store.shards",
        "count",
        Higher,
        "write_ops_per_s bulk_ops_per_s",
    ),
    layer(
        "store.rebalances",
        "count",
        Lower,
        "write_ops_per_s bulk_ops_per_s",
    ),
    layer(
        "store.combiner_submit_us",
        "us",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "store.durable_submit_us",
        "us",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "store.epochs",
        "count",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "store.ops_per_epoch",
        "count",
        Higher,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "store.epoch_p99_us",
        "us",
        Lower,
        "write_ops_per_s write_p99_us",
    ),
    layer(
        "store.clone_ms",
        "ms",
        Lower,
        "write_ops_per_s write_p99_us lookup_keys_per_s",
    ),
    layer(
        "service.frame_encode_ns_per_op",
        "ns",
        Lower,
        "every throughput metric",
    ),
    layer(
        "service.frame_decode_ns_per_op",
        "ns",
        Lower,
        "every throughput metric",
    ),
    layer("service.rtt_floor_us", "us", Lower, "range_elems_per_s"),
    layer("service.solo_burst_us", "us", Lower, "write_ops_per_s"),
    layer("service.write_burst_us", "us", Lower, "write_ops_per_s"),
    layer("service.unaccounted_us", "us", Lower, "write_ops_per_s"),
    layer("service.bulk_burst_ms", "ms", Lower, "bulk_ops_per_s"),
    layer(
        "service.decode_share",
        "share",
        Lower,
        "every throughput metric",
    ),
    layer(
        "service.combine_share",
        "share",
        Lower,
        "every throughput metric",
    ),
    layer(
        "service.reply_share",
        "share",
        Lower,
        "every throughput metric",
    ),
    layer(
        "service.proto_errors",
        "count",
        Lower,
        "every throughput metric",
    ),
    layer("fgraph.snapshot_s", "s", Lower, "scan_elems_per_s"),
    layer("fgraph.pagerank_s", "s", Lower, "scan_elems_per_s"),
    layer("fgraph.cc_s", "s", Lower, "scan_elems_per_s"),
    layer("fgraph.bfs_s", "s", Lower, "scan_elems_per_s"),
    layer("fgraph.aux_bytes_per_edge", "B", Lower, "bytes_per_elem"),
    layer("obs.trace_overhead", "ratio", Lower, "none"),
    layer("harness.rep_spread", "share", Lower, "none"),
    layer("harness.host_speed", "ratio", Higher, "none"),
    layer("harness.peak_rss_mb", "MB", Lower, "none"),
    layer("harness.checks_failed", "count", Lower, "none"),
];

/// How long one run measures: `run_seconds` of `BENCHMARK.json` and the
/// default of `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// The text of `/BENCHMARK.json`, rendered from the tables above and the
/// workloads' names and reasons (`Workload::why`), so the contract file and the code cannot
/// drift apart (`tests/contract.rs` compares them; `--contract` prints it).
pub fn benchmark_json() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(Workload::ALL
            .iter()
            .map(|w| format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            ))
            .collect()),
        rows(END_TO_END
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            ))
            .collect()),
        rows(PER_LAYER
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            ))
            .collect()),
    )
}

/// Samples of one run, by metric name: one value per repetition (or, for
/// latency tails, one per batch). Insertion is cheap; order statistics are
/// taken once at the end.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Median of the samples, or 0 when there are none (a per-layer
    /// metric that does not apply to the workload).
    pub fn median(&self, name: &str) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            stats::median(v)
        }
    }
}

/// Oracle bookkeeping: operations attempted (each checked against the
/// oracle) and operations whose result was wrong, refused or an error.
/// A failed check says on stderr which one it was.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Count without reporting: the warm-up pass runs the phases on a
    /// smaller structure the oracle has no expectations for.
    silent: bool,
}

impl Checks {
    pub fn silent() -> Self {
        Checks {
            silent: true,
            ..Checks::default()
        }
    }

    /// `n` operations of kind `what` checked, `bad` of them wrong.
    pub fn record(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && !self.silent {
            eprintln!("check failed: {what}: {bad} of {n}");
        }
    }

    /// One check.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.record(what, 1, !ok as u64);
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One reported value with its unit and, where it is an order statistic
/// over repetitions, the samples behind it.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The detail line: every metric with unit, sample count and quartiles.
pub fn detail_json(
    workload: &str,
    seed: u64,
    comparable: bool,
    reps: usize,
    m: &[Reported],
) -> String {
    let mut s = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"comparable\":{comparable},\
         \"repetitions\":{reps},\"nproc\":{},\"metrics\":{{",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (i, r) in m.iter().enumerate() {
        let (q1, med, q3) = if r.samples.is_empty() {
            (r.value, r.value, r.value)
        } else {
            stats::quartiles(&r.samples)
        };
        let sep = if i == 0 { "" } else { "," };
        s.push_str(&format!(
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}",
            r.name,
            num(r.value),
            r.unit,
            r.samples.len(),
            num(q1),
            num(med),
            num(q3)
        ));
        // Per-repetition samples in full; pooled per-batch ones are too many.
        if r.samples.len() <= 64 {
            let v: Vec<String> = r.samples.iter().map(|&x| num(x)).collect();
            s.push_str(&format!(",\"samples\":[{}]", v.join(",")));
        }
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// The result line of the driver's contract: exactly `correct`,
/// `attempted`, `failed` and `metrics` (name → value and unit).
pub fn result_json(checks: Checks, m: &[Reported]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, r) in m.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        s.push_str(&format!(
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            r.name,
            num(r.value),
            r.unit
        ));
    }
    s.push_str("}}");
    s
}

/// Value of `"name":{"value":<number>` in a line produced by
/// [`result_json`] or [`detail_json`] (the A/A gate reads its children's
/// output with this instead of a JSON parser).
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}
