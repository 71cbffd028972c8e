//! One function per claim of the paper's evaluation, each returning its
//! rows. Substitutions (RMAT graphs for SNAP/Friendster, a stand-in for
//! RMA, byte counts for `perf stat`, laptop-scale sizes) are listed in
//! REPRODUCTION.md's "Substitutions" section.

use cpma_api::{normalize_batch, BatchSet, OrderedSet, RangeSet};
use cpma_fgraph::algos::{bc, cc, pagerank};
use cpma_fgraph::{AspenGraph, Csr, FGraph, GraphScan, PacGraph};
use cpma_pma::{stats, PmaConfig, POINT_UPDATE_CUTOFF};
use cpma_workloads::{
    dedup_sorted, erdos_renyi_edges, uniform_keys, ClusteredKeys, RmatGenerator, SplitMix64,
    ZipfGenerator,
};

use crate::harness::Better::{Higher, Lower, Within};
use crate::harness::{
    agree, at, batch, batch_run, core_sweep, for_each_set, geomean, max_threads, range_run, rates,
    regime, spread, stream_into, sweep_passes, time, with_threads, At, Fig, Op, Pma, Ranges, Row,
    Run, Spec, Vals, BASELINE, BOX,
};
use crate::Scale;

/// Key width of the set rows (the paper's 40-bit uniform keys).
const BITS: u32 = 40;
const SEED: u64 = 42;

fn uniform_base(s: &Scale) -> Vec<u64> {
    dedup_sorted(uniform_keys(s.base, BITS, SEED))
}

fn uniform_stream(s: &Scale) -> Vec<u64> {
    uniform_keys(s.stream, BITS, SEED ^ 0xABCD)
}

fn zipf_stream(s: &Scale) -> Vec<u64> {
    ZipfGenerator::paper_config(SEED ^ 0x5a5a).keys(s.stream)
}

/// The batch sizes the pipeline runs (the point path is the paper's
/// "k < 100" fallback, not its batch algorithm).
fn pipeline_batches(s: &Scale) -> impl Iterator<Item = usize> + '_ {
    let batches = s.batches.iter().copied();
    batches.filter(|&k| k >= POINT_UPDATE_CUTOFF)
}

/// Each set's runs at every point of a sweep.
type Sweep = Vec<(&'static str, Vec<Run>)>;

/// The runs of every set at point `i` of a sweep, checked to agree.
fn column(per_set: &Sweep, i: usize, what: &str) -> Vec<(&'static str, Run)> {
    let runs: Vec<_> = per_set.iter().map(|(n, r)| (*n, r[i])).collect();
    agree(what, &runs);
    runs
}

/// Each set's geometric-mean rate over a sweep.
fn means(per_set: &Sweep) -> Vals {
    let mean = |runs: &Vec<Run>| geomean(runs.iter().map(|r| r.per_s));
    let means = per_set.iter().map(|(n, r)| (n.to_string(), mean(r)));
    means.collect()
}

/// Named values from names and numbers.
fn vals<const N: usize>(pairs: [(&str, f64); N]) -> Vals {
    pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

/// Why zipfian rows can miss: the paper's 34-bit zipfian keys against the
/// 40-bit uniform base all land in its lowest 1/64.
const ZIPF_WHY: &str = "workload: 34-bit zipfian keys all land in the lowest 1/64 of the base";
static FIG1: Fig = Fig::new("Fig 1", "inserts/s", Higher, BASELINE);
static FIG11: Fig = Fig::new("Fig 11", "inserts/s", Higher, ZIPF_WHY);
const LARGEST: &str = "PMA ahead; trees close in at the largest batches";
const FIG1_PAIRS: &[Spec] = &[
    ("CPMA ahead, 3× on average", "CPMA", "C-PaC"),
    (LARGEST, "PMA", "U-PaC"),
    (LARGEST, "PMA", "P-tree"),
];
const FIG1_MEAN: &[Spec] = &[("CPMA × 3 (abstract)", "CPMA", "C-PaC")];
const SAME: &str = "the order of Fig 1";
const FIG11_PAIRS: &[Spec] = &[
    (SAME, "CPMA", "C-PaC"),
    (SAME, "PMA", "U-PaC"),
    (SAME, "PMA", "P-tree"),
];

/// Every set inserts `stream` into the uniform base at every batch size:
/// rows of `specs[0]` at each size, of `specs[1]` on the geometric means
/// over the sizes.
fn insert_sweep(s: &Scale, stream: &[u64], fig: &'static Fig, specs: [&[Spec]; 2]) -> Vec<Row> {
    let base = uniform_base(s);
    let per_set = for_each_set!(S => s.batches.iter().map(|&k| batch_run::<S>(&base, stream, k, Op::Insert)).collect());
    let per_set = per_set.to_vec();
    let mut rows = Vec::new();
    for (i, &k) in s.batches.iter().enumerate() {
        let v = rates(&column(&per_set, i, fig.name));
        rows.extend(fig.rows(specs[0], &batch(k, base.len()), &v));
    }
    let mean = at("geometric mean over batch sizes");
    rows.extend(fig.rows(specs[1], &mean, &means(&per_set)));
    rows
}

/// Fig 1 / Table 9: batch inserts of uniform keys, every set.
pub fn fig1(s: &Scale) -> Vec<Row> {
    insert_sweep(s, &uniform_stream(s), &FIG1, [FIG1_PAIRS, FIG1_MEAN])
}

/// Fig 11 / Table 13: the same sweep with zipfian batches (α = 0.99,
/// 34-bit keys).
pub fn fig11(s: &Scale) -> Vec<Row> {
    insert_sweep(s, &zipf_stream(s), &FIG11, [FIG11_PAIRS, &[]])
}

static FIG2: Fig = Fig::new("Fig 2", "elems/s", Higher, BASELINE);
const EVERY: &str = "PMA ahead at every length";
const FIG2_PAIRS: &[Spec] = &[
    ("CPMA ahead, 4× on average", "CPMA", "C-PaC"),
    (EVERY, "PMA", "U-PaC"),
    (EVERY, "PMA", "P-tree"),
];
const FIG2_MEAN: &[Spec] = &[("CPMA × 4 (abstract)", "CPMA", "C-PaC")];
const IDLE: &str = "box: 2 threads leave memory bandwidth idle";
static FIG2_LONG: Fig = Fig::new("Fig 2", "elems/s", Higher, IDLE);
const LONGEST: &[Spec] = &[("CPMA overtakes PMA at the longest ranges", "CPMA", "PMA")];

/// The width of a range expected to cover `len` of `stored` uniform
/// keys, and the starts of a row's queries at that length.
fn ranges(s: &Scale, len: usize, stored: usize, seed: u64) -> (u64, Vec<u64>) {
    let width = (len as f64 / stored as f64 * (1u64 << BITS) as f64).ceil() as u64;
    let mut rng = SplitMix64::new(seed);
    let n = (s.range_elems / len).clamp(1, 100_000);
    let starts = (0..n).map(|_| rng.next_below((1u64 << BITS) - width));
    (width, starts.collect())
}

/// Fig 2 / Table 10: parallel range queries by expected length.
pub fn fig2(s: &Scale) -> Vec<Row> {
    let base = uniform_base(s);
    let plan = |&len: &usize| ranges(s, len, base.len(), SEED ^ 1);
    let plans: Vec<_> = s.range_lens.iter().map(plan).collect();
    let per_set = for_each_set!(S => {
        let set = S::build_sorted(&base);
        plans.iter().map(|(w, st)| range_run(&set, st, *w)).collect()
    });
    let per_set = per_set.to_vec();
    let mut rows = Vec::new();
    for (i, len) in s.range_lens.iter().enumerate() {
        let v = rates(&column(&per_set, i, "Fig 2"));
        let here = at(format!("length {len}"));
        rows.extend(FIG2.rows(FIG2_PAIRS, &here, &v));
        if i == s.range_lens.len() - 1 {
            rows.extend(FIG2_LONG.rows(LONGEST, &here, &v));
        }
    }
    let mean = at("geometric mean over lengths");
    rows.extend(FIG2.rows(FIG2_MEAN, &mean, &means(&per_set)));
    rows
}

static FIG7: Fig = Fig::new("Fig 7", "× over 1 thread", Higher, BOX);
static FIG8: Fig = Fig::new("Fig 8", "× over 1 thread", Higher, BOX);

/// Each set's passes of a thread-count sweep ([`sweep_passes`]).
type Passes = Vec<(&'static str, Vec<Vec<Run>>)>;

/// Rows of a strong-scaling sweep of the PMA and the CPMA: each one's
/// speedup at every budget above one thread — the median over the passes
/// of the pass's own ratio, its range beside it — and the CPMA's against
/// the PMA's.
fn scaling_rows(
    fig: &'static Fig,
    paper: &'static str,
    sweep: &[usize],
    per_set: &Passes,
    regime: &'static str,
) -> Vec<Row> {
    let runs = per_set
        .iter()
        .flat_map(|(n, passes)| passes.iter().flatten().map(|r| (*n, *r)));
    agree(fig.name, &runs.collect::<Vec<_>>());
    let specs = [
        (paper, "PMA", "1 thread"),
        (paper, "CPMA", "1 thread"),
        (paper, "CPMA", "PMA"),
    ];
    let mut rows = Vec::new();
    for (i, &t) in sweep.iter().enumerate().skip(1) {
        let (mut v, mut ranges) = (vals([("1 thread", 1.0)]), Ranges::new());
        for (name, passes) in per_set {
            let (median, range) = spread(passes.iter().map(|p| p[i].per_s / p[0].per_s));
            v.push((name.to_string(), median));
            ranges.push((name.to_string(), range));
        }
        let at = At(format!("{t} threads"), regime);
        let with = |r: Row| r.with_ranges(&ranges);
        rows.extend(fig.rows(&specs, &at, &v).into_iter().map(with));
    }
    rows
}

/// Fig 7 / Table 11: batch-insert strong scaling, batches of 1 % of the
/// base (the paper's 1e6 into 1e8), so every batch runs the pipeline.
pub fn fig7(s: &Scale) -> Vec<Row> {
    let (base, stream, k) = (uniform_base(s), uniform_stream(s), s.base / 100);
    let sweep = core_sweep(max_threads());
    let per_set = for_each_set!(S => {
        sweep_passes(&sweep, || batch_run::<S>(&base, &stream, k, Op::Insert))
    }; Pma "PMA", Cpma "CPMA");
    let (paper, reg) = ("both scale, the CPMA further", regime(k, base.len()));
    scaling_rows(&FIG7, paper, &sweep, &per_set.to_vec(), reg)
}

/// Fig 8 / Table 12: range-query strong scaling, each query ~1.5 % of
/// the set (the paper's 1.5e6 of 1e8).
pub fn fig8(s: &Scale) -> Vec<Row> {
    let base = uniform_base(s);
    let (w, st) = ranges(s, base.len() * 3 / 200, base.len(), SEED ^ 7);
    let sweep = core_sweep(max_threads());
    let per_set = for_each_set!(S => {
        let set = S::build_sorted(&base);
        sweep_passes(&sweep, || range_run(&set, &st, w))
    }; Pma "PMA", Cpma "CPMA");
    let paper = "PMA 41×, CPMA 118× at 64h";
    scaling_rows(&FIG8, paper, &sweep, &per_set.to_vec(), "")
}

static TABLE3: Fig = Fig::new("Table 3", "inserts/s", Higher, BASELINE);
static TABLE3_PAR: Fig = Fig::new("Table 3", "inserts/s", Higher, BOX);
const UP_TO_3: &str = "batch beats point, up to 3× at large batches";
const BEATS_POINT: &[Spec] = &[(UP_TO_3, "batch", "point")];

/// Table 3: the PMA's serial point inserts, serial batches and parallel
/// batches. Each batch arm is the median of
/// [`PASSES`](crate::harness::PASSES) passes, one thread and all of them
/// alternating, its range beside it.
pub fn table3(s: &Scale) -> Vec<Row> {
    let (base, stream, threads) = (uniform_base(s), uniform_stream(s), max_threads());
    let mut set = Pma::build_sorted(&base);
    let points = || stream.iter().for_each(|&k| _ = set.insert(k));
    let secs = with_threads(1, || time(points).1);
    let (per_s, len, sum) = (stream.len() as f64 / secs, set.len(), set.range_sum(..));
    let (point, all) = (Run { per_s, len, sum }, format!("{threads} threads"));
    let mut rows = Vec::new();
    for k in pipeline_batches(s) {
        let passes = sweep_passes(&[1, threads], || {
            batch_run::<Pma>(&base, &stream, k, Op::Insert)
        });
        let mut runs = vec![("point", point)];
        runs.extend(passes.iter().flat_map(|p| [("batch", p[0]), (&*all, p[1])]));
        agree("Table 3", &runs);
        let (serial, serial_range) = spread(passes.iter().map(|p| p[0].per_s));
        let (parallel, parallel_range) = spread(passes.iter().map(|p| p[1].per_s));
        let v = vals([("point", point.per_s), ("batch", serial), (&all, parallel)]);
        let ranges = vec![
            ("batch".to_string(), serial_range),
            (all.clone(), parallel_range),
        ];
        let (here, with) = (batch(k, base.len()), |r: Row| r.with_ranges(&ranges));
        rows.extend(TABLE3.rows(BEATS_POINT, &here, &v).into_iter().map(with));
        let spec = ("parallelism compounds on top", &*all, "batch");
        rows.extend(TABLE3_PAR.rows(&[spec], &here, &v).into_iter().map(with));
    }
    rows
}

/// The stand-in is a linear merge, the algorithm the PMA itself switches
/// to at `len / 10`.
const MERGE: &str = "regime: within 3× of len/10, where the PMA also merges";
static TABLE4: Fig = Fig::new("Table 4", "inserts/s", Higher, MERGE);
const BEATS_RMA: &str = "the batch PMA beats RMA's serial batches";
const RMA: &[Spec] = &[(BEATS_RMA, "PMA", "merge-rebuild")];

/// Table 4: serial batch inserts, the PMA against a merge-rebuild
/// stand-in for RMA (each batch merged into one sorted vector: std's
/// stable sort merges the two sorted runs in one pass); the two must end
/// equal.
pub fn table4(s: &Scale) -> Vec<Row> {
    let (base, stream) = (uniform_base(s), uniform_stream(s));
    let mut rows = Vec::new();
    for k in pipeline_batches(s) {
        let (mut pma, mut merged) = (Pma::build_sorted(&base), base.clone());
        let ours = with_threads(1, || stream_into(&mut pma, &stream, k, Op::Insert));
        let (_, merge) = time(|| {
            for chunk in stream.chunks(k) {
                merged.extend_from_slice(normalize_batch(&mut chunk.to_vec()));
                merged.sort();
                merged.dedup();
            }
        });
        assert!(pma.to_vec() == merged, "Table 4: the stand-in differs");
        let per_s = |secs| stream.len() as f64 / secs;
        let v = vals([("PMA", per_s(ours)), ("merge-rebuild", per_s(merge))]);
        rows.extend(TABLE4.rows(RMA, &batch(k, base.len()), &v));
    }
    rows
}

const NOISE: &str = "box: inside the 2-vCPU box's 10–25 % run-to-run swing";
static TABLE5: Fig = Fig::new("Table 5", "ops/s", Higher, NOISE);
static TABLE5_ZIPF: Fig = Fig::new("Table 5", "inserts/s", Higher, ZIPF_WHY);
const DEL: &str = "deletes outrun inserts, 1.5–2× at large batches";
const ZIPF: &str = "zipfian batches beat uniform ones";
const DELETES: &[Spec] = &[
    (DEL, "PMA uniform deletes", "PMA uniform inserts"),
    (DEL, "CPMA uniform deletes", "CPMA uniform inserts"),
    (DEL, "PMA zipfian deletes", "PMA zipfian inserts"),
    (DEL, "CPMA zipfian deletes", "CPMA zipfian inserts"),
];
const SKEW: &[Spec] = &[
    (ZIPF, "PMA zipfian inserts", "PMA uniform inserts"),
    (ZIPF, "CPMA zipfian inserts", "CPMA uniform inserts"),
];

/// Table 5: PMA and CPMA batch inserts and deletes, uniform and zipfian.
pub fn table5(s: &Scale) -> Vec<Row> {
    let base = uniform_base(s);
    let (uniform, zipf) = (uniform_stream(s), zipf_stream(s));
    let mut rows = Vec::new();
    for k in pipeline_batches(s) {
        let mut v = Vals::new();
        for (dist, stream) in [("uniform", &uniform), ("zipfian", &zipf)] {
            let mut all: Vec<u64> = base.iter().chain(stream).copied().collect();
            let all = normalize_batch(&mut all);
            let ins = for_each_set!(S => batch_run::<S>(&base, stream, k, Op::Insert); Pma "PMA", Cpma "CPMA");
            let del = for_each_set!(S => batch_run::<S>(all, stream, k, Op::Remove); Pma "PMA", Cpma "CPMA");
            for (op, runs) in [("inserts", ins), ("deletes", del)] {
                agree(&format!("Table 5 {dist} {op}"), &runs);
                let named = |(n, r): &(&str, Run)| (format!("{n} {dist} {op}"), r.per_s);
                v.extend(runs.iter().map(named));
            }
        }
        let here = batch(k, base.len());
        rows.extend(TABLE5.rows(DELETES, &here, &v));
        rows.extend(TABLE5_ZIPF.rows(SKEW, &here, &v));
    }
    rows
}

/// Why the CPMA can be larger than C-PaC: it keeps a PMA's free space.
const SLACK: &str = "this CPMA: leaves rebuilt to 55 % full, the trees' blocks packed";
static TABLE6: Fig = Fig::new("Table 6", "B/elem", Lower, BASELINE);
static TABLE6_NEAR: Fig = Fig::new("Table 6", "B/elem", Within(1.25), SLACK);
const BITMAPS: &str = "(not in the paper) bitmap leaves: CPMA < 1 B";
const NEAR: &[Spec] = &[("CPMA ≈ C-PaC, a few bytes each", "CPMA", "C-PaC")];
const TABLE6_SPECS: &[Spec] = &[
    ("P-tree 32 B, PMA 10–12 B", "PMA", "P-tree"),
    ("U-PaC ≈ 8 B, under the PMA's 10–12 B", "U-PaC", "PMA"),
    ("CPMA compresses the PMA", "CPMA", "PMA"),
    ("CPMA shrinks with scale", "CPMA", "CPMA smallest"),
    (BITMAPS, "CPMA runs", "C-PaC runs"),
];

/// Table 6: bytes per element by set size, on uniform keys and (beyond
/// the paper) on clustered runs of 1024 that the bitmap leaves target.
pub fn table6(s: &Scale) -> Vec<Row> {
    let bytes = |elems: &[u64], tag: &str| -> Vals {
        let b = for_each_set!(S => S::build_sorted(elems).size_bytes() as f64 / elems.len() as f64);
        b.iter().map(|(n, b)| (format!("{n}{tag}"), *b)).collect()
    };
    let (mut rows, mut first) = (Vec::new(), None);
    for n in [s.base / 20, s.base / 2, s.base * 2] {
        let mut v = bytes(&dedup_sorted(uniform_keys(n, BITS, SEED + n as u64)), "");
        let here = at(format!("{n} keys"));
        rows.extend(TABLE6_NEAR.rows(NEAR, &here, &v));
        // `for_each_set!` lists the CPMA last.
        let smallest = *first.get_or_insert(v[4].1);
        if n == s.base * 2 {
            let runs = ClusteredKeys::new(1024, 1 << 22, SEED).sorted(n);
            v.extend(bytes(&runs, " runs"));
            v.push(("CPMA smallest".to_string(), smallest));
            rows.extend(TABLE6.rows(TABLE6_SPECS, &here, &v));
        }
    }
    rows
}

static APPC: Fig = Fig::new("App C", "B/elem; ns/elem", Lower, NOISE);
static APPC_PEAK: Fig = Fig::new("App C", "inserts/s", Higher, NOISE);
const SMALLER: &str = "smaller factors keep a smaller footprint";
const APPC_SPECS: &[Spec] = &[
    (SMALLER, "1.1× B", "2.0× B"),
    ("smaller factors scan faster", "1.1× scan", "2.0× scan"),
];
const MIDDLE: &str = "throughput peaks at a middle factor (~1.5×)";
const PEAK: &[Spec] = &[(MIDDLE, "middle", "end")];

/// Appendix C (Figures 12–13): fill an empty CPMA at each growing factor,
/// averaging its size over the batches, with its throughput and a final
/// scan. The scorecard's one caller of `PmaConfig::growing_factor`.
pub fn appc(s: &Scale) -> Vec<Row> {
    let (stream, batches) = (uniform_keys(s.base, BITS, SEED), 100);
    let (mut v, mut per_s) = (Vals::new(), Vec::new());
    for growing_factor in [1.1, 1.2, 1.4, 1.5, 1.7, 2.0] {
        let cfg = PmaConfig {
            growing_factor,
            ..Default::default()
        };
        let (mut c, mut size) = (cpma_pma::Cpma::with_config(cfg), 0.0);
        let (_, secs) = time(|| {
            for chunk in stream.chunks(s.base / batches) {
                c.insert_batch(&mut chunk.to_vec(), false);
                size += c.size_bytes() as f64 / c.len() as f64 / batches as f64;
            }
        });
        let scan = (0..3).map(|_| time(|| c.range_sum(..)).1);
        let scan = scan.fold(f64::MAX, f64::min) * 1e9 / c.len() as f64;
        v.push((format!("{growing_factor:.1}× B"), size));
        v.push((format!("{growing_factor:.1}× scan"), scan));
        per_s.push((growing_factor, stream.len() as f64 / secs));
    }
    // The fill starts empty: its first tenth of batches rebuild.
    let fill = At("over the fill".to_string(), "rebuild, then pipeline");
    let mut rows = APPC.rows(APPC_SPECS, &fill, &v);
    let best = |f: &[(f64, f64)]| {
        f.iter()
            .copied()
            .fold((0.0, 0.0), |a, b| if b.1 > a.1 { b } else { a })
    };
    let ((m, mid), (e, end)) = (best(&per_s[1..5]), best(&[per_s[0], per_s[5]]));
    let here = At(format!("best middle {m:.1}× vs best end {e:.1}×"), fill.1);
    rows.extend(APPC_PEAK.rows(PEAK, &here, &vals([("middle", mid), ("end", end)])));
    rows
}

/// Fig 9's datasets: RMAT graphs at the density ratios of the paper's
/// SNAP graphs (LJ, CO, TW, FS) and an ER graph, all at `scale`.
fn datasets(scale: u32) -> Vec<(&'static str, Vec<u64>)> {
    let v = 1usize << scale;
    let rmat = |per_vertex, seed| {
        RmatGenerator::paper_config(scale, SEED ^ seed).undirected_graph(v * per_vertex)
    };
    let er = erdos_renyi_edges(v as u32, 20.0 / v as f64, SEED ^ 3);
    let (lj, co, tw, fs) = (rmat(9, 1), rmat(37, 2), rmat(19, 4), rmat(14, 5));
    let names = ["LJ*", "CO*", "ER", "TW*", "FS*"];
    names.into_iter().zip([lj, co, er, tw, fs]).collect()
}

/// Panic unless `g` computes what the CSR reference does.
fn validate(csr: &Csr, g: &impl GraphScan, name: &str) {
    let (a, b) = (pagerank(csr, 3), pagerank(g, 3));
    let same = a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9);
    assert!(same, "{name}: PageRank differs from the CSR");
    assert_eq!(cc(csr), cc(g), "{name}: components differ from the CSR");
}

/// Seconds for PageRank (10 iterations), CC and BC from vertex 0, each
/// plus `setup` seconds, then the graph's bytes.
fn costs(g: &impl GraphScan, setup: f64, bytes: usize) -> [f64; 4] {
    let (pr, cc, bc) = (time(|| pagerank(g, 10)), time(|| cc(g)), time(|| bc(g, 0)));
    [pr.1 + setup, cc.1 + setup, bc.1 + setup, bytes as f64]
}

const LEAF: &str = "this repo: a neighbour scan decodes its leaf whole";
static FIG9: Fig = Fig::new("Fig 9", "s", Lower, LEAF);
static TABLE7: Fig = Fig::new("Table 7", "B", Lower, SLACK);
const FIG9_SPECS: &[Spec] = &[
    ("F-Graph 1.2× C-PaC on average", "F-Graph", "C-PaC"),
    ("F-Graph 1.3× Aspen on average", "F-Graph", "Aspen"),
];
const TABLE7_SPECS: &[Spec] = &[
    ("F-Graph ≲ C-PaC", "F-Graph", "C-PaC"),
    ("F-Graph < Aspen", "F-Graph", "Aspen"),
];

/// Fig 9 / Table 14 and Table 7: graph algorithms and memory on F-Graph,
/// C-PaC and Aspen, each graph checked against the CSR before timing.
/// Rows are geometric means over the datasets.
pub fn fig9(s: &Scale) -> Vec<Row> {
    let n = 1 << s.graph_scale;
    let mut per_graph: Vec<[[f64; 4]; 3]> = Vec::new();
    for (name, edges) in datasets(s.graph_scale) {
        let (csr, fg) = (
            Csr::from_sorted_edges(n, &edges),
            FGraph::from_edges(n, &edges),
        );
        let (pac, asp) = (
            PacGraph::from_edges(n, &edges),
            AspenGraph::from_edges(n, &edges),
        );
        validate(&csr, &fg.snapshot(), &format!("{name} F-Graph"));
        validate(&csr, &pac, &format!("{name} C-PaC"));
        validate(&csr, &asp, &format!("{name} Aspen"));
        // F-Graph pays its offset rebuild in every algorithm, as in the paper.
        let (snap, snap_secs) = time(|| fg.snapshot());
        let f = costs(&snap, snap_secs, fg.size_bytes());
        let (p, a) = (
            costs(&pac, 0.0, pac.size_bytes()),
            costs(&asp, 0.0, asp.size_bytes()),
        );
        per_graph.push([f, p, a]);
    }
    let mean = |col: usize| -> Vals {
        let mean = |sys: usize| geomean(per_graph.iter().map(|g| g[sys][col]));
        vals([("F-Graph", mean(0)), ("C-PaC", mean(1)), ("Aspen", mean(2))])
    };
    let mut rows = Vec::new();
    for (col, algo) in ["PageRank", "CC", "BC"].iter().enumerate() {
        rows.extend(FIG9.rows(FIG9_SPECS, &at(format!("{algo}, 5 graphs")), &mean(col)));
    }
    rows.extend(TABLE7.rows(TABLE7_SPECS, &at("memory, 5 graphs"), &mean(3)));
    rows
}

static FIG10: Fig = Fig::new("Fig 10", "edges/s", Higher, BASELINE);
const FIG10_SPECS: &[Spec] = &[
    ("F-Graph 2× C-PaC", "F-Graph", "C-PaC"),
    ("F-Graph 2× Aspen", "F-Graph", "Aspen"),
];

/// Fig 10 / Table 15: edge-batch inserts into the FS-shaped RMAT graph,
/// batches drawn from the same RMAT distribution with duplicates.
pub fn fig10(s: &Scale) -> Vec<Row> {
    let (n, scale) = (1usize << s.graph_scale, s.graph_scale);
    let base = RmatGenerator::paper_config(scale, SEED).undirected_graph(n * 14);
    let stream = RmatGenerator::paper_config(scale, SEED ^ 0x77).directed_edges(s.stream);
    let mut rows = Vec::new();
    for &k in s.batches {
        let (mut fg, mut pac) = (FGraph::from_edges(n, &base), PacGraph::from_edges(n, &base));
        let mut asp = AspenGraph::from_edges(n, &base);
        let per_s = |insert: &mut dyn FnMut(&mut Vec<u64>)| {
            let (_, secs) = time(|| stream.chunks(k).for_each(|c| insert(&mut c.to_vec())));
            stream.len() as f64 / secs
        };
        let f = per_s(&mut |b| _ = fg.insert_edges(b, false));
        let p = per_s(&mut |b| _ = pac.insert_edges(b, false));
        let a = per_s(&mut |b| _ = asp.insert_edges(b, false));
        let edges = [fg.num_edges(), pac.num_edges(), asp.num_edges()];
        assert!(
            edges.iter().all(|&e| e == edges[0]),
            "Fig 10: graphs differ"
        );
        let v = vals([("F-Graph", f), ("C-PaC", p), ("Aspen", a)]);
        rows.extend(FIG10.rows(FIG10_SPECS, &batch(k, base.len()), &v));
    }
    rows
}

static TABLE1: Fig = Fig::new("Table 1", "64 B lines", Lower, BASELINE);
const ORDER: &str = "U-PaC > C-PaC > PMA > CPMA";
const TABLE1_SPECS: &[Spec] = &[
    ("PMA ≥ 3× fewer than U-PaC", "PMA", "U-PaC"),
    (ORDER, "C-PaC", "U-PaC"),
    (ORDER, "PMA", "C-PaC"),
    (ORDER, "CPMA", "PMA"),
];

/// Table 1: memory traffic of serial batch inserts, batches of 1 % of the
/// base. Counts bytes at the storage layer as 64-byte lines, so it runs
/// only in a build with `cpma-pma/stats`.
pub fn table1(s: &Scale) -> Vec<Row> {
    let (base, stream, k) = (uniform_base(s), uniform_stream(s), s.base / 100);
    let runs = for_each_set!(S => with_threads(1, || {
        let mut set = S::build_sorted(&base);
        let (_, t) = stats::measure(|| stream_into(&mut set, &stream, k, Op::Insert));
        let (per_s, len, sum) = (t.est_line_transfers() as f64, set.len(), set.range_sum(..));
        Run { per_s, len, sum }
    }); UPac "U-PaC", CPac "C-PaC", Pma "PMA", Cpma "CPMA");
    agree("Table 1", &runs);
    TABLE1.rows(TABLE1_SPECS, &batch(k, base.len()), &rates(&runs))
}
