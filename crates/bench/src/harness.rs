//! What every claim shares: one dispatch over the paper's five sets, one
//! timed batch stream, one range-query pass, the result checks, and the
//! row every claim returns.

use std::time::Instant;

use cpma_api::{normalize_batch, BatchSet, RangeSet};
use cpma_pma::{FULL_REBUILD_DIVISOR, POINT_UPDATE_CUTOFF};
use rayon::prelude::*;

pub use cpma_baselines::{CPac, PTree, UPac};
pub use cpma_pma::{Cpma, Pma};

/// Evaluate `$body` once per set type, `$S` naming the type, and yield
/// `[(display name, value); N]`. Without a list it runs the paper's five
/// sets; a claim about fewer names them (`Pma "PMA", Cpma "CPMA"`).
macro_rules! for_each_set {
    ($S:ident => $body:expr) => {
        for_each_set!($S => $body;
            PTree "P-tree", UPac "U-PaC", Pma "PMA", CPac "C-PaC", Cpma "CPMA")
    };
    ($S:ident => $body:expr; $($set:ident $name:literal),+) => {
        [$({
            type $S = $crate::harness::$set;
            ($name, $body)
        }),+]
    };
}
pub(crate) use for_each_set;

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run `f` in a fresh pool of `threads`: this thread and the jobs it
/// forks share that count (none of the rows spawns threads).
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a pool of the requested size")
        .install(f)
}

/// The host's parallelism: the top of every scaling sweep.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Passes per thread count of the rows that compare thread counts (Fig 7,
/// Fig 8, Table 3's batch arms): each count reads as the median of its
/// passes, with their range beside it. One pass per count swung the
/// two-thread rows by more than the effects they show.
pub const PASSES: usize = 3;

/// `f` at every thread count of `sweep`, [`PASSES`] times over: within a
/// pass the counts alternate, so drift over the run lands on each of
/// them alike. Indexed `[pass][point of the sweep]`.
pub fn sweep_passes(sweep: &[usize], f: impl Fn() -> Run + Sync) -> Vec<Vec<Run>> {
    let pass = || sweep.iter().map(|&t| with_threads(t, &f)).collect();
    (0..PASSES).map(|_| pass()).collect()
}

/// The median of `xs` and their range.
pub fn spread(xs: impl IntoIterator<Item = f64>) -> (f64, (f64, f64)) {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    xs.sort_by(f64::total_cmp);
    let median = match xs.len() {
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    };
    (median, (xs[0], xs[xs.len() - 1]))
}

/// 1, 2, 4, … below `max`, then `max` (the paper's core sweep).
pub fn core_sweep(max: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..).map(|e| 1 << e).take_while(|&c| c < max).collect();
    v.push(max);
    v
}

/// Which path a batch of `k` ops takes on a PMA of at least `len`
/// elements: per-key point updates, the §4 pipeline, or a whole rebuild
/// (`k ≥ len / FULL_REBUILD_DIVISOR`).
pub fn regime(k: usize, len: usize) -> &'static str {
    if k < POINT_UPDATE_CUTOFF {
        "point"
    } else if k >= len / FULL_REBUILD_DIVISOR {
        "rebuild"
    } else {
        "pipeline"
    }
}

/// Where in a sweep a row was measured, and the batch regime there.
pub struct At(pub String, pub &'static str);

/// A batch of `k` against a stream that never meets fewer than `len`
/// elements.
pub fn batch(k: usize, len: usize) -> At {
    At(format!("batch {k}"), regime(k, len))
}

/// A point of a sweep without batches.
pub fn at(label: impl Into<String>) -> At {
    At(label.into(), "")
}

/// One measured pass: its rate, and what it covered in brief — the set's
/// final length and sum after a stream, or the elements and sum a batch
/// of range queries covered — so the sets of one row can be checked
/// against each other.
#[derive(Clone, Copy)]
pub struct Run {
    pub per_s: f64,
    pub len: usize,
    pub sum: u64,
}

/// Panic unless every run of a row covered the same elements: a set that
/// computed something else has no number worth reporting.
pub fn agree(what: &str, runs: &[(&str, Run)]) {
    let (first, r0) = runs[0];
    for &(name, r) in &runs[1..] {
        assert_eq!(
            (r.len, r.sum),
            (r0.len, r0.sum),
            "{what}: {name} disagrees with {first}"
        );
    }
}

#[derive(Clone, Copy)]
pub enum Op {
    Insert,
    Remove,
}

/// Apply `stream` to `set` as `op` in batches of `k`, each normalized as
/// a caller would; the seconds it took.
pub fn stream_into<S: BatchSet>(set: &mut S, stream: &[u64], k: usize, op: Op) -> f64 {
    let mut scratch = Vec::with_capacity(k);
    time(|| {
        for chunk in stream.chunks(k) {
            scratch.clear();
            scratch.extend_from_slice(chunk);
            let batch = normalize_batch(&mut scratch);
            match op {
                Op::Insert => set.insert_batch_sorted(batch),
                Op::Remove => set.remove_batch_sorted(batch),
            };
        }
    })
    .1
}

/// Build `S` from `start` and time [`stream_into`]: ops per second over
/// the whole stream.
pub fn batch_run<S: BatchSet + RangeSet>(start: &[u64], stream: &[u64], k: usize, op: Op) -> Run {
    let mut set = S::build_sorted(start);
    let per_s = stream.len() as f64 / stream_into(&mut set, stream, k, op);
    let (len, sum) = (set.len(), set.range_sum(..));
    Run { per_s, len, sum }
}

/// Range queries `[a, a + width)` from every start, in parallel: the
/// elements they cover are counted first, outside the clock, and the rate
/// is counted elements per second of the timed `range_sum`s.
pub fn range_run<S: RangeSet + Sync>(set: &S, starts: &[u64], width: u64) -> Run {
    let mut len = 0;
    for &a in starts {
        set.for_range(a..a.saturating_add(width), |_| len += 1);
    }
    let (sum, secs) = time(|| {
        starts
            .par_iter()
            .map(|&a| set.range_sum(a..a.saturating_add(width)))
            .reduce(|| 0, u64::wrapping_add)
    });
    let per_s = len as f64 / secs;
    Run { per_s, len, sum }
}

/// How a row's two sides are compared.
#[derive(Clone, Copy)]
pub enum Better {
    Higher,
    Lower,
    /// The paper finds the two about equal: within this factor of each
    /// other.
    Within(f64),
}

/// A figure or table of the paper: what its rows measure, which way is
/// better, and what explains a row of it that does not hold.
pub struct Fig {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub why: &'static str,
}

pub const BASELINE: &str =
    "baseline: the re-implemented trees (treap priorities, not weight balance)";
pub const BOX: &str = "box: 2 vCPUs, the paper's 64 cores + HT";
const POINT: &str = "regime: under 128 ops a batch runs the point path";
const REBUILD: &str = "regime: a whole rebuild, not the §4 pipeline";

/// A claim of a figure: the paper's number or shape, the side it finds
/// ahead, and the other side, both named as in the measured values.
pub type Spec<'a> = (&'static str, &'a str, &'a str);

/// Named values measured at one point of a sweep.
pub type Vals = Vec<(String, f64)>;

/// The ranges of the named values that are medians of several passes.
pub type Ranges = Vec<(String, (f64, f64))>;

/// The rates of a row's runs, as named values.
pub fn rates(runs: &[(&str, Run)]) -> Vals {
    runs.iter().map(|(n, r)| (n.to_string(), r.per_s)).collect()
}

impl Fig {
    pub const fn new(
        name: &'static str,
        unit: &'static str,
        better: Better,
        why: &'static str,
    ) -> Fig {
        Fig {
            name,
            unit,
            better,
            why,
        }
    }

    /// One row per spec, measured at `at`.
    pub fn rows(&'static self, specs: &[Spec], at: &At, v: &Vals) -> Vec<Row> {
        let side = |name: &str| {
            v.iter()
                .find(|(n, _)| n == name)
                .expect("a measured value")
                .clone()
        };
        let row = |&(paper, a, b): &Spec| {
            let (what, sides) = (format!("{a} vs {b}, {}", at.0), [side(a), side(b)]);
            Row {
                fig: self,
                paper,
                what,
                regime: at.1,
                sides,
                ranges: [None; 2],
            }
        };
        specs.iter().map(row).collect()
    }
}

/// One row of the scorecard: the side the paper finds ahead, then the
/// other.
pub struct Row {
    pub fig: &'static Fig,
    pub paper: &'static str,
    pub what: String,
    pub regime: &'static str,
    pub sides: [(String, f64); 2],
    /// The range of each side's passes, for a side that is a median.
    pub ranges: [Option<(f64, f64)>; 2],
}

impl Row {
    /// The row with the range of each side named in `ranges`.
    pub fn with_ranges(mut self, ranges: &Ranges) -> Row {
        for (side, range) in self.sides.iter().zip(&mut self.ranges) {
            *range = ranges.iter().find(|(n, _)| *n == side.0).map(|r| r.1);
        }
        self
    }

    pub fn holds(&self) -> bool {
        let [(_, a), (_, b)] = self.sides;
        match self.fig.better {
            Better::Higher => a > b,
            Better::Lower => a < b,
            Better::Within(f) => a.max(b) <= f * a.min(b),
        }
    }

    /// `"CPMA × 2.14"`: the side ahead here and by what factor.
    pub fn winner(&self) -> String {
        let [(na, a), (nb, b)] = &self.sides;
        let a_ahead = match self.fig.better {
            Better::Higher => a >= b,
            Better::Lower | Better::Within(_) => a <= b,
        };
        let name = if a_ahead { na } else { nb };
        format!("{name} × {:.2}", a.max(*b) / a.min(*b))
    }

    /// Empty when the row holds, else what explains the miss: the batch
    /// regime if the row left the pipeline, else the figure's reason.
    pub fn why(&self) -> &'static str {
        match (self.holds(), self.regime) {
            (true, _) => "",
            (false, "point") => POINT,
            (false, "rebuild") => REBUILD,
            _ => self.fig.why,
        }
    }
}

/// Geometric mean (the mean of ratios the paper's "on average" means).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

/// A figure to three digits: plain from 0.01 to 1000, else in the
/// paper's scientific style (`1.4E6`).
pub fn num(x: f64) -> String {
    let exp = x.abs().log10().floor() as i32;
    match exp {
        _ if x == 0.0 || !x.is_finite() => format!("{x}"),
        -2..=2 => format!("{x:.*}", (2 - exp) as usize),
        _ => format!("{:.1}E{exp}", x / 10f64.powi(exp)),
    }
}

/// Held by every test of this binary that builds or updates a set: Table
/// 1 reads the process-wide byte counters (`cpma_pma::stats`), so a
/// traffic row counts only its own traffic while no other test moves
/// bytes beside it.
#[cfg(test)]
pub(crate) fn moving_bytes() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that panicked holding it moved its bytes already.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_and_sweep() {
        assert_eq!(num(1_400_000.0), "1.4E6");
        assert_eq!(num(185.0), "185");
        assert_eq!(num(1.754), "1.75");
        assert_eq!(num(0.0123), "0.0123");
        assert_eq!(num(0.0), "0");
        assert_eq!(core_sweep(1), vec![1]);
        assert_eq!(core_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(core_sweep(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn spread_is_the_median_and_the_range() {
        assert_eq!(spread([3.0, 1.0, 2.0]), (2.0, (1.0, 3.0)));
        assert_eq!(spread([4.0, 1.0]), (2.5, (1.0, 4.0)));
        assert_eq!(spread([5.0]), (5.0, (5.0, 5.0)));
    }

    #[test]
    fn regimes_follow_the_cutoffs() {
        assert_eq!(regime(POINT_UPDATE_CUTOFF - 1, 1 << 30), "point");
        assert_eq!(regime(POINT_UPDATE_CUTOFF, 1 << 30), "pipeline");
        assert_eq!(regime(1000, 10_000), "rebuild");
        assert_eq!(regime(999, 10_000), "pipeline");
    }

    static HIGHER: Fig = Fig::new("T", "", Better::Higher, BASELINE);
    static NEAR: Fig = Fig::new("T", "", Better::Within(1.25), BASELINE);

    fn row(fig: &'static Fig, regime: &'static str, a: f64, b: f64) -> Row {
        let vals = vec![("A".to_string(), a), ("B".to_string(), b)];
        fig.rows(&[("", "A", "B")], &At("x".into(), regime), &vals)
            .remove(0)
    }

    #[test]
    fn rows_name_the_winner_and_the_reason() {
        let r = row(&HIGHER, "pipeline", 3.0, 1.5);
        assert_eq!(
            (r.holds(), r.winner(), r.why()),
            (true, "A × 2.00".into(), "")
        );
        assert_eq!(r.what, "A vs B, x");
        let r = row(&HIGHER, "pipeline", 1.0, 4.0);
        assert_eq!(
            (r.holds(), r.winner(), r.why()),
            (false, "B × 4.00".into(), BASELINE)
        );
        assert_eq!(row(&HIGHER, "rebuild", 1.0, 4.0).why(), REBUILD);
        assert!(row(&NEAR, "", 1.2, 1.0).holds());
        assert!(!row(&NEAR, "", 1.3, 1.0).holds());
    }

    #[test]
    #[should_panic(expected = "B disagrees with A")]
    fn agree_rejects_a_set_that_computed_something_else() {
        let run = |sum| Run {
            per_s: 1.0,
            len: 3,
            sum,
        };
        agree("t", &[("A", run(6)), ("B", run(7))]);
    }

    #[test]
    fn runs_count_what_they_cover() {
        let _bytes = moving_bytes();
        let base: Vec<u64> = (0..2_000).map(|i| i * 4).collect();
        let stream: Vec<u64> = (0..1_000).map(|i| i * 4 + 1).collect();
        let runs = for_each_set!(S => batch_run::<S>(&base, &stream, 200, Op::Insert));
        agree("insert", &runs);
        assert_eq!(runs[0].1.len, 3_000);
        let set = Cpma::build_sorted(&base);
        let r = range_run(&set, &[0, 400], 40);
        assert_eq!(
            (r.len, r.sum),
            (20, (0..10).map(|i| i * 4).sum::<u64>() * 2 + 4000)
        );
    }
}
