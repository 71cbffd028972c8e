//! Minimal micro-benchmark harness (the offline stand-in for criterion).
//!
//! Each measurement warms up, then runs timed batches until a time budget
//! is spent, and reports the per-iteration median over batches. Output is
//! one line per benchmark plus a `csv,bench,...` line for scripting, the
//! same convention as the harness binaries.
//!
//! Every measurement is also recorded in memory; call
//! [`Bencher::write_json`] at the end of a run to emit a machine-readable
//! `BENCH_<tag>.json` (name, params, median ns/op, throughput) — the
//! artifact perf-trajectory tooling diffs across commits.

use std::cell::RefCell;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a computed value (criterion's
/// `black_box`; the std one is stabilized but this keeps call sites
/// dependency-shaped).
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One recorded measurement, destined for `BENCH_<tag>.json`.
struct JsonEntry {
    name: String,
    /// `(key, value)` pairs; values that parse as numbers are emitted as
    /// JSON numbers, everything else as strings.
    params: Vec<(String, String)>,
    median_ns_per_op: f64,
    ops_per_sec: f64,
}

/// A benchmark group with a shared time budget per measurement.
pub struct Bencher {
    warmup: Duration,
    budget: Duration,
    entries: RefCell<Vec<JsonEntry>>,
}

impl Default for Bencher {
    fn default() -> Self {
        Self {
            warmup: Duration::from_millis(200),
            budget: Duration::from_millis(800),
            entries: RefCell::new(Vec::new()),
        }
    }
}

impl Bencher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the per-benchmark measuring budget.
    pub fn budget(mut self, d: Duration) -> Self {
        self.budget = d;
        self
    }

    /// Measure `f` and print `name: <median>/iter`; returns the median
    /// seconds per iteration.
    pub fn bench(&self, name: &str, mut f: impl FnMut()) -> f64 {
        // Warmup: learn an iteration count that makes ~10ms batches.
        let warm_start = Instant::now();
        let mut iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            f();
            iters += 1;
        }
        let per_iter = self.warmup.as_secs_f64() / iters.max(1) as f64;
        let batch = ((0.01 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.budget {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        println!(
            "{name:<40} {:>12}/iter  ({} batches of {batch})",
            fmt_secs(median),
            samples.len()
        );
        println!("csv,bench,{name},{median:e}");
        self.record(name, &[], median);
        median
    }

    /// criterion's `iter_batched`: run `setup` outside the clock, time only
    /// `routine`. For measurements whose input is consumed or mutated (a
    /// batch insert into a freshly built structure, say) — `bench` would
    /// charge the rebuild to the measurement.
    pub fn bench_batched<T>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T),
    ) -> f64 {
        // Warmup (untimed): learn roughly how long one routine run takes.
        let mut probe_secs = f64::MAX;
        let warm_start = Instant::now();
        loop {
            let input = setup();
            let t = Instant::now();
            routine(input);
            probe_secs = probe_secs.min(t.elapsed().as_secs_f64());
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }

        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.budget || samples.is_empty() {
            let input = setup();
            let t = Instant::now();
            routine(input);
            samples.push(t.elapsed().as_secs_f64());
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        println!(
            "{name:<40} {:>12}/iter  ({} timed runs, setup excluded)",
            fmt_secs(median),
            samples.len()
        );
        println!("csv,bench,{name},{median:e}");
        self.record(name, &[], median);
        median
    }

    /// Record an externally measured result (e.g. a whole-run wall-clock
    /// throughput sweep) so it lands in [`Bencher::write_json`] alongside
    /// the harnessed measurements. `secs_per_op` is the median (or only)
    /// per-operation cost in seconds.
    pub fn record(&self, name: &str, params: &[(&str, String)], secs_per_op: f64) {
        cpma_obs::global()
            .shared_counter("bench.measurements", cpma_obs::Unit::Count)
            .inc();
        self.entries.borrow_mut().push(JsonEntry {
            name: name.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            median_ns_per_op: secs_per_op * 1e9,
            ops_per_sec: if secs_per_op > 0.0 {
                1.0 / secs_per_op
            } else {
                0.0
            },
        });
    }

    /// Write everything measured so far to `BENCH_<tag>.json` in the
    /// current directory and return the path. The format is one object
    /// with a `bench` label and an `entries` array of
    /// `{name, params, median_ns_per_op, ops_per_sec}` — flat and stable
    /// on purpose, so perf-trajectory tooling can diff runs.
    pub fn write_json(&self, tag: &str) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{tag}.json"));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string(tag)));
        out.push_str("  \"entries\": [\n");
        let entries = self.entries.borrow();
        for (i, e) in entries.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_string(&e.name)));
            out.push_str("\"params\": {");
            for (j, (k, v)) in e.params.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(k), json_value(v)));
            }
            out.push_str("}, ");
            out.push_str(&format!(
                "\"median_ns_per_op\": {}, \"ops_per_sec\": {}",
                json_number(e.median_ns_per_op),
                json_number(e.ops_per_sec)
            ));
            out.push('}');
            out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        let mut f = std::fs::File::create(&path)?;
        f.write_all(out.as_bytes())?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

/// A JSON string literal (the names and params here are ASCII identifiers,
/// but escape the essentials anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Param values: numbers stay numbers, everything else becomes a string.
fn json_value(v: &str) -> String {
    if v.parse::<f64>().map(|x| x.is_finite()).unwrap_or(false) {
        v.to_string()
    } else {
        json_string(v)
    }
}

/// A finite JSON number (JSON has no NaN/inf; clamp those to 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Human-readable seconds.
fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let b = Bencher::new().budget(Duration::from_millis(30));
        let mut acc = 0u64;
        let median = b.bench("test/noop_add", || {
            acc = black_box(acc.wrapping_add(1));
        });
        assert!(median > 0.0 && median < 0.1);
    }

    #[test]
    fn fmt_scales() {
        assert!(fmt_secs(5e-9).contains("ns"));
        assert!(fmt_secs(5e-5).contains("µs"));
        assert!(fmt_secs(5e-2).contains("ms"));
        assert!(fmt_secs(5.0).contains(" s"));
    }

    #[test]
    fn json_report_shape() {
        let b = Bencher::new();
        b.record(
            "store/insert",
            &[("writers", "8".to_string()), ("dist", "zipf".to_string())],
            1e-6,
        );
        let path = b.write_json("ubench_selftest").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(body.contains("\"bench\": \"ubench_selftest\""));
        assert!(body.contains("\"name\": \"store/insert\""));
        // Numeric params stay numbers, non-numeric become strings.
        assert!(body.contains("\"writers\": 8"));
        assert!(body.contains("\"dist\": \"zipf\""));
        assert!(body.contains("\"median_ns_per_op\": 1000"));
        assert!(body.contains("\"ops_per_sec\": 1000000"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_value("12.5"), "12.5");
        assert_eq!(json_value("NaN"), "\"NaN\"");
        assert_eq!(json_value("uniform"), "\"uniform\"");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
