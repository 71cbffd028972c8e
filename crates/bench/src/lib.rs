//! Shared support for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` (see DESIGN.md §5 for the full index). This library holds
//! the pieces they share: a tiny CLI parser, timing helpers, thread-pool
//! control, and structure-agnostic drivers for the batch-insert and
//! range-query sweeps.
//!
//! The drivers are generic over the canonical [`cpma_api`] trait hierarchy
//! (re-exported here for the binaries): any [`BatchSet`] +
//! [`RangeSet`] — the six paper structures, `BTreeSet`, or anything new —
//! slots into every sweep unchanged.
//!
//! Conventions:
//! * defaults are laptop-scale; `--n` / `--queries` / `--threads` scale up
//!   to the paper's sizes (the paper starts structures at 1e8 elements);
//! * all binaries print a human-readable table followed by CSV lines
//!   prefixed with `csv,` for scripting.

use std::time::Instant;

pub use cpma_api::{normalize_batch, BatchSet, RangeSet};

pub mod ubench;

/// Minimal `--key value` CLI parser (no external deps by design).
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].trim_start_matches("--").to_string();
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                pairs.push((key, argv[i + 1].clone()));
                i += 2;
            } else {
                pairs.push((key, "true".to_string()));
                i += 1;
            }
        }
        Self { pairs }
    }

    /// String value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed value for `key`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run `f` inside a fresh rayon pool with `threads` workers (strong-scaling
/// sweeps build one pool per configuration, like the paper's
/// `PARLAY_NUM_THREADS`). Note `CPMA_THREADS`, if set, caps the budget —
/// a sweep run under `CPMA_THREADS=1` is a valid serial baseline but not a
/// scaling measurement.
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

/// Available parallelism.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Powers of two up to `max`, always including `max` (the paper's core
/// sweep 1,2,4,...,64,64h).
pub fn core_sweep(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut c = 1;
    while c < max {
        v.push(c);
        c *= 2;
    }
    v.push(max);
    v
}

/// Format a throughput in the paper's scientific-notation style (e.g. 1.4E6).
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let exp = x.abs().log10().floor() as i32;
    let mantissa = x / 10f64.powi(exp);
    format!("{mantissa:.1}E{exp}")
}

/// Batch sizes 10^1..=10^max_exp.
pub fn batch_sizes(max_exp: u32) -> Vec<usize> {
    (1..=max_exp).map(|e| 10usize.pow(e)).collect()
}

/// Measure batch-insert throughput for one structure: build it from `base`,
/// then insert `stream` in `batch_size` chunks; returns inserts/second over
/// the whole stream (paper Figures 1/11).
pub fn insert_throughput<S: BatchSet<u64>>(base: &[u64], stream: &[u64], batch_size: usize) -> f64 {
    let mut s = S::build_sorted(base);
    let (_, secs) = time(|| {
        let mut scratch = Vec::new();
        for chunk in stream.chunks(batch_size) {
            scratch.clear();
            scratch.extend_from_slice(chunk);
            let b = normalize_batch(&mut scratch);
            s.insert_batch_sorted(b);
        }
    });
    stream.len() as f64 / secs
}

/// Measure batch-delete throughput (paper Table 5): build from
/// `base ∪ stream`, then delete `stream` in chunks.
pub fn delete_throughput<S: BatchSet<u64>>(base: &[u64], stream: &[u64], batch_size: usize) -> f64 {
    let mut all: Vec<u64> = base.iter().chain(stream.iter()).copied().collect();
    let all = normalize_batch(&mut all);
    let mut s = S::build_sorted(all);
    let (_, secs) = time(|| {
        let mut scratch = Vec::new();
        for chunk in stream.chunks(batch_size) {
            scratch.clear();
            scratch.extend_from_slice(chunk);
            let b = normalize_batch(&mut scratch);
            s.remove_batch_sorted(b);
        }
    });
    stream.len() as f64 / secs
}

/// Range-query throughput: `queries` random ranges of width `width`
/// (keyspace 2^`bits`), processed in parallel; returns elements/second
/// (paper Figure 2). The structure is pre-built by the caller.
pub fn range_query_throughput<S: RangeSet<u64> + Sync>(
    s: &S,
    queries: usize,
    width: u64,
    bits: u32,
    seed: u64,
) -> f64 {
    use rayon::prelude::*;
    let space = 1u64 << bits;
    let starts: Vec<u64> = {
        let mut rng = cpma_workloads::SplitMix64::new(seed);
        (0..queries)
            .map(|_| rng.next_below(space.saturating_sub(width).max(1)))
            .collect()
    };
    // Elements visited ≈ len * width / space per query.
    let expected_total = (s.len() as f64) * (width as f64) / (space as f64) * queries as f64;
    let (_, secs) = time(|| {
        starts
            .par_iter()
            .map(|&a| s.range_sum(a..a.saturating_add(width)))
            .reduce(|| 0u64, u64::wrapping_add)
    });
    expected_total / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_format() {
        assert_eq!(sci(1_400_000.0), "1.4E6");
        assert_eq!(sci(185.0), "1.9E2");
        assert_eq!(sci(0.0), "0");
    }

    #[test]
    fn core_sweep_includes_endpoints() {
        assert_eq!(core_sweep(1), vec![1]);
        assert_eq!(core_sweep(2), vec![1, 2]);
        assert_eq!(core_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(core_sweep(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn args_parse_pairs_and_flags() {
        // Args::parse reads process args; test the accessors via a built value.
        let a = Args {
            pairs: vec![("n".into(), "100".into()), ("space".into(), "true".into())],
        };
        assert_eq!(a.get_or("n", 5usize), 100);
        assert_eq!(a.get_or("missing", 5usize), 5);
        assert!(a.flag("space"));
        assert!(!a.flag("other"));
    }

    #[test]
    fn drivers_smoke_test() {
        let base: Vec<u64> = (0..10_000u64).map(|i| i * 17 % (1 << 20)).collect();
        let mut base = base;
        let base = normalize_batch(&mut base).to_vec();
        let stream: Vec<u64> = (0..5_000u64).map(|i| i * 13 + 7).collect();
        let tp = insert_throughput::<cpma_pma::Cpma>(&base, &stream, 500);
        assert!(tp > 0.0);
        let tp = delete_throughput::<cpma_pma::Pma<u64>>(&base, &stream, 500);
        assert!(tp > 0.0);
        let s = cpma_pma::Cpma::from_sorted(&base);
        let tp = range_query_throughput(&s, 50, 1 << 10, 20, 1);
        assert!(tp > 0.0);
        // Every structure in the evaluation fits the same driver.
        let tp = insert_throughput::<cpma_baselines::CTreeSet>(&base, &stream, 500);
        assert!(tp > 0.0);
        let tp = insert_throughput::<std::collections::BTreeSet<u64>>(&base, &stream, 500);
        assert!(tp > 0.0);
    }
}
