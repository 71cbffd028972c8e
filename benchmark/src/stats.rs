//! Order statistics over small sample vectors.
//!
//! Every reported number is a median over repetitions (or a percentile
//! over pooled per-batch samples); the A/A gate additionally needs
//! quartiles. The quartile rule is the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, because that is what the driver
//! computes spreads with.

/// Value at position `p` (`0.0..=1.0`) of the "exclusive" quantile method:
/// rank `p·(n+1)` (1-based), linearly interpolated, clamped to the sample
/// range. `p = 0.5` is the ordinary median. Panics on an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = p * (v.len() as f64 + 1.0);
    let lo = rank.floor();
    if lo < 1.0 {
        return v[0];
    }
    if lo >= v.len() as f64 {
        return v[v.len() - 1];
    }
    let i = lo as usize; // 1-based rank of the lower neighbour
    v[i - 1] + (rank - lo) * (v[i] - v[i - 1])
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, median, q3)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    )
}

/// Interquartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in `0.0..=1.0`). Used for latency tails,
/// where an interpolated value between two real samples means nothing.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// How much worse `b` is than `a`, as a share of `a`: positive means `b`
/// regressed. `higher_is_better` flips the direction.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}
