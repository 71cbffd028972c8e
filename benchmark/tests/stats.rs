//! Order statistics: the quartile rule must be the one the driver uses
//! (Python's `statistics.quantiles(values, n=4)`, "exclusive" method).

use cpma_benchmark::stats::{iqr_share, median, percentile, quantile, quartiles, worsening};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
}

#[test]
fn quantile_clamps_to_the_sample_range() {
    let v = [10.0, 20.0];
    assert_eq!(quantile(&v, 0.0), 10.0);
    assert_eq!(quantile(&v, 1.0), 20.0);
    assert_eq!(quantile(&v, 0.5), 15.0);
}

#[test]
fn iqr_share_is_relative_to_the_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 0.5), 50.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
    // never interpolates between samples
    assert_eq!(percentile(&[1.0, 1000.0], 0.5), 1.0);
}

#[test]
fn worsening_respects_direction() {
    // throughput fell 10 %: worse by 10 %
    assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
    // latency rose 10 %: worse by 10 %
    assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
    // improvements are negative
    assert!(worsening(100.0, 120.0, true) < 0.0);
    assert!(worsening(100.0, 80.0, false) < 0.0);
}
