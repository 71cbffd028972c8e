//! Histogram quantile math vs an exact sorted-sample oracle.
//!
//! The histogram's contract: `quantile(q)` returns the inclusive upper
//! bound of the bucket holding the rank-`ceil(q·n)` sample, so for the
//! exact oracle value `e` at that rank, `e <= quantile(q)` and the
//! overshoot is at most one bucket width (`<= max(1, e/16)` for our
//! 32-subbuckets-per-octave layout). Verified across uniform, zipf, and
//! point-mass distributions, plus merge associativity.

use cpma_obs::HistSnapshot;

/// SplitMix64 by hand: any home of the shared one depends on `crates/parallel`, which needs obs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Exact oracle: the rank-`ceil(q·n)` element of the sorted sample
/// (ranks clamp to `[1, n]`), i.e. the same rank definition the
/// histogram uses.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

const QS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 1.0];

fn check_against_oracle(samples: &[u64], what: &str) {
    let mut h = HistSnapshot::new();
    let mut sorted = samples.to_vec();
    for &v in samples {
        h.record(v);
    }
    sorted.sort_unstable();
    assert_eq!(h.count, samples.len() as u64);
    for q in QS {
        let e = oracle(&sorted, q);
        let r = h.quantile(q);
        assert!(
            e <= r && r - e <= (e / 16).max(1),
            "{what}: q={q} oracle={e} histogram={r}"
        );
    }
}

#[test]
fn uniform_distribution() {
    let mut rng = Rng(1);
    for range in [100u64, 10_000, 1 << 32] {
        let samples: Vec<u64> = (0..20_000).map(|_| rng.next() % range).collect();
        check_against_oracle(&samples, &format!("uniform[0,{range})"));
    }
}

#[test]
fn zipf_distribution() {
    // Zipf(s=1) over ranks 1..=N via inverse-CDF on the harmonic weights.
    const N: usize = 10_000;
    let mut cdf = Vec::with_capacity(N);
    let mut acc = 0.0f64;
    for k in 1..=N {
        acc += 1.0 / k as f64;
        cdf.push(acc);
    }
    let total = acc;
    let mut rng = Rng(2);
    let samples: Vec<u64> = (0..50_000)
        .map(|_| {
            let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
            let idx = cdf.partition_point(|&c| c < u).min(N - 1);
            (idx + 1) as u64
        })
        .collect();
    check_against_oracle(&samples, "zipf(s=1)");
}

#[test]
fn point_mass_distributions() {
    // All mass on one value: every quantile is that value's bucket.
    for v in [0u64, 1, 31, 32, 1_000_000, u64::MAX] {
        let samples = vec![v; 1000];
        check_against_oracle(&samples, &format!("point-mass@{v}"));
    }
    // Two-point mass: p50 must sit on the lower mode, p99 on the upper.
    let mut samples = vec![10u64; 600];
    samples.extend(std::iter::repeat_n(1_000_000u64, 400));
    let mut h = HistSnapshot::new();
    for &v in &samples {
        h.record(v);
    }
    assert_eq!(h.quantile(0.5), 10, "p50 lands exactly on the lower mode");
    let p99 = h.quantile(0.99);
    assert!(
        (1_000_000..=1_031_249).contains(&p99),
        "p99={p99} within one bucket of the upper mode"
    );
}

#[test]
fn small_values_are_exact_at_every_quantile() {
    // Values < 32 land in width-1 buckets: quantiles are exactly the oracle.
    let mut rng = Rng(3);
    let samples: Vec<u64> = (0..5_000).map(|_| rng.next() % 32).collect();
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    let mut h = HistSnapshot::new();
    for &v in &samples {
        h.record(v);
    }
    for q in QS {
        assert_eq!(h.quantile(q), oracle(&sorted, q), "q={q}");
    }
}

#[test]
fn merge_is_associative_and_commutative() {
    let mut rng = Rng(4);
    let mk = |rng: &mut Rng, n: usize, range: u64| {
        let mut h = HistSnapshot::new();
        for _ in 0..n {
            h.record(rng.next() % range);
        }
        h
    };
    let a = mk(&mut rng, 1000, 1 << 20);
    let b = mk(&mut rng, 2000, 1 << 10);
    let c = mk(&mut rng, 500, u64::MAX);

    // (a ⊕ b) ⊕ c
    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);
    // a ⊕ (b ⊕ c)
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(ab_c, a_bc, "merge is associative (bucket-exact)");

    // b ⊕ a == a ⊕ b
    let mut ba = b.clone();
    ba.merge(&a);
    let mut ab = a.clone();
    ab.merge(&b);
    assert_eq!(ab, ba, "merge is commutative (bucket-exact)");

    assert_eq!(ab_c.count, 3500);
}

#[test]
fn merge_of_shards_equals_whole() {
    // Recording a stream into one histogram or into 8 shards then merging
    // must produce the identical snapshot — the property that makes
    // per-shard cells safe to aggregate in the registry.
    let mut rng = Rng(5);
    let samples: Vec<u64> = (0..40_000)
        .map(|_| rng.next() >> (rng.next() % 50))
        .collect();
    let mut whole = HistSnapshot::new();
    let mut shards = vec![HistSnapshot::new(); 8];
    for (i, &v) in samples.iter().enumerate() {
        whole.record(v);
        shards[i % 8].record(v);
    }
    let mut merged = HistSnapshot::new();
    for s in &shards {
        merged.merge(s);
    }
    assert_eq!(whole, merged);
    for q in QS {
        assert_eq!(whole.quantile(q), merged.quantile(q));
    }
}
