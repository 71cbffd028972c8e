//! Microbenchmarks for the point operations and codecs: the
//! regression-style counterpart to the table/figure harness binaries.
//! Runs on the in-repo `ubench` harness (`cargo bench -p cpma-bench`).

use cpma_bench::ubench::{black_box, Bencher};
use cpma_pma::{codec, Cpma, Pma};
use cpma_workloads::{dedup_sorted, uniform_keys};

fn bench_codec(b: &Bencher) {
    let elems = dedup_sorted(uniform_keys(10_000, 40, 1));
    let len = codec::encoded_run_len(&elems, 8);
    let mut buf = vec![0u8; len];
    b.bench("codec/encode_10k", || {
        codec::encode_run(black_box(&elems), &mut buf);
    });
    codec::encode_run(&elems, &mut buf);
    b.bench("codec/decode_10k", || {
        let mut out = Vec::with_capacity(elems.len());
        codec::decode_run(black_box(&buf), &mut out);
        black_box(out);
    });
}

fn bench_point_ops(b: &Bencher) {
    let base = dedup_sorted(uniform_keys(100_000, 40, 2));
    let probes = uniform_keys(1_000, 40, 3);
    let pma = Pma::<u64>::from_sorted(&base);
    let cpma = Cpma::from_sorted(&base);
    b.bench("point/pma_search_1k", || {
        black_box(probes.iter().filter(|&&k| pma.has(black_box(k))).count());
    });
    b.bench("point/cpma_search_1k", || {
        black_box(probes.iter().filter(|&&k| cpma.has(black_box(k))).count());
    });
    let mut p = Pma::<u64>::from_sorted(&base);
    b.bench("point/pma_insert_remove_1k", || {
        for &k in &probes {
            p.insert(k);
        }
        for &k in &probes {
            p.remove(k);
        }
    });
    let mut c = Cpma::from_sorted(&base);
    b.bench("point/cpma_insert_remove_1k", || {
        for &k in &probes {
            c.insert(k);
        }
        for &k in &probes {
            c.remove(k);
        }
    });
}

fn bench_scans(b: &Bencher) {
    use cpma_bench::RangeSet;
    let base = dedup_sorted(uniform_keys(200_000, 40, 4));
    let pma = Pma::<u64>::from_sorted(&base);
    let cpma = Cpma::from_sorted(&base);
    b.bench("scan/pma_sum", || {
        black_box(black_box(&pma).sum());
    });
    b.bench("scan/cpma_sum", || {
        black_box(black_box(&cpma).sum());
    });
    b.bench("scan/cpma_range_sum_1pct", || {
        black_box(black_box(&cpma).range_sum((1u64 << 30)..(1u64 << 30) + (1u64 << 40) / 100));
    });
}

fn main() {
    let b = Bencher::new();
    bench_codec(&b);
    bench_point_ops(&b);
    bench_scans(&b);
    b.write_json("micro").expect("write BENCH_micro.json");
}
