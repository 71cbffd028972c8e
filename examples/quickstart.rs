//! Quickstart: the CPMA as a drop-in dynamic ordered set.
//!
//! Mirrors the paper artifact's API walk-through through the canonical
//! `cpma::api` traits: build, batch updates, point queries, std-idiom
//! range queries, iteration, and the fallible config builder.
//!
//! Run with: `cargo run --release --example quickstart`

use cpma::pma::PmaConfig;
use cpma::prelude::*;

fn main() {
    // Build empty, insert points.
    let mut set = Cpma::new();
    for k in [42u64, 7, 999, 7] {
        set.insert(k); // duplicate 7 is ignored: it's a set
    }
    assert_eq!(set.len(), 3);
    println!("after point inserts: len = {}", set.len());

    // Batch insert (unsorted input is fine; returns how many were new).
    let mut batch: Vec<u64> = (0..100_000u64).map(|i| i * 3 + 1).collect();
    let added = set.insert_batch(&mut batch, false);
    println!("batch insert added {added} keys; len = {}", set.len());

    // Point queries (OrderedSet).
    assert!(set.contains(42));
    assert!(set.contains(4));
    assert_eq!(set.successor(5), Some(7));
    assert_eq!(set.min(), Some(1));

    // Ordered scans with std range syntax (RangeSet).
    let first_five: Vec<u64> = set.range_iter(..).take(5).collect();
    println!("first five keys: {first_five:?}");
    let in_range = {
        let mut c = 0u64;
        set.for_range(1_000..2_000, |_| c += 1);
        c
    };
    println!("keys in 1000..2000: {in_range}");
    println!(
        "sum of keys in 1000..=2000: {}",
        set.range_sum(1_000..=2_000)
    );
    println!("sum of all keys: {}", set.range_sum(..));

    // Batch delete.
    let mut evens: Vec<u64> = (0..100_000u64).map(|i| i * 6 + 4).collect();
    let removed = set.remove_batch(&mut evens, false);
    println!("batch delete removed {removed} keys; len = {}", set.len());

    // Memory accounting (the artifact's get_size()).
    println!(
        "memory: {} bytes total, {:.2} bytes/element",
        set.size_bytes(),
        set.size_bytes() as f64 / set.len() as f64
    );

    // Iterate in order (first 3), a leaf decoded at a time.
    let head: Vec<u64> = set.iter_all().take(3).collect();
    println!("smallest three: {head:?}");

    // Custom configuration: a struct literal, validated by `check`.
    let cfg = PmaConfig {
        growing_factor: 1.5,
        ..PmaConfig::default()
    };
    cfg.check().expect("valid config");
    let tuned: Cpma = Cpma::with_config(cfg);
    assert!(tuned.is_empty());
    let bad = PmaConfig {
        growing_factor: 0.5,
        ..PmaConfig::default()
    };
    assert!(bad.check().is_err());
    println!("check rejects growing_factor 0.5, accepts 1.5 — config errors are values");
}
