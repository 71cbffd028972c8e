//! Count, not clock: a served scan page is filled a leaf at a time.
//!
//! `server::scan_page` over `ShardedSet<Cpma, 8>` — the `service_mixed`
//! store — must call its visitor at most once per non-empty leaf the page
//! spans, plus once per shard (each shard's scan ends on a chunk of its
//! own), never once per key; and the per-key `scan_from` default over the
//! same chunks must call its closure exactly once per key. The page itself
//! is checked against a `BTreeSet` oracle.

use cpma_api::{BatchSet, OrderedSet, RangeSet};
use cpma_pma::{Cpma, LeafStorage};
use cpma_service::server::scan_page;
use cpma_store::ShardedSet;
use cpma_workloads::uniform_keys;
use std::cell::Cell;
use std::collections::BTreeSet;

type Store = ShardedSet<Cpma, 8>;

/// Keys per page: the server's default scan limit.
const PAGE: usize = 64 * 1024;

/// A set that counts the chunks its scans hand out.
struct Counted<'a> {
    set: &'a Store,
    chunks: Cell<usize>,
}

impl OrderedSet<u64> for Counted<'_> {
    const NAME: &'static str = "counted";

    fn contains(&self, key: u64) -> bool {
        self.set.contains(key)
    }

    fn len(&self) -> usize {
        self.set.len()
    }

    fn min(&self) -> Option<u64> {
        self.set.min()
    }

    fn max(&self) -> Option<u64> {
        self.set.max()
    }

    fn successor(&self, key: u64) -> Option<u64> {
        self.set.successor(key)
    }

    fn size_bytes(&self) -> usize {
        self.set.size_bytes()
    }
}

impl RangeSet<u64> for Counted<'_> {
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        self.set.scan_chunks_from(start, &mut |chunk| {
            self.chunks.set(self.chunks.get() + 1);
            f(chunk)
        });
    }
}

/// Non-empty leaves, over all shards, holding a key in `lo..=hi`.
fn leaves_spanned(set: &Store, lo: u64, hi: u64) -> usize {
    let mut spanned = 0;
    for shard in set.shards() {
        let storage = shard.storage();
        for leaf in 0..storage.num_leaves() {
            if storage.count(leaf) > 0
                && storage.head(leaf) <= hi
                && storage.leaf_max(leaf) >= Some(lo)
            {
                spanned += 1;
            }
        }
    }
    spanned
}

#[test]
fn a_scan_page_visits_leaves_not_keys() {
    // Uniform 40-bit keys, as in `service_mixed`: every leaf delta-coded.
    let mut keys = uniform_keys(500_000, 40, 0x5CA9);
    keys.sort_unstable();
    keys.dedup();
    let oracle: BTreeSet<u64> = keys.iter().copied().collect();
    let set = Store::build_sorted(&keys);
    let counted = Counted {
        set: &set,
        chunks: Cell::new(0),
    };
    let shards = set.shard_count();
    // From the bottom, across the first splitter, from inside the last
    // shard to the end of the set (a short page), and from past the end.
    let cut = keys.partition_point(|&k| k < set.splitters()[0]);
    let starts = [
        0,
        keys[cut - PAGE / 2],
        keys[keys.len() - PAGE / 2],
        u64::MAX,
    ];
    for lo in starts {
        counted.chunks.set(0);
        let page = scan_page(&counted, lo, PAGE);
        let want: Vec<u64> = oracle.range(lo..).take(PAGE).copied().collect();
        assert_eq!(page, want, "page from {lo}");
        let visits = counted.chunks.get();
        let Some((&first, &last)) = page.first().zip(page.last()) else {
            assert_eq!(visits, 0, "empty page from {lo}");
            continue;
        };
        let leaves = leaves_spanned(&set, first, last);
        assert!(
            visits <= leaves + shards,
            "page from {lo}: {visits} visits for {} keys over {leaves} leaves",
            page.len()
        );

        let mut calls = 0;
        let mut seen = Vec::with_capacity(page.len());
        set.scan_from(lo, &mut |k| {
            calls += 1;
            seen.push(k);
            calls < page.len()
        });
        assert_eq!(calls, page.len(), "per-key scan from {lo}: calls");
        assert_eq!(seen, page, "per-key scan from {lo}: keys");
    }
}
