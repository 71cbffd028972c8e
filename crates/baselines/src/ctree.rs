//! Aspen-style C-trees: hash-sampled heads with compressed chunks \[36].
//!
//! Aspen ("Low-latency graph streaming using compressed purely-functional
//! trees", PLDI '19) stores an ordered set as a search tree over *heads* —
//! elements whose hash falls in a 1/b sample — where each head carries a
//! difference-encoded chunk of the following non-head elements. Sampling
//! makes chunk boundaries a pure function of the element values, so an
//! update only ever rewrites the chunks its keys fall into: a property this
//! reimplementation preserves exactly.
//!
//! The search tree over heads is a `BTreeMap` here rather than a purely
//! functional AVL tree; what the CPMA paper's comparison exercises —
//! pointer hops, per-chunk decode costs, batch updates that rebuild
//! affected chunks — is retained ("Substitutions" in REPRODUCTION.md).

use cpma_pma::codec;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Expected chunk length (1 / sampling rate). Aspen's default is on the
/// order of dozens of elements; 128 keeps chunks within a few cache lines
/// once compressed.
const EXPECTED_CHUNK: u64 = 128;

/// Is `e` a chunk head? A 1/EXPECTED_CHUNK hash sample.
#[inline]
fn is_head(e: u64) -> bool {
    let mut z = e.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) & (EXPECTED_CHUNK - 1) == 0
}

/// A difference-encoded run (first element stored raw inside the bytes).
struct Chunk {
    bytes: Box<[u8]>,
}

impl Chunk {
    fn encode(elems: &[u64]) -> Self {
        debug_assert!(!elems.is_empty());
        let len = codec::encoded_run_len(elems, 8);
        let mut bytes = vec![0u8; len];
        codec::encode_run(elems, &mut bytes);
        Chunk {
            bytes: bytes.into_boxed_slice(),
        }
    }

    fn decode(&self, out: &mut Vec<u64>) {
        codec::decode_run(&self.bytes, out);
    }

    fn for_each(&self, f: &mut dyn FnMut(u64) -> bool) -> bool {
        codec::for_each_in_run(&self.bytes, f)
    }
}

/// Ordered `u64` set stored as hash-chunked compressed runs. See module docs.
#[derive(Default)]
pub struct CTreeSet {
    /// Elements before the first head (Aspen's "prefix").
    prefix: Option<Chunk>,
    /// head → chunk of `[head, next head)` elements.
    heads: BTreeMap<u64, Chunk>,
    len: usize,
}

impl CTreeSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a sorted, deduplicated slice.
    pub fn from_sorted(elems: &[u64]) -> Self {
        debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
        if elems.is_empty() {
            return Self::new();
        }
        // Chunk boundaries = head positions; encode chunks in parallel.
        let mut bounds: Vec<usize> = Vec::new();
        for (i, &e) in elems.iter().enumerate() {
            if is_head(e) {
                bounds.push(i);
            }
        }
        let prefix_end = bounds.first().copied().unwrap_or(elems.len());
        let prefix = if prefix_end > 0 {
            Some(Chunk::encode(&elems[..prefix_end]))
        } else {
            None
        };
        let heads: BTreeMap<u64, Chunk> = bounds
            .par_iter()
            .enumerate()
            .map(|(bi, &start)| {
                let end = bounds.get(bi + 1).copied().unwrap_or(elems.len());
                (elems[start], Chunk::encode(&elems[start..end]))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        Self {
            prefix,
            heads,
            len: elems.len(),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes: chunk payloads plus per-entry tree overhead (three words
    /// per head entry, modelling Aspen's tree nodes).
    pub fn size_bytes(&self) -> usize {
        let chunks = self
            .heads
            .values()
            .map(|c| c.bytes.len() + 16)
            .sum::<usize>();
        let prefix = self.prefix.as_ref().map_or(0, |c| c.bytes.len() + 16);
        chunks + prefix + self.heads.len() * 24
    }

    /// Membership test.
    pub fn has(&self, key: u64) -> bool {
        let chunk = match self.heads.range(..=key).next_back() {
            Some((_, c)) => c,
            None => match &self.prefix {
                Some(c) => c,
                None => return false,
            },
        };
        let mut found = false;
        chunk.for_each(&mut |e| {
            if e >= key {
                found = e == key;
                return false;
            }
            true
        });
        found
    }

    /// Batch insert of a sorted, deduplicated slice; returns #added.
    ///
    /// Only the chunks containing batch keys are rewritten; new heads among
    /// the inserted keys split their chunk locally (chunk boundaries are
    /// value-determined, so the rewrite never cascades).
    pub fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let mut added = 0;
        let mut i = 0;
        while i < batch.len() {
            let key = batch[i];
            // The run of batch keys belonging to the same existing chunk.
            let (chunk_elems, run_end) = match self.heads.range(..=key).next_back() {
                Some((&h, _)) => {
                    let next = self
                        .heads
                        .range((std::ops::Bound::Excluded(h), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(&nh, _)| nh);
                    let run_end = match next {
                        Some(nh) => i + batch[i..].partition_point(|&e| e < nh),
                        None => batch.len(),
                    };
                    let mut cur = Vec::new();
                    self.heads.get(&h).unwrap().decode(&mut cur);
                    self.heads.remove(&h);
                    (cur, run_end)
                }
                None => {
                    // Prefix chunk (keys below the first head).
                    let first_head = self.heads.keys().next().copied();
                    let run_end = match first_head {
                        Some(fh) => i + batch[i..].partition_point(|&e| e < fh),
                        None => batch.len(),
                    };
                    let mut cur = Vec::new();
                    if let Some(c) = self.prefix.take() {
                        c.decode(&mut cur);
                    }
                    (cur, run_end)
                }
            };
            // Merge and re-chunk locally.
            let mut merged = Vec::with_capacity(chunk_elems.len() + (run_end - i));
            let (mut a, mut b) = (0, i);
            while a < chunk_elems.len() && b < run_end {
                match chunk_elems[a].cmp(&batch[b]) {
                    std::cmp::Ordering::Less => {
                        merged.push(chunk_elems[a]);
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(batch[b]);
                        added += 1;
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(chunk_elems[a]);
                        a += 1;
                        b += 1;
                    }
                }
            }
            merged.extend_from_slice(&chunk_elems[a..]);
            while b < run_end {
                merged.push(batch[b]);
                added += 1;
                b += 1;
            }
            self.write_run(&merged);
            i = run_end;
        }
        self.len += added;
        added
    }

    /// Batch remove of a sorted, deduplicated slice; returns #removed.
    pub fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() || self.len == 0 {
            return 0;
        }
        // Collect + difference + rebuild of affected chunks. Removing a head
        // merges its survivors into the preceding chunk, so we conservatively
        // rebuild from the whole affected span: simplest correct form.
        let mut all = self.collect();
        let mut out = Vec::with_capacity(all.len());
        let mut j = 0;
        let mut removed = 0;
        for &e in &all {
            while j < batch.len() && batch[j] < e {
                j += 1;
            }
            if j < batch.len() && batch[j] == e {
                removed += 1;
                j += 1;
            } else {
                out.push(e);
            }
        }
        all.clear();
        *self = Self::from_sorted(&out);
        removed
    }

    /// Write a merged run back as prefix/head chunks (splitting on heads).
    fn write_run(&mut self, merged: &[u64]) {
        if merged.is_empty() {
            return;
        }
        let mut start = 0;
        let mut cur_head: Option<u64> = if is_head(merged[0]) {
            Some(merged[0])
        } else {
            None
        };
        for (idx, &e) in merged.iter().enumerate().skip(1) {
            if is_head(e) {
                let slice = &merged[start..idx];
                match cur_head {
                    Some(h) => {
                        self.heads.insert(h, Chunk::encode(slice));
                    }
                    None => self.prefix = Some(Chunk::encode(slice)),
                }
                start = idx;
                cur_head = Some(e);
            }
        }
        let slice = &merged[start..];
        match cur_head {
            Some(h) => {
                self.heads.insert(h, Chunk::encode(slice));
            }
            None => self.prefix = Some(Chunk::encode(slice)),
        }
    }

    /// Smallest stored key.
    pub fn min(&self) -> Option<u64> {
        let mut out = None;
        self.for_each(&mut |e| {
            out = Some(e);
            false
        });
        out
    }

    /// Largest stored key.
    pub fn max(&self) -> Option<u64> {
        let last = self.heads.values().next_back().or(self.prefix.as_ref())?;
        let mut out = None;
        last.for_each(&mut |e| {
            out = Some(e);
            true
        });
        out
    }

    /// Hand the keys ≥ `start` to `f` a chunk at a time, each decoded into
    /// one reused buffer, until `f` returns false (the
    /// `RangeSet::scan_chunks_from` primitive); returns false iff stopped
    /// early.
    pub fn chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) -> bool {
        let mut buf = Vec::new();
        // The chunk containing `start` may begin before it.
        let first = self.heads.range(..=start).next_back().map(|(_, c)| c);
        let rest = self
            .heads
            .range((std::ops::Bound::Excluded(start), std::ops::Bound::Unbounded))
            .map(|(_, c)| c);
        self.prefix.iter().chain(first).chain(rest).all(|c| {
            buf.clear();
            c.decode(&mut buf);
            let from = buf.partition_point(|&e| e < start);
            from == buf.len() || f(&buf[from..])
        })
    }

    /// Apply `f` to all keys in order.
    pub fn for_each(&self, f: &mut dyn FnMut(u64) -> bool) {
        if let Some(p) = &self.prefix {
            if !p.for_each(f) {
                return;
            }
        }
        for c in self.heads.values() {
            if !c.for_each(f) {
                return;
            }
        }
    }

    /// Apply `f` to all keys in `[start, end)` in order.
    pub fn map_range(&self, start: u64, end: u64, f: &mut impl FnMut(u64)) {
        if start >= end {
            return;
        }
        let mut apply = |c: &Chunk| {
            c.for_each(&mut |e| {
                if e >= end {
                    return false;
                }
                if e >= start {
                    f(e);
                }
                true
            })
        };
        // The chunk containing `start` may begin before it.
        if let Some(p) = &self.prefix {
            if !apply(p) {
                return;
            }
        }
        for (_, c) in self.heads.range(..=start).next_back().into_iter().chain(
            self.heads
                .range((std::ops::Bound::Excluded(start), std::ops::Bound::Unbounded)),
        ) {
            if !apply(c) {
                return;
            }
        }
    }

    /// Parallel sum of all keys.
    pub fn sum(&self) -> u64 {
        let chunks: Vec<&Chunk> = self.prefix.iter().chain(self.heads.values()).collect();
        chunks
            .par_iter()
            .map(|c| {
                let mut s = 0u64;
                c.for_each(&mut |e| {
                    s = s.wrapping_add(e);
                    true
                });
                s
            })
            .reduce(|| 0, u64::wrapping_add)
    }

    /// All keys in order.
    pub fn collect(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(p) = &self.prefix {
            p.decode(&mut out);
        }
        for c in self.heads.values() {
            c.decode(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn lcg(n: usize, seed: u64, bits: u32) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> (64 - bits)
            })
            .collect()
    }

    #[test]
    fn build_roundtrip() {
        let mut elems = lcg(20_000, 3, 34);
        elems.sort_unstable();
        elems.dedup();
        let t = CTreeSet::from_sorted(&elems);
        assert_eq!(t.len(), elems.len());
        assert_eq!(t.collect(), elems);
        for &e in elems.iter().step_by(997) {
            assert!(t.has(e));
        }
        assert!(!t.has(elems.last().unwrap() + 1));
    }

    #[test]
    fn empty_set() {
        let t = CTreeSet::new();
        assert!(t.is_empty());
        assert!(!t.has(7));
        assert_eq!(t.sum(), 0);
        assert_eq!(t.collect(), Vec::<u64>::new());
        assert_eq!(t.size_bytes(), 0);
    }

    #[test]
    fn batch_inserts_match_model() {
        let mut t = CTreeSet::new();
        let mut model = BTreeSet::new();
        for round in 0..6u64 {
            let mut keys = lcg(4000, round + 10, 28);
            keys.sort_unstable();
            keys.dedup();
            let before = model.len();
            model.extend(keys.iter().copied());
            let added = t.insert_batch_sorted(&keys);
            assert_eq!(added, model.len() - before, "round {round}");
        }
        assert_eq!(t.collect(), model.iter().copied().collect::<Vec<_>>());
        assert_eq!(t.sum(), model.iter().sum::<u64>());
    }

    #[test]
    fn removals_match_model() {
        let mut elems = lcg(10_000, 5, 26);
        elems.sort_unstable();
        elems.dedup();
        let mut t = CTreeSet::from_sorted(&elems);
        let mut model: BTreeSet<u64> = elems.iter().copied().collect();
        let dels: Vec<u64> = elems.iter().step_by(3).copied().collect();
        let removed = t.remove_batch_sorted(&dels);
        for d in &dels {
            model.remove(d);
        }
        assert_eq!(removed, dels.len());
        assert_eq!(t.len(), model.len());
        assert_eq!(t.collect(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn map_range_matches_filter() {
        let mut elems = lcg(5000, 9, 24);
        elems.sort_unstable();
        elems.dedup();
        let t = CTreeSet::from_sorted(&elems);
        let (a, b) = (elems[100], elems[4000]);
        let mut seen = Vec::new();
        t.map_range(a, b, &mut |e| seen.push(e));
        let want: Vec<u64> = elems.iter().copied().filter(|&e| e >= a && e < b).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn chunk_statistics_reasonable() {
        let elems: Vec<u64> = (0..100_000u64).collect();
        let t = CTreeSet::from_sorted(&elems);
        // Expected chunk length 128 → ~780 heads for 100k elements.
        let heads = t.heads.len();
        assert!(heads > 400 && heads < 1600, "heads = {heads}");
        // Dense run compresses to ~1 byte/element.
        assert!(t.size_bytes() < 100_000 * 2, "{}", t.size_bytes());
    }

    #[test]
    fn insert_creating_new_heads_splits_chunks() {
        // Insert keys until statistically some of them must be heads.
        let mut t = CTreeSet::from_sorted(&(0..1000u64).map(|i| i * 1000).collect::<Vec<_>>());
        let heads_before = t.heads.len();
        let extra: Vec<u64> = (0..5000u64).map(|i| i * 200 + 7).collect();
        let mut uniq = extra.clone();
        uniq.sort_unstable();
        uniq.dedup();
        t.insert_batch_sorted(&uniq);
        assert!(t.heads.len() > heads_before);
        let mut all: Vec<u64> = (0..1000u64).map(|i| i * 1000).collect();
        all.extend(uniq);
        all.sort_unstable();
        all.dedup();
        assert_eq!(t.collect(), all);
    }
}
