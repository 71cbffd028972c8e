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

use cpma_api::{BatchSet, OrderedSet, ParallelChunks, RangeSet};
use cpma_pma::codec;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

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

    /// The chunk `key` falls in, by its head (`None` for the prefix), and
    /// the head of the chunk after it.
    fn chunk_of(&self, key: u64) -> (Option<u64>, Option<u64>) {
        let head = self.heads.range(..=key).next_back().map(|(&h, _)| h);
        let after = match head {
            Some(h) => (Bound::Excluded(h), Bound::Unbounded),
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        (head, self.heads.range(after).next().map(|(&h, _)| h))
    }

    /// Take the chunk headed by `head` (`None`: the prefix) out of the
    /// set, decoded; empty if there is none.
    fn take_chunk(&mut self, head: Option<u64>) -> Vec<u64> {
        let chunk = match head {
            Some(h) => self.heads.remove(&h),
            None => self.prefix.take(),
        };
        let mut out = Vec::new();
        if let Some(c) = chunk {
            c.decode(&mut out);
        }
        out
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
}

impl OrderedSet for CTreeSet {
    const NAME: &'static str = "C-tree";

    fn contains(&self, key: u64) -> bool {
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

    fn len(&self) -> usize {
        self.len
    }

    fn min(&self) -> Option<u64> {
        let first = self.prefix.as_ref().or(self.heads.values().next())?;
        let mut out = None;
        first.for_each(&mut |e| {
            out = Some(e);
            false
        });
        out
    }

    fn max(&self) -> Option<u64> {
        let last = self.heads.values().next_back().or(self.prefix.as_ref())?;
        let mut out = None;
        last.for_each(&mut |e| {
            out = Some(e);
            true
        });
        out
    }

    fn successor(&self, key: u64) -> Option<u64> {
        let mut out = None;
        self.scan_chunks_from(key, &mut |chunk| {
            out = Some(chunk[0]);
            false
        });
        out
    }

    /// Heap bytes: chunk payloads plus per-entry tree overhead (three words
    /// per head entry, modelling Aspen's tree nodes).
    fn size_bytes(&self) -> usize {
        let chunks = self
            .heads
            .values()
            .map(|c| c.bytes.len() + 16)
            .sum::<usize>();
        let prefix = self.prefix.as_ref().map_or(0, |c| c.bytes.len() + 16);
        chunks + prefix + self.heads.len() * 24
    }
}

impl BatchSet for CTreeSet {
    fn new_set() -> Self {
        Self::new()
    }

    fn build_sorted(elems: &[u64]) -> Self {
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

    /// Only the chunks containing batch keys are rewritten; new heads among
    /// the inserted keys split their chunk locally (chunk boundaries are
    /// value-determined, so the rewrite never cascades).
    fn insert_batch_sorted(&mut self, batch: &[u64]) -> usize {
        let mut added = 0;
        let mut i = 0;
        while i < batch.len() {
            // The run of batch keys belonging to the same existing chunk.
            let (head, next) = self.chunk_of(batch[i]);
            let run_end = next.map_or(batch.len(), |nh| {
                i + batch[i..].partition_point(|&e| e < nh)
            });
            let chunk_elems = self.take_chunk(head);
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

    /// Only the chunks containing batch keys are rewritten, plus the chunk
    /// before one whose head goes: its surviving followers join that
    /// chunk. A chunk the batch misses entirely is left as it is.
    fn remove_batch_sorted(&mut self, batch: &[u64]) -> usize {
        let mut removed = 0;
        let mut i = 0;
        while i < batch.len() && self.len > removed {
            let (head, next) = self.chunk_of(batch[i]);
            let run_end = next.map_or(batch.len(), |nh| {
                i + batch[i..].partition_point(|&e| e < nh)
            });
            let run = &batch[i..run_end];
            i = run_end;
            let chunk = match head {
                Some(h) => self.heads.get(&h),
                None => self.prefix.as_ref(),
            };
            let Some(chunk) = chunk else { continue };
            let mut elems = Vec::new();
            chunk.decode(&mut elems);
            let before = elems.len();
            elems.retain(|e| run.binary_search(e).is_err());
            if elems.len() == before {
                continue;
            }
            removed += before - elems.len();
            match head {
                Some(h) => drop(self.heads.remove(&h)),
                None => self.prefix = None,
            }
            // The head went: the followers join the chunk before it.
            if let Some(h) = head.filter(|&h| elems.first().is_some_and(|&f| f != h)) {
                let mut merged = self.take_chunk(self.chunk_of(h).0);
                merged.append(&mut elems);
                elems = merged;
            }
            self.write_run(&elems);
        }
        self.len -= removed;
        removed
    }
}

impl RangeSet for CTreeSet {
    /// One chunk per compressed chunk, each decoded into one reused
    /// buffer.
    fn scan_chunks_from(&self, start: u64, f: &mut dyn FnMut(&[u64]) -> bool) {
        let mut buf = Vec::new();
        // The chunk containing `start` may begin before it.
        let first = self.heads.range(..=start).next_back().map(|(_, c)| c);
        let rest = self
            .heads
            .range((Bound::Excluded(start), Bound::Unbounded))
            .map(|(_, c)| c);
        self.prefix.iter().chain(first).chain(rest).all(|c| {
            buf.clear();
            c.decode(&mut buf);
            let from = buf.partition_point(|&e| e < start);
            from == buf.len() || f(&buf[from..])
        });
    }
}

impl ParallelChunks for CTreeSet {}

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
        let t = CTreeSet::build_sorted(&elems);
        assert_eq!(t.len(), elems.len());
        assert_eq!(t.to_vec(), elems);
        for &e in elems.iter().step_by(997) {
            assert!(t.contains(e));
        }
        assert!(!t.contains(elems.last().unwrap() + 1));
    }

    #[test]
    fn empty_set() {
        let t = CTreeSet::new();
        assert!(t.is_empty());
        assert!(!t.contains(7));
        assert_eq!(t.range_sum(..), 0);
        assert_eq!(t.to_vec(), Vec::<u64>::new());
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
        assert_eq!(t.to_vec(), model.iter().copied().collect::<Vec<_>>());
        assert_eq!(t.range_sum(..), model.iter().sum::<u64>());
    }

    /// Removes that take heads, reach the prefix, miss, and finally empty
    /// the set match the model and leave the chunks a fresh build of the
    /// survivors has.
    #[test]
    fn removals_match_model() {
        let mut elems = lcg(10_000, 5, 26);
        elems.sort_unstable();
        elems.dedup();
        let mut t = CTreeSet::build_sorted(&elems);
        let mut model: BTreeSet<u64> = elems.iter().copied().collect();
        let rounds: [Vec<u64>; 4] = [
            elems.iter().step_by(3).copied().collect(),
            t.heads.keys().step_by(2).copied().collect(),
            elems.iter().map(|&e| e ^ 1).collect(),
            elems.clone(),
        ];
        for (r, mut dels) in rounds.into_iter().enumerate() {
            dels.sort_unstable();
            dels.dedup();
            let want = dels.iter().filter(|d| model.remove(d)).count();
            assert_eq!(t.remove_batch_sorted(&dels), want, "round {r}");
            assert_eq!(t.to_vec(), model.iter().copied().collect::<Vec<_>>());
            assert_fresh(&t, &format!("round {r}"));
        }
        assert!(t.is_empty() && t.prefix.is_none() && t.heads.is_empty());
    }

    #[test]
    fn for_range_matches_filter() {
        let mut elems = lcg(5000, 9, 24);
        elems.sort_unstable();
        elems.dedup();
        let t = CTreeSet::build_sorted(&elems);
        let (a, b) = (elems[100], elems[4000]);
        let mut seen = Vec::new();
        t.for_range(a..b, |e| seen.push(e));
        let want: Vec<u64> = elems.iter().copied().filter(|&e| e >= a && e < b).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn chunk_statistics_reasonable() {
        let elems: Vec<u64> = (0..100_000u64).collect();
        let t = CTreeSet::build_sorted(&elems);
        // Expected chunk length 128 → ~780 heads for 100k elements.
        let heads = t.heads.len();
        assert!(heads > 400 && heads < 1600, "heads = {heads}");
        // Dense run compresses to ~1 byte/element.
        assert!(t.size_bytes() < 100_000 * 2, "{}", t.size_bytes());
    }

    #[test]
    fn insert_creating_new_heads_splits_chunks() {
        // Insert keys until statistically some of them must be heads.
        let mut t = CTreeSet::build_sorted(&(0..1000u64).map(|i| i * 1000).collect::<Vec<_>>());
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
        assert_eq!(t.to_vec(), all);
    }

    /// Where each chunk's bytes live, by head (`None`: the prefix).
    fn allocations(t: &CTreeSet) -> BTreeMap<Option<u64>, *const u8> {
        let prefix = t.prefix.iter().map(|c| (None, c.bytes.as_ptr()));
        let heads = t.heads.iter().map(|(&h, c)| (Some(h), c.bytes.as_ptr()));
        prefix.chain(heads).collect()
    }

    /// The same chunks, byte for byte, as a fresh build of the same keys.
    fn assert_fresh(t: &CTreeSet, what: &str) {
        let fresh = CTreeSet::build_sorted(&t.to_vec());
        let bytes = |t: &CTreeSet| -> Vec<(Option<u64>, Box<[u8]>)> {
            let prefix = t.prefix.iter().map(|c| (None, c.bytes.clone()));
            let heads = t.heads.iter().map(|(&h, c)| (Some(h), c.bytes.clone()));
            prefix.chain(heads).collect()
        };
        assert!(
            bytes(t) == bytes(&fresh),
            "{what}: chunks differ from a fresh build"
        );
        assert_eq!(t.len(), fresh.len(), "{what}: len");
    }

    /// A remove rewrites only the chunks its keys fall in, and the chunk
    /// before one whose head it removes: after a 10-key remove from
    /// 100 000 keys, every chunk outside that span keeps its allocation,
    /// and the chunks equal a fresh build.
    #[test]
    fn remove_rewrites_only_its_own_chunks() {
        let elems: Vec<u64> = (0..100_000u64).map(|i| i * 3).collect();
        let mut t = CTreeSet::build_sorted(&elems);
        // Ten keys around the middle, the first of them a chunk head.
        let mid = *t.heads.keys().nth(t.heads.len() / 2).unwrap();
        let batch: Vec<u64> = (0..10u64).map(|i| mid + 30 * i).collect();
        let lo = t.heads.range(..mid).next_back().map(|(&h, _)| h).unwrap();
        let hi = *batch.last().unwrap();
        let before = allocations(&t);
        assert_eq!(t.remove_batch_sorted(&batch), 10);
        assert!(!t.heads.contains_key(&mid), "the head went");
        let after = allocations(&t);
        let outside = |h: &Option<u64>| h.is_none_or(|h| h < lo || h > hi);
        let kept: Vec<_> = before.iter().filter(|(h, _)| outside(h)).collect();
        assert!(kept.len() > 700, "{} chunks outside the span", kept.len());
        for (h, ptr) in kept {
            assert_eq!(after.get(h), Some(ptr), "chunk {h:?} was rewritten");
        }
        assert_fresh(&t, "10-key remove");
    }
}
