//! Seeded inputs and the harness-side oracle.
//!
//! Every workload draws its keys from one sorted **universe** `U` made by a
//! `cpma::workloads` generator from the seed. A subset of `U` is the base
//! the structure is built from; the rest is held out and fed in by the
//! insert operations, while removes hit base keys. Because every operation
//! addresses a key by its index in `U`, the oracle is a presence bitmap
//! over `U`: it replays the op streams in submission order and so knows
//! the acknowledgement of every single operation, the contents after the
//! updates, and — through prefix sums over the final bitmap — the exact
//! answer of every range, scan and membership query the run will make.
//! The library never sees any of this; it receives keys only.

use std::ops::Range;

use cpma::api::{normalize_batch, normalize_ops, BatchOp};
use cpma::workloads::rng::mix64;
use cpma::workloads::{pack_edge, unpack_edge, ClusteredKeys, RmatGenerator, SplitMix64};

/// Which generator makes the universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyShape {
    /// Uniform 40-bit keys; base membership decided per key.
    Uniform,
    /// Runs of consecutive keys (mean 256) with mean gap 2^16; base
    /// membership decided per key, so every run starts with holes that the
    /// inserts fill in (and the removes reopen) in random order.
    Clustered,
    /// Packed edges of a symmetrised RMAT graph; base membership decided
    /// per undirected edge and every update applied to both directions, so
    /// the graph is symmetric before, during and after the updates (the
    /// Ligra-style algorithms are only defined on symmetric graphs).
    Rmat { scale: u32 },
}

/// Operation counts of one repetition. [`Sizes::scaled`] derives the
/// warm-up (1/10) and `--quick` (1/20) variants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    /// Keys (edges) in the universe.
    pub universe: usize,
    /// Share of the universe that forms the base; the rest is held out
    /// and must cover the inserts of one repetition.
    pub base_share: f64,
    /// Times the base is built in one build phase (small bases are built
    /// several times so the phase is long enough to time).
    pub builds: usize,
    /// Small update batches per repetition and ops per batch.
    pub small_batches: usize,
    pub small_ops: usize,
    /// Large update batches per repetition and ops per batch.
    pub bulk_batches: usize,
    pub bulk_ops: usize,
    /// Range queries per repetition and elements each should cover
    /// (ignored for [`KeyShape::Rmat`], whose ranges are neighbourhoods).
    pub range_queries: usize,
    pub range_elems: usize,
    /// Whole-structure passes per scan phase: `range_sum(..)` calls (sets)
    /// or PageRank iterations (graph). The service's reader pages and
    /// queries for as long as the other connection writes; its range and
    /// probe counts are the size of the pool it cycles through.
    pub scans: usize,
    /// Membership probes per repetition, issued in chunks.
    pub probes: usize,
    pub probe_chunk: usize,
    /// Save → load → verify round trips per restore phase (service:
    /// restarts).
    pub restores: usize,
}

impl Sizes {
    /// Everything divided by `div`, except per-batch and per-query sizes:
    /// a smaller run makes fewer calls of the same shape.
    pub fn scaled(self, div: usize) -> Sizes {
        let d = |v: usize| (v / div).max(1);
        // Too few bulk batches to divide: shrink the batches instead.
        let bulk_batches = d(self.bulk_batches);
        Sizes {
            universe: d(self.universe),
            small_batches: d(self.small_batches),
            bulk_batches,
            bulk_ops: d(self.bulk_batches * self.bulk_ops) / bulk_batches,
            range_queries: d(self.range_queries),
            builds: d(self.builds),
            scans: d(self.scans),
            restores: d(self.restores),
            probes: d(self.probes).max(self.probe_chunk),
            ..self
        }
    }
}

/// One batch of updates with the oracle's expectations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Batch {
    /// Ops in submission order, exactly as generated (insert, insert,
    /// insert, remove, ...).
    pub raw: Vec<BatchOp<u64>>,
    /// `acks[i]` is the acknowledgement op `raw[i]` must get when the
    /// batch is replayed in submission order.
    pub acks: Vec<bool>,
    /// The harness's own normal form of `raw`: ascending keys, one op per
    /// key, the last submitted op winning.
    pub norm: Vec<BatchOp<u64>>,
    /// Keys the normal form newly adds / actually removes.
    pub added: usize,
    pub removed: usize,
}

/// One range query: `range_sum(lo_key..hi_key)` must cover `elems` stored
/// keys that sum (wrapping) to `sum`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeQuery {
    pub lo_key: u64,
    pub hi_key: u64,
    pub elems: u64,
    pub sum: u64,
}

/// Everything one structure (or one service connection) is driven with,
/// over its slice of the universe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Plan {
    /// Strictly increasing base keys of this slice.
    pub base: Vec<u64>,
    pub small: Vec<Batch>,
    pub bulk: Vec<Batch>,
    /// Queries and probes refer to the contents after `small` and `bulk`
    /// (or to the base, see [`plan`]).
    pub ranges: Vec<RangeQuery>,
    pub probes: Vec<u64>,
    pub probe_hits: Vec<bool>,
    /// Contents after the updates: count and wrapping sum.
    pub final_len: u64,
    pub final_sum: u64,
    /// Smallest universe key of the slice (where its scans start).
    pub slice_lo: u64,
    /// The final contents themselves, ascending (post-restore check, CSR).
    pub final_keys: Vec<u64>,
}

/// The sorted universe plus base membership per key.
pub struct Universe {
    pub keys: Vec<u64>,
    pub in_base: Vec<bool>,
    /// Indices of the held-out keys the inserts draw from, ascending (of a
    /// graph's held-out edges only the `src < dst` direction: the mirror
    /// follows).
    held_out: Vec<u32>,
    /// For a graph universe, the index of each edge's reverse edge; empty
    /// otherwise. Updates then come in pairs, one op per direction.
    mirror: Vec<u32>,
    /// Seconds spent inside `cpma::workloads` generators.
    pub gen_s: f64,
}

/// Generate the universe for `shape` from `seed`.
pub fn universe(shape: KeyShape, sizes: &Sizes, seed: u64) -> Universe {
    let n = sizes.universe;
    let t = std::time::Instant::now();
    let keys = match shape {
        KeyShape::Uniform => {
            let mut k = cpma::workloads::uniform_keys(n, 40, seed);
            let len = normalize_batch(&mut k).len();
            k.truncate(len);
            k
        }
        KeyShape::Clustered => ClusteredKeys::new(256, 1 << 16, seed).sorted(n),
        // One generator call per 2^15-edge chunk, each with an unrelated
        // seed: a single long `directed_edges` call seeds its chunks one
        // SplitMix64 step apart, so they replay each other's stream and the
        // graph saturates near 1.15 M distinct edges at scale 18 (README,
        // "Observations"). Self-loops dropped, both directions kept; about
        // 0.95 of the sampled edges are distinct at this size.
        KeyShape::Rmat { scale } => {
            const CHUNK: usize = 1 << 15;
            let chunks = (n as f64 / 0.95 / 2.0 / CHUNK as f64).ceil() as usize;
            let mut edges = Vec::with_capacity(chunks * CHUNK * 2);
            for c in 0..chunks as u64 {
                let g = RmatGenerator::paper_config(scale, mix64(seed.wrapping_add(c)));
                for e in g.directed_edges(CHUNK) {
                    let (s, d) = unpack_edge(e);
                    if s != d {
                        edges.push(e);
                        edges.push(pack_edge(d, s));
                    }
                }
            }
            let len = normalize_batch(&mut edges).len();
            edges.truncate(len);
            edges
        }
    };
    let gen_s = t.elapsed().as_secs_f64();
    assert!(keys.len() < u32::MAX as usize, "universe indices are u32");

    let mut rng = SplitMix64::new(seed ^ 0xBA5E_5E1E_C7ED);
    let threshold = (sizes.base_share * (1u64 << 32) as f64) as u64;
    let mut in_base = vec![false; keys.len()];
    let mut held_out = Vec::new();
    match shape {
        KeyShape::Uniform | KeyShape::Clustered => {
            for (i, b) in in_base.iter_mut().enumerate() {
                *b = rng.next_bits(32) < threshold;
                if !*b {
                    held_out.push(i as u32);
                }
            }
        }
        KeyShape::Rmat { .. } => {
            // Both directions of an edge hash alike, so they stay together.
            let salt = rng.next_u64();
            for (i, &e) in keys.iter().enumerate() {
                let (s, d) = unpack_edge(e);
                let und = pack_edge(s.min(d), s.max(d));
                in_base[i] = mix64(und ^ salt) >> 32 < threshold;
                if !in_base[i] && s < d {
                    held_out.push(i as u32);
                }
            }
        }
    }
    let mirror = match shape {
        KeyShape::Rmat { scale } => mirror_of(&keys, 1 << scale),
        _ => Vec::new(),
    };
    Universe {
        keys,
        in_base,
        held_out,
        mirror,
        gen_s,
    }
}

/// Index of every edge's reverse in a sorted, symmetric edge list over `n`
/// vertices. Edges `(s, d)` arrive with `s` ascending, so for each `d` the
/// reverse edges `(d, s)` are met in their stored order: one cursor per
/// vertex, no searching.
fn mirror_of(edges: &[u64], n: usize) -> Vec<u32> {
    let mut next = vec![0u32; n + 1];
    for &e in edges {
        next[unpack_edge(e).0 as usize + 1] += 1;
    }
    for v in 0..n {
        next[v + 1] += next[v];
    }
    let mirror: Vec<u32> = edges
        .iter()
        .map(|&e| {
            let d = unpack_edge(e).1 as usize;
            next[d] += 1;
            next[d] - 1
        })
        .collect();
    debug_assert!(mirror.iter().enumerate().all(|(i, &m)| {
        let ((s, d), (ms, md)) = (unpack_edge(edges[i]), unpack_edge(edges[m as usize]));
        (s, d) == (md, ms)
    }));
    mirror
}

/// Harness-side normal form of a raw batch given as universe indices:
/// ascending by index, one op per index, the last submitted op winning.
/// Deliberately independent of `cpma::api::normalize_ops`, which it checks.
pub fn normal_form(raw: &[(u32, bool)]) -> Vec<(u32, bool)> {
    let mut v: Vec<(u32, usize)> = raw.iter().enumerate().map(|(i, &(k, _))| (k, i)).collect();
    v.sort_unstable();
    let mut out: Vec<(u32, bool)> = Vec::with_capacity(v.len());
    for (k, i) in v {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 = raw[i].1,
            _ => out.push((k, raw[i].1)),
        }
    }
    out
}

/// Build the plan for the universe slice `idx` (the whole universe for the
/// in-process workloads, one half per connection for the service). `salt`
/// separates the random streams of different slices.
///
/// Queries and probes are answered from the contents after the updates,
/// or — with `reads_on_base` — from the base before any update (the
/// service connection that reads first and writes second).
pub fn plan(
    u: &Universe,
    shape: KeyShape,
    idx: Range<usize>,
    sizes: &Sizes,
    salt: u64,
    reads_on_base: bool,
) -> Plan {
    let keys = &u.keys[idx.clone()];
    assert!(!keys.is_empty(), "empty universe slice");
    let off = idx.start as u32;
    let mut rng = SplitMix64::new(salt);

    let base_idx: Vec<u32> = (0..keys.len() as u32)
        .filter(|&i| u.in_base[(i + off) as usize])
        .collect();
    let base: Vec<u64> = base_idx.iter().map(|&i| keys[i as usize]).collect();
    assert!(!base.is_empty(), "empty base");

    // Held-out keys of this slice in shuffled order: the inserts consume
    // this list front to back, so every key is inserted at most once.
    let mut order: Vec<u32> = u
        .held_out
        .iter()
        .filter(|&&i| idx.contains(&(i as usize)))
        .map(|&i| i - off)
        .collect();
    cpma::workloads::keys::shuffle(&mut order, rng.next_u64());
    let mut insert_order = order.into_iter();

    let mut present: Vec<bool> = u.in_base[idx.clone()].to_vec();
    let mut make = |batches: usize, ops: usize, rng: &mut SplitMix64| -> Vec<Batch> {
        (0..batches)
            .map(|_| {
                // 3 inserts : 1 remove, interleaved in submission order;
                // on a graph each step covers both directions of an edge.
                let mut raw_idx: Vec<(u32, bool)> = Vec::with_capacity(ops);
                for step in 0.. {
                    if raw_idx.len() >= ops {
                        break;
                    }
                    let (i, ins) = if step % 4 == 3 {
                        let b = rng.next_below(base_idx.len() as u64) as usize;
                        (base_idx[b], false)
                    } else {
                        let i = insert_order
                            .next()
                            .expect("held-out keys exhausted: universe too small");
                        (i, true)
                    };
                    raw_idx.push((i, ins));
                    if let Some(&m) = u.mirror.get(i as usize) {
                        raw_idx.push((m, ins));
                    }
                }
                let key_op = |&(i, ins): &(u32, bool)| {
                    let k = keys[i as usize];
                    if ins {
                        BatchOp::Insert(k)
                    } else {
                        BatchOp::Remove(k)
                    }
                };
                let norm_idx = normal_form(&raw_idx);
                let mut batch = Batch {
                    raw: raw_idx.iter().map(key_op).collect(),
                    norm: norm_idx.iter().map(key_op).collect(),
                    acks: Vec::with_capacity(ops),
                    added: norm_idx
                        .iter()
                        .filter(|&&(i, ins)| ins && !present[i as usize])
                        .count(),
                    removed: norm_idx
                        .iter()
                        .filter(|&&(i, ins)| !ins && present[i as usize])
                        .count(),
                };
                for &(i, ins) in &raw_idx {
                    let p = &mut present[i as usize];
                    batch.acks.push(*p != ins);
                    *p = ins;
                }
                batch
            })
            .collect()
    };
    let small = make(sizes.small_batches, sizes.small_ops, &mut rng);
    let bulk = make(sizes.bulk_batches, sizes.bulk_ops, &mut rng);

    let final_keys: Vec<u64> = (0..keys.len())
        .filter(|&i| present[i])
        .map(|i| keys[i])
        .collect();
    let final_len = final_keys.len() as u64;
    let final_sum = final_keys.iter().fold(0u64, |s, &k| s.wrapping_add(k));

    // Prefix counts and sums over the contents the reads see: every
    // query's answer in O(1).
    if reads_on_base {
        present.copy_from_slice(&u.in_base[idx.clone()]);
    }
    let mut pcount = Vec::with_capacity(keys.len() + 1);
    let mut psum = Vec::with_capacity(keys.len() + 1);
    let (mut c, mut s) = (0u64, 0u64);
    for (i, &k) in keys.iter().enumerate() {
        pcount.push(c);
        psum.push(s);
        if present[i] {
            c += 1;
            s = s.wrapping_add(k);
        }
    }
    pcount.push(c);
    psum.push(s);

    let ranges: Vec<RangeQuery> = match shape {
        KeyShape::Rmat { scale } => {
            // Vertex offsets into the slice, then random neighbourhoods.
            let n = 1usize << scale;
            let mut first = vec![keys.len() as u32; n + 1];
            for (i, &e) in keys.iter().enumerate().rev() {
                first[(e >> 32) as usize] = i as u32;
            }
            for v in (0..n).rev() {
                first[v] = first[v].min(first[v + 1]);
            }
            (0..sizes.range_queries)
                .map(|_| {
                    let v = rng.next_below(n as u64) as usize;
                    let (lo, hi) = (first[v] as usize, first[v + 1] as usize);
                    RangeQuery {
                        lo_key: (v as u64) << 32,
                        hi_key: (v as u64 + 1) << 32,
                        elems: pcount[hi] - pcount[lo],
                        sum: psum[hi].wrapping_sub(psum[lo]),
                    }
                })
                .collect()
        }
        _ => {
            // An index span holding ≈ range_elems stored keys on average.
            let span = ((sizes.range_elems as f64 * keys.len() as f64 / c.max(1) as f64) as usize)
                .clamp(1, keys.len() - 1);
            (0..sizes.range_queries)
                .map(|_| {
                    let lo = rng.next_below((keys.len() - span) as u64) as usize;
                    let hi = lo + span;
                    RangeQuery {
                        lo_key: keys[lo],
                        hi_key: keys[hi],
                        elems: pcount[hi] - pcount[lo],
                        sum: psum[hi].wrapping_sub(psum[lo]),
                    }
                })
                .collect()
        }
    };

    // Probes alternate stored / not-stored keys of the universe, drawn by
    // rejection (held-out keys never inserted and removed base keys make
    // the not-stored kind plentiful).
    assert!(c > 0 && (c as usize) < keys.len(), "probes need both kinds");
    let mut probes = Vec::with_capacity(sizes.probes);
    let mut probe_hits = Vec::with_capacity(sizes.probes);
    for j in 0..sizes.probes {
        let want = j % 2 == 0;
        let i = loop {
            let i = rng.next_below(keys.len() as u64) as usize;
            if present[i] == want {
                break i;
            }
        };
        probes.push(keys[i]);
        probe_hits.push(want);
    }

    Plan {
        base,
        small,
        bulk,
        ranges,
        probes,
        probe_hits,
        final_len,
        final_sum,
        slice_lo: keys[0],
        final_keys,
    }
}

/// Normalise every batch through the library's public `normalize_ops` and
/// check the result against the harness's own normal form. Returns the
/// library's batches, the seconds spent in the library call and the number
/// of batches that disagreed.
pub fn normalize_all(batches: &[Batch]) -> (Vec<Vec<BatchOp<u64>>>, f64, u64) {
    let mut secs = 0.0;
    let mut failed = 0u64;
    let out = batches
        .iter()
        .map(|b| {
            let mut ops = b.raw.clone();
            let t = std::time::Instant::now();
            let len = normalize_ops(&mut ops).len();
            secs += t.elapsed().as_secs_f64();
            ops.truncate(len);
            failed += (ops != b.norm) as u64;
            ops
        })
        .collect();
    (out, secs, failed)
}
