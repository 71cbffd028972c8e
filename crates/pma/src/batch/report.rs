//! The reporting form of the mixed batch: apply a normal-form batch and
//! say, per op, whether its key was present, routing the batch once.
//!
//! A front-end that acknowledges requests one by one (`cpma-store`'s
//! combiner) needs every key's presence before the batch, and it must
//! apply only the *net* batch — the ops that change presence — so that its
//! log and its replicas see one history. Probing first and applying after
//! routes every key twice. Here:
//!
//! * **point regime** (the normal form is shorter than the point cutoff,
//!   so the net batch is too): every point update already answers
//!   presence, and one that changes nothing writes nothing, so running the
//!   whole normal form is running the net batch;
//! * otherwise the normal form is **routed once**, every assigned leaf is
//!   asked for its keys in one read pass ([`LeafStorage::presence`]: the
//!   block walk on a delta leaf, a word probe per key on a bitmap leaf),
//!   and the net batch keeps the routed segments that hold an effective
//!   op — routing is per key, so that restriction *is* the net batch's
//!   routing. When the net count lands in the pipeline regime, the
//!   pipeline runs on those segments: only leaves with an effective op are
//!   merged. When it lands in another one, the net batch is applied from
//!   scratch and `pma.report_fallbacks` counts the event.
//!
//! Either way the structure ends byte for byte as `apply_batch_sorted(&net)`
//! leaves it, and every other counter moves as that call moves it.
#![deny(clippy::undocumented_unsafe_blocks)]

use super::route::Assignment;
use super::{serial_merge_cutoff, PREFETCH_AHEAD};
use crate::{LeafStorage, PmaCore, FULL_REBUILD_DIVISOR, POINT_UPDATE_CUTOFF};
use cpma_api::{BatchOp, BatchOutcome};
use rayon::prelude::*;

impl<L: LeafStorage> PmaCore<L> {
    /// `apply_batch_sorted(&net)` for the net batch of the normal-form
    /// `ops`, reporting `was_present[i]`, the presence of `ops[i]`'s key
    /// before the call (`BatchSet::apply_batch_sorted_reporting`; module
    /// docs).
    pub(crate) fn run_reporting(
        &mut self,
        ops: &[BatchOp<u64>],
        was_present: &mut Vec<bool>,
    ) -> BatchOutcome {
        debug_assert!(ops.windows(2).all(|w| w[0].key() < w[1].key()));
        was_present.clear();
        was_present.resize(ops.len(), false);
        if self.len == 0 {
            // Nothing is present, so the net batch is the inserts — all the
            // bulk load reads.
            return self.run_batch(ops);
        }
        if ops.len() < POINT_UPDATE_CUTOFF {
            return self.report_points(ops, was_present);
        }
        let assignments = self.route_run(ops);
        self.mark_presence(ops, &assignments, was_present);
        let mut net = Vec::new();
        let mut net_assignments = Vec::new();
        for a in &assignments {
            let start = net.len();
            net.extend(
                (a.start..a.end)
                    .filter_map(|i| (ops[i].is_insert() != was_present[i]).then_some(ops[i])),
            );
            if net.len() > start {
                net_assignments.push(Assignment {
                    leaf: a.leaf,
                    start,
                    end: net.len(),
                });
            }
        }
        if net.is_empty() {
            return BatchOutcome::default();
        }
        // The regime `apply_batch_sorted(&net)` picks.
        let pipeline =
            net.len() >= POINT_UPDATE_CUTOFF && net.len() < self.len / FULL_REBUILD_DIVISOR;
        if !pipeline {
            crate::stats::report_fallbacks().inc();
            return self.run_batch(net.as_slice());
        }
        self.log.begin();
        self.run_pipeline(net.as_slice(), &net_assignments)
    }

    /// The point regime's report: each point update says whether it
    /// changed the set, hence whether the key was there.
    fn report_points(&mut self, ops: &[BatchOp<u64>], was_present: &mut [bool]) -> BatchOutcome {
        self.log.begin();
        let mut out = BatchOutcome::default();
        for (op, was) in ops.iter().zip(was_present) {
            match *op {
                BatchOp::Insert(k) => {
                    let added = self.insert_point(k);
                    *was = !added;
                    out.added += usize::from(added);
                }
                BatchOp::Remove(k) => {
                    let removed = self.remove_point(k);
                    *was = removed;
                    out.removed += usize::from(removed);
                }
            }
        }
        if out != BatchOutcome::default() {
            self.batch_stats.point_fallbacks.inc();
        }
        out
    }

    /// Presence of every op's key, one read pass per assigned leaf with
    /// the next leaves prefetched; above the serial merge cutoff, groups of
    /// assignments run in parallel on disjoint stretches of `was_present`.
    fn mark_presence(
        &self,
        ops: &[BatchOp<u64>],
        assignments: &[Assignment],
        was_present: &mut [bool],
    ) {
        let walk = |group: &[Assignment], out: &mut [bool]| {
            let base = group[0].start;
            for (g, a) in group.iter().enumerate() {
                if let Some(ahead) = group.get(g + PREFETCH_AHEAD) {
                    self.storage.prefetch_leaf(ahead.leaf);
                }
                let run = &ops[a.start..a.end];
                self.storage
                    .presence(a.leaf, run, &mut out[a.start - base..a.end - base]);
            }
        };
        if assignments.len() <= serial_merge_cutoff() {
            return walk(assignments, was_present);
        }
        let per_group = assignments
            .len()
            .div_ceil(rayon::current_num_threads().max(1) * 4);
        let mut groups = Vec::new();
        let mut rest = was_present;
        for group in assignments.chunks(per_group) {
            let (mine, tail) = rest.split_at_mut(group[group.len() - 1].end - group[0].start);
            groups.push((group, mine));
            rest = tail;
        }
        groups
            .into_par_iter()
            .for_each(|(group, out)| walk(group, out));
    }
}

#[cfg(test)]
mod tests {
    use crate::{ForceCodec, LeafStorage, PmaConfig, PmaCore};
    use cpma_api::BatchOp::{self, Insert, Remove};
    use cpma_api::{net_ops, BatchOutcome, BatchSet};

    /// A normal form over `keys` (a sorted sample of `0..4·n`, every
    /// fourth key stored): `noop_every`-th ops are no-ops (inserts of
    /// stored keys, removes of absent ones), the rest change presence.
    fn normal_form(base: &[u64], n: usize, noop_every: usize, seed: u64) -> Vec<BatchOp<u64>> {
        let span = 4 * base.len() as u64;
        let mut keys: Vec<u64> = (0..n as u64)
            .map(|i| (i * 0x9E37_79B9 + seed * 7_919) % span)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.iter()
            .enumerate()
            .map(|(i, &k)| {
                let stored = k % 4 == 0;
                match (i % noop_every == 0, stored) {
                    (true, true) | (false, false) => Insert(k),
                    (true, false) | (false, true) => Remove(k),
                }
            })
            .collect()
    }

    /// Everything a catch-up or a checkpoint could tell apart.
    fn image<L: LeafStorage>(s: &PmaCore<L>) -> (Vec<u8>, Vec<u64>, usize, u64, usize) {
        let mut payload = Vec::new();
        s.storage().write_payload(&mut payload).unwrap();
        let occ = s.occ.clone();
        (
            payload,
            occ,
            s.len(),
            s.write_generation(),
            s.write_set_bytes(),
        )
    }

    /// Reporting ≡ probing with `contains_batch` then applying the net
    /// batch: the reports, the outcome, the bytes, the write set and every
    /// per-structure counter. The cases cover every regime the normal form
    /// and its net batch can land in, at budgets 1 and 2 (which of them
    /// fall back is pinned by count in `tests/path_counters.rs`).
    fn reporting_is_probe_then_net<L: LeafStorage + Clone>(force: ForceCodec) {
        let cfg = PmaConfig {
            force_codec: force,
            ..PmaConfig::default()
        };
        let base: Vec<u64> = (0..30_000u64).map(|i| i * 4).collect();
        // (ops, every n-th a no-op): len / 10 = 3 000.
        let cases = [
            (20, 2),     // point regime, half no-ops
            (2_000, 4),  // pipeline, net pipeline
            (200, 1),    // pipeline-sized, every op a no-op
            (2_000, 1),  // the same, larger
            (5_000, 2),  // rebuild-sized, net pipeline-sized
            (9_000, 20), // rebuild-sized, net rebuild-sized
        ];
        for budget in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(budget)
                .build()
                .unwrap();
            pool.install(|| {
                let mut set = PmaCore::<L>::with_config(cfg);
                set.insert_batch_sorted(&base);
                let mut runs: Vec<Vec<BatchOp<u64>>> = cases
                    .iter()
                    .enumerate()
                    .map(|(c, &(n, every))| normal_form(&base, n, every, c as u64))
                    .collect();
                // Net below the point cutoff from a pipeline-sized form.
                let mut few = normal_form(&base, 300, 1, 99);
                for op in few.iter_mut().step_by(10) {
                    *op = match *op {
                        Insert(k) => Remove(k),
                        Remove(k) => Insert(k),
                    };
                }
                runs.push(few);
                let empty = PmaCore::<L>::with_config(cfg);
                for (r, ops) in runs.iter().enumerate() {
                    for start in [&set, &empty] {
                        let what =
                            format!("{force:?} budget {budget} case {r} len {}", start.len());
                        let (mut reporting, mut probing) = (start.clone(), start.clone());
                        let mut was = vec![true; 3];
                        let got = reporting.apply_batch_sorted_reporting(ops, &mut was);
                        let keys: Vec<u64> = ops.iter().map(|op| op.key()).collect();
                        let want_was = probing.contains_batch(&keys);
                        let net = net_ops(ops, &want_was);
                        let want = if net.is_empty() {
                            BatchOutcome::default()
                        } else {
                            probing.apply_batch_sorted(&net)
                        };
                        assert_eq!(was, want_was, "{what}: reports");
                        assert_eq!(got, want, "{what}: outcome");
                        assert!(image(&reporting) == image(&probing), "{what}: bytes");
                        assert_eq!(reporting.stats(), probing.stats(), "{what}: counters");
                        reporting.check_invariants();
                    }
                }
            });
        }
    }

    macro_rules! reporting_cells {
        ($($name:ident: $leaves:ty, $force:ident;)*) => {$(
            #[test]
            fn $name() {
                reporting_is_probe_then_net::<$leaves>(ForceCodec::$force);
            }
        )*};
    }
    reporting_cells! {
        reporting_matches_probe_then_net_pma: crate::UncompressedLeaves, Auto;
        reporting_matches_probe_then_net_cpma: crate::CompressedLeaves, Auto;
        reporting_matches_probe_then_net_cpma_bitmap: crate::CompressedLeaves, Bitmap;
    }
}
