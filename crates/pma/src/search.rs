//! Search and prefetch primitives shared by the leaf storages, the head
//! search and the batch router.
//!
//! * [`halve`]: one step of a binary search whose compare is a conditional
//!   move in the generated code. Every probe of a search over heads or over
//!   a decoded leaf is a coin flip, so a compare-and-branch mispredicts half
//!   the time; [`std::hint::select_unpredictable`] keeps LLVM from emitting
//!   one. The arithmetic idiom `base += usize::from(cond) * half` does
//!   **not**: LLVM turns the multiply back into a branch (1 000 searches
//!   over 195 k heads: branchy loop 104–116 µs, `* half` 104–120 µs, the
//!   select 56–68 µs).
//! * [`partition_point`] / [`lower_bound`]: the search built on it, over an
//!   index window and over a slice. `PmaCore::head_partition` (`core.rs`)
//!   searches the leaf heads with it where they live; the router
//!   (`batch/route.rs`) runs [`halve`] for several windows in lockstep.
//! * [`prefetch_read`]: the cache-line hint the batched probes and the
//!   batch pipeline's leaf loop issue ahead of themselves.
#![deny(clippy::undocumented_unsafe_blocks)]

use std::hint::select_unpredictable;

/// Issue a best-effort read prefetch for the cache line holding `p`.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, even on bad addresses.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One search step for a predicate that is true on a prefix: the partition
/// point is one of the `count ≥ 1` candidates `base..base + count`, and the
/// step keeps the half of them (rounded up) `below(base + count/2 − 1)`
/// leaves possible. With one candidate left nothing changes (the probe falls
/// on `base − 1`, or 0, and its answer is ignored), so lanes of different
/// widths can run the same number of steps.
#[inline(always)]
pub(crate) fn halve(base: &mut usize, count: &mut usize, below: impl FnOnce(usize) -> bool) {
    let half = *count / 2;
    let probe = (*base + half).saturating_sub(1);
    *base = select_unpredictable(below(probe), *base + half, *base);
    *count -= half;
}

/// First index in `[lo, hi)` at which `below` is false (`hi` if none);
/// `below` must be true on a prefix of the window. ⌈log₂(hi − lo + 1)⌉
/// probes, none of them a branch.
#[inline(always)]
pub(crate) fn partition_point(lo: usize, hi: usize, mut below: impl FnMut(usize) -> bool) -> usize {
    let (mut base, mut count) = (lo, hi - lo + 1);
    while count > 1 {
        halve(&mut base, &mut count, &mut below);
    }
    base
}

/// First index with `a[i] >= key` (equals
/// `a.partition_point(|&e| e < key)`).
#[inline]
pub(crate) fn lower_bound(a: &[u64], key: u64) -> usize {
    partition_point(0, a.len(), |i| a[i] < key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_match_partition_point() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![5],
            vec![1, 3, 3, 3, 9, 9, 12],
            (0..100).map(|i| i * 2).collect(),
            vec![0, 0, u64::MAX, u64::MAX],
            // A run of equal values, as inherited heads form.
            vec![7; 40],
        ];
        for a in &cases {
            for probe in [0u64, 1, 2, 3, 4, 7, 8, 9, 10, 199, u64::MAX - 1, u64::MAX] {
                assert_eq!(
                    lower_bound(a, probe),
                    a.partition_point(|&e| e < probe),
                    "lower_bound {a:?} {probe}"
                );
                // Every window `[lo, hi)` — empty, of one element, interior,
                // whole — under both predicates the crate searches with.
                let n = a.len();
                let windows =
                    (0..=n).flat_map(|lo| [lo, lo + 1, (lo + n) / 2, n].map(|hi| (lo, hi)));
                for (lo, hi) in windows.filter(|&(lo, hi)| lo <= hi && hi <= n) {
                    let w = &a[lo..hi];
                    assert_eq!(
                        partition_point(lo, hi, |i| a[i] < probe),
                        lo + w.partition_point(|&e| e < probe),
                        "< {probe} in {a:?}[{lo}..{hi}]"
                    );
                    assert_eq!(
                        partition_point(lo, hi, |i| a[i] <= probe),
                        lo + w.partition_point(|&e| e <= probe),
                        "<= {probe} in {a:?}[{lo}..{hi}]"
                    );
                }
            }
        }
    }
}
