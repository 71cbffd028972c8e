//! Search and prefetch primitives shared by the leaf storages and the
//! batched read path.
//!
//! * [`lower_bound`]: branchless binary search over a sorted slice (the
//!   compare feeds a conditional move, not a branch) — used inside a
//!   decoded leaf, where every comparison is a coin flip;
//! * [`prefetch_read`]: the cache-line hint the batched probes and the
//!   batch pipeline's leaf loop issue ahead of themselves.
//!
//! The leaf heads themselves are searched in place by
//! `PmaCore::head_partition` (`core.rs`).

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

/// First index with `a[i] >= key` (branchless; equals
/// `a.partition_point(|&e| e < key)`).
#[inline]
pub(crate) fn lower_bound<K: Ord + Copy>(a: &[K], key: K) -> usize {
    if a.is_empty() {
        return 0;
    }
    let mut base = 0usize;
    let mut size = a.len();
    while size > 1 {
        let half = size / 2;
        // The compare becomes a conditional move: no mispredicted branch.
        base += usize::from(a[base + half - 1] < key) * half;
        size -= half;
    }
    base + usize::from(a[base] < key)
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
        ];
        for a in &cases {
            for probe in [0u64, 1, 2, 3, 4, 8, 9, 10, 199, u64::MAX - 1, u64::MAX] {
                assert_eq!(
                    lower_bound(a, probe),
                    a.partition_point(|&e| e < probe),
                    "lower_bound {a:?} {probe}"
                );
            }
        }
    }
}
