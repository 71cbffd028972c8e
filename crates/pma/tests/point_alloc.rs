//! A point update that violates no density bound allocates nothing.
//!
//! `insert` / `remove` used to build the root-to-leaf path (a `Vec`) before
//! looking at the leaf; now the O(1) check against both leaf depths' bands
//! comes first. The allocation counter is the process's global allocator,
//! so this file holds exactly one test.

use cpma_pma::Cpma;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every call to `System` unchanged; the counter is a relaxed
// statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn quiet_point_updates_do_not_allocate() {
    // Sparse keys: every leaf is a delta chain, updated in place.
    let keys: Vec<u64> = (0..200_000u64).map(|i| i << 16).collect();
    let mut set = Cpma::from_sorted(&keys);
    let rebuilds = set.stats().full_rebuilds;
    // One key into (then out of) every 500th gap: no leaf gains or loses
    // more than a code or two, so none leaves its band.
    let fresh: Vec<u64> = keys.iter().step_by(500).map(|&k| k + 1).collect();
    // The first update registers the process-wide codec counters.
    assert!(set.insert(3) && set.remove(3));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for &k in &fresh {
        assert!(set.insert(k));
    }
    for &k in &fresh {
        assert!(set.remove(k));
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 0, "{} point updates", 2 * fresh.len());
    assert_eq!(set.stats().full_rebuilds, rebuilds);
    assert_eq!(set.len(), keys.len());
    set.check_invariants();
}
