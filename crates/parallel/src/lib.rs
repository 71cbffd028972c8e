//! First-party parallelism engine with rayon's API surface.
//!
//! The build environment for this reproduction is offline, so the real
//! `rayon` crate cannot be fetched. This crate is a drop-in stand-in for
//! the subset of rayon's API the workspace uses — swapping real rayon back
//! in is a one-line change in the workspace `Cargo.toml`
//! (`rayon = "1"` instead of the path entry), no call-site changes — but
//! unlike a shim it really executes in parallel:
//!
//! * [`join`] forks its second closure onto a lazily-initialized, bounded
//!   thread pool ([`pool`]) and runs the first inline; while waiting it
//!   *helps* (runs other queued jobs), so nested joins from inside workers
//!   cannot deadlock. A panic on either side is captured and re-thrown to
//!   the caller; an in-flight stolen arm is always awaited first, while an
//!   arm nobody started yet is dropped unexecuted (rayon's semantics) —
//!   workers catch job panics, so the pool is never poisoned.
//! * The parallel-iterator adaptors ([`iter::Par`]) are built on
//!   splittable producers: indexed sources (slices, ranges, chunks) are
//!   recursively halved down to a grain size (`len / (4 × threads)`) and
//!   the pieces execute via [`join`]. All terminals are order-preserving and schedule-independent:
//!   `collect` concatenates split results in index order, integer
//!   `sum`/`reduce` results are bit-identical at any thread count.
//! * [`slice::ParallelSliceMut::par_sort_unstable`] (and friends) is a
//!   parallel merge sort: halves sort via [`join`], then merge.
//!
//! ## Thread budgets
//!
//! The number of threads a parallel region may use is, in precedence order:
//!
//! 1. the `CPMA_THREADS` environment variable, which **caps** everything in
//!    the process (`CPMA_THREADS=1` forces the fully sequential path — the
//!    determinism baseline; results are identical either way, only the
//!    schedule changes);
//! 2. the budget installed by [`ThreadPool::install`] on the calling
//!    thread (what the benchmark harness's strong-scaling sweeps use, like
//!    the paper's `PARLAY_NUM_THREADS`);
//! 3. [`std::thread::available_parallelism`].
//!
//! An installed budget is per-thread, as in rayon: it lives in a
//! thread-local of the installing thread, restored on return or unwind,
//! so two threads may install different budgets at once and each reports
//! its own from [`current_num_threads`]. Every job a thread forks carries
//! that thread's budget, so a worker runs a stolen job — and the joins
//! nested inside it — under the forker's budget. A thread spawned with
//! `std::thread` inside `install` starts at the default; it installs its
//! own budget if it needs one.
//!
//! The installed budget is a per-thread *ceiling*: a join forks only while
//! the count of outstanding forks is under it, and that count (like the
//! workers) is process-wide. A thread inside `install(4)` therefore forks
//! less while other threads hold forks outstanding; tests that compare
//! budgets serialize on a lock for this reason.
//!
//! Budgets above the core count are honored (workers are spawned up to the
//! budget), which is how the concurrency tests exercise real parallelism
//! on small CI machines.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod iter;
pub mod pool;
pub mod prelude;
pub mod slice;

/// Jobs this crate currently has forked and not yet joined. Used to keep
/// the fan-out within the thread budget: a join only forks while the
/// outstanding-fork count is under the budget, and runs inline otherwise.
static ACTIVE_SPAWNS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The budget installed on this thread: the size of the pool whose
    /// [`ThreadPool::install`] it is inside, or of the forker whose job it
    /// is running; 0 outside both.
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// This thread's installed budget (0 = none), for a forked job to carry.
pub(crate) fn installed() -> usize {
    INSTALLED.get()
}

/// Run `op` with this thread's installed budget set to `budget` (0 =
/// none), restoring the previous one on return or unwind.
pub(crate) fn with_installed<R>(budget: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED.set(self.0);
        }
    }
    let _restore = Restore(INSTALLED.replace(budget));
    op()
}

/// The thread budget currently in effect on this thread: the installed
/// budget if inside [`ThreadPool::install`] (or running a job forked
/// there), otherwise the machine's available parallelism — in both cases
/// capped by `CPMA_THREADS` if set.
pub fn current_num_threads() -> usize {
    let base = match installed() {
        0 => default_threads(),
        n => n,
    };
    match pool::env_cap() {
        Some(cap) => base.min(cap),
        None => base,
    }
}

/// The budget outside any `install`: `CPMA_THREADS` if set, else the
/// available parallelism. Cached — this sits on the hot path (every join
/// and every split decision consults it), and `available_parallelism` is
/// a syscall.
fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        pool::env_cap().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Run both closures, potentially in parallel, and return both results.
///
/// Forks `oper_b` onto the pool while the outstanding-fork count is under
/// the budget; otherwise runs both inline. Panics propagate like rayon's:
/// a stolen `oper_b` runs to completion before the payload unwinds from
/// the caller; an `oper_b` nobody started is dropped unexecuted.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let budget = current_num_threads();
    if budget <= 1 {
        return (oper_a(), oper_b());
    }
    // Reserve-then-check keeps the fan-out exact under concurrent joins (a
    // plain load would let two threads both see room for one fork); the
    // guard releases the reservation even if a closure panics.
    struct Reservation;
    impl Drop for Reservation {
        fn drop(&mut self) {
            ACTIVE_SPAWNS.fetch_sub(1, Ordering::Relaxed);
        }
    }
    // `+ 1` accounts for the calling thread itself.
    let spawns_after = ACTIVE_SPAWNS.fetch_add(1, Ordering::Relaxed) + 1;
    if spawns_after < budget {
        let _reservation = Reservation; // released on return or unwind
        pool::fork_join(oper_a, oper_b, budget)
    } else {
        // Over budget: release the reservation before running inline.
        drop(Reservation);
        (oper_a(), oper_b())
    }
}

/// Builder for a [`ThreadPool`] (thread-budget handle; the workers
/// themselves live in the process-global pool).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Budget for [`join`] inside [`ThreadPool::install`]; 0 = default
    /// (`CPMA_THREADS`, else all cores).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// Error type kept for API compatibility; construction cannot fail here.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A thread budget. `install` sets what [`current_num_threads`] reports on
/// the calling thread (and therefore how far [`join`] and the iterator
/// terminals fan out) for the closure's duration.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with its budget set to this pool's
    /// size (still capped by `CPMA_THREADS`), restored on return **or
    /// unwind**. The budget is this thread's and the jobs it forks'; other
    /// threads, and threads `op` spawns, keep their own.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        with_installed(self.threads, op)
    }

    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prelude::*;

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn join_nested() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo < 1000 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        assert_eq!(sum(0, 100_000), (0u64..100_000).sum());
    }

    #[test]
    fn install_caps_budget() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| assert_eq!(current_num_threads(), 1));
    }

    #[test]
    fn par_iter_combinators() {
        let v = [1u64, 2, 3, 4, 5];
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
        let total: u64 = v.par_iter().map(|&x| x).sum();
        assert_eq!(total, 15);
        let r = (0..10u64).into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(r, 45);
        assert_eq!(v.par_iter().filter(|&&x| x % 2 == 1).count(), 3);
        let flat: Vec<u64> = v.par_iter().flat_map_iter(|&x| vec![x, x]).collect();
        assert_eq!(flat.len(), 10);
        assert_eq!(
            v.par_iter()
                .enumerate()
                .map(|(i, &x)| i as u64 + x)
                .sum::<u64>(),
            25
        );
    }

    #[test]
    fn par_sort_and_chunks() {
        let mut v = vec![5u64, 3, 1, 4, 2];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
        let mut w = [1u64; 10];
        w.par_chunks_mut(3)
            .for_each(|c| c.iter_mut().for_each(|x| *x += 1));
        assert!(w.iter().all(|&x| x == 2));
        let mut m = vec![0u64, 1, 2];
        m.par_iter_mut().for_each(|x| *x *= 10);
        assert_eq!(m, vec![0, 10, 20]);
    }
}
