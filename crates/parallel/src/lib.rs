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
//! One rule: a [`ThreadPool`] is a shared count of threads. It owns its
//! size and one count of the threads in use in it: the threads inside its
//! [`ThreadPool::install`] (a thread re-entering the pool it is in counts
//! once), plus the jobs forked in it and not yet joined. [`join`] forks
//! only while that count stays within the size. A forked job carries its
//! pool, so the joins nested in it count against that pool wherever it
//! runs. [`current_num_threads`] reports the size less the pool's other
//! installers, at least 1. This is rayon's meaning of a pool, minus
//! per-pool workers: the workers are one process-wide set.
//!
//! A thread outside any `install` — also one spawned inside it — is in
//! the default pool: the available parallelism, all such threads counted
//! as one. `CPMA_THREADS` caps every pool's size (`CPMA_THREADS=1` forces
//! the fully sequential path, the determinism baseline: results are
//! identical either way, only the schedule changes). Sizes above the core
//! count are honored, so tests get real parallelism on small machines.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub mod iter;
pub mod pool;
pub mod prelude;
pub mod slice;

/// What a [`ThreadPool`] owns: its size and the threads in use in it.
pub(crate) struct Scope {
    /// Capped by `CPMA_THREADS`.
    pub(crate) size: usize,
    /// Threads inside the pool's `install`.
    installers: AtomicUsize,
    /// `installers` plus the jobs forked in the pool and not yet joined.
    in_use: AtomicUsize,
}

thread_local! {
    /// The pool this thread is in: the one whose `install` it is inside,
    /// or whose forked job it is running; null outside both (the default
    /// pool).
    static CURRENT: Cell<*const Scope> = const { Cell::new(std::ptr::null()) };
}

impl Scope {
    pub(crate) fn new(size: usize, installers: usize) -> Self {
        Self {
            size: pool::env_cap().map_or(size, |cap| size.min(cap)),
            installers: AtomicUsize::new(installers),
            in_use: AtomicUsize::new(installers),
        }
    }

    /// Run `f` on the pool this thread is in.
    fn with_current<R>(f: impl FnOnce(&Scope) -> R) -> R {
        // SAFETY: `CURRENT` points at a pool only while this thread is
        // inside its `install` (which borrows the pool) or runs a job
        // forked there (which `fork_join` joins before that `install`
        // returns); `f` runs within that stay.
        f(unsafe { CURRENT.get().as_ref() }.unwrap_or_else(default_scope))
    }

    /// The size less the other installers, at least 1.
    fn threads(&self) -> usize {
        let installers = self.installers.load(Ordering::Relaxed);
        (self.size + 1).saturating_sub(installers).max(1)
    }

    /// Count one fork in, if the threads in use stay within the size. The
    /// guard counts it out on return or unwind. Reserve-then-check keeps
    /// the count exact under concurrent joins (a plain load would let two
    /// threads both see room for one fork).
    fn try_fork(&self) -> Option<Release<'_>> {
        let in_use = self.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        let fork = Release(self, 0);
        (in_use <= self.size).then_some(fork)
    }

    /// Count this thread in as an installer until the guard drops.
    fn enter(&self) -> Release<'_> {
        self.installers.fetch_add(1, Ordering::Relaxed);
        self.in_use.fetch_add(1, Ordering::Relaxed);
        Release(self, 1)
    }
}

/// On drop, counts one thread in use and this many installers out.
struct Release<'a>(&'a Scope, usize);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.installers.fetch_sub(self.1, Ordering::Relaxed);
        self.0.in_use.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Run `op` with this thread in `scope`, restoring the pool it was in on
/// return or unwind.
///
/// # Safety
/// `scope` must stay live for every [`join`] and [`current_num_threads`]
/// call `op` makes on this thread: those dereference it.
pub(crate) unsafe fn in_scope<R>(scope: *const Scope, op: impl FnOnce() -> R) -> R {
    struct Restore(*const Scope);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.set(self.0);
        }
    }
    let _restore = Restore(CURRENT.replace(scope));
    op()
}

/// The pool outside any `install`: `CPMA_THREADS` if set, else the
/// available parallelism, with all its threads counted as one. Cached —
/// this sits on the hot path (every join and every split decision
/// consults it), and `available_parallelism` is a syscall.
fn default_scope() -> &'static Scope {
    static DEFAULT: OnceLock<Scope> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Scope::new(pool::env_cap().unwrap_or(cores), 1)
    })
}

/// The threads a parallel region may use on this thread: the size of the
/// pool it is in less that pool's other installers, at least 1, capped by
/// `CPMA_THREADS`.
pub fn current_num_threads() -> usize {
    Scope::with_current(Scope::threads)
}

/// Run both closures, potentially in parallel, and return both results.
///
/// Forks `oper_b` onto the workers while the threads in use in this
/// thread's pool stay within its size; otherwise runs both inline. Panics
/// propagate like rayon's: a stolen `oper_b` runs to completion before
/// the payload unwinds from the caller; an `oper_b` nobody started is
/// dropped unexecuted.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    Scope::with_current(|scope| {
        if scope.threads() <= 1 {
            return (oper_a(), oper_b());
        }
        match scope.try_fork() {
            Some(_fork) => pool::fork_join(oper_a, oper_b, scope),
            None => (oper_a(), oper_b()),
        }
    })
}

/// Builder for a [`ThreadPool`] (a shared count of threads; the workers
/// themselves are process-wide).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// The pool's size; 0 = the default pool's (`CPMA_THREADS`, else all
    /// cores).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let size = match self.num_threads {
            0 => default_scope().size,
            n => n,
        };
        Ok(ThreadPool {
            scope: Scope::new(size, 0),
        })
    }
}

/// Error type kept for API compatibility (callers `unwrap` or `expect`
/// it); construction cannot fail here.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

/// A shared count of threads: its size, and the threads in use in it (see
/// the crate docs' "Thread budgets").
pub struct ThreadPool {
    scope: Scope,
}

impl ThreadPool {
    /// Runs `op` on the calling thread inside this pool: the thread counts
    /// as one of the pool's threads in use until `op` returns or unwinds
    /// (once, if it is in this pool already), and [`join`] and the
    /// iterator terminals fan out within the pool's size. Threads `op`
    /// spawns start in the default pool.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let scope: *const Scope = &self.scope;
        if CURRENT.get() == scope {
            return op();
        }
        let _installed = self.scope.enter();
        // SAFETY: `&self` borrows the pool, and so its scope, until `op`
        // returns.
        unsafe { in_scope(scope, op) }
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
