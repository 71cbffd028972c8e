//! The execution engine: a lazily-initialized, bounded fork-join pool.
//!
//! One process-global set of workers backs every [`crate::join`] and every
//! parallel iterator terminal; a [`crate::ThreadPool`] is only a count of
//! threads over it. Design, in rayon-core's terms but much smaller:
//!
//! * **Injector queue.** A `Mutex<VecDeque<JobRef>>` + `Condvar` shared by
//!   all workers. Forked jobs are heap-allocated (`Arc<Task>`) rather than
//!   stack-referenced, which keeps reclaiming race-free: a stale queue
//!   entry for a job the forker took back is an `Arc` clone whose `run()`
//!   loses the claim CAS and does nothing.
//! * **Lazily spawned workers.** No thread is created until the first
//!   parallel fork. Workers are spawned on demand up to the size of the
//!   `ThreadPool` that forks, so a pool of `n` above the core count still
//!   gets `n` workers (useful for exercising real concurrency on small
//!   machines). A `JobRef` carries the pool it was forked in, so whichever
//!   thread runs it counts the joins nested in it against that pool.
//!   Workers are detached and park on the condvar when idle; a panicking
//!   job is caught and boxed into its task's result slot, so no job can
//!   kill a worker or poison the queue.
//! * **Helping join.** `fork_join(a, b)` enqueues `b`, runs `a` on the
//!   calling thread, then either *reclaims* `b` (if no worker picked it
//!   up, it runs inline — this is what makes the pool deadlock-free even
//!   with zero workers) or *helps*: while waiting for `b` it pops and runs
//!   other queued jobs, so a blocked joiner is never idle and nested joins
//!   from inside workers cannot deadlock the pool.
//!
//! Panics on either side propagate to the `join` caller via
//! [`std::panic::resume_unwind`]. A **stolen** job is always awaited
//! before the caller unwinds — the closure may borrow the caller's stack,
//! so the frame must not unwind while the job is live. A job nobody stole
//! is dropped unexecuted when the other side panicked (rayon's semantics,
//! and the only behavior the sequential path can have).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Hard ceiling on spawned workers, far above any sane budget; guards
/// against a runaway `CPMA_THREADS` value.
const MAX_WORKERS: usize = 1024;

/// How long a joiner parks between completion checks when the queue is
/// empty. Short enough that a lost-wakeup race costs microseconds.
const JOIN_PARK: Duration = Duration::from_micros(200);

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// `CPMA_THREADS` parsed once: a positive integer caps every budget in the
/// process (with `1` forcing the fully sequential path); unset, `0`, or
/// unparsable values mean "no cap".
pub(crate) fn env_cap() -> Option<usize> {
    static CAP: OnceLock<Option<usize>> = OnceLock::new();
    *CAP.get_or_init(|| parse_threads(std::env::var("CPMA_THREADS").ok().as_deref()))
}

/// Parsing rule for `CPMA_THREADS` (split out for unit testing): positive
/// integers are honored, everything else is ignored.
pub(crate) fn parse_threads(v: Option<&str>) -> Option<usize> {
    v.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

const PENDING: u8 = 0;
const CLAIMED: u8 = 1;
const DONE: u8 = 2;

/// Type-erased handle to a queued job, with the pool it was forked in
/// (lifetime-erased like the job): whoever pops the job runs it there.
pub(crate) struct JobRef {
    job: Arc<dyn Runnable + Send + Sync + 'static>,
    scope: *const crate::Scope,
}

// SAFETY: `job` is `Send`; `scope` points at a `Scope`, which is `Sync`
// (a size and atomics) and only read through the pointer.
unsafe impl Send for JobRef {}

impl JobRef {
    fn run(self) {
        // SAFETY: a job whose closure runs won the claim, so its forker
        // waits in `fork_join`, inside the install that keeps `scope` live;
        // a stale entry loses the claim and makes no call that reads it.
        unsafe { crate::in_scope(self.scope, || self.job.run()) };
    }
}

pub(crate) trait Runnable {
    /// Claim and execute the job if still pending; no-op if the forker
    /// reclaimed it.
    fn run(&self);
}

/// Completion probe used by the helping wait loop.
trait Probe: Sync {
    fn is_done(&self) -> bool;
    /// Park until notified done, or for [`JOIN_PARK`], whichever is first.
    fn park_brief(&self);
}

/// A forked closure with its result slot. The state machine is
/// `PENDING → CLAIMED → DONE`; whoever wins the `PENDING → CLAIMED` CAS
/// (a worker, a helping joiner, or the forker reclaiming) runs the
/// closure exactly once. Interior mutability is sound because `func` is
/// touched only by the CAS winner and `result` only after `DONE` is
/// observed with acquire ordering.
pub(crate) struct Task<F, R> {
    state: AtomicU8,
    func: std::cell::UnsafeCell<Option<F>>,
    result: std::cell::UnsafeCell<Option<std::thread::Result<R>>>,
    lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: cross-thread access to the UnsafeCells is serialized by the
// `state` machine documented above.
unsafe impl<F: Send, R: Send> Send for Task<F, R> {}
unsafe impl<F: Send, R: Send> Sync for Task<F, R> {}

impl<F, R> Task<F, R>
where
    F: FnOnce() -> R,
{
    fn new(f: F) -> Self {
        Self {
            state: AtomicU8::new(PENDING),
            func: std::cell::UnsafeCell::new(Some(f)),
            result: std::cell::UnsafeCell::new(None),
            lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Try to move `PENDING → CLAIMED`; true iff this caller now owns the
    /// closure.
    fn claim(&self) -> bool {
        self.state
            .compare_exchange(PENDING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Run the claimed closure inline and hand the result straight back
    /// (the forker's reclaim path — no need to go through the slot).
    fn run_reclaimed(&self) -> std::thread::Result<R> {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), CLAIMED);
        let f = unsafe {
            (*self.func.get())
                .take()
                .expect("claimed job has no closure")
        };
        let res = catch_unwind(AssertUnwindSafe(f));
        // Mark DONE so Drop-order invariants match the worker path.
        self.state.store(DONE, Ordering::Release);
        res
    }

    /// Drop the claimed closure without running it (the forker's other arm
    /// panicked — rayon likewise drops an unstolen job rather than running
    /// it, and this crate's sequential path never reaches it either).
    fn discard_unexecuted(&self) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), CLAIMED);
        unsafe { (*self.func.get()).take() };
        self.state.store(DONE, Ordering::Release);
    }

    /// Take the result after `is_done()` returned true.
    fn take_result(&self) -> std::thread::Result<R> {
        debug_assert_eq!(self.state.load(Ordering::Acquire), DONE);
        unsafe { (*self.result.get()).take().expect("done job has no result") }
    }
}

impl<F, R> Runnable for Task<F, R>
where
    F: FnOnce() -> R,
{
    fn run(&self) {
        if !self.claim() {
            return; // the forker reclaimed it
        }
        let f = unsafe {
            (*self.func.get())
                .take()
                .expect("claimed job has no closure")
        };
        let res = catch_unwind(AssertUnwindSafe(f));
        unsafe { *self.result.get() = Some(res) };
        self.state.store(DONE, Ordering::Release);
        // Lock-then-notify pairs with the probe's check-under-lock, so a
        // waiter that just saw "not done" cannot miss this wakeup.
        let _g = self.lock.lock().unwrap();
        self.done_cv.notify_all();
    }
}

impl<F, R> Probe for Task<F, R>
where
    F: FnOnce() -> R,
    Task<F, R>: Sync,
{
    fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == DONE
    }

    fn park_brief(&self) {
        let g = self.lock.lock().unwrap();
        if self.state.load(Ordering::Acquire) != DONE {
            let _ = self.done_cv.wait_timeout(g, JOIN_PARK).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

struct State {
    queue: VecDeque<JobRef>,
    workers: usize,
}

pub(crate) struct Pool {
    state: Mutex<State>,
    work_cv: Condvar,
}

/// Process-wide pool metrics, registered once in the global observability
/// registry. Counters are deterministic only in the trivial sense (spawn
/// counts depend on fork timing), so nothing here feeds `stats()` views.
struct PoolMetrics {
    /// `fork_join` calls: jobs pushed onto the queue (each one then run by
    /// a worker, a helping joiner, or its own forker).
    forks: cpma_obs::Counter,
    /// Jobs popped and executed by detached workers.
    jobs: cpma_obs::Counter,
    /// Jobs executed by a blocked joiner in `help_until` (helping steals).
    helped: cpma_obs::Counter,
    /// Worker threads spawned over the process lifetime.
    workers_spawned: cpma_obs::Counter,
    /// Current worker-thread count (monotone under the lazy-spawn design).
    workers: cpma_obs::Gauge,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = cpma_obs::global();
        PoolMetrics {
            forks: r.shared_counter("pool.forks", cpma_obs::Unit::Count),
            jobs: r.shared_counter("pool.jobs", cpma_obs::Unit::Count),
            helped: r.shared_counter("pool.helped", cpma_obs::Unit::Count),
            workers_spawned: r.shared_counter("pool.workers_spawned", cpma_obs::Unit::Count),
            workers: r.shared_gauge("pool.workers"),
        }
    })
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
    })
}

impl Pool {
    /// Enqueue a job, growing the worker set up to `workers` first.
    fn push(&'static self, job: JobRef, workers: usize) {
        metrics().forks.inc();
        let mut st = self.state.lock().unwrap();
        let target = workers.min(MAX_WORKERS);
        while st.workers < target {
            let spawned = std::thread::Builder::new()
                .name(format!("cpma-pool-{}", st.workers))
                .spawn(move || self.worker_loop());
            if spawned.is_err() {
                break; // fewer workers; reclaim keeps us deadlock-free
            }
            st.workers += 1;
            let m = metrics();
            m.workers_spawned.inc();
            m.workers.set(st.workers as i64);
            cpma_obs::journal().push("pool.spawn", 0, st.workers as u64);
        }
        st.queue.push_back(job);
        drop(st);
        self.work_cv.notify_one();
    }

    fn try_pop(&self) -> Option<JobRef> {
        self.state.lock().unwrap().queue.pop_front()
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if let Some(j) = st.queue.pop_front() {
                        break j;
                    }
                    st = self.work_cv.wait(st).unwrap();
                }
            };
            metrics().jobs.inc();
            job.run(); // panics are caught inside the task
        }
    }

    /// Wait for `probe` to finish, executing other queued jobs meanwhile
    /// (this is what lets nested joins run to completion instead of
    /// deadlocking a blocked worker).
    fn help_until(&self, probe: &dyn Probe) {
        loop {
            if probe.is_done() {
                return;
            }
            match self.try_pop() {
                Some(job) => {
                    metrics().helped.inc();
                    job.run();
                }
                None => probe.park_brief(),
            }
        }
    }
}

/// Erase the closure's borrow lifetime so the job can sit in the 'static
/// queue.
///
/// # Safety
/// The caller must not return (or unwind past its frame) until the task is
/// `DONE` or has been reclaimed and run inline — [`fork_join`] guarantees
/// both, so the borrowed data outlives every access to the closure. The
/// `Arc` clone that may linger in the queue afterwards only ever loses the
/// claim CAS and drops empty `Option`s.
unsafe fn erase<'a>(
    arc: Arc<dyn Runnable + Send + Sync + 'a>,
) -> Arc<dyn Runnable + Send + Sync + 'static> {
    std::mem::transmute(arc)
}

/// Fork `oper_b` onto the workers, run `oper_a` inline, and join — the
/// parallel arm of [`crate::join`] (the caller has already counted the
/// fork in `scope`).
pub(crate) fn fork_join<A, B, RA, RB>(oper_a: A, oper_b: B, scope: &crate::Scope) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = global();
    let task = Arc::new(Task::new(oper_b));
    {
        let job: Arc<dyn Runnable + Send + Sync + '_> = task.clone();
        // SAFETY: this frame outlives the task (we join below before
        // returning or unwinding).
        let job = unsafe { erase(job) };
        pool.push(JobRef { job, scope }, scope.size);
    }
    let ra = catch_unwind(AssertUnwindSafe(oper_a));
    let rb = if task.claim() {
        if ra.is_err() {
            // `oper_a` panicked and nobody stole `oper_b`: drop it
            // unexecuted (rayon's semantics, and what our own sequential
            // path does) and unwind immediately.
            task.discard_unexecuted();
            match ra {
                Err(p) => std::panic::resume_unwind(p),
                Ok(_) => unreachable!(),
            }
        }
        task.run_reclaimed()
    } else {
        // Stolen: the job may borrow this frame, so even a panicking
        // `oper_a` must wait here for it to finish before unwinding.
        pool.help_until(&*task);
        task.take_result()
    };
    match (ra, rb) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(p), _) => std::panic::resume_unwind(p),
        (_, Err(p)) => std::panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_rules() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("junk")), None);
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
    }

    #[test]
    fn fork_join_basic_and_borrowing() {
        let data = [1u64, 2, 3];
        let scope = crate::Scope::new(2, 1);
        let (a, b) = fork_join(|| data.iter().sum::<u64>(), || data.len(), &scope);
        assert_eq!((a, b), (6, 3));
    }

    #[test]
    fn reclaim_with_zero_budget_workers() {
        // Even if no worker ever picks the job up, the forker reclaims it.
        let (a, b) = fork_join(|| 1, || 2, &crate::Scope::new(1, 1));
        assert_eq!((a, b), (1, 2));
    }
}
