//! Concurrency test layer for the fork-join pool.
//!
//! These tests exercise the pool's *scheduling* contracts — panic
//! propagation, nesting, sequential forcing, and real multi-thread
//! execution — rather than iterator results (the crate's unit tests cover
//! those). They force budgets with `ThreadPool::install`, which the pool
//! honors even above the machine's core count, so the suite exercises
//! real concurrency on single-core CI runners too. Under `CPMA_THREADS=1`
//! every budget is capped to one and the parallelism smoke tests skip
//! themselves — the rest of the suite then proves the sequential path.

use rayon::prelude::*;
use rayon::{current_num_threads, join, ThreadPoolBuilder};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The workers are process-wide, and the rendezvous tests here each need
/// an idle worker to meet their caller; the test harness runs test
/// functions concurrently — so those tests serialize on this lock.
static RENDEZVOUS_LOCK: Mutex<()> = Mutex::new(());

fn serialize_rendezvous() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test (several here panic on purpose under catch_unwind)
    // must not poison the whole suite.
    RENDEZVOUS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` inside a fresh pool of `n` threads.
fn with_budget<T: Send>(n: usize, f: impl FnOnce() -> T + Send) -> T {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(f)
}

/// True when the environment allows real parallelism (a `CPMA_THREADS=1`
/// run caps every budget at one; these smoke tests then have nothing to
/// observe and skip).
fn parallelism_allowed() -> bool {
    with_budget(2, current_num_threads) >= 2
}

// ---------------------------------------------------------------------------
// Panic propagation
// ---------------------------------------------------------------------------

#[test]
fn panic_in_left_arm_propagates() {
    let r = catch_unwind(AssertUnwindSafe(|| {
        with_budget(4, || join(|| panic!("left boom"), || 7))
    }));
    let payload = r.expect_err("panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(msg, "left boom");
}

#[test]
fn panic_in_spawned_arm_propagates() {
    let r = catch_unwind(AssertUnwindSafe(|| {
        with_budget(4, || join(|| 7, || panic!("right boom")))
    }));
    let payload = r.expect_err("panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(msg, "right boom");
}

#[test]
fn panic_does_not_poison_the_pool() {
    // A panicking join must leave the pool fully usable: workers catch job
    // panics, and the fork is counted out of its pool on unwind.
    for round in 0..20 {
        let r = catch_unwind(AssertUnwindSafe(|| {
            with_budget(4, || {
                join(
                    || {
                        if round % 2 == 0 {
                            panic!("round {round}");
                        }
                        round
                    },
                    || round + 1,
                )
            })
        }));
        assert_eq!(r.is_err(), round % 2 == 0);
    }
    // The pool still computes correct results at full fan-out afterwards.
    let total: u64 = with_budget(4, || (0..100_000u64).into_par_iter().sum());
    assert_eq!(total, (0..100_000u64).sum());
}

#[test]
fn panic_waits_for_the_other_arm() {
    let _guard = serialize_rendezvous();
    if !parallelism_allowed() {
        // On the sequential path a left-arm panic skips the right arm
        // entirely (exactly like rayon dropping an unstolen job), so there
        // is nothing to wait for.
        eprintln!("skipping: thread budget capped at 1 (CPMA_THREADS=1?)");
        return;
    }
    // A *stolen* arm must run to completion before the panic unwinds past
    // the join (it may borrow the caller's stack). The left arm waits
    // until the right arm has demonstrably started on a worker before
    // panicking, so the join cannot take the drop-unstolen shortcut.
    let started = AtomicBool::new(false);
    let finished = AtomicBool::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        with_budget(4, || {
            join(
                || {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while !started.load(Ordering::SeqCst) {
                        assert!(
                            Instant::now() < deadline,
                            "pool provided no second thread within 30s"
                        );
                        std::thread::yield_now();
                    }
                    panic!("early")
                },
                || {
                    started.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    finished.store(true, Ordering::SeqCst);
                },
            )
        })
    }));
    assert!(r.is_err());
    assert!(
        finished.load(Ordering::SeqCst),
        "join unwound before the stolen arm completed"
    );
}

#[test]
fn panic_skips_the_unstolen_arm_on_the_sequential_path() {
    // Budget 1 never forks, so a left-arm panic means the right arm is
    // never executed — the same semantics rayon has for a job that was
    // never stolen, and the parallel path's reclaim shortcut mirrors it.
    let ran = AtomicBool::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        with_budget(1, || {
            join(|| panic!("solo"), || ran.store(true, Ordering::SeqCst))
        })
    }));
    assert!(r.is_err());
    assert!(
        !ran.load(Ordering::SeqCst),
        "unstolen arm must be dropped, not run, after a panic"
    );
}

// ---------------------------------------------------------------------------
// Nesting
// ---------------------------------------------------------------------------

#[test]
fn nested_joins_inside_workers_do_not_deadlock() {
    // A full binary fork tree: inner joins run from inside pool workers,
    // which must help (run queued jobs) while waiting rather than block.
    fn tree_sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            (lo..hi).sum()
        } else {
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| tree_sum(lo, mid), || tree_sum(mid, hi));
            a + b
        }
    }
    let got = with_budget(8, || tree_sum(0, 1 << 16));
    assert_eq!(got, (0u64..1 << 16).sum());
}

#[test]
fn deep_sequential_spine_of_joins() {
    // Chain of joins (right arm trivial): exercises fork/reclaim pressure
    // without a balanced tree's natural throttling.
    fn spine(depth: usize) -> usize {
        if depth == 0 {
            return 0;
        }
        let (a, b) = join(|| spine(depth - 1), || 1usize);
        a + b
    }
    assert_eq!(with_budget(4, || spine(2000)), 2000);
}

#[test]
fn concurrent_external_callers_share_the_pool() {
    // Several OS threads hammer the shared workers at once; every caller
    // must get its own correct result. A spawned thread starts in the
    // default pool, so each caller installs a pool of its own.
    let results: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                s.spawn(move || {
                    with_budget(3, || {
                        (0..50_000u64).into_par_iter().map(|x| x ^ t).sum::<u64>()
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, got) in results.into_iter().enumerate() {
        let want: u64 = (0..50_000u64).map(|x| x ^ t as u64).sum();
        assert_eq!(got, want, "caller {t}");
    }
}

// ---------------------------------------------------------------------------
// Sequential forcing
// ---------------------------------------------------------------------------

#[test]
fn install_one_forces_the_sequential_path() {
    // Budget 1: no forks — every closure runs on the calling thread.
    // (`CPMA_THREADS=1` forces the same path by capping every budget to 1;
    // the CI matrix runs this whole suite under it.)
    let caller = std::thread::current().id();
    let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    with_budget(1, || {
        assert_eq!(current_num_threads(), 1);
        let (a, b) = join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(a, caller);
        assert_eq!(b, caller);
        (0..10_000u64).into_par_iter().for_each(|_| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
    });
    let ids = ids.into_inner().unwrap();
    assert_eq!(ids.len(), 1, "budget 1 must not fan out");
    assert!(ids.contains(&caller));
}

#[test]
fn install_nests_and_restores_on_unwind() {
    with_budget(4, || {
        let outer = current_num_threads();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_budget(1, || -> () {
                assert_eq!(current_num_threads(), 1);
                panic!("unwind out of the inner install");
            })
        }));
        assert_eq!(
            current_num_threads(),
            outer,
            "the outer pool must be restored on unwind"
        );
    });
}

// ---------------------------------------------------------------------------
// Pools: a shared count of threads
// ---------------------------------------------------------------------------

/// The budget a thread outside any `install` sees.
fn default_budget() -> usize {
    std::thread::spawn(current_num_threads).join().unwrap()
}

#[test]
fn concurrent_installs_each_see_their_own_budget() {
    // Both threads read their budget while the other is inside its own
    // `install` (the barriers), so neither can see the other's.
    let four = with_budget(4, current_num_threads);
    let inside = std::sync::Barrier::new(2);
    let seen: Vec<(usize, usize)> = std::thread::scope(|s| {
        let inside = &inside;
        let handles: Vec<_> = [1usize, 4]
            .into_iter()
            .map(|n| {
                s.spawn(move || {
                    let got = with_budget(n, || {
                        inside.wait();
                        let got = current_num_threads();
                        inside.wait();
                        got
                    });
                    (got, current_num_threads())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let default = default_budget();
    assert_eq!(seen, vec![(1, default), (four, default)]);
}

#[test]
fn a_shared_pool_reports_its_size_less_the_other_installers() {
    // Two threads inside one pool of 4 at once (the barriers) each see 4
    // less the other; a thread re-entering the pool it is in counts once.
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let alone = pool.install(current_num_threads);
    let inside = std::sync::Barrier::new(2);
    let seen: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    pool.install(|| {
                        inside.wait();
                        let got = (current_num_threads(), pool.install(current_num_threads));
                        inside.wait();
                        got
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shared = (alone - 1).max(1);
    assert_eq!(seen, vec![(shared, shared); 2]);
    assert_eq!(pool.install(current_num_threads), alone, "installers left");
}

#[test]
fn a_forked_job_runs_at_its_forkers_budget() {
    let _guard = serialize_rendezvous();
    if !parallelism_allowed() {
        eprintln!("skipping: thread budget capped at 1 (CPMA_THREADS=1?)");
        return;
    }
    // The left arm holds the caller until the right arm has started, so
    // the right arm runs on a worker, not reclaimed by the caller. That
    // worker, and both arms of the join nested in the job, see the
    // forker's budget — not the worker's own default.
    let four = with_budget(4, current_num_threads);
    let started = AtomicBool::new(false);
    let caller = std::thread::current().id();
    let (_, (runner, outer, nested)) = with_budget(4, || {
        join(
            || {
                let deadline = Instant::now() + Duration::from_secs(30);
                while !started.load(Ordering::SeqCst) {
                    assert!(
                        Instant::now() < deadline,
                        "pool provided no second thread within 30s"
                    );
                    std::thread::yield_now();
                }
            },
            || {
                started.store(true, Ordering::SeqCst);
                let outer = current_num_threads();
                let nested = join(current_num_threads, current_num_threads);
                (std::thread::current().id(), outer, nested)
            },
        )
    });
    assert_ne!(runner, caller, "the forked arm must run on a worker");
    assert_eq!((outer, nested), (four, (four, four)));
}

#[test]
fn a_thread_spawned_inside_install_sees_the_default_budget() {
    let default = default_budget();
    for n in [1usize, 4] {
        let (inside, spawned) = with_budget(n, || {
            let spawned = std::thread::spawn(current_num_threads).join().unwrap();
            (current_num_threads(), spawned)
        });
        assert_eq!(inside, with_budget(n, current_num_threads));
        assert_eq!(spawned, default, "a std::thread inside install({n})");
    }
}

// ---------------------------------------------------------------------------
// Real parallelism smoke tests
// ---------------------------------------------------------------------------

#[test]
fn join_runs_arms_on_two_threads_when_allowed() {
    let _guard = serialize_rendezvous();
    if !parallelism_allowed() {
        eprintln!("skipping: thread budget capped at 1 (CPMA_THREADS=1?)");
        return;
    }
    // Rendezvous: each arm records its thread and waits (with a deadline)
    // for the other. Success is only possible if the two arms ran
    // concurrently — i.e. on two distinct threads.
    let a_ready = AtomicBool::new(false);
    let b_ready = AtomicBool::new(false);
    let rendezvous = |mine: &AtomicBool, other: &AtomicBool| {
        mine.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !other.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < deadline,
                "pool provided no second thread within 30s"
            );
            std::thread::yield_now();
        }
        std::thread::current().id()
    };
    let (ta, tb) = with_budget(2, || {
        join(
            || rendezvous(&a_ready, &b_ready),
            || rendezvous(&b_ready, &a_ready),
        )
    });
    assert_ne!(ta, tb, "concurrent arms must be on distinct threads");
}

#[test]
fn par_iter_observes_multiple_threads_when_allowed() {
    let _guard = serialize_rendezvous();
    if !parallelism_allowed() {
        eprintln!("skipping: thread budget capped at 1 (CPMA_THREADS=1?)");
        return;
    }
    // Block inside leaves until at least two distinct threads have checked
    // in, so the observation cannot be defeated by one thread finishing
    // everything first. With a budget of 4 and >= 4 leaves this cannot
    // starve: a leaf only waits while every other leaf is still queued,
    // and queued leaves are claimable by the lazily-spawned workers.
    let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
    let seen_two = AtomicBool::new(false);
    with_budget(4, || {
        (0..64u64).into_par_iter().for_each(|_| {
            let n = {
                let mut g = ids.lock().unwrap();
                g.insert(std::thread::current().id());
                g.len()
            };
            if n >= 2 {
                seen_two.store(true, Ordering::SeqCst);
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while !seen_two.load(Ordering::SeqCst) {
                assert!(
                    Instant::now() < deadline,
                    "pool provided no second thread within 30s"
                );
                std::thread::yield_now();
            }
        })
    });
    assert!(ids.into_inner().unwrap().len() >= 2);
}

#[test]
fn results_are_identical_across_budgets() {
    // The scheduling contract behind the workspace's determinism tests:
    // terminals are order-preserving, so any budget gives bit-identical
    // results.
    let input: Vec<u64> = (0..100_000u64)
        .map(|x| x.wrapping_mul(0x9E3779B97F4A7C15) >> 24)
        .collect();
    let runs: Vec<(Vec<u64>, u64, usize)> = [1usize, 2, 8]
        .into_iter()
        .map(|t| {
            with_budget(t, || {
                let mapped: Vec<u64> = input.par_iter().map(|&x| x >> 7).collect();
                let sum: u64 = input.par_iter().copied().sum();
                let odd = input.par_iter().filter(|&&x| x % 2 == 1).count();
                (mapped, sum, odd)
            })
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

#[test]
fn par_sort_agrees_across_budgets() {
    let input: Vec<u64> = (0..200_000u64)
        .map(|x| x.wrapping_mul(0xD1B54A32D192ED03) >> 8)
        .collect();
    let mut serial = input.clone();
    with_budget(1, || serial.par_sort_unstable());
    let mut parallel = input.clone();
    with_budget(8, || parallel.par_sort_unstable());
    assert_eq!(serial, parallel);
    let mut std_sorted = input;
    std_sorted.sort_unstable();
    assert_eq!(serial, std_sorted);
}

#[test]
fn spawn_count_stays_within_budget() {
    // While running under budget B, the number of threads concurrently
    // inside leaf closures must never exceed B.
    const BUDGET: usize = 3;
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    with_budget(BUDGET, || {
        (0..256u64).into_par_iter().for_each(|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        })
    });
    assert!(
        peak.load(Ordering::SeqCst) <= BUDGET,
        "peak concurrency {} exceeded budget {BUDGET}",
        peak.load(Ordering::SeqCst)
    );
}
