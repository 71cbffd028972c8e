//! Count, not clock: a pool is a shared count of threads.
//!
//! Each case runs a *held descent* on one thread per installed pool, all
//! at once: a chain of joins down the left arms, where every right arm
//! waits on a gate that opens only once every participating thread has
//! reached the bottom. No fork is joined while a case counts, so
//! `pool.forks` reads exactly the forks each pool admits: its size
//! (capped by `CPMA_THREADS`) less the threads inside its `install`.
//!
//! - Pools of 2 and 8, each installed by its own thread at once, admit
//!   1 + 7 forks: neither pool's forks count against the other.
//! - One pool of 2 installed by two threads at once admits none (the two
//!   installers are its whole size); installed by one thread alone, it
//!   admits 1.
//!
//! `pool.forks` is process-wide, so this file holds one test: no other
//! test in its binary can fork while it counts.

use rayon::{join, ThreadPool, ThreadPoolBuilder};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Joins per descent: more than any pool here has room to fork.
const DEPTH: usize = 16;

fn forks() -> u64 {
    cpma_obs::global()
        .shared_counter("pool.forks", cpma_obs::Unit::Count)
        .value()
}

fn pool(size: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(size).build().unwrap()
}

/// A pool's size as `CPMA_THREADS` caps it: what one installer sees.
fn capped(pool: &ThreadPool) -> u64 {
    pool.install(rayon::current_num_threads) as u64
}

/// Opens once `need` threads have arrived.
struct Gate {
    arrived: Mutex<usize>,
    opened: Condvar,
    need: usize,
}

impl Gate {
    fn arrive(&self) {
        *self.arrived.lock().unwrap() += 1;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut arrived = self.arrived.lock().unwrap();
        while *arrived < self.need {
            assert!(Instant::now() < deadline, "the gate never opened");
            arrived = self
                .opened
                .wait_timeout(arrived, Duration::from_millis(10))
                .unwrap()
                .0;
        }
    }
}

/// `depth` joins down the left arms, then arrive at `gate`; every right
/// arm waits for the gate, so each admitted fork stays outstanding until
/// every descent has reached its bottom.
fn descend(depth: usize, gate: &Gate) {
    if depth == 0 {
        return gate.arrive();
    }
    join(|| descend(depth - 1, gate), || gate.wait());
}

/// The forks admitted while each of `pools` is installed by a thread of
/// its own (the same pool may appear twice), all descending at once.
fn held_forks(pools: &[&ThreadPool]) -> u64 {
    let gate = Gate {
        arrived: Mutex::new(0),
        opened: Condvar::new(),
        need: pools.len(),
    };
    let inside = Barrier::new(pools.len());
    let before = forks();
    std::thread::scope(|s| {
        for pool in pools {
            let (gate, inside) = (&gate, &inside);
            s.spawn(move || {
                pool.install(|| {
                    inside.wait();
                    descend(DEPTH, gate);
                })
            });
        }
    });
    forks() - before
}

#[test]
fn each_pool_admits_its_size_less_its_installers() {
    let (two, eight) = (pool(2), pool(8));
    assert_eq!(
        held_forks(&[&two, &eight]),
        (capped(&two) - 1) + (capped(&eight) - 1),
        "pools of 2 and 8 on two threads at once"
    );
    assert_eq!(
        held_forks(&[&two, &two]),
        capped(&two).saturating_sub(2),
        "one pool of 2 installed by two threads at once"
    );
    assert_eq!(
        held_forks(&[&two]),
        capped(&two) - 1,
        "one pool of 2 installed by one thread"
    );
}
