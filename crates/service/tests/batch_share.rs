//! Count, not clock: the connections a service holds share its pool.
//!
//! A service started inside `install(2)` over `ShardedSet<Cpma, 8>` — the
//! `service_mixed` store — owns a pool of 2, and each worker serves its
//! connection inside that pool, so the connections held count against
//! its 2 threads together with their forks. With one client connected,
//! the same script of `contains_batch` and `mutate_burst` requests forks
//! onto the pool (the eight shards split across two threads); with two
//! connected it adds nothing to `pool.forks`. Every reply is checked
//! against a `BTreeSet` oracle in both phases.
//!
//! `pool.forks` is process-wide, so this file holds one test: no other
//! test in its binary can fork while it counts.

use cpma_api::testkit::SplitMix64;
use cpma_api::{BatchOp, BatchSet};
use cpma_pma::Cpma;
use cpma_service::{Client, Service, ServiceConfig};
use cpma_store::ShardedSet;
use cpma_workloads::uniform_keys;
use std::collections::BTreeSet;

type Store = ShardedSet<Cpma, 8>;

/// Key width: base keys and script keys share one universe.
const BITS: u32 = 24;

fn forks() -> u64 {
    cpma_obs::global()
        .shared_counter("pool.forks", cpma_obs::Unit::Count)
        .value()
}

/// A few rounds of one mutate burst and one batched lookup, each reply
/// checked against `oracle` (the requests are sequential, so one oracle is
/// exact for every client).
fn script(client: &mut Client, oracle: &mut BTreeSet<u64>, rng: &mut SplitMix64) {
    for round in 0..4 {
        let ops: Vec<BatchOp<u64>> = (0..2048)
            .map(|_| {
                let k = rng.next_bits(BITS);
                if rng.chance(1, 3) {
                    BatchOp::Remove(k)
                } else {
                    BatchOp::Insert(k)
                }
            })
            .collect();
        let acks = client.mutate_burst(&ops).unwrap();
        let want: Vec<bool> = ops
            .iter()
            .map(|op| match *op {
                BatchOp::Insert(k) => oracle.insert(k),
                BatchOp::Remove(k) => oracle.remove(&k),
            })
            .collect();
        assert_eq!(acks, want, "round {round}: mutate_burst acks");

        let probes = rng.keys(4096, BITS);
        let hits = client.contains_batch(&probes).unwrap();
        let want: Vec<bool> = probes.iter().map(|k| oracle.contains(k)).collect();
        assert_eq!(hits, want, "round {round}: contains_batch");
    }
}

#[test]
fn two_served_connections_fork_nothing_and_a_lone_one_forks() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    pool.install(|| {
        let base = uniform_keys(50_000, BITS, 0xB5_0001);
        let mut oracle: BTreeSet<u64> = base.iter().copied().collect();
        let mut set = Store::new_set();
        set.insert_batch(&mut base.clone(), false);
        let (mut service, _combiner) = Service::serve(set, ServiceConfig::default()).unwrap();
        let mut rng = SplitMix64::new(0xB5_0002);

        // One client: its batches get the whole budget of 2.
        let mut a = Client::connect(service.local_addr()).unwrap();
        let before = forks();
        script(&mut a, &mut oracle, &mut rng);
        let lone = forks() - before;
        if rayon::current_num_threads() > 1 {
            assert!(lone > 0, "a lone connection at budget 2 never forked");
        }

        // Two clients: a reply to the second proves its worker is serving
        // it, so from here on each batch runs at 2 / 2 = 1 thread.
        let mut b = Client::connect(service.local_addr()).unwrap();
        assert_eq!(b.contains(base[0]).unwrap(), oracle.contains(&base[0]));
        let before = forks();
        script(&mut a, &mut oracle, &mut rng);
        script(&mut b, &mut oracle, &mut rng);
        assert_eq!(forks() - before, 0, "two served connections forked");

        service.shutdown();
    });
}
