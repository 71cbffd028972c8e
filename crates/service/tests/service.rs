//! End-to-end service tests: single-connection semantics against a
//! `BTreeSet` oracle, and the concurrent-client linearizability check —
//! every acked write must be visible to that connection's subsequent
//! reads, and the final store must equal a replay of everything that was
//! acknowledged.

use cpma_api::testkit::SplitMix64;
use cpma_api::BatchOp;
use cpma_pma::Cpma;
use cpma_service::{Client, Service, ServiceConfig, ServiceError, SCAN_LIMIT};
use std::collections::BTreeSet;
use std::time::Duration;

fn test_config() -> ServiceConfig {
    ServiceConfig {
        read_timeout: Some(Duration::from_secs(10)),
        ..ServiceConfig::default()
    }
}

fn serve() -> (Service, std::net::SocketAddr) {
    let (service, _combiner) = Service::serve(Cpma::new(), test_config()).unwrap();
    let addr = service.local_addr();
    (service, addr)
}

/// The full store contents as a client sees them, paging through `Scan`.
fn scan_all(client: &mut Client) -> Vec<u64> {
    let mut out = Vec::new();
    let mut from = 0u64;
    loop {
        let page = client.scan(from, 4096).unwrap();
        let done = page.len() < 4096;
        let last = page.last().copied();
        out.extend(page);
        match (done, last) {
            (true, _) | (_, None) => return out,
            (false, Some(k)) if k == u64::MAX => return out,
            (false, Some(k)) => from = k + 1,
        }
    }
}

#[test]
fn point_ops_follow_oracle() {
    let (mut service, addr) = serve();
    let mut client = Client::connect(addr).unwrap();
    let mut oracle = BTreeSet::new();
    let mut rng = SplitMix64::new(0x5E4C_0001);
    for _ in 0..600 {
        let k = rng.next_bits(8);
        match rng.next_below(3) {
            0 => assert_eq!(client.insert(k).unwrap(), oracle.insert(k), "insert {k}"),
            1 => assert_eq!(client.remove(k).unwrap(), oracle.remove(&k), "remove {k}"),
            _ => assert_eq!(
                client.contains(k).unwrap(),
                oracle.contains(&k),
                "contains {k}"
            ),
        }
    }
    assert_eq!(
        scan_all(&mut client),
        oracle.iter().copied().collect::<Vec<_>>()
    );
    service.shutdown();
}

#[test]
fn pipelined_bursts_follow_oracle() {
    let (mut service, addr) = serve();
    let mut client = Client::connect(addr).unwrap();
    let mut oracle = BTreeSet::new();
    let mut rng = SplitMix64::new(0x5E4C_0002);
    for _ in 0..20 {
        // Bursts with deliberate same-key repeats: per-op acks must match
        // sequential application even when the server nets them into one
        // combined epoch.
        let ops: Vec<BatchOp<u64>> = (0..rng.next_below(500) + 1)
            .map(|_| {
                let k = rng.next_bits(7);
                if rng.chance(1, 3) {
                    BatchOp::Remove(k)
                } else {
                    BatchOp::Insert(k)
                }
            })
            .collect();
        let acks = client.mutate_burst(&ops).unwrap();
        for (op, ack) in ops.iter().zip(acks) {
            let want = match *op {
                BatchOp::Insert(k) => oracle.insert(k),
                BatchOp::Remove(k) => oracle.remove(&k),
            };
            assert_eq!(ack, want, "ack mismatch for {op:?}");
        }
        // Snapshot reads in the same connection observe the acked burst.
        let probes: Vec<u64> = (0..64).map(|_| rng.next_bits(7)).collect();
        let hits = client.contains_batch(&probes).unwrap();
        for (p, hit) in probes.iter().zip(hits) {
            assert_eq!(hit, oracle.contains(p), "snapshot read of {p}");
        }
        let sum: u64 = oracle.iter().sum();
        assert_eq!(client.range_sum(0, u64::MAX).unwrap(), sum);
    }
    assert_eq!(
        scan_all(&mut client),
        oracle.iter().copied().collect::<Vec<_>>()
    );
    service.shutdown();
}

#[test]
fn mixed_pipeline_with_interleaved_reads() {
    use cpma_service::Request;
    let (mut service, addr) = serve();
    let mut client = Client::connect(addr).unwrap();
    // One pipelined batch mixing writes and snapshot reads: the reads
    // split the combining runs, and each observes the writes before it.
    let replies = client
        .pipeline(vec![
            Request::Insert { seq: 0, key: 10 },
            Request::Insert { seq: 0, key: 20 },
            Request::RangeSum {
                seq: 0,
                lo: 0,
                hi: 100,
            },
            Request::Remove { seq: 0, key: 10 },
            Request::ContainsBatch {
                seq: 0,
                keys: vec![10, 20, 30],
            },
            Request::Scan {
                seq: 0,
                lo: 0,
                max: 10,
            },
        ])
        .unwrap();
    use cpma_service::Reply;
    assert!(matches!(replies[0], Reply::Bool { value: true, .. }));
    assert!(matches!(replies[1], Reply::Bool { value: true, .. }));
    assert!(matches!(replies[2], Reply::Sum { value: 30, .. }));
    assert!(matches!(replies[3], Reply::Bool { value: true, .. }));
    match &replies[4] {
        Reply::Bools { values, .. } => assert_eq!(values, &[false, true, false]),
        other => panic!("expected Bools, got {other:?}"),
    }
    match &replies[5] {
        Reply::Keys { keys, .. } => assert_eq!(keys, &[20]),
        other => panic!("expected Keys, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn concurrent_clients_linearizable_against_oracle() {
    const CLIENTS: u64 = 4;
    let (mut service, addr) = serve();

    // Each client owns a key stripe, so per-client oracles stay exact
    // under concurrency and the final store is their union.
    let models: Vec<BTreeSet<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let stripe = |k: u64| (t << 32) | k;
                    let mut client = Client::connect(addr).unwrap();
                    let mut model = BTreeSet::new();
                    let mut rng = SplitMix64::new(0xC11E_0000 + t);
                    for round in 0..30 {
                        // A pipelined mutation burst...
                        let ops: Vec<BatchOp<u64>> = (0..rng.next_below(120) + 1)
                            .map(|_| {
                                let k = stripe(rng.next_bits(9));
                                if rng.chance(1, 3) {
                                    BatchOp::Remove(k)
                                } else {
                                    BatchOp::Insert(k)
                                }
                            })
                            .collect();
                        let acks = client.mutate_burst(&ops).unwrap();
                        for (op, ack) in ops.iter().zip(acks) {
                            let want = match *op {
                                BatchOp::Insert(k) => model.insert(k),
                                BatchOp::Remove(k) => model.remove(&k),
                            };
                            assert_eq!(ack, want, "client {t}: ack mismatch for {op:?}");
                        }
                        // ...then interleaved point ops with linearized reads.
                        for _ in 0..20 {
                            let k = stripe(rng.next_bits(9));
                            match rng.next_below(3) {
                                0 => {
                                    let ack = client.insert(k).unwrap();
                                    assert_eq!(ack, model.insert(k), "client {t}: insert {k}");
                                }
                                1 => {
                                    let ack = client.remove(k).unwrap();
                                    assert_eq!(ack, model.remove(&k), "client {t}: remove {k}");
                                }
                                _ => {
                                    let hit = client.contains(k).unwrap();
                                    assert_eq!(hit, model.contains(&k), "client {t}: contains {k}");
                                }
                            }
                        }
                        // Acked writes must be visible to this connection's
                        // snapshot reads (the combiner publishes before waking).
                        if round % 5 == 0 {
                            let probes: Vec<u64> =
                                (0..32).map(|_| stripe(rng.next_bits(9))).collect();
                            let hits = client.contains_batch(&probes).unwrap();
                            for (p, hit) in probes.iter().zip(hits) {
                                assert_eq!(
                                    hit,
                                    model.contains(p),
                                    "client {t}: snapshot read of {p}"
                                );
                            }
                        }
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Final store over the network = union of what every client acked.
    let mut expected: Vec<u64> = models.iter().flatten().copied().collect();
    expected.sort_unstable();
    let mut checker = Client::connect(addr).unwrap();
    assert_eq!(scan_all(&mut checker), expected);
    service.shutdown();
}

#[test]
fn more_connections_than_workers_all_get_served() {
    let mut cfg = test_config();
    cfg.workers = 2;
    let (mut service, _) = {
        let (s, _c) = Service::serve(Cpma::new(), cfg).unwrap();
        let a = s.local_addr();
        (s, a)
    };
    let addr = service.local_addr();
    // 6 concurrent connections over 2 workers: excess connections queue
    // (backpressure) but every one is eventually served.
    std::thread::scope(|scope| {
        for t in 0u64..6 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..50 {
                    assert!(client.insert((t << 32) | i).unwrap());
                }
                assert!(client.contains((t << 32) | 49).unwrap());
            });
        }
    });
    let mut checker = Client::connect(addr).unwrap();
    assert_eq!(checker.scan(0, 1000).unwrap().len(), 300);
    service.shutdown();
}

#[test]
fn scan_is_clamped_to_server_limit() {
    let (mut service, addr) = serve();
    let mut client = Client::connect(addr).unwrap();
    let keys: Vec<u64> = (0..SCAN_LIMIT as u64 + 1000).collect();
    for chunk in keys.chunks(10_000) {
        let ops: Vec<BatchOp<u64>> = chunk.iter().map(|&k| BatchOp::Insert(k)).collect();
        client.mutate_burst(&ops).unwrap();
    }
    // Ask for everything, get the protocol's cap.
    let page = client.scan(0, u32::MAX).unwrap();
    assert_eq!(page, keys[..SCAN_LIMIT as usize]);
    service.shutdown();
}

/// Replies far larger than the client's read buffer, both shapes: 10 000
/// small frames back to back, and one 512 KiB frame (a full scan page),
/// each followed by a small reply that must still line up.
#[test]
fn large_burst_and_full_scan_page_round_trip() {
    let (mut service, addr) = serve();
    let mut client = Client::connect(addr).unwrap();
    let keys: Vec<u64> = (0..70_000u64).map(|i| i * 3).collect();
    for chunk in keys.chunks(10_000) {
        let ops: Vec<BatchOp<u64>> = chunk.iter().map(|&k| BatchOp::Insert(k)).collect();
        let acks = client.mutate_burst(&ops).unwrap();
        assert_eq!(acks, vec![true; chunk.len()]);
    }
    let removes: Vec<BatchOp<u64>> = keys[..10_000]
        .iter()
        .map(|&k| BatchOp::Remove(k + 1))
        .collect();
    assert_eq!(
        client.mutate_burst(&removes).unwrap(),
        vec![false; 10_000],
        "absent keys"
    );
    let page = client.scan(0, 1 << 16).unwrap();
    assert_eq!(page, keys[..1 << 16]);
    assert!(client.contains(keys[0]).unwrap());
    assert_eq!(
        client.scan(keys[1 << 16], 1 << 16).unwrap(),
        keys[1 << 16..]
    );
    service.shutdown();
}

#[test]
fn config_validation_rejects_bad_knobs() {
    let cfg = ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    };
    assert!(matches!(
        Service::serve(Cpma::new(), cfg),
        Err(ServiceError::Config(_))
    ));
}

#[test]
fn shutdown_severs_live_connections() {
    let (mut service, addr) = serve();
    let mut client = Client::connect(addr).unwrap();
    assert!(client.insert(1).unwrap());
    service.shutdown();
    // The next call fails cleanly (no hang): the server severed the
    // connection and joined its threads.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(client.insert(2).is_err());
}
