//! Crash recovery for the durable service: sever the server mid-stream,
//! recover the WAL directory, restart the listener on it, and verify the
//! recovered store — over the network — against per-epoch oracles. The
//! kill-point machinery (copy the live directory, truncate at every
//! interesting byte) mirrors `cpma-store`'s `persist_recovery` suite.

use cpma_api::testkit::SplitMix64;
use cpma_api::{BatchOp, OrderedSet, RangeSet};
use cpma_persist::{recover, FsyncPolicy, WalConfig};
use cpma_pma::Cpma;
use cpma_service::{Client, Service, ServiceConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpma-service-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The single live WAL segment (rotation is disabled here).
fn sole_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    assert_eq!(segs.len(), 1, "expected exactly one segment");
    segs.pop().unwrap()
}

fn wal_config(dir: &Path) -> WalConfig {
    let mut cfg = WalConfig::new(dir);
    cfg.rotate_bytes = u64::MAX;
    // The "crash" below is a drop (or a truncated copy of the live file),
    // so per-epoch fsync is not what is under test; Never keeps the suite
    // fast while still exercising every append.
    cfg.fsync = FsyncPolicy::Never;
    cfg
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        read_timeout: Some(Duration::from_secs(10)),
        ..ServiceConfig::default()
    }
}

/// Durable service under concurrent traffic, then a crash (drop without
/// checkpoint): recovery must equal the union of everything the clients
/// acked, a restarted listener must serve it, and traffic appended after
/// the restart must survive another recovery.
#[test]
fn durable_service_recovers_acked_traffic_after_crash() {
    const CLIENTS: u64 = 4;
    let dir = tmp_dir("traffic");

    let (mut service, _combiner, report) =
        Service::serve_durable::<Cpma>(service_config(), wal_config(&dir)).unwrap();
    assert_eq!(report.last_seq, 0);
    let addr = service.local_addr();

    // Concurrent striped clients; each tracks exactly what it acked.
    let models: Vec<BTreeSet<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut model = BTreeSet::new();
                    let mut rng = SplitMix64::new(0x2EC0_0000 + t);
                    for _ in 0..12 {
                        let ops: Vec<BatchOp<u64>> = (0..rng.next_below(60) + 4)
                            .map(|_| {
                                let k = (t << 32) | rng.next_bits(8);
                                if rng.chance(1, 3) {
                                    BatchOp::Remove(k)
                                } else {
                                    BatchOp::Insert(k)
                                }
                            })
                            .collect();
                        for (op, ack) in ops.iter().zip(client.mutate_burst(&ops).unwrap()) {
                            let want = match *op {
                                BatchOp::Insert(k) => model.insert(k),
                                BatchOp::Remove(k) => model.remove(&k),
                            };
                            assert_eq!(ack, want);
                        }
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut expected: Vec<u64> = models.iter().flatten().copied().collect();
    expected.sort_unstable();

    // Crash: drop the service (no checkpoint was ever written — recovery
    // is a pure WAL replay).
    service.shutdown();
    drop(service);

    // Offline recovery equals the acked union.
    let (recovered, report) = recover::<Cpma>(&dir).unwrap();
    assert!(report.last_seq > 0);
    assert!(!report.truncated_tail);
    assert_eq!(recovered.to_vec(), expected);

    // Restart the listener on the same directory and verify over the
    // network.
    let (mut service, _combiner, report) =
        Service::serve_durable::<Cpma>(service_config(), wal_config(&dir)).unwrap();
    assert!(report.last_seq > 0);
    let mut client = Client::connect(service.local_addr()).unwrap();
    let hits = client.contains_batch(&expected).unwrap();
    assert!(
        hits.iter().all(|&h| h),
        "recovered keys missing over network"
    );
    assert_eq!(
        client.range_sum(0, u64::MAX).unwrap(),
        expected.iter().sum::<u64>()
    );

    // Post-restart traffic must survive the next crash+recovery too.
    assert!(client.insert(u64::MAX - 1).unwrap());
    service.shutdown();
    drop(service);
    let (recovered, _) = recover::<Cpma>(&dir).unwrap();
    assert!(recovered.contains(u64::MAX - 1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill points mid-epoch: one client drives per-op epochs, the segment
/// length is recorded after each ack, and the log is cut at every epoch
/// boundary, one byte short of it, and mid-record. Recovery must land
/// exactly on the oracle state after the complete epochs; a restarted
/// service on the cut directory must serve that state and accept new
/// traffic.
#[test]
fn kill_points_mid_epoch_with_listener_restart() {
    let dir = tmp_dir("killpoints");
    let (mut service, _combiner, _) =
        Service::serve_durable::<Cpma>(service_config(), wal_config(&dir)).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();

    let mut rng = SplitMix64::new(0x4B31_5EC1);
    let mut model = BTreeSet::new();
    // states[e] = oracle after e acked ops; ends[e] = segment length then.
    let mut states: Vec<Vec<u64>> = vec![Vec::new()];
    let mut ends: Vec<u64> = vec![std::fs::metadata(sole_segment(&dir)).unwrap().len()];
    for i in 0..10 {
        let k = rng.next_bits(6);
        // Point round-trips: each op is its own combining epoch, hence its
        // own WAL record.
        if i % 3 == 2 {
            client.remove(k).unwrap();
            model.remove(&k);
        } else {
            client.insert(k).unwrap();
            model.insert(k);
        }
        states.push(model.iter().copied().collect());
        ends.push(std::fs::metadata(sole_segment(&dir)).unwrap().len());
    }
    service.shutdown();
    drop(service);

    let mut cuts: Vec<u64> = Vec::new();
    for e in 1..ends.len() {
        cuts.extend([ends[e], ends[e] - 1, (ends[e - 1] + ends[e]) / 2]);
    }
    let scratch = tmp_dir("killpoints-scratch");
    for (ci, &cut) in cuts.iter().enumerate() {
        copy_dir(&dir, &scratch);
        let seg = sole_segment(&scratch);
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let complete = ends.iter().filter(|&&end| end <= cut).count() - 1;
        let (recovered, report) = recover::<Cpma>(&scratch).unwrap();
        assert_eq!(
            recovered.to_vec(),
            states[complete],
            "cut at byte {cut}: wrong recovered state"
        );
        assert_eq!(report.last_seq, complete as u64);

        // Every third cut additionally restarts the full service on the
        // truncated directory and verifies over the network.
        if ci % 3 == 0 {
            let (mut service, _combiner, report) =
                Service::serve_durable::<Cpma>(service_config(), wal_config(&scratch)).unwrap();
            assert_eq!(report.last_seq, complete as u64);
            let mut client = Client::connect(service.local_addr()).unwrap();
            assert_eq!(client.scan(0, 1024).unwrap(), states[complete]);
            // The restarted service keeps accepting (and logging) traffic.
            assert!(client.insert(u64::MAX - 7).unwrap());
            assert!(client.contains(u64::MAX - 7).unwrap());
            service.shutdown();
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}
