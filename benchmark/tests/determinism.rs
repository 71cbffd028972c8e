//! Same seed → identical inputs, at pool budgets 1 and 2; and the
//! harness-side normal form the oracle is built on.

use cpma_benchmark::inputs::{self, KeyShape, Plan, Sizes};

fn small_sizes(universe: usize) -> Sizes {
    Sizes {
        universe,
        base_share: 0.7,
        builds: 1,
        small_batches: 6,
        small_ops: 200,
        bulk_batches: 2,
        bulk_ops: 2000,
        range_queries: 50,
        range_elems: 500,
        scans: 1,
        probes: 2000,
        probe_chunk: 100,
        restores: 1,
    }
}

fn plan_at(budget: usize, shape: KeyShape, seed: u64) -> Plan {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(budget)
        .build()
        .expect("pool");
    pool.install(|| {
        let sizes = small_sizes(match shape {
            KeyShape::Rmat { .. } => 150_000,
            _ => 60_000,
        });
        let u = inputs::universe(shape, &sizes, seed);
        inputs::plan(&u, shape, 0..u.keys.len(), &sizes, seed ^ 0x5A17, false)
    })
}

const SHAPES: [KeyShape; 3] = [
    KeyShape::Uniform,
    KeyShape::Clustered,
    KeyShape::Rmat { scale: 12 },
];

#[test]
fn same_seed_same_bytes_at_budgets_1_and_2() {
    for shape in SHAPES {
        let a = plan_at(1, shape, 42);
        let b = plan_at(2, shape, 42);
        assert!(a == b, "{shape:?}: plans differ between budgets");
        assert!(
            a == plan_at(1, shape, 42),
            "{shape:?}: plans differ between calls"
        );
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    for shape in SHAPES {
        assert!(plan_at(1, shape, 42) != plan_at(1, shape, 43), "{shape:?}");
    }
}

#[test]
fn plans_are_well_formed() {
    for shape in SHAPES {
        let p = plan_at(1, shape, 7);
        assert!(
            p.base.windows(2).all(|w| w[0] < w[1]),
            "{shape:?}: base sorted"
        );
        assert!(p.final_keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(p.final_keys.len() as u64, p.final_len);
        for b in p.small.iter().chain(&p.bulk) {
            assert_eq!(b.raw.len(), b.acks.len());
            assert!(b.norm.windows(2).all(|w| w[0].key() < w[1].key()));
            // 3 inserts : 1 remove
            let ins = b.raw.iter().filter(|op| op.is_insert()).count();
            assert_eq!(ins * 4, b.raw.len() * 3, "{shape:?}");
            // held-out keys are inserted once, so every insert is new
            assert_eq!(b.added, b.norm.iter().filter(|op| op.is_insert()).count());
        }
        let hits = p.probe_hits.iter().filter(|&&h| h).count();
        assert_eq!(hits * 2, p.probes.len(), "{shape:?}: half the probes hit");
        // the library's normalisation agrees with the harness's
        let (_, _, bad) = inputs::normalize_all(&p.small);
        assert_eq!(bad, 0);
    }
}

#[test]
fn graph_updates_keep_the_edge_set_symmetric() {
    let p = plan_at(1, KeyShape::Rmat { scale: 12 }, 5);
    let flip = |e: u64| e.rotate_right(32);
    for keys in [&p.base, &p.final_keys] {
        assert!(keys.iter().all(|&e| keys.binary_search(&flip(e)).is_ok()));
    }
}

#[test]
fn normal_form_is_ascending_and_last_op_wins() {
    let raw = [(5, true), (2, false), (5, false), (9, true), (2, true)];
    assert_eq!(
        inputs::normal_form(&raw),
        vec![(2, true), (5, false), (9, true)]
    );
    assert!(inputs::normal_form(&[]).is_empty());
}
