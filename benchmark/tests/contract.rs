//! `/BENCHMARK.json` must be exactly what the code's metric and workload
//! tables render, and must stay inside the driver's limits.

use cpma_benchmark::report::{benchmark_json, END_TO_END, PER_LAYER};
use cpma_benchmark::run::Workload;

#[test]
fn benchmark_json_is_the_rendered_tables() {
    let file = include_str!("../../BENCHMARK.json");
    assert_eq!(
        file,
        benchmark_json(),
        "regenerate with `cpma-benchmark --contract > BENCHMARK.json`"
    );
}

#[test]
fn tables_respect_the_drivers_limits() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    for w in Workload::ALL {
        assert!(name_ok(w.name()));
        assert!(
            w.why().len() <= 200 && !w.why().contains(['\n', '"', '\\']),
            "{}",
            w.name()
        );
        names.push(w.name());
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        names.push(m.name);
    }
    for m in PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        names.push(m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    assert!(benchmark_json().len() <= 64 * 1024);
}
