//! The paper's scorecard: one row per claim of the CPMA paper's
//! evaluation — the paper's figure, this repository's number, who wins
//! and by what factor, and whether the claim holds — written into
//! `REPRODUCTION.md` at the repository root.
//!
//! ```text
//! cargo run --release -p cpma-bench                             # timed rows
//! cargo run --release -p cpma-bench --features cpma-pma/stats   # traffic rows (Table 1)
//! ```
//!
//! Table 1 counts bytes, and the byte counters exist only in a build with
//! `cpma-pma/stats`, where every leaf operation also pays their atomics.
//! So the binary looks once whether the counters are live: if they are it
//! runs the traffic rows, if not the timed rows. Each run rewrites its own
//! section of the file and keeps the rest. It takes no flags; the sizes
//! are [`FULL`].

mod claims;
mod harness;

use std::fmt::Write as _;

use claims::*;
use cpma_pma::stats;
use harness::{max_threads, num, time, Row};

/// The sizes of one scorecard run.
pub struct Scale {
    /// Keys every set row starts from (the paper: 1e8); the space rows
    /// build sets of a twentieth, a half and twice this, and Appendix C
    /// fills this many.
    pub base: usize,
    /// Keys the insert rows stream in, and edges the graph insert rows.
    pub stream: usize,
    /// Batch sizes of the batch rows, all below `base / 10` so none is a
    /// whole rebuild.
    pub batches: &'static [usize],
    /// Expected elements per range query (the paper: 6 to 2e6).
    pub range_lens: &'static [usize],
    /// Elements a range row covers at most, in at most the paper's 1e5
    /// queries.
    pub range_elems: usize,
    /// log2 of the vertices of the graph rows.
    pub graph_scale: u32,
}

/// The scorecard's sizes: laptop scale, under ten minutes on two vCPUs.
pub const FULL: Scale = Scale {
    base: 2_000_000,
    stream: 1_000_000,
    batches: &[10, 100, 1_000, 10_000, 100_000],
    range_lens: &[6, 50, 400, 3_000, 20_000, 200_000],
    range_elems: 50_000_000,
    graph_scale: 16,
};

type ClaimFn = fn(&Scale) -> Vec<Row>;

/// The claims a build without the byte counters times.
const TIMED: &[ClaimFn] = &[
    fig1, fig2, fig7, fig8, fig9, fig10, fig11, table3, table4, table5, table6, appc,
];

/// The claims only a build with the byte counters can measure.
const TRAFFIC: &[ClaimFn] = &[table1];

/// Whether this build counts bytes (`cpma-pma/stats`).
fn counters_live() -> bool {
    stats::measure(|| stats::record_read(1)).1.bytes_read > 0
}

/// The section's table: one line per row.
fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| Claim | Paper | This repo | Regime | Winner | Holds |\n|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let [(na, a), (nb, b)] = &r.sides;
        let holds = match r.why() {
            "" => "yes".to_string(),
            why => format!("**no** — {why}"),
        };
        // A median of several passes carries their range.
        let value = |x: f64, range: Option<(f64, f64)>| match range {
            Some((lo, hi)) => format!("{} [{}–{}]", num(x), num(lo), num(hi)),
            None => num(x),
        };
        let _ = writeln!(
            out,
            "| {} · {} | {} | {na} {} · {nb} {} {} | {} | {} | {holds} |",
            r.fig.name,
            r.what,
            r.paper,
            value(*a, r.ranges[0]),
            value(*b, r.ranges[1]),
            r.fig.unit,
            r.regime,
            r.winner()
        );
    }
    let held = rows.iter().filter(|r| r.holds()).count();
    let _ = writeln!(out, "\n{held} of {} rows hold.", rows.len());
    out
}

/// Replace the section between `<!-- scorecard:{name} -->` and its
/// closing marker in `doc`, or append it.
fn splice(doc: &str, name: &str, body: &str) -> String {
    let (open, close) = (
        format!("<!-- scorecard:{name} -->"),
        format!("<!-- /scorecard:{name} -->"),
    );
    let section = format!("{open}\n{body}{close}");
    match (doc.find(&open), doc.find(&close)) {
        (Some(a), Some(b)) if a < b => format!("{}{section}{}", &doc[..a], &doc[b + close.len()..]),
        _ => format!("{doc}\n{section}\n"),
    }
}

fn main() {
    let (name, flags, claims) = match counters_live() {
        true => ("traffic", " --features cpma-pma/stats", TRAFFIC),
        false => ("timed", "", TIMED),
    };
    let (rows, secs) = time(|| {
        let mut rows = Vec::new();
        for claim in claims {
            let (mut r, secs) = time(|| claim(&FULL));
            println!("{}: {} rows in {secs:.1} s", r[0].fig.name, r.len());
            rows.append(&mut r);
        }
        rows
    });
    let body = format!(
        "_`cargo run --release -p cpma-bench{flags}`: {} rows in {secs:.0} s on {} threads; \
         base {} uniform 40-bit keys, stream {}, graphs at RMAT scale {}._\n\n{}",
        rows.len(),
        max_threads(),
        FULL.base,
        FULL.stream,
        FULL.graph_scale,
        render(&rows)
    );
    print!("{body}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRODUCTION.md");
    let doc = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, splice(&doc, name, &body)).expect("write REPRODUCTION.md");
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::regime;
    use harness::Better::Higher;

    /// Every row at a size a debug build runs in seconds; same shape as
    /// [`FULL`] (the largest batch below a tenth of the base).
    const TINY: Scale = Scale {
        base: 20_000,
        stream: 10_000,
        batches: &[10, 200, 1_000],
        range_lens: &[6, 400, 2_000],
        range_elems: 20_000,
        graph_scale: 8,
    };

    fn check(rows: &[Row]) {
        assert!(!rows.is_empty());
        for r in rows {
            assert!(
                r.sides.iter().all(|(_, x)| x.is_finite() && *x >= 0.0),
                "{}",
                r.what
            );
        }
    }

    #[test]
    fn every_timed_claim_runs_its_checks_at_tiny_scale() {
        let _bytes = harness::moving_bytes();
        for claim in TIMED {
            check(&claim(&TINY));
        }
    }

    #[test]
    fn traffic_rows_count_bytes_only_where_the_counters_are_live() {
        let _bytes = harness::moving_bytes();
        let rows = claims::table1(&TINY);
        check(&rows);
        let lines = |name: &str| {
            let sides = rows.iter().flat_map(|r| &r.sides);
            sides
                .filter(|(n, _)| n == name)
                .map(|s| s.1)
                .next()
                .unwrap()
        };
        if counters_live() {
            assert!(rows.iter().all(|r| r.sides.iter().all(|s| s.1 > 0.0)));
            assert!(
                lines("U-PaC") > lines("CPMA"),
                "U-PaC must move more lines than the CPMA"
            );
        } else {
            // Without the counters every figure reads zero, which is why
            // `main` runs these rows only in a stats build.
            assert_eq!(lines("U-PaC"), 0.0);
        }
    }

    #[test]
    fn batch_rows_run_the_regime_they_are_labelled_with() {
        use cpma_api::BatchSet;
        let _bytes = harness::moving_bytes();
        for s in [&FULL, &TINY] {
            assert!(s
                .batches
                .iter()
                .all(|&k| regime(k, s.base - s.base / 1000) != "rebuild"));
        }
        let base = cpma_workloads::dedup_sorted(cpma_workloads::uniform_keys(TINY.base, 40, 1));
        // A fifth of the base: few enough inserts that no grow rebuilds.
        let stream = cpma_workloads::uniform_keys(TINY.base / 5, 40, 2);
        for &k in TINY.batches.iter().chain(&[2_500]) {
            let mut set = harness::Cpma::build_sorted(&base);
            set.reset_stats();
            harness::stream_into(&mut set, &stream, k, harness::Op::Insert);
            let st = set.stats();
            let ran = match (st.point_fallbacks, st.pipeline_batches, st.full_rebuilds) {
                (_, 0, 0) => "point",
                (0, _, 0) => "pipeline",
                _ => "rebuild",
            };
            assert_eq!(ran, regime(k, base.len()), "batch {k}: {st:?}");
        }
    }

    #[test]
    fn splice_replaces_its_own_section_and_keeps_the_rest() {
        let doc = splice("# R\n\nprose\n", "timed", "v1\n");
        assert_eq!(
            doc,
            "# R\n\nprose\n\n<!-- scorecard:timed -->\nv1\n<!-- /scorecard:timed -->\n"
        );
        let doc = splice(&doc, "traffic", "t\n");
        let doc = splice(&doc, "timed", "v2\n");
        assert!(doc.contains("prose") && doc.contains("v2") && !doc.contains("v1"));
        assert!(doc.contains("<!-- scorecard:traffic -->\nt\n"));
    }

    #[test]
    fn render_writes_a_line_per_row_with_the_winner_and_the_miss() {
        static FIG: harness::Fig = harness::Fig::new("Fig 0", "ops/s", Higher, "box: why");
        let v = vec![("A".to_string(), 2.0e6), ("B".to_string(), 4.0e6)];
        let mut rows = FIG.rows(&[("A ahead", "A", "B")], &harness::at("x"), &v);
        let line = "| Fig 0 · A vs B, x | A ahead | A 2.0E6 · B 4.0E6 ops/s |  | B × 2.00 \
                    | **no** — box: why |\n\n0 of 1 rows hold.\n";
        assert!(render(&rows).ends_with(&format!("|---|---|---|---|---|---|\n{line}")));
        let ranges = vec![("B".to_string(), (3.5e6, 4.5e6))];
        let ranged = rows.remove(0).with_ranges(&ranges);
        assert!(render(&[ranged]).contains("| A 2.0E6 · B 4.0E6 [3.5E6–4.5E6] ops/s |"));
    }
}
