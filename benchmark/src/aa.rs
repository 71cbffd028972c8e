//! The A/A gate: the same code against itself.
//!
//! `--aa k` runs every workload `2·k` times, alternating the runs into a
//! set A and a set B (pair `i` uses seed `seed + i` on both sides, and
//! which side goes first alternates), exactly the shape of the driver's
//! acceptance check. For each end-to-end metric it prints both medians
//! with quartiles, each set's interquartile spread as a share of its
//! median, and how much worse B's median is than A's, all against the
//! metric's bound. Any spread or gap beyond the bound fails the gate.

use std::process::{Command, Stdio};

use crate::report::{value_in, Better, END_TO_END};
use crate::run::Workload;
use crate::stats;

/// One child run; returns the value of every end-to-end metric.
fn child(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.contains("\"correct\":true") {
        return Err(format!(
            "{} seed {seed}: run failed: {line}",
            workload.name()
        ));
    }
    END_TO_END
        .iter()
        .map(|m| value_in(line, m.name).ok_or(format!("no {} in {line}", m.name)))
        .collect()
}

/// Run the gate; prints a markdown table per workload and returns whether
/// every metric stayed inside its bound.
pub fn gate(k: usize, seed: u64, seconds: f64, only: Option<Workload>) -> bool {
    let mut pass = true;
    println!(
        "A/A gate: k = {k} pairs per workload, seeds {seed}..{}, {seconds} s per run",
        seed + k as u64 - 1
    );
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..k {
            for side in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                match child(w, seed + i as u64, seconds) {
                    Ok(v) => sets[side].push(v),
                    Err(e) => {
                        eprintln!("{e}");
                        pass = false;
                    }
                }
            }
        }
        if sets.iter().any(|s| s.is_empty()) {
            continue;
        }
        println!("\n### {}\n", w.name());
        println!("| metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | B worse by | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for (j, m) in END_TO_END.iter().enumerate() {
            let col = |s: &Vec<Vec<f64>>| s.iter().map(|run| run[j]).collect::<Vec<f64>>();
            let (a, b) = (col(&sets[0]), col(&sets[1]));
            let (qa, qb) = (stats::quartiles(&a), stats::quartiles(&b));
            let (sa, sb) = (stats::iqr_share(&a), stats::iqr_share(&b));
            let gap = stats::worsening(qa.1, qb.1, m.better == Better::Higher);
            // The driver exempts the spread of setup_s, not its gap.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let ok = spread_ok && gap <= m.bound;
            pass &= ok;
            println!(
                "| {} | {} | {:.5e} [{:.5e}, {:.5e}] | {:.5e} [{:.5e}, {:.5e}] | {:.2}% | {:.2}% | {:+.2}% | {:.1}% | {} |",
                m.name, m.unit, qa.1, qa.0, qa.2, qb.1, qb.0, qb.2,
                sa * 100.0, sb * 100.0, gap * 100.0, m.bound * 100.0,
                if ok { "ok" } else { "VIOLATION" }
            );
        }
    }
    println!("\nA/A gate: {}", if pass { "pass" } else { "FAIL" });
    pass
}
