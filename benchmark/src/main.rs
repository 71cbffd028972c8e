//! `cpma-benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick]`
//! `cpma-benchmark --aa [<k>] [--seed <u64>] [--seconds <s>] [--workload <name>]`
//! `cpma-benchmark --contract` (prints the text of `/BENCHMARK.json`)
//!
//! The last stdout line of a run is the result object of the driver's
//! contract; the line before it carries every metric with sample count and
//! quartiles. Exit code 0 means every oracle check passed.

use std::time::Instant;

use cpma_benchmark::aa;
use cpma_benchmark::report::{benchmark_json, detail_json, result_json, RUN_SECONDS};
use cpma_benchmark::run::{run, Opts, Workload};

/// Seed used when none is given (and the A/A tables' first base seed).
const DEFAULT_SEED: u64 = 1;

fn usage() -> ! {
    eprintln!(
        "usage: cpma-benchmark --workload <{}> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick]\n       \
         cpma-benchmark --aa [<k>] [--seed <u64>] [--seconds <s>] [--workload <name>]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut aa_pairs = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value("--workload")).unwrap_or_else(|| usage()))
            }
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = Some(
                    value("--seconds")
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--trace" => {
                trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => quick = true,
            "--contract" => {
                print!("{}", benchmark_json());
                return;
            }
            "--aa" => {
                // optional pair count
                let k = args.peek().and_then(|s| s.parse::<usize>().ok());
                if k.is_some() {
                    args.next();
                }
                aa_pairs = Some(k.unwrap_or(5).max(1));
            }
            _ => usage(),
        }
    }

    if let Some(k) = aa_pairs {
        let ok = aa::gate(k, seed, seconds.unwrap_or(RUN_SECONDS as f64), workload);
        std::process::exit(if ok { 0 } else { 1 });
    }

    let Some(workload) = workload else { usage() };
    // The pool reads CPMA_THREADS once, on first use: set it before any
    // library call, while this is the only thread.
    std::env::set_var("CPMA_THREADS", workload.budget().to_string());
    let opts = Opts {
        workload,
        seed,
        seconds: seconds.unwrap_or(if quick { 1.0 } else { RUN_SECONDS as f64 }),
        trace,
        quick,
    };
    let out = run(&opts, started);
    println!(
        "{}",
        detail_json(workload.name(), seed, !quick, out.reps, &out.reported)
    );
    println!("{}", result_json(out.checks, &out.reported));
    std::process::exit(if out.checks.failed == 0 { 0 } else { 1 });
}
