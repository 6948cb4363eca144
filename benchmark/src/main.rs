//! `mdbs-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the host stamp, one line per metric and check, and as the last
//! line the result object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when a check fails and 2 on a usage or set-up error (without a
//! result line).

#![forbid(unsafe_code)]

use mdbs_benchmark::host::{nproc, HostStamp};
use mdbs_benchmark::metrics::{json_num, END_TO_END, PER_LAYER};
use mdbs_benchmark::{run, Args};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mdbs-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = nproc();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    println!(
        "{{\"host\":{}}}",
        HostStamp::collect(args.seed, workers).to_json()
    );
    let result = match run::run(&args, workers, &out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mdbs-benchmark: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        let v = result.metrics.get(name).unwrap_or(0.0);
        println!("# {name:<32} {:>18} {unit}", json_num(v));
    }
    for note in &result.notes {
        println!("# {note}");
    }
    for (check, ok) in &result.checks {
        println!("# check {}: {check}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct,
        result.attempted,
        result.failed,
        result.metrics.to_json(table)
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
