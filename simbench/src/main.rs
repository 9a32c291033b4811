//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line. Exits 2 on a
//! bad argument and 1 when a correctness check failed.

use simbench::bench::{self, Plan};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match simbench::args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}; {}", simbench::args::USAGE);
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed, args.seconds as f64);
    let report = if args.trace { bench::traced(&plan) } else { bench::end_to_end(&plan) };
    for line in report.notes.iter().chain(&report.run_errors) {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} {} = {} {}", args.workload.name(), m.name, m.value, m.unit);
    }
    println!("{}", simbench::result_json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
