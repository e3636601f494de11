//! `mswj-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a detail line (metadata, per-metric medians and quartiles,
//! quality figures, problems) and then the result line the benchmark
//! contract reads.

use mswj_perfbench::bench;
use mswj_perfbench::workload::Scale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match bench::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mswj-perfbench: {e}");
            eprintln!("usage: mswj-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = bench::execute(&args, Scale::Full);
    println!("{}", outcome.detail_line());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
