//! `literace` — command-line driver for the LiteRace reproduction.
//!
//! ```text
//! literace workloads                          list the benchmark workloads
//! literace run --workload apache-1 [...]     run the pipeline, print races
//! literace eval --workload dryad [...]       compare all samplers (§5.3)
//! literace overhead --workload lkrhash       Table 5 row + Figure 6 bars
//! literace detect --log run.lrlog [...]      offline detection from a log
//! literace explain --workload dryad [...]    why each race was reported
//! literace metrics [--format prom] [...]     export the telemetry registry
//! literace log-stats --log run.lrlog         log composition and size
//! literace checkpoint --in state.lrcp        inspect a detector checkpoint
//! literace inspect --workload dryad [...]    program structure + disasm
//! literace trace --in trace.json [...]       summarize a --trace-out file
//! ```

mod args;
mod commands;
mod error;
mod telemetry;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("workloads") => commands::workloads(&argv[1..]),
        Some("run") => commands::run(&argv[1..]),
        Some("eval") => commands::eval(&argv[1..]),
        Some("overhead") => commands::overhead(&argv[1..]),
        Some("detect") => commands::detect(&argv[1..]),
        Some("explain") => commands::explain(&argv[1..]),
        Some("metrics") => commands::metrics_cmd(&argv[1..]),
        Some("log-stats") => commands::log_stats(&argv[1..]),
        Some("checkpoint") => commands::checkpoint(&argv[1..]),
        Some("inspect") => commands::inspect(&argv[1..]),
        Some("trace") => commands::trace(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            print!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
