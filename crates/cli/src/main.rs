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
    let args = argv.get(1..).unwrap_or_default();
    // Every command writes its output here, the process's one stdout
    // writer.
    let out = &mut std::io::stdout();
    let result = match argv.first().map(String::as_str) {
        Some("workloads") => commands::workloads(args, out),
        Some("run") => commands::run(args, out),
        Some("eval") => commands::eval(args, out),
        Some("overhead") => commands::overhead(args, out),
        Some("detect") => commands::detect(args, out),
        Some("explain") => commands::explain(args, out),
        Some("metrics") => commands::metrics_cmd(args, out),
        Some("log-stats") => commands::log_stats(args, out),
        Some("checkpoint") => commands::checkpoint(args, out),
        Some("inspect") => commands::inspect(args, out),
        Some("trace") => commands::trace(args, out),
        Some("help") | Some("--help") | Some("-h") | None => commands::usage(out),
        Some(other) => {
            eprintln!("unknown command `{other}`\n");
            let _ = commands::usage(out);
            return ExitCode::FAILURE;
        }
    };
    commands::exit_code(result, out)
}
