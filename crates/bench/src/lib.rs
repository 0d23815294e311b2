//! Shared harness code for the table/figure-regenerating binaries.
//!
//! Every binary accepts:
//!
//! * `--scale smoke|paper` (default `paper`) — workload size;
//! * `--seeds N` (default 3) — scheduler seeds per benchmark, as in the
//!   paper's three runs;
//! * `--workloads a,b,c` — restrict to a subset (names as in the paper,
//!   e.g. `Apache-1`, or the short forms `dryad`, `ff-render`, …).

use literace::prelude::*;
use literace::workloads::WorkloadId;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload scale.
    pub scale: Scale,
    /// Scheduler seeds.
    pub seeds: Vec<u64>,
    /// Workloads to run (defaults to the experiment's own set).
    pub workloads: Option<Vec<WorkloadId>>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            scale: Scale::Paper,
            seeds: vec![1, 2, 3],
            workloads: None,
        }
    }
}

/// Parses options from `std::env::args`.
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
pub fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args_from(&args)
}

/// Parses options from an explicit argument list (without the program
/// name), for binaries that take flags of their own first.
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
pub fn parse_args_from(args: &[String]) -> Options {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => panic!("--scale expects smoke|paper, got {other:?}"),
                };
            }
            "--seeds" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seeds expects a number");
                opts.seeds = (1..=n).collect();
            }
            "--workloads" => {
                i += 1;
                let list = args.get(i).expect("--workloads expects a list");
                opts.workloads = Some(
                    list.split(',')
                        .map(|s| {
                            WorkloadId::from_name(s)
                                .unwrap_or_else(|| panic!("unknown workload {s}"))
                        })
                        .collect(),
                );
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    opts
}

/// The detection-experiment workload set, honoring `--workloads`.
pub fn detection_workloads(opts: &Options) -> Vec<WorkloadId> {
    opts.workloads
        .clone()
        .unwrap_or_else(|| WorkloadId::detection_set().to_vec())
}

/// The overhead-experiment workload set (all ten), honoring `--workloads`.
pub fn overhead_workloads(opts: &Options) -> Vec<WorkloadId> {
    opts.workloads
        .clone()
        .unwrap_or_else(|| WorkloadId::all().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_parse_both_forms() {
        // `--workloads` resolves names through `WorkloadId::from_name`.
        assert_eq!(WorkloadId::from_name("apache-1"), Some(WorkloadId::Apache1));
        assert_eq!(WorkloadId::from_name("Apache-1"), Some(WorkloadId::Apache1));
        assert_eq!(
            WorkloadId::from_name("Dryad Channel"),
            Some(WorkloadId::Dryad)
        );
        assert_eq!(
            WorkloadId::from_name("ff-render"),
            Some(WorkloadId::FirefoxRender)
        );
        assert_eq!(WorkloadId::from_name("nope"), None);
    }

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_args_from_reads_every_flag() {
        let opts = parse_args_from(&args(&[
            "--scale",
            "smoke",
            "--seeds",
            "2",
            "--workloads",
            "apache-1,Dryad Channel",
        ]));
        assert_eq!(opts.scale, Scale::Smoke);
        assert_eq!(opts.seeds, vec![1, 2]);
        assert_eq!(
            opts.workloads,
            Some(vec![WorkloadId::Apache1, WorkloadId::Dryad])
        );
        let opts = parse_args_from(&[]);
        assert_eq!(opts.scale, Scale::Paper);
        assert_eq!(opts.seeds, vec![1, 2, 3]);
        assert_eq!(opts.workloads, None);
    }

    #[test]
    #[should_panic(expected = "--seeds expects a number")]
    fn parse_args_from_rejects_a_flag_without_its_value() {
        parse_args_from(&args(&["--seeds"]));
    }

    #[test]
    fn default_sets() {
        let opts = Options::default();
        assert_eq!(detection_workloads(&opts).len(), 8);
        assert_eq!(overhead_workloads(&opts).len(), 10);
    }
}
