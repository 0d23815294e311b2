//! Regenerates the paper's **entire evaluation section** in one run:
//! Tables 3–5 and Figures 4–6, printing paper reference values alongside
//! the measured ones.

use literace::experiments::{run_overhead_study_on, run_sampler_study_parallel_threads};
use literace_bench::{detection_workloads, overhead_workloads};

fn main() {
    // `--markdown <path>` additionally writes the whole report to a file.
    let mut markdown_path = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut filtered = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--markdown" {
            markdown_path = argv.get(i + 1).cloned();
            i += 2;
        } else {
            filtered.push(argv[i].clone());
            i += 1;
        }
    }
    // parse_args reads std::env::args; re-dispatch through the filtered set
    // by temporarily validating them ourselves.
    let opts = literace_bench_parse(&filtered);
    eprintln!("[repro] sampler study ({} workloads × {} seeds)…",
              detection_workloads(&opts).len(), opts.seeds.len());
    println!("{}", literace::experiments::table1());
    println!("{}", literace::experiments::table2(opts.scale));
    let study =
        run_sampler_study_parallel_threads(opts.scale, &opts.seeds, &detection_workloads(&opts), 1)
            .expect("sampler study runs");
    println!("{}", study.table3());
    println!("{}", study.table4());
    println!("{}", study.fig4());
    let (rare, frequent) = study.fig5();
    println!("{rare}");
    println!("{frequent}");
    eprintln!("[repro] overhead study…");
    let overhead = run_overhead_study_on(
        opts.scale,
        opts.seeds.first().copied().unwrap_or(1),
        &overhead_workloads(&opts),
    )
    .expect("overhead study runs");
    println!("{}", overhead.table5());
    println!("{}", overhead.fig6());

    if let Some(path) = markdown_path {
        let doc = format!(
            "# LiteRace evaluation — regenerated artifacts\n\n{}\n{}",
            study.to_markdown(),
            overhead.to_markdown()
        );
        std::fs::write(&path, doc).expect("markdown file is writable");
        eprintln!("[repro] wrote markdown report to {path}");
    }
}

/// `parse_args` equivalent over an explicit argument list.
fn literace_bench_parse(args: &[String]) -> literace_bench::Options {
    let mut opts = literace_bench::Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => literace::workloads::Scale::Smoke,
                    Some("paper") => literace::workloads::Scale::Paper,
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
                            literace_bench::parse_workload(s)
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
