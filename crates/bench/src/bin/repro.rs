//! Regenerates the paper's **entire evaluation section** in one run:
//! Tables 3–5 and Figures 4–6, printing paper reference values alongside
//! the measured ones.

use literace::experiments::{run_overhead_study_on, run_sampler_study_on};
use literace_bench::{detection_workloads, overhead_workloads, parse_args_from};

fn main() {
    // `--markdown <path>` additionally writes the whole report to a file;
    // every other argument is the shared harness's.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let markdown_path = args.iter().position(|a| a == "--markdown").map(|i| {
        let path = args.get(i + 1).cloned().expect("--markdown expects a path");
        args.drain(i..i + 2);
        path
    });
    let opts = parse_args_from(&args);
    eprintln!("[repro] sampler study ({} workloads × {} seeds)…",
              detection_workloads(&opts).len(), opts.seeds.len());
    println!("{}", literace::experiments::table1());
    println!("{}", literace::experiments::table2(opts.scale));
    let study =
        run_sampler_study_on(opts.scale, &opts.seeds, &detection_workloads(&opts))
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
