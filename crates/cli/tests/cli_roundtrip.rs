//! True end-to-end tests driving the compiled `literace` binary.

use std::process::Command;

fn literace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_literace"))
}

fn stdout_of(mut cmd: Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn help_lists_every_subcommand() {
    let text = stdout_of({
        let mut c = literace();
        c.arg("help");
        c
    });
    for sub in [
        "run", "eval", "overhead", "detect", "explain", "log-stats", "inspect", "trace",
    ] {
        assert!(text.contains(sub), "missing `{sub}` in help:\n{text}");
    }
}

#[test]
fn workloads_lists_all_ten() {
    let text = stdout_of({
        let mut c = literace();
        c.arg("workloads");
        c
    });
    for name in ["dryad", "apache-1", "ff-render", "lkrhash", "lflist"] {
        assert!(text.contains(name), "{text}");
    }
}

#[test]
fn run_then_detect_round_trips_through_a_log_file() {
    let dir = std::env::temp_dir().join("literace_cli_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.lrlog");
    let text = stdout_of({
        let mut c = literace();
        c.args([
            "run",
            "--workload",
            "lflist",
            "--sampler",
            "Full",
            "--log",
            log.to_str().unwrap(),
        ]);
        c
    });
    assert!(text.contains("static data races"), "{text}");
    assert!(log.exists());

    let text = stdout_of({
        let mut c = literace();
        c.args(["detect", "--log", log.to_str().unwrap(), "--non-stack", "100000"]);
        c
    });
    assert!(text.contains("static races"), "{text}");
    // The planted LFList stats race survives the disk round trip.
    assert!(text.contains("race F"), "{text}");

    let text = stdout_of({
        let mut c = literace();
        c.args(["log-stats", "--log", log.to_str().unwrap()]);
        c
    });
    assert!(text.contains("synchronization"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_out_emits_a_valid_chrome_trace_and_summarizes() {
    let dir = std::env::temp_dir().join("literace_cli_traceout");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.lrlog");
    let run_trace = dir.join("run_trace.json");
    let detect_trace = dir.join("detect_trace.json");

    // A traced run: the execute and detect phases land on the main track.
    let out = literace()
        .args([
            "run",
            "--workload",
            "lflist",
            "--sampler",
            "Full",
            "--log",
            log.to_str().unwrap(),
            "--trace-out",
            run_trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("trace written to"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&run_trace).unwrap();
    let summary = literace::telemetry::validate_chrome_trace(&text).expect("valid trace");
    assert!(summary.total_events > 0);
    assert!(
        summary.top_spans.iter().any(|s| s.name == "phase.execute"),
        "spans: {:?}",
        summary.top_spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // A traced sharded detect over the written log.
    let baseline = stdout_of({
        let mut c = literace();
        c.args(["detect", "--log", log.to_str().unwrap(), "--threads", "2"]);
        c
    });
    let out = literace()
        .args([
            "detect",
            "--log",
            log.to_str().unwrap(),
            "--threads",
            "2",
            "--trace-out",
            detect_trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Tracing must not perturb detection: stdout is byte-identical.
    assert_eq!(String::from_utf8_lossy(&out.stdout), baseline);
    let text = std::fs::read_to_string(&detect_trace).unwrap();
    let summary = literace::telemetry::validate_chrome_trace(&text).expect("valid trace");
    assert!(
        summary.top_spans.iter().any(|s| s.name == "phase.detect"),
        "spans: {:?}",
        summary.top_spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    assert!(
        summary.tracks.iter().any(|t| t.name.starts_with("literace-shard-")),
        "tracks: {:?}",
        summary.tracks.iter().map(|t| &t.name).collect::<Vec<_>>()
    );

    // The summary command validates and renders the same file.
    let text = stdout_of({
        let mut c = literace();
        c.args(["trace", "--in", detect_trace.to_str().unwrap(), "--top", "5"]);
        c
    });
    assert!(text.contains("tracks over"), "{text}");
    assert!(text.contains("phase.detect"), "{text}");

    // Garbage is rejected by the strict parser.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"traceEvents\": 3}").unwrap();
    let out = literace()
        .args(["trace", "--in", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_prints_epochs_and_the_failed_sync_edge() {
    let dir = std::env::temp_dir().join("literace_cli_explain");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.lrlog");
    stdout_of({
        let mut c = literace();
        c.args([
            "run",
            "--workload",
            "lflist",
            "--sampler",
            "Full",
            "--log",
            log.to_str().unwrap(),
        ]);
        c
    });

    // Workload mode re-runs the pipeline and explains every race.
    let text = stdout_of({
        let mut c = literace();
        c.args(["explain", "--workload", "lflist", "--sampler", "Full"]);
        c
    });
    assert!(text.contains("static races"), "{text}");
    assert!(text.contains("prior:"), "{text}");
    assert!(text.contains("current:"), "{text}");
    assert!(text.contains("at epoch"), "{text}");
    assert!(text.contains("ordering check:"), "{text}");
    assert!(text.contains("unordered"), "{text}");
    assert!(text.contains("failed edge:"), "{text}");
    // Every reported race carries evidence (no capture misses).
    assert!(!text.contains("no evidence captured"), "{text}");

    // Log mode explains a written log; --race narrows to one.
    let text = stdout_of({
        let mut c = literace();
        c.args([
            "explain",
            "--log",
            log.to_str().unwrap(),
            "--non-stack",
            "100000",
            "--race",
            "1",
        ]);
        c
    });
    assert!(text.contains("race 1:"), "{text}");
    assert!(!text.contains("race 2:"), "{text}");
    assert!(text.contains("ordering check:"), "{text}");

    // Out-of-range --race and missing input fail cleanly.
    let out = literace()
        .args(["explain", "--workload", "lflist", "--race", "999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = literace().arg("explain").output().unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = literace().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_flag_fails_cleanly() {
    let out = literace().args(["run"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));
}

#[test]
fn inspect_disassembles() {
    let text = stdout_of({
        let mut c = literace();
        c.args(["inspect", "--workload", "lkrhash", "--function", "hash_op"]);
        c
    });
    assert!(text.contains("fn hash_op"), "{text}");
    assert!(text.contains("rmw"), "{text}");
}

#[test]
fn suppressions_reduce_the_report() {
    let with = stdout_of({
        let mut c = literace();
        c.args(["run", "--workload", "lflist", "--sampler", "Full"]);
        c
    });
    let without = stdout_of({
        let mut c = literace();
        c.args([
            "run",
            "--workload",
            "lflist",
            "--sampler",
            "Full",
            "--suppress",
            "hr_",
        ]);
        c
    });
    assert!(with.contains("static data races"));
    assert!(without.contains("no data races detected"), "{without}");
}

#[test]
fn detect_clamps_a_huge_thread_count_instead_of_aborting() {
    let dir = std::env::temp_dir().join(format!("literace_cli_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("smoke.lrlog");
    let log = log.to_str().unwrap();
    stdout_of({
        let mut c = literace();
        c.args(["run", "--workload", "lflist", "--scale", "smoke", "--log", log]);
        c
    });
    // Race lines plus the heading's counts; the heading's source part
    // ("v2 log (streamed)" vs "N records") differs by design.
    let races = |text: &str| -> Vec<String> {
        text.lines()
            .filter_map(|l| match l.split_once(", ") {
                _ if l.starts_with("  race ") => Some(l.to_string()),
                Some((_, counts)) if counts.contains("static races") => Some(counts.to_string()),
                _ => None,
            })
            .collect()
    };
    let sequential = stdout_of({
        let mut c = literace();
        c.args(["detect", "--log", log]);
        c
    });
    assert!(sequential.contains("static races"), "{sequential}");
    // One OS thread per shard: 70000 shards would exhaust the process,
    // so the engine runs at most 64 and the report is unchanged.
    for extra in [&[][..], &["--no-streaming"][..]] {
        let sharded = stdout_of({
            let mut c = literace();
            c.args(["detect", "--log", log, "--threads", "70000"]).args(extra);
            c
        });
        assert_eq!(races(&sharded), races(&sequential), "{extra:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn log_stats_is_identical_at_one_and_two_decode_threads() {
    let dir = std::env::temp_dir().join(format!("literace_cli_seal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.lrlog");
    let torn = dir.join("torn.lrlog");
    let (clean, torn) = (clean.to_str().unwrap(), torn.to_str().unwrap());
    stdout_of({
        let mut c = literace();
        c.args(["run", "--workload", "lflist", "--scale", "smoke", "--sampler", "Full"])
            .args(["--log", clean]);
        c
    });
    let bytes = std::fs::read(clean).unwrap();
    std::fs::write(torn, &bytes[..bytes.len() * 2 / 3]).unwrap();
    let log_stats = |log: &str, extra: &[&str], threads: &str| {
        let mut c = literace();
        c.args(["log-stats", "--log", log, "--decode-threads", threads]).args(extra);
        c
    };
    for (log, extra, seal) in [(clean, &[][..], "sealed"), (torn, &["--salvage"][..], "unsealed")] {
        let one = stdout_of(log_stats(log, extra, "1"));
        let two = stdout_of(log_stats(log, extra, "2"));
        let finalized = one.lines().find(|l| l.contains("finalized"));
        assert_eq!(finalized, Some(format!("  finalized        : {seal}").as_str()), "{one}");
        assert_eq!(one, two, "{log} {extra:?}");
    }
    // Strict log-stats refuses the torn log with the same message at both.
    let one = log_stats(torn, &[], "1").output().expect("binary runs");
    let two = log_stats(torn, &[], "2").output().expect("binary runs");
    assert!(!one.status.success() && !two.status.success());
    assert!(!one.stderr.is_empty());
    assert_eq!(one.stderr, two.stderr);
    std::fs::remove_dir_all(&dir).unwrap();
}
