//! True end-to-end tests driving the compiled `literace` binary.

use std::process::{Command, Stdio};

use literace::detector::{detect_lockset, HbDetector, RaceReport};
use literace::log::{
    encode_all, encode_v2, read_log_auto, read_log_salvage, EventLog, LogStats, Record,
    SamplerMask,
};
use literace::sim::{Addr, FuncId, Pc, ThreadId};
use literace::tables::Table;

fn literace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_literace"))
}

/// A detect printout's race lines plus its heading's static/dynamic
/// counts: what must match across detect paths whose heading's source
/// part (e.g. "v2 log (streamed)") may differ.
fn race_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| match l.rsplit_once(", ") {
            _ if l.starts_with("  race ") => Some(l.to_string()),
            Some((_, counts)) if counts.contains("static races") => Some(counts.to_string()),
            _ => None,
        })
        .collect()
}

/// [`race_lines`] of a report as `detect` prints it.
fn report_lines(report: &RaceReport) -> Vec<String> {
    let mut lines: Vec<String> = report.static_races.iter().map(|r| format!("  {r}")).collect();
    lines.insert(
        0,
        format!("{} static races ({} dynamic)", report.static_count(), report.dynamic_races),
    );
    lines
}

/// Writes a Full-sampler lflist log (smoke scale) to `log`.
fn write_full_lflist_log(log: &str) {
    stdout_of({
        let mut c = literace();
        c.args(["run", "--workload", "lflist", "--sampler", "Full", "--log", log]);
        c
    });
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

/// `run` writes only v2; v1 is the seed format the tool still reads. A
/// run's v2 log and the same records as v1 bytes (`encode_all`) must
/// detect the same race lines and static/dynamic counts, at one and two
/// shards and under the lockset detector.
#[test]
fn a_v1_copy_of_a_run_detects_like_its_v2_log() {
    let dir = std::env::temp_dir().join(format!("literace_cli_v1_v2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v2 = dir.join("run.lrlog");
    let v1 = dir.join("run.v1.lrlog");
    let (v2, v1) = (v2.to_str().unwrap(), v1.to_str().unwrap());
    write_full_lflist_log(v2);
    let log = read_log_auto(std::fs::File::open(v2).unwrap()).unwrap();
    std::fs::write(v1, encode_all(&log)).unwrap();
    let detect = |path: &str, extra: &[&str]| {
        let mut c = literace();
        c.args(["detect", "--log", path]).args(extra);
        race_lines(&stdout_of(c))
    };
    for extra in [
        &["--threads", "1"][..],
        &["--threads", "2"],
        &["--detector", "lockset"],
    ] {
        let from_v2 = detect(v2, extra);
        assert!(from_v2.len() > 1, "{extra:?}: no race lines {from_v2:?}");
        assert_eq!(detect(v1, extra), from_v2, "{extra:?}");
    }
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
    for phase in ["phase.execute", "phase.detect"] {
        assert!(
            summary.top_spans.iter().any(|s| s.name == phase),
            "{phase} missing from spans: {:?}",
            summary.top_spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

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
    let sequential = stdout_of({
        let mut c = literace();
        c.args(["detect", "--log", log]);
        c
    });
    assert!(sequential.contains("static races"), "{sequential}");
    // One OS thread per shard: 70000 shards would exhaust the process,
    // so the engine runs at most 64 and the report is unchanged.
    let sharded = stdout_of({
        let mut c = literace();
        c.args(["detect", "--log", log, "--threads", "70000"]);
        c
    });
    assert_eq!(race_lines(&sharded), race_lines(&sequential));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_huge_thread_id_costs_one_table_entry() {
    // Five- and 30-byte v1 logs naming thread 0xFFFF_FFF0: a ThreadBegin,
    // a ThreadEnd and a LockAcquire. Per-thread tables keyed by thread
    // hold one entry for it instead of growing to four billion rows. (An
    // hb access or sync by such a thread hits the detector's thread
    // ceiling, a typed error; only markers go through hb here.)
    let dir = std::env::temp_dir().join(format!("literace_cli_tid_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tid = 0xFFFF_FFF0u32.to_le_bytes();
    let acquire: Vec<u8> = [
        &[1][..],
        &tid,
        &[0; 8],
        &[0],
        &7u64.to_le_bytes(),
        &1u64.to_le_bytes(),
    ]
    .concat();
    let logs = [
        ("begin", [&[3][..], &tid].concat(), true),
        ("end", [&[4][..], &tid].concat(), true),
        ("acquire", acquire, false),
    ];
    for (name, bytes, hb) in logs {
        let path = dir.join(format!("{name}.lrlog"));
        std::fs::write(&path, bytes).unwrap();
        let path = path.to_str().unwrap();
        let run = |args: &[&str]| {
            stdout_of({
                let mut c = literace();
                c.args(args);
                c
            })
        };
        let stats = run(&["log-stats", "--log", path]);
        assert!(stats.contains("t4294967280  1 "), "{name}: {stats}");
        let mut detects = vec![run(&["detect", "--log", path, "--detector", "lockset"])];
        if hb {
            for threads in ["1", "2"] {
                detects.push(run(&["detect", "--log", path, "--threads", threads]));
            }
        }
        for out in detects {
            assert!(
                out.contains(", 0 static races (0 dynamic)"),
                "{name}: {out}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_thread_past_the_ceiling_fails_detect_with_one_error_line() {
    // A one-record v1 log: thread 2^31 writes a global. Every replica at
    // --threads 2 meets the detector's tid ceiling; the command reports
    // it once, as an error, at every thread count.
    let dir = std::env::temp_dir().join(format!("literace_cli_ceiling_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("over.lrlog");
    let access: Vec<u8> = [
        &[2][..],
        &(1u32 << 31).to_le_bytes(),
        &0u64.to_le_bytes(),
        &0x100u64.to_le_bytes(),
        &[1],
        &1u32.to_le_bytes(),
    ]
    .concat();
    std::fs::write(&path, access).unwrap();
    for threads in ["1", "2"] {
        let out = literace()
            .args(["detect", "--log", path.to_str().unwrap(), "--threads", threads])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--threads {threads}");
        assert!(out.stdout.is_empty(), "--threads {threads} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "--threads {threads}: {stderr}");
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("thread index 2147483648 exceeds the detector ceiling"),
            "--threads {threads}: {stderr}"
        );
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

#[test]
fn resume_on_the_suffix_reproduces_the_one_shot_report() {
    // A checkpoint covers the records before it, so --resume-from takes
    // the records after it: cut a log into prefix and suffix files,
    // checkpoint the prefix, resume on the suffix.
    let dir = std::env::temp_dir().join(format!("literace_cli_suffix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (full, prefix, suffix, state) =
        (path("full.lrlog"), path("prefix.lrlog"), path("suffix.lrlog"), path("state.lrcp"));
    write_full_lflist_log(&full);
    let log = read_log_auto(std::fs::File::open(&full).unwrap()).unwrap();
    let (head, tail) = log.records().split_at(log.len() / 2);
    std::fs::write(&prefix, encode_v2(head)).unwrap();
    std::fs::write(&suffix, encode_v2(tail)).unwrap();
    let detect = |log: &str, extra: &[&str]| {
        stdout_of({
            let mut c = literace();
            c.args(["detect", "--log", log, "--non-stack", "100000"]).args(extra);
            c
        })
    };
    // The race lines, the static/dynamic counts and the rare/frequent
    // split.
    let report = |text: &str| {
        let mut lines = race_lines(text);
        lines.extend(text.lines().filter(|l| l.starts_with("rare: ")).map(str::to_owned));
        lines
    };
    let one_shot = report(&detect(&full, &[]));
    assert!(one_shot.len() >= 3, "{one_shot:?}");
    detect(&prefix, &["--checkpoint-out", &state]);
    for threads in ["1", "2", "4"] {
        let resumed = detect(&suffix, &["--resume-from", &state, "--threads", threads]);
        assert!(resumed.contains("resumed:"), "{resumed}");
        assert_eq!(report(&resumed), one_shot, "--threads {threads}");
    }
    // Resuming over the whole log counts the prefix twice.
    let twice = detect(&full, &["--resume-from", &state]);
    assert_ne!(report(&twice), one_shot);
    // A save that cannot be written names the checkpoint, not the log.
    let unwritable = path("missing/state.lrcp");
    let out = literace()
        .args(["detect", "--log", &prefix, "--checkpoint-out", &unwritable])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains(&format!("write {unwritable}: ")), "{stderr}");
    assert!(!stderr.contains(&prefix), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Five v1 records in which thread 1 ends before any record of its own:
/// t1 ends; t0 writes A; t2 writes B; t2 ends; t1 writes A. At t2's exit
/// the only live thread, t0, covers its own write of A, so one-shot
/// detection reclaims it and reports no race.
fn early_exit_records() -> [Record; 5] {
    let write = |t: usize, site: usize, addr: u64| Record::Mem {
        tid: ThreadId::from_index(t),
        pc: Pc::new(FuncId::from_index(0), site),
        addr: Addr(addr),
        is_write: true,
        mask: SamplerMask::FULL,
    };
    [
        Record::ThreadEnd { tid: ThreadId::from_index(1) },
        write(0, 1, 0x1000),
        write(2, 2, 0x2000),
        Record::ThreadEnd { tid: ThreadId::from_index(2) },
        write(1, 3, 0x1000),
    ]
}

#[test]
fn a_thread_that_ends_before_its_clock_exists_resumes_to_the_one_shot_report() {
    // Checkpoint the first two records, resume on the last three: the
    // checkpoint must keep t1 retired although no clock of t1 exists yet.
    let dir = std::env::temp_dir().join(format!("literace_cli_early_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (full, prefix, suffix, state) =
        (path("full.lrlog"), path("prefix.lrlog"), path("suffix.lrlog"), path("state.lrcp"));
    let records = early_exit_records();
    std::fs::write(&full, encode_all(&records)).unwrap();
    std::fs::write(&prefix, encode_all(&records[..2])).unwrap();
    std::fs::write(&suffix, encode_all(&records[2..])).unwrap();
    let detect = |log: &str, extra: &[&str]| {
        stdout_of({
            let mut c = literace();
            c.args(["detect", "--log", log]).args(extra);
            c
        })
    };
    let one_shot = race_lines(&detect(&full, &[]));
    assert_eq!(one_shot, ["0 static races (0 dynamic)"]);
    detect(&prefix, &["--checkpoint-out", &state]);
    let inspected = stdout_of({
        let mut c = literace();
        c.args(["checkpoint", "--in", &state]);
        c
    });
    assert!(inspected.contains("  threads            : 1 (1 retired)"), "{inspected}");
    for threads in ["1", "2", "4"] {
        assert_eq!(detect(&full, &["--threads", threads]), detect(&full, &[]));
        let resumed = detect(&suffix, &["--resume-from", &state, "--threads", threads]);
        assert_eq!(race_lines(&resumed), one_shot, "--threads {threads}: {resumed}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_version_1_checkpoint_fails_naming_its_version() {
    // Every checkpoint written before LRCP v2 carries version byte 1.
    let dir = std::env::temp_dir().join(format!("literace_cli_lrcp_v1_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (log, state) = (path("x.lrlog"), path("state.lrcp"));
    std::fs::write(&log, encode_all(&early_exit_records())).unwrap();
    stdout_of({
        let mut c = literace();
        c.args(["detect", "--log", &log, "--checkpoint-out", &state]);
        c
    });
    let sealed = std::fs::read(&state).unwrap();
    assert_eq!(&sealed[..5], b"LRCP\x02");
    let mut version_1 = sealed.clone();
    version_1[4] = 1;
    let mut bad_magic = sealed.clone();
    bad_magic[0] = b'X';
    let torn = sealed[..sealed.len() - 5].to_vec();
    // Every failure names the file as a checkpoint, never as a log.
    for (bytes, names) in [
        (version_1, "unsupported checkpoint version 1"),
        (bad_magic, "bad checkpoint magic"),
        (torn, "corrupt checkpoint: unsealed"),
    ] {
        std::fs::write(&state, &bytes).unwrap();
        for args in [
            &["checkpoint", "--in", &state][..],
            &["detect", "--log", &log, "--resume-from", &state][..],
        ] {
            let out = literace().args(args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}");
            assert!(stderr.contains(names), "{args:?}: {stderr}");
            for log_words in ["log version", "log magic", "corrupt log"] {
                assert!(!stderr.contains(log_words), "{args:?}: {stderr}");
            }
        }
    }
    // A checkpoint that cannot be read at all names its path, not a log.
    let (missing, a_dir) = (path("missing.lrcp"), path("adir.lrcp"));
    std::fs::create_dir_all(&a_dir).unwrap();
    for state in [&missing, &a_dir] {
        for args in [
            &["checkpoint", "--in", state][..],
            &["detect", "--log", &log, "--resume-from", state][..],
        ] {
            let out = literace().args(args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?}");
            assert!(
                stderr.contains(&format!("cannot read {state}: ")),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("log"), "{args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_closed_stdout_ends_every_command_quietly() {
    // The read end of stdout is closed before the command starts, so its
    // first write fails with a broken pipe, as under `| head -0`.
    let dir = std::env::temp_dir().join(format!("literace_cli_epipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (log, state, trace) = (path("x.lrlog"), path("state.lrcp"), path("trace.json"));
    std::fs::write(&log, encode_all(&early_exit_records())).unwrap();
    stdout_of({
        let mut c = literace();
        c.args(["detect", "--log", &log, "--checkpoint-out", &state, "--trace-out", &trace]);
        c
    });
    let lflist = ["--workload", "lflist"];
    let commands: Vec<Vec<&str>> = vec![
        vec!["help"],
        vec!["workloads"],
        [&["run"][..], &lflist].concat(),
        [&["eval"][..], &lflist, &["--seeds", "1"]].concat(),
        [&["overhead"][..], &lflist].concat(),
        vec!["detect", "--log", &log],
        vec!["detect", "--log", &log, "--detector", "lockset"],
        vec!["explain", "--log", &log],
        [&["metrics"][..], &lflist].concat(),
        vec!["log-stats", "--log", &log],
        vec!["checkpoint", "--in", &state],
        vec!["inspect", "--workload", "lkrhash", "--function", "hash_op"],
        [&["trace"][..], &lflist].concat(),
        vec!["trace", "--in", &trace],
    ];
    for args in commands {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = literace()
            .args(&args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_fail_and_list_the_accepted_ones() {
    let dir = std::env::temp_dir().join(format!("literace_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.lrlog");
    let log = log.to_str().unwrap();
    write_full_lflist_log(log);
    for (args, name, accepted) in [
        (
            &["detect", "--log", log, "--thread", "4", "--bogus-flag", "x"][..],
            "thread",
            "--threads",
        ),
        (&["run", "--workload", "lflist", "--sed", "5"][..], "sed", "--seed"),
        // The retired tuning flags fail loudly instead of being ignored.
        (&["run", "--workload", "lflist", "--log", log, "--streaming"][..], "streaming", "--log"),
        (&["detect", "--log", log, "--no-streaming"][..], "no-streaming", "--salvage"),
        (
            &["detect", "--log", log, "--stream-depth", "3"][..],
            "stream-depth",
            "--decode-threads",
        ),
        (&["log-stats", "--log", log, "--stream-depth", "3"][..], "stream-depth", "--salvage"),
        (
            &["run", "--workload", "lflist", "--log", log, "--block-records", "512"][..],
            "block-records",
            "--decode-threads",
        ),
        // The writer places its own encoding (one worker with a second
        // CPU, inline on one), so the pool size is no flag either.
        (
            &["run", "--workload", "lflist", "--log", log, "--encode-threads", "2"][..],
            "encode-threads",
            "--decode-threads",
        ),
        (&["workloads", "--all"][..], "all", "takes no flags"),
    ] {
        let out = literace().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag --{name} (")), "{args:?}: {stderr}");
        assert!(stderr.contains(accepted), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What `explain --log` prints for `log`, computed over the materialized
/// log with the sequential detector and provenance on.
fn explained(path: &str, log: &EventLog, non_stack: u64) -> String {
    let mut det = HbDetector::new();
    det.enable_provenance();
    det.process_log(log);
    let (report, provenance) = det.finish_full(non_stack);
    let provenance = provenance.unwrap();
    let mut out = format!(
        "{path}: {} static races ({} dynamic)\n",
        report.static_count(),
        report.dynamic_races
    );
    for (i, r) in report.static_races.iter().enumerate() {
        out += &format!(
            "\nrace {}: {} ↔ {} ({} occurrences, {} addresses)\n",
            i + 1,
            r.pcs.0,
            r.pcs.1,
            r.count,
            r.distinct_addrs
        );
        out += &match provenance.find(r.pcs) {
            Some(e) => format!("{e}\n"),
            None => "  (no evidence captured for this pair)\n".to_owned(),
        };
    }
    out
}

/// The `log-stats` lines that carry counts, computed over the
/// materialized log.
fn stats_lines(log: &EventLog) -> Vec<String> {
    let s = LogStats::of(log);
    let mut t = Table::new(
        "per-thread breakdown",
        &["thread", "records", "memory", "sync", "markers"],
    );
    for (tid, row) in &LogStats::per_thread(log) {
        t.row(vec![
            format!("t{}", tid.index()),
            row.records.to_string(),
            row.mem_records.to_string(),
            row.sync_records.to_string(),
            row.marker_records.to_string(),
        ]);
    }
    vec![
        format!("  records          : {}", s.records),
        format!("  memory accesses  : {}", s.mem_records),
        format!("  synchronization  : {}", s.sync_records),
        format!("  thread markers   : {}", s.marker_records),
        format!("  size as v1       : {} bytes", s.bytes),
        format!("{t}"),
    ]
}

#[test]
fn streamed_consumers_match_the_materialized_log() {
    // detect --detector lockset, log-stats and explain --log fold the
    // decoded blocks as they stream; each must print what its detector
    // or counter computes over the whole decoded log, on a clean log and
    // (with --salvage, where the command takes it) on a torn one.
    let dir = std::env::temp_dir().join(format!("literace_cli_folds_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.lrlog");
    let torn = dir.join("torn.lrlog");
    let (clean, torn) = (clean.to_str().unwrap(), torn.to_str().unwrap());
    write_full_lflist_log(clean);
    let bytes = std::fs::read(clean).unwrap();
    std::fs::write(torn, &bytes[..bytes.len() * 2 / 3]).unwrap();
    let non_stack = 100_000;
    let run = |args: &[&str]| {
        stdout_of({
            let mut c = literace();
            c.args(args);
            c
        })
    };
    let salvaged = read_log_salvage(std::fs::File::open(torn).unwrap()).0;
    let materialized = read_log_auto(std::fs::File::open(clean).unwrap()).unwrap();
    assert!(salvaged.len() < materialized.len());
    for (path, log, salvage) in [
        (clean, &materialized, &[][..]),
        (torn, &salvaged, &["--salvage"][..]),
    ] {
        for threads in ["1", "2"] {
            let extra = [salvage, &["--decode-threads", threads]].concat();
            let lockset = run(
                &[
                    &["detect", "--log", path, "--detector", "lockset", "--non-stack", "100000"][..],
                    &extra,
                ]
                .concat(),
            );
            let expected = report_lines(&detect_lockset(log, non_stack));
            assert_eq!(race_lines(&lockset), expected, "{path}");
            let stats = run(&[&["log-stats", "--log", path][..], &extra].concat());
            for line in stats_lines(log) {
                assert!(stats.contains(&line), "{path}: missing {line:?} in\n{stats}");
            }
        }
    }
    let explain = run(&["explain", "--log", clean, "--non-stack", "100000"]);
    assert_eq!(explain, explained(clean, &materialized, non_stack));
    // explain reads strictly, as read_log_auto does: a torn log fails.
    assert!(read_log_auto(std::fs::File::open(torn).unwrap()).is_err());
    let out = literace().args(["explain", "--log", torn]).output().unwrap();
    assert!(!out.status.success() && out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
