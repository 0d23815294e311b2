//! Command implementations.

use std::fs::File;
use std::process::ExitCode;

use literace::detector::{detect_lockset, detect_stream};
use literace::eval::{evaluate_program, EvalConfig};
use literace::log::{
    auto_stream_depth, map_or_read, read_log_auto, read_log_salvage, AtomicFile, DecodeOpts,
    EncodeOpts, LogFormat, LogStats, LogWriter, LogWriterV2, RecordStream,
};
use literace::overhead::measure_overhead;
use literace::prelude::*;
use literace::tables::{mb_s, pct, slowdown, Table};
use literace::workloads::WorkloadId;

use crate::error::CliError;
use crate::telemetry::Telemetry;

/// Top-level usage text.
pub const USAGE: &str = "\
literace — sampling-based data-race detection (LiteRace, PLDI 2009)

USAGE:
  literace workloads
      List the benchmark workloads.

  literace run --workload <name> [--sampler tl-ad] [--seed 1]
               [--scale smoke|paper] [--log <file>] [--format v1|v2]
               [--streaming] [--threads N] [--decode-threads N|auto]
               [--stream-depth N] [--encode-threads N|auto]
               [--block-records N] [--suppress pat1,pat2]
               [--prefilter] [--prefilter-stats]
               [--metrics-out <file>] [--trace-out <file>] [--progress]
      Instrument, execute, and detect. Optionally write the event log
      (compact v2 blocks by default; --format v1 for the legacy
      fixed-width format) and suppress races in functions matching the
      given name patterns. With --streaming and --log, records stream to
      disk as the program runs (the log is never materialized in memory)
      and detection streams the file back through the decode pool
      (--decode-threads / --stream-depth as under `detect`); without
      --log, --streaming changes nothing. --threads N shards detection
      across N workers as under `detect`.
      --encode-threads N moves v2 encoding off the run's hot path: the
      run only appends raw records and N background workers encode the
      blocks. --block-records sets the records per block (default 4096).
      Both need --log and v2; the file's bytes depend on --block-records
      only, never on --encode-threads. A stale <file>.partial left by a
      crashed run is swept before writing. --metrics-out writes a JSON
      telemetry snapshot; --trace-out records pipeline event tracing and
      writes a Chrome trace-event JSON file loadable in Perfetto
      (ui.perfetto.dev) or chrome://tracing; --progress prints a
      heartbeat to stderr.
      --sampler picks the sampling strategy (tl-ad, tl-fx, g-ad, g-fx,
      rnd10, rnd25, ucp, o1pair, prefiltered, full, none). --prefilter
      installs the static ordering skip table with any sampler: access
      sites provably ordered (stack-private, consistently lock-protected,
      or confined to single-threaded startup/shutdown phases) bypass the
      sampler and the log entirely (`--sampler prefiltered` implies it).
      --prefilter-stats prints the static classification and the run's
      skipped/residual access counts (implies --prefilter).

  literace eval --workload <name> [--seeds 3] [--scale smoke|paper]
      Compare the Table 3 samplers plus the O1Pair and Prefiltered
      extensions on identical interleavings (§5.3).

  literace overhead --workload <name> [--seed 1] [--scale smoke|paper]
      Print the workload's Table 5 row and Figure 6 decomposition.

  literace detect --log <file> [--detector hb|lockset]
                  [--non-stack <count>] [--threads N] [--no-streaming]
                  [--decode-threads N|auto] [--stream-depth N]
                  [--salvage] [--resume-from <state.lrcp>]
                  [--checkpoint-out <state.lrcp>] [--checkpoint-every N]
                  [--metrics-out <file>] [--trace-out <file>]
                  [--progress]
      Run offline detection over a previously written event log (v1 or
      v2; the format is auto-detected). With --threads N ≥ 2, the hb
      detector shards accesses across N workers (byte-identical output;
      N above 64 runs 64 shards). The hb detector streams by default:
      decoded blocks flow straight from the decode pool into the workers
      and the log is never materialized (--no-streaming decodes the whole
      log first; other detectors always do). --decode-threads sizes the
      block-decode pool (auto: one worker per core; ≥ 2 decodes v2
      blocks out of order and reassembles in sequence, byte-identical
      output) and --stream-depth overrides the auto-sized
      decoder→detector channel depth.
      With --salvage, a torn or corrupted log is decoded best-effort:
      corrupt blocks are skipped where provably safe (no sync records
      lost), the rest is dropped, and the damage tally is printed — a
      salvaged log can never report a race the clean log would not.
      --checkpoint-out seals the hb detector's full state into a
      checkpoint file: every N input blocks with --checkpoint-every, and
      always once at end of stream (checkpoint creation runs the
      sequential core, so it conflicts with --threads; a stale
      <state>.partial left by a crashed save is swept first).
      --resume-from loads a checkpoint and detects only the records
      *after* the checkpointed position — on any path (sequential,
      --threads N, streaming or materialized), the report is
      byte-identical to one-shot detection over the whole log.
      --metrics-out / --trace-out / --progress export telemetry as under
      `run`; with --progress, a sealed v2 log's footer total adds a
      percent-complete segment to the heartbeat line.

  literace explain --workload <name> [--seed 1] [--scale smoke|paper]
                   [--sampler tl-ad] [--race K]
  literace explain --log <file> [--non-stack <count>] [--race K]
      Re-run sequential happens-before detection with provenance capture
      and print, for each reported race, the two access epochs, thread
      ids and sites, the vector-clock check that failed, and the last
      sync-chain edge that would have ordered the pair had it been
      acquired. --race K limits output to the K-th race (1-based). The
      race set is byte-identical to `run`/`detect` on the same input.

  literace metrics [--in <metrics.json> | --workload <name> [--seed 1]
                   [--scale smoke|paper] [--threads N]]
                   [--format json|prom] [--out <file>] [--validate]
      Export the telemetry registry. With --in, re-export a previously
      written snapshot; otherwise run the workload's pipeline with
      telemetry on and export the fresh snapshot. --format prom emits
      Prometheus text; --validate fails unless the snapshot carries
      every required pipeline metric.

  literace log-stats --log <file> [--salvage] [--decode-threads N|auto]
                     [--stream-depth N] [--metrics-out <file>]
      Print log composition, per-thread breakdown, encoded size and
      whether the log was cleanly finalized (either format). With
      --salvage, read a damaged log best-effort and include the salvage
      summary. --decode-threads ≥ 2 reads v2 logs through the parallel
      decode pool (identical output, including the salvage summary).

  literace checkpoint --in <state.lrcp>
      Validate and describe a detector checkpoint written by
      `detect --checkpoint-out`: records processed, threads, tracked
      locations, accumulated races, and the configuration it was taken
      under. A torn or tampered checkpoint fails with the exact
      corruption, never a partial printout.

  literace inspect --workload <name> [--function <substring>]
      Show a workload's structure; with --function, disassemble matching
      functions (offsets match race-report program counters).

  literace trace --workload <name> [--limit 40] [--seed 1]
      Print the first events of an execution, human-readably.

  literace trace --in <trace.json> [--top 10]
      Validate a --trace-out file and print a summary: per-track
      wall-clock attribution, the longest spans, and stall/race instants.
";

fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

fn parse_workload(name: &str) -> Result<WorkloadId, String> {
    let key = name.to_ascii_lowercase();
    let found = match key.as_str() {
        "dryad-stdlib" => Some(WorkloadId::DryadStdlib),
        "dryad" => Some(WorkloadId::Dryad),
        "messaging" | "concrt-messaging" => Some(WorkloadId::ConcrtMessaging),
        "scheduling" | "concrt-scheduling" => Some(WorkloadId::ConcrtScheduling),
        "apache-1" => Some(WorkloadId::Apache1),
        "apache-2" => Some(WorkloadId::Apache2),
        "ff-start" | "firefox-start" => Some(WorkloadId::FirefoxStart),
        "ff-render" | "firefox-render" => Some(WorkloadId::FirefoxRender),
        "lkrhash" => Some(WorkloadId::LkrHash),
        "lflist" => Some(WorkloadId::LfList),
        _ => None,
    };
    found.ok_or_else(|| {
        format!("unknown workload `{name}` (try `literace workloads`)")
    })
}

fn parse_scale(flags: &crate::args::Flags) -> Result<Scale, String> {
    match flags.get("scale") {
        None | Some("smoke") => Ok(Scale::Smoke),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(format!("--scale expects smoke|paper, got `{other}`")),
    }
}

/// Resolves a `--sampler` value to a kind; absent means TL-Ad, the paper's
/// shipped sampler. Unknown names fail with the full list of known ones.
fn resolve_sampler(name: Option<&str>) -> Result<SamplerKind, CliError> {
    match name {
        None => Ok(SamplerKind::TlAdaptive),
        Some(name) => SamplerKind::from_short_name(name).ok_or_else(|| {
            let known: Vec<&str> = SamplerKind::all()
                .iter()
                .map(|k| k.short_name())
                .collect();
            CliError::Msg(format!(
                "unknown sampler `{name}` ({})",
                known.join(", ")
            ))
        }),
    }
}

fn parse_format(flags: &crate::args::Flags) -> Result<LogFormat, String> {
    match flags.get("format") {
        None => Ok(LogFormat::V2),
        Some(name) => LogFormat::from_name(name)
            .ok_or_else(|| format!("--format expects v1|v2, got `{name}`")),
    }
}

/// Parses `--decode-threads` (default `auto`: one worker per available
/// core) and `--stream-depth` (default: auto-sized from the decode and
/// detect thread counts) into the [`DecodeOpts`] handed to the log
/// readers. With 2+ decode threads, v2 block payloads decode on a
/// parallel out-of-order worker pool; delivery order and every report
/// stay byte-identical to one decode thread.
fn parse_decode_opts(
    flags: &crate::args::Flags,
    detect_threads: usize,
) -> Result<DecodeOpts, String> {
    let opts = match flags.get("decode-threads") {
        None | Some("auto") => DecodeOpts::auto(),
        Some(v) => {
            let threads: usize = v
                .parse()
                .map_err(|_| format!("flag --decode-threads: cannot parse `{v}`"))?;
            if threads == 0 {
                return Err("--decode-threads must be at least 1 (or `auto`)".into());
            }
            DecodeOpts::with_threads(threads)
        }
    };
    let opts = opts.depth(auto_stream_depth(opts.threads, detect_threads));
    match flags.get("stream-depth") {
        None => Ok(opts),
        Some(v) => {
            let depth: usize = v
                .parse()
                .map_err(|_| format!("flag --stream-depth: cannot parse `{v}`"))?;
            if depth == 0 {
                return Err("--stream-depth must be at least 1".into());
            }
            Ok(opts.depth(depth))
        }
    }
}

/// Parses `--encode-threads` (N or `auto`) and `--block-records` into
/// the v2 writer's [`EncodeOpts`]. Without `--encode-threads` the writer
/// encodes on the producing thread (0 workers).
fn parse_encode_opts(flags: &crate::args::Flags) -> Result<EncodeOpts, String> {
    let opts = match flags.get("encode-threads") {
        None => EncodeOpts::default(),
        Some("auto") => EncodeOpts::auto(),
        Some(v) => {
            let threads: usize = v
                .parse()
                .map_err(|_| format!("flag --encode-threads: cannot parse `{v}`"))?;
            if threads == 0 {
                return Err("--encode-threads must be at least 1 (or `auto`)".into());
            }
            EncodeOpts::with_threads(threads)
        }
    };
    match flags.get("block-records") {
        None => Ok(opts),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("flag --block-records: cannot parse `{v}`"))?;
            if n == 0 {
                return Err("--block-records must be at least 1".into());
            }
            Ok(opts.block_records(n))
        }
    }
}

/// Opens `path` as a strict [`RecordStream`] with `opts`: memory-mapped
/// (or read whole) for zero-copy payload handoff when the parallel pool
/// is active, plain file streaming otherwise.
fn spawn_log_stream(path: &str, opts: DecodeOpts) -> Result<RecordStream, String> {
    let stream = if opts.threads > 1 {
        let bytes = map_or_read(path).map_err(|e| format!("read {path}: {e}"))?;
        RecordStream::spawn_bytes(bytes, opts)
    } else {
        let file = File::open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        RecordStream::spawn_with(file, opts)
    };
    stream.map_err(|e| format!("read {path}: {e}"))
}

/// Writes a materialized log to `path` in the requested format, returning
/// the record count. The log is written to `<path>.partial` and renamed
/// into place only after a clean finish, so a crash mid-write never
/// leaves a half-written file at `path`. `encode` places the v2 writer's
/// stages and sizes its blocks.
fn write_log(
    path: &str,
    format: LogFormat,
    encode: EncodeOpts,
    log: &EventLog,
) -> Result<u64, CliError> {
    let file = AtomicFile::create(path).map_err(CliError::io("cannot create", path))?;
    let (written, file) = match format {
        LogFormat::V1 => {
            let mut writer = LogWriter::new(file);
            for record in log {
                writer
                    .write_record(record)
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
            let n = writer.records_written();
            (n, writer.finish().map_err(|e| format!("flush {path}: {e}"))?)
        }
        LogFormat::V2 => {
            let mut writer =
                LogWriterV2::with_opts(file, encode).map_err(|e| format!("write {path}: {e}"))?;
            for record in log {
                writer
                    .write_record(record)
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
            let n = writer.records_written();
            (n, writer.finish().map_err(|e| format!("flush {path}: {e}"))?)
        }
    };
    file.commit().map_err(CliError::io("cannot finalize", path))?;
    Ok(written)
}

/// `literace workloads`
pub fn workloads() -> ExitCode {
    let mut t = Table::new(
        "benchmark workloads (Table 2)",
        &["name", "paper name", "description", "planted races"],
    );
    let short = [
        "dryad-stdlib",
        "dryad",
        "messaging",
        "scheduling",
        "apache-1",
        "apache-2",
        "ff-start",
        "ff-render",
        "lkrhash",
        "lflist",
    ];
    for (id, short) in WorkloadId::all().into_iter().zip(short) {
        let w = build(id, Scale::Smoke);
        t.row(vec![
            short.to_owned(),
            id.name().to_owned(),
            w.spec.description.to_owned(),
            format!("{} ({} rare)", w.planted.total(), w.planted.rare()),
        ]);
    }
    println!("{t}");
    ExitCode::SUCCESS
}

/// `literace run …`
pub fn run(args: &[String]) -> ExitCode {
    match run_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn run_inner(args: &[String]) -> Result<(), CliError> {
    let flags =
        crate::args::Flags::parse_with_switches(
            args,
            &["streaming", "progress", "prefilter", "prefilter-stats"],
        )?;
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let threads: usize = flags.get_parsed("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let streaming = flags.is_set("streaming");
    let decode_opts = parse_decode_opts(&flags, threads)?;
    let format = parse_format(&flags)?;
    let encode_opts = parse_encode_opts(&flags)?;
    if flags.get("encode-threads").is_some() || flags.get("block-records").is_some() {
        if flags.get("log").is_none() {
            return Err("--encode-threads/--block-records require --log".into());
        }
        if matches!(format, LogFormat::V1) {
            return Err(
                "--encode-threads/--block-records shape v2 logs only (drop --format v1)".into(),
            );
        }
    }
    if let Some(path) = flags.get("log") {
        if AtomicFile::sweep_stale(path).map_err(CliError::io("cannot sweep", path))? {
            eprintln!("note: removed stale {path}.partial left by a crashed run");
        }
    }
    let sampler = resolve_sampler(flags.get("sampler"))?;
    let telemetry = Telemetry::from_flags(&flags);

    let w = build(id, scale);
    let mut cfg = RunConfig::seeded(seed);
    cfg.detect_threads = threads;

    // --prefilter forces the static ordering skip table with any sampler
    // (the Prefiltered sampler gets one automatically); --prefilter-stats
    // implies it, since the runtime counters only move with a table
    // installed. Building it here (rather than in the pipeline) keeps the
    // static classification around for the stats printout.
    let want_prefilter =
        flags.is_set("prefilter") || flags.is_set("prefilter-stats") || sampler.needs_prefilter();
    let prefilter_static = if want_prefilter {
        let table = literace::sim::PrefilterTable::build(&literace::sim::lower(&w.program));
        let stats = *table.stats();
        let bytes = table.table_bytes();
        cfg.instrument.prefilter = Some(table);
        Some((stats, bytes))
    } else {
        None
    };

    let streamed_log = flags.get("log").filter(|_| streaming);
    let (summary, stats, overhead, report, log_note) = if let Some(path) = streamed_log {
        // Zero-materialization: records stream to disk in encoded
        // blocks as the program runs, then the file streams back
        // through the detector. The decoded log never sits in memory,
        // and the file only appears at `path` after a clean finish.
        let file = AtomicFile::create(path).map_err(CliError::io("cannot create", path))?;
        let (summary, stats, overhead, written) = match format {
            LogFormat::V2 => {
                let sink = LogWriterV2::with_opts(file, encode_opts)
                    .map_err(|e| format!("write {path}: {e}"))?;
                let (summary, out) = run_literace_with_sink(&w.program, sampler, &cfg, sink)
                    .map_err(|e| e.to_string())?;
                let written = out.log.records_written();
                let file = out.log.finish().map_err(|e| format!("write {path}: {e}"))?;
                file.commit().map_err(CliError::io("cannot finalize", path))?;
                (summary, out.stats, out.overhead, written)
            }
            LogFormat::V1 => {
                let (summary, out) =
                    run_literace_with_sink(&w.program, sampler, &cfg, LogWriter::new(file))
                        .map_err(|e| e.to_string())?;
                let written = out.log.records_written();
                let file = out.log.finish().map_err(|e| format!("write {path}: {e}"))?;
                file.commit().map_err(CliError::io("cannot finalize", path))?;
                (summary, out.stats, out.overhead, written)
            }
        };
        let blocks = spawn_log_stream(path, decode_opts)?;
        let report = detect_stream(blocks, summary.non_stack_accesses, &cfg.detect_config())
            .map_err(|e| format!("read {path}: {e}"))?;
        let note = format!("wrote {written} records to {path} ({format} format, streamed)");
        let non_stack = summary.non_stack_accesses;
        (summary, stats, overhead, report, Some((note, non_stack, path)))
    } else {
        let outcome = run_literace(&w.program, sampler, &cfg).map_err(|e| e.to_string())?;
        let note = match flags.get("log") {
            None => None,
            Some(path) => {
                let written = write_log(path, format, encode_opts, &outcome.instrumented.log)?;
                Some((
                    format!("wrote {written} records to {path} ({format} format)"),
                    outcome.summary.non_stack_accesses,
                    path,
                ))
            }
        };
        (
            outcome.summary,
            outcome.instrumented.stats,
            outcome.instrumented.overhead,
            outcome.report,
            note,
        )
    };

    // Optional benign-race suppressions: --suppress pat1,pat2 filters out
    // static races whose functions match any pattern.
    let (report, suppressed) = match flags.get("suppress") {
        None => (report, 0),
        Some(list) => {
            let rules =
                literace::detector::Suppressions::from_patterns(list.split(','));
            rules.apply(&report, &w.program)
        }
    };

    // Snapshot after suppression so suppressed-race counts are included;
    // this also stops the --progress heartbeat before the report prints.
    telemetry.finish()?;

    println!("workload           : {} ({:?} scale, seed {seed})", id, scale);
    println!("sampler            : {}", sampler.short_name());
    println!(
        "memory accesses    : {} executed, {} logged (ESR {})",
        stats.total_mem,
        stats.logged_mem,
        pct(stats.esr()),
    );
    println!("sync records       : {}", stats.sync_records);
    if flags.is_set("prefilter-stats") {
        if let Some((ps, bytes)) = prefilter_static {
            println!(
                "prefilter (static) : {} of {} sites provably ordered \
                 ({} stack, {} lock, {} phase); {} of {} functions fully \
                 skipped; skip table {} bytes",
                ps.skipped_sites,
                ps.total_sites,
                ps.stack_sites,
                ps.lock_sites,
                ps.phase_sites,
                ps.fully_skipped_functions,
                ps.total_functions,
                bytes,
            );
            println!(
                "prefilter (run)    : {} accesses skipped, {} residual",
                stats.prefilter_skipped, stats.prefilter_residual,
            );
        }
    }
    println!(
        "modeled slowdown   : {}",
        slowdown(overhead.slowdown(summary.baseline_cost))
    );
    if suppressed > 0 {
        println!("suppressed races   : {suppressed}");
    }
    println!();
    print!("{}", literace::render::render_report(&report, &w.program));

    if let Some((note, non_stack, path)) = log_note {
        println!("{note}");
        println!("(redetect with: literace detect --log {path} --non-stack {non_stack})");
    }
    Ok(())
}

/// `literace eval …`
pub fn eval(args: &[String]) -> ExitCode {
    match eval_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn eval_inner(args: &[String]) -> Result<(), CliError> {
    let flags = crate::args::Flags::parse(args)?;
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let seeds: u64 = flags.get_parsed("seeds", 3)?;
    let w = build(id, scale);
    let cfg = EvalConfig {
        seeds: (1..=seeds).collect(),
        samplers: SamplerKind::study_set().to_vec(),
        ..EvalConfig::default()
    };
    let eval = evaluate_program(&w.program, &cfg).map_err(|e| e.to_string())?;
    println!(
        "{} — ground truth: {} static races ({} rare, {} frequent), median of {} runs",
        id,
        eval.truth.static_races_median,
        eval.truth.rare_median,
        eval.truth.frequent_median,
        seeds
    );
    let mut t = Table::new(
        "sampler comparison (identical interleavings, §5.3)",
        &["sampler", "detected", "rare", "frequent", "ESR"],
    );
    for s in &eval.samplers {
        t.row(vec![
            s.name.clone(),
            pct(s.detection_rate),
            pct(s.rare_detection_rate),
            pct(s.frequent_detection_rate),
            pct(s.esr),
        ]);
    }
    println!("{t}");
    Ok(())
}

/// `literace overhead …`
pub fn overhead(args: &[String]) -> ExitCode {
    match overhead_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn overhead_inner(args: &[String]) -> Result<(), CliError> {
    let flags = crate::args::Flags::parse(args)?;
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let w = build(id, scale);
    let r = measure_overhead(&w.program, &RunConfig::seeded(seed)).map_err(|e| e.to_string())?;
    println!("{id} — modeled overhead (Figure 6 decomposition):");
    println!("  baseline              : 1.00x  ({} abstract instructions)", r.baseline_cost);
    println!(
        "  + dispatch checks     : {}",
        slowdown(r.dispatch_only.slowdown(r.baseline_cost))
    );
    println!(
        "  + sync logging        : {}",
        slowdown(r.dispatch_sync.slowdown(r.baseline_cost))
    );
    println!(
        "  + sampled mem logging : {}  (LiteRace, ESR {})",
        slowdown(r.literace_slowdown()),
        pct(r.literace_esr)
    );
    println!(
        "  full logging          : {}",
        slowdown(r.full_logging_slowdown())
    );
    println!(
        "  log volume            : LiteRace {} MB/s vs full {} MB/s",
        mb_s(r.literace.log_mb_per_s()),
        mb_s(r.full_logging.log_mb_per_s())
    );
    Ok(())
}

/// `literace detect …`
pub fn detect(args: &[String]) -> ExitCode {
    match detect_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn detect_inner(args: &[String]) -> Result<(), CliError> {
    use literace::detector::{
        detect_stream_checkpointed, detect_stream_from, Checkpoint, DetectConfig,
    };

    let flags = crate::args::Flags::parse_with_switches(
        args,
        &["streaming", "no-streaming", "progress", "salvage"],
    )?;
    let path = flags.require("log")?;
    let non_stack: u64 = flags.get_parsed("non-stack", 0)?;
    let threads: usize = flags.get_parsed("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let decode_opts = parse_decode_opts(&flags, threads)?;
    // Streaming decode→detect is the default for the hb detector — it is
    // at least as fast as materializing and bounds memory. --no-streaming
    // restores the materialized path; other detectors need it anyway.
    let hb_detector = matches!(flags.get("detector"), None | Some("hb"));
    if flags.is_set("streaming") && flags.is_set("no-streaming") {
        return Err("--streaming conflicts with --no-streaming".into());
    }
    let streaming = if flags.is_set("no-streaming") {
        false
    } else {
        flags.is_set("streaming") || hb_detector
    };
    let salvage = flags.is_set("salvage");
    // Checkpoint/resume only make sense for the hb detector (the others
    // carry no resumable state). A checkpoint is loaded and fully
    // validated up front so a torn file fails before any decoding starts.
    let checkpoint_out = flags.get("checkpoint-out");
    let checkpoint_every: u64 = flags.get_parsed("checkpoint-every", 0)?;
    if checkpoint_every > 0 && checkpoint_out.is_none() {
        return Err("--checkpoint-every requires --checkpoint-out".into());
    }
    if (checkpoint_out.is_some() || flags.get("resume-from").is_some()) && !hb_detector {
        return Err(
            "--checkpoint-out/--resume-from only apply to the hb detector".into(),
        );
    }
    if checkpoint_out.is_some() && threads > 1 {
        return Err(
            "--checkpoint-out seals sequential-core state (drop --threads)".into(),
        );
    }
    let resume_cp = match flags.get("resume-from") {
        None => None,
        Some(p) => Some(
            Checkpoint::read_from(std::path::Path::new(p))
                .map_err(|e| format!("read {p}: {e}"))?,
        ),
    };
    if let Some(out) = checkpoint_out {
        if AtomicFile::sweep_stale(out).map_err(CliError::io("cannot sweep", out))? {
            eprintln!("note: removed stale {out}.partial left by a crashed save");
        }
    }
    let telemetry = Telemetry::from_flags(&flags);
    if literace::telemetry::enabled() {
        // A sealed v2 log's footer declares its record total; publishing
        // it before decoding lets the --progress heartbeat show
        // percent-complete. Unsealed or v1 logs leave the gauge at zero.
        if let Some(total) = literace::log::peek_sealed_total(std::path::Path::new(path)) {
            literace::telemetry::metrics()
                .log_decode_total_records
                .record(total);
        }
    }
    let file = File::open(path).map_err(CliError::io("cannot open", path))?;
    // Picks the detector for a materialized log, honoring --detector and
    // --threads the same way on the clean and the salvage path.
    let detect_materialized = |log: &EventLog| -> Result<_, CliError> {
        Ok(match flags.get("detector") {
            None | Some("hb") => detect_stream_from(
                [Ok(log.records())],
                non_stack,
                &DetectConfig::with_threads(threads),
                resume_cp.as_ref(),
            )
            .map_err(|e| format!("{path}: {e}"))?,
            Some(other) if threads > 1 => {
                return Err(format!(
                    "--threads only applies to the hb detector, not `{other}`"
                )
                .into())
            }
            Some("lockset") => detect_lockset(log, non_stack),
            Some(other) => return Err(format!("unknown detector `{other}`").into()),
        })
    };
    // An error below exits without writing the trace, so the span needs no
    // balancing on the failure paths.
    literace::telemetry::trace_begin("phase.detect");
    let (report, heading, salvage_report) = if let Some(out) = checkpoint_out {
        // Checkpointing runs the sequential core over the block stream:
        // state is sealed to `out` every --checkpoint-every blocks and
        // once more at end of stream, each save atomic (written to
        // <out>.partial, renamed only after fsync).
        let out_path = std::path::Path::new(out);
        let cfg = DetectConfig::with_threads(1);
        let save = |cp: &Checkpoint| cp.write_to(out_path).map(|_| ());
        if salvage {
            let (blocks, handle) = RecordStream::spawn_salvage_with(file, decode_opts)
                .map_err(|e| format!("read {path}: {e}"))?;
            let format = blocks.format();
            let report = detect_stream_checkpointed(
                blocks,
                non_stack,
                &cfg,
                resume_cp.as_ref(),
                checkpoint_every,
                save,
            )
            .map_err(|e| format!("{path}: {e}"))?;
            (
                report,
                format!("{format} log (streamed, salvaged)"),
                Some(handle.report()),
            )
        } else {
            drop(file);
            let blocks = spawn_log_stream(path, decode_opts)?;
            let format = blocks.format();
            let report = detect_stream_checkpointed(
                blocks,
                non_stack,
                &cfg,
                resume_cp.as_ref(),
                checkpoint_every,
                save,
            )
            .map_err(|e| format!("{path}: {e}"))?;
            (report, format!("{format} log (streamed)"), None)
        }
    } else if streaming {
        match flags.get("detector") {
            None | Some("hb") => {}
            Some(other) => {
                return Err(format!(
                    "--streaming only applies to the hb detector, not `{other}`"
                )
                .into())
            }
        }
        // Decoded blocks flow from the decode pool straight into the
        // sharded workers; the log is never materialized.
        if salvage {
            let (blocks, handle) =
                RecordStream::spawn_salvage_with(file, decode_opts)
                    .map_err(|e| format!("read {path}: {e}"))?;
            let format = blocks.format();
            let cfg = DetectConfig::with_threads(threads);
            let report = detect_stream_from(blocks, non_stack, &cfg, resume_cp.as_ref())
                .map_err(|e| format!("read {path}: {e}"))?;
            (
                report,
                format!("{format} log (streamed, salvaged)"),
                Some(handle.report()),
            )
        } else {
            drop(file);
            let blocks = spawn_log_stream(path, decode_opts)?;
            let format = blocks.format();
            let cfg = DetectConfig::with_threads(threads);
            let report = detect_stream_from(blocks, non_stack, &cfg, resume_cp.as_ref())
                .map_err(|e| format!("read {path}: {e}"))?;
            (report, format!("{format} log (streamed)"), None)
        }
    } else if salvage {
        // Best-effort decode: corrupt blocks are skipped where provably
        // safe, the suffix is dropped where it is not, and detection runs
        // on what survived.
        let (log, sreport) = read_log_salvage(file);
        let report = detect_materialized(&log)?;
        (report, format!("{} records (salvaged)", log.len()), Some(sreport))
    } else {
        // Auto-detecting chunked decoding: peak memory is the decoded log
        // plus one encoded chunk, whichever the on-disk format.
        let log = read_log_auto(file).map_err(|e| format!("read {path}: {e}"))?;
        let report = detect_materialized(&log)?;
        (report, format!("{} records", log.len()), None)
    };
    literace::telemetry::trace_end("phase.detect");
    telemetry.finish()?;
    println!(
        "{}: {}, {} static races ({} dynamic)",
        path,
        heading,
        report.static_count(),
        report.dynamic_races
    );
    if let Some(cp) = &resume_cp {
        println!(
            "resumed: {} records already processed before this run",
            cp.records_processed()
        );
    }
    if let Some(out) = checkpoint_out {
        let size = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
        println!("checkpoint: sealed detector state at {out} ({size} bytes)");
        println!("(resume with: literace detect --log <file> --resume-from {out})");
    }
    for r in &report.static_races {
        println!("  {r}");
    }
    if non_stack == 0 {
        println!("(pass --non-stack to enable the rare/frequent split)");
    } else {
        let (rare, freq) = report.split_by_rarity();
        println!("rare: {}, frequent: {}", rare.len(), freq.len());
    }
    if let Some(s) = salvage_report {
        println!("salvage: {s}");
        if s.sync_tainted {
            println!(
                "warning: synchronization records were lost; everything after the \
                 damage was dropped so no false race can be reported"
            );
        }
    }
    Ok(())
}

/// `literace checkpoint …`
pub fn checkpoint(args: &[String]) -> ExitCode {
    match checkpoint_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn checkpoint_inner(args: &[String]) -> Result<(), CliError> {
    use literace::detector::Checkpoint;
    let flags = crate::args::Flags::parse(args)?;
    let path = flags.require("in")?;
    let on_disk = std::fs::metadata(path)
        .map_err(CliError::io("cannot open", path))?
        .len();
    // read_from re-validates everything — magic, version, per-section
    // checksums, sealing footer, and the detector's semantic invariants —
    // so anything printed below describes a checkpoint that will load.
    let cp = Checkpoint::read_from(std::path::Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    let cfg = cp.config();
    println!("{path}:");
    println!("  sealed             : yes (footer and checksums verified)");
    println!("  on-disk size       : {on_disk} bytes");
    println!("  records processed  : {}", cp.records_processed());
    println!(
        "  threads            : {} ({} retired)",
        cp.thread_count(),
        cp.retired_count()
    );
    println!("  sync variables     : {}", cp.syncvar_count());
    println!(
        "  tracked locations  : {} ({} escalated)",
        cp.location_count(),
        cp.escalated_count()
    );
    println!("  static race pairs  : {}", cp.pair_count());
    println!("  dynamic races      : {}", cp.dynamic_races());
    println!("  non-stack accesses : {}", cp.non_stack_accesses());
    println!("  timestamp faults   : {}", cp.timestamp_violations());
    println!(
        "  config             : max-history {}, max-dynamic-per-pair {}",
        cfg.max_history_per_location, cfg.max_dynamic_per_pair
    );
    if !cp.suppressions().is_empty() {
        println!("  suppressions       : {}", cp.suppressions().join(", "));
    }
    println!("(resume with: literace detect --log <file> --resume-from {path})");
    Ok(())
}

/// `literace explain …`
pub fn explain(args: &[String]) -> ExitCode {
    match explain_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn explain_inner(args: &[String]) -> Result<(), CliError> {
    use literace::detector::HbDetector;
    let flags = crate::args::Flags::parse(args)?;
    let race_filter: usize = flags.get_parsed("race", 0)?;
    // Either mode yields (log, non_stack, heading, program-for-names);
    // detection itself is always the sequential core with capture on —
    // provenance rides alongside the report and never changes it, so the
    // race set matches `run`/`detect` on the same input exactly.
    let (log, non_stack, heading, program) = match (flags.get("log"), flags.get("workload")) {
        (Some(_), Some(_)) => return Err("--log conflicts with --workload".into()),
        (Some(path), None) => {
            let non_stack: u64 = flags.get_parsed("non-stack", 0)?;
            let file = File::open(path).map_err(CliError::io("cannot open", path))?;
            let log = read_log_auto(file).map_err(|e| format!("read {path}: {e}"))?;
            (log, non_stack, path.to_owned(), None)
        }
        (None, Some(name)) => {
            let id = parse_workload(name)?;
            let scale = parse_scale(&flags)?;
            let seed: u64 = flags.get_parsed("seed", 1)?;
            let sampler = resolve_sampler(flags.get("sampler"))?;
            let w = build(id, scale);
            let cfg = RunConfig::seeded(seed);
            let outcome =
                run_literace(&w.program, sampler, &cfg).map_err(|e| e.to_string())?;
            let heading = format!("{id} ({:?} scale, seed {seed}, {})", scale, sampler.short_name());
            (
                outcome.instrumented.log,
                outcome.summary.non_stack_accesses,
                heading,
                Some(w.program),
            )
        }
        (None, None) => {
            return Err("explain needs --workload <name> or --log <file>".into())
        }
    };
    let mut det = HbDetector::new();
    det.enable_provenance();
    det.process_log(&log);
    let (report, provenance) = det.finish_full(non_stack);
    let provenance = provenance.expect("provenance was enabled");
    println!(
        "{heading}: {} static races ({} dynamic)",
        report.static_count(),
        report.dynamic_races
    );
    if race_filter > report.static_count() {
        return Err(format!(
            "--race {race_filter} is out of range (1..={})",
            report.static_count()
        )
        .into());
    }
    let site = |pc: literace::sim::Pc| -> String {
        match &program {
            Some(p) => format!("{}+{}", p.function(pc.func()).name, pc.offset()),
            None => pc.to_string(),
        }
    };
    for (i, r) in report.static_races.iter().enumerate() {
        let k = i + 1;
        if race_filter != 0 && k != race_filter {
            continue;
        }
        println!();
        println!(
            "race {k}: {} ↔ {} ({} occurrences, {} addresses)",
            site(r.pcs.0),
            site(r.pcs.1),
            r.count,
            r.distinct_addrs
        );
        match provenance.find(r.pcs) {
            Some(e) => println!("{e}"),
            None => println!("  (no evidence captured for this pair)"),
        }
    }
    Ok(())
}

/// `literace inspect …`
pub fn inspect(args: &[String]) -> ExitCode {
    match inspect_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn inspect_inner(args: &[String]) -> Result<(), CliError> {
    use literace::sim::{disasm, lower, FuncId};
    let flags = crate::args::Flags::parse(args)?;
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let w = build(id, scale);
    let compiled = lower(&w.program);
    println!("{id} ({:?} scale):", scale);
    println!("{}", literace::sim::ProgramStats::of(&compiled));
    println!(
        "planted races      : {} ({} rare at paper scale)",
        w.planted.total(),
        w.planted.rare()
    );
    if let Some(pattern) = flags.get("function") {
        let mut shown = 0;
        for (i, f) in compiled.functions.iter().enumerate() {
            if f.name.contains(pattern) {
                println!();
                print!("{}", disasm::disasm_function(FuncId::from_index(i), f));
                shown += 1;
                if shown >= 8 {
                    println!("(more matches elided)");
                    break;
                }
            }
        }
        if shown == 0 {
            return Err(format!("no function matching `{pattern}`").into());
        }
    }
    Ok(())
}

/// `literace trace …`
pub fn trace(args: &[String]) -> ExitCode {
    match trace_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn trace_inner(args: &[String]) -> Result<(), CliError> {
    use literace::sim::{
        lower, ChunkedRandomScheduler, Event, Machine, MachineConfig, Observer,
    };
    let flags = crate::args::Flags::parse(args)?;
    if let Some(path) = flags.get("in") {
        // Summary mode: validate a --trace-out file with the strict
        // trace-event parser and print the per-track attribution table.
        let top: usize = flags.get_parsed("top", 10)?;
        let text =
            std::fs::read_to_string(path).map_err(CliError::io("cannot read", path))?;
        let summary = literace::telemetry::validate_chrome_trace(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        print!("{}", literace::telemetry::render_trace_summary(&summary, top));
        return Ok(());
    }
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let limit: usize = flags.get_parsed("limit", 40)?;
    let w = build(id, scale);
    let compiled = lower(&w.program);

    struct Tracer<'p> {
        program: &'p literace::sim::Program,
        remaining: usize,
    }
    impl Observer for Tracer<'_> {
        fn on_event(&mut self, event: &Event) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let fname = |f: literace::sim::FuncId| self.program.function(f).name.clone();
            let line = match *event {
                Event::ThreadStart { tid, parent, func } => match parent {
                    Some(p) => format!("{tid} starts (spawned by {p}) in {}", fname(func)),
                    None => format!("{tid} starts in {}", fname(func)),
                },
                Event::ThreadExit { tid } => format!("{tid} exits"),
                Event::FunctionEntry { tid, func } => {
                    format!("{tid} enters {}", fname(func))
                }
                Event::FunctionExit { tid, func } => {
                    format!("{tid} leaves {}", fname(func))
                }
                Event::LoopIter { tid, head, .. } => {
                    format!("{tid} loop iteration at {head}")
                }
                Event::MemRead { tid, pc, addr } => format!("{tid} read  {addr} @ {pc}"),
                Event::MemWrite { tid, pc, addr } => format!("{tid} write {addr} @ {pc}"),
                Event::Sync { tid, kind, var, .. } => {
                    format!("{tid} sync  {kind:?} on {var}")
                }
                Event::Alloc { tid, base, words, .. } => {
                    format!("{tid} alloc {words} words at {base}")
                }
                Event::Free { tid, base, .. } => format!("{tid} free  {base}"),
            };
            println!("{line}");
        }
    }
    let mut tracer = Tracer {
        program: &w.program,
        remaining: limit,
    };
    Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 64), &mut tracer)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// `literace log-stats …`
pub fn log_stats(args: &[String]) -> ExitCode {
    match log_stats_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn log_stats_inner(args: &[String]) -> Result<(), CliError> {
    let flags = crate::args::Flags::parse_with_switches(args, &["salvage"])?;
    let path = flags.require("log")?;
    let decode_opts = parse_decode_opts(&flags, 0)?;
    let telemetry = Telemetry::from_flags(&flags);
    let on_disk = std::fs::metadata(path)
        .map_err(CliError::io("cannot open", path))?
        .len();
    let file = File::open(path).map_err(CliError::io("cannot open", path))?;
    let (format, seal, log, salvage_note) = if flags.is_set("salvage") {
        // The reader detect --salvage uses: the same report at every
        // --decode-threads.
        let (blocks, handle) = RecordStream::spawn_salvage_with(file, decode_opts)
            .map_err(|e| format!("read {path}: {e}"))?;
        let mut log = EventLog::new();
        for block in blocks {
            log.extend(block.map_err(|e| format!("read {path}: {e}"))?);
        }
        let sreport = handle.report();
        let format = sreport
            .format
            .map_or_else(|| "unknown".to_owned(), |f| f.to_string());
        (format, sreport.seal, log, Some(sreport.to_string()))
    } else {
        drop(file);
        let mut blocks = spawn_log_stream(path, decode_opts)?;
        let format = blocks.format();
        let mut log = EventLog::new();
        for block in blocks.by_ref() {
            log.extend(block.map_err(|e| format!("read {path}: {e}"))?);
        }
        (format.to_string(), blocks.seal_state(), log, None)
    };
    let stats = LogStats::of(&log);
    let per_thread = LogStats::per_thread(&log);
    if literace::telemetry::enabled() {
        let m = literace::telemetry::metrics();
        for (i, t) in per_thread.iter().enumerate() {
            m.log_records_by_thread.add(i, t.records);
        }
    }
    println!("{path}:");
    println!("  format           : {format}");
    println!("  finalized        : {seal}");
    println!("  records          : {}", stats.records);
    println!("  memory accesses  : {}", stats.mem_records);
    println!("  synchronization  : {}", stats.sync_records);
    println!("  thread markers   : {}", stats.marker_records);
    println!("  on-disk size     : {on_disk} bytes");
    println!("  size as v1       : {} bytes", stats.bytes);
    if let Some(note) = salvage_note {
        println!("  salvage          : {note}");
    }
    if !per_thread.is_empty() {
        let mut t = Table::new(
            "per-thread breakdown",
            &["thread", "records", "memory", "sync", "markers"],
        );
        for (i, s) in per_thread.iter().enumerate() {
            t.row(vec![
                format!("t{i}"),
                s.records.to_string(),
                s.mem_records.to_string(),
                s.sync_records.to_string(),
                s.marker_records.to_string(),
            ]);
        }
        println!();
        println!("{t}");
    }
    telemetry.finish()?;
    Ok(())
}

/// `literace metrics …`
pub fn metrics_cmd(args: &[String]) -> ExitCode {
    match metrics_inner(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn metrics_inner(args: &[String]) -> Result<(), CliError> {
    let flags = crate::args::Flags::parse_with_switches(args, &["validate"])?;
    let snap = match flags.get("in") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(CliError::io("cannot read", path))?;
            literace::telemetry::Snapshot::from_json(&text)
                .map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            // No snapshot file: run the named workload's pipeline with
            // telemetry on and export the fresh registry.
            let id = parse_workload(flags.get("workload").unwrap_or("lflist"))?;
            let scale = parse_scale(&flags)?;
            let seed: u64 = flags.get_parsed("seed", 1)?;
            let threads: usize = flags.get_parsed("threads", 1)?;
            if threads == 0 {
                return Err("--threads must be at least 1".into());
            }
            literace::telemetry::set_enabled(true);
            let w = build(id, scale);
            let mut cfg = RunConfig::seeded(seed);
            cfg.detect_threads = threads;
            run_literace(&w.program, SamplerKind::TlAdaptive, &cfg)
                .map_err(|e| e.to_string())?;
            literace::telemetry::metrics().snapshot()
        }
    };
    if flags.is_set("validate") {
        let missing = snap.missing_required();
        if !missing.is_empty() {
            return Err(format!(
                "snapshot is missing required metrics: {}",
                missing.join(", ")
            )
            .into());
        }
        eprintln!(
            "snapshot valid: schema v{}, all required metrics present",
            literace::telemetry::SCHEMA_VERSION
        );
    }
    let text = match flags.get("format") {
        None | Some("json") => snap.to_json(),
        Some("prom" | "prometheus") => snap.to_prometheus(),
        Some(other) => {
            return Err(format!("--format expects json|prom, got `{other}`").into())
        }
    };
    match flags.get("out") {
        None => print!("{text}"),
        Some(path) => {
            std::fs::write(path, &text).map_err(CliError::io("cannot write", path))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Flags;

    #[test]
    fn workload_names_resolve() {
        assert_eq!(parse_workload("dryad").unwrap(), WorkloadId::Dryad);
        assert_eq!(parse_workload("FF-RENDER").unwrap(), WorkloadId::FirefoxRender);
        assert!(parse_workload("nope").is_err());
    }

    #[test]
    fn scale_parsing_defaults_to_smoke() {
        let f = Flags::parse(&[]).unwrap();
        assert_eq!(parse_scale(&f).unwrap(), Scale::Smoke);
        let f = Flags::parse(&["--scale".into(), "paper".into()]).unwrap();
        assert_eq!(parse_scale(&f).unwrap(), Scale::Paper);
        let f = Flags::parse(&["--scale".into(), "huge".into()]).unwrap();
        assert!(parse_scale(&f).is_err());
    }

    #[test]
    fn sampler_names_resolve_for_every_kind() {
        // Default is the paper's shipped sampler.
        assert_eq!(resolve_sampler(None).unwrap(), SamplerKind::TlAdaptive);
        for kind in SamplerKind::all() {
            assert_eq!(resolve_sampler(Some(kind.short_name())).unwrap(), kind);
            let lower = kind.short_name().to_ascii_lowercase();
            assert_eq!(resolve_sampler(Some(&lower)).unwrap(), kind);
        }
    }

    #[test]
    fn unknown_sampler_is_a_typed_error_listing_the_options() {
        let err = resolve_sampler(Some("nope")).unwrap_err();
        let msg = match &err {
            CliError::Msg(msg) => msg,
            other => panic!("expected CliError::Msg, got {other:?}"),
        };
        assert!(msg.contains("unknown sampler `nope`"), "{msg}");
        // Every legal name is offered back to the user.
        for kind in SamplerKind::all() {
            assert!(msg.contains(kind.short_name()), "{msg} missing {kind}");
        }
    }

    #[test]
    fn prefilter_stats_run_smoke() {
        let args: Vec<String> = [
            "--workload", "apache-1", "--sampler", "prefiltered",
            "--prefilter-stats", "--seed", "2",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        assert_eq!(run(&args), std::process::ExitCode::SUCCESS);
    }

    #[test]
    fn run_command_smoke() {
        // Drive the command function end to end on the smallest workload.
        let args: Vec<String> = ["--workload", "lflist", "--seed", "2"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        assert_eq!(run(&args), std::process::ExitCode::SUCCESS);
    }

    #[test]
    fn encode_opts_parse_and_validate() {
        let f = Flags::parse(&[]).unwrap();
        assert_eq!(parse_encode_opts(&f).unwrap(), EncodeOpts::default());
        let f = Flags::parse(&["--encode-threads".into(), "3".into()]).unwrap();
        let opts = parse_encode_opts(&f).unwrap();
        assert_eq!(opts.threads, 3);
        let f = Flags::parse(&["--encode-threads".into(), "auto".into()]).unwrap();
        assert!(parse_encode_opts(&f).unwrap().threads >= 1);
        let f = Flags::parse(&["--block-records".into(), "512".into()]).unwrap();
        let opts = parse_encode_opts(&f).unwrap();
        assert_eq!((opts.threads, opts.block_records), (0, 512));
        let f = Flags::parse(&["--encode-threads".into(), "0".into()]).unwrap();
        assert!(parse_encode_opts(&f).is_err());
        let f = Flags::parse(&["--block-records".into(), "x".into()]).unwrap();
        assert!(parse_encode_opts(&f).is_err());
    }

    #[test]
    fn pipelined_run_round_trips_and_sweeps_stale_partials() {
        let dir = std::env::temp_dir();
        let path = dir.join("literace_cli_pipelined_test.lrlog");
        let path_s = path.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        // A stale partial from a "crashed" previous run must be swept.
        let stale = dir.join("literace_cli_pipelined_test.lrlog.partial");
        std::fs::write(&stale, b"torn").unwrap();
        let run_args = sv(&[
            "--workload", "lflist", "--seed", "2", "--streaming",
            "--log", &path_s, "--encode-threads", "2", "--block-records", "256",
        ]);
        assert_eq!(run(&run_args), std::process::ExitCode::SUCCESS);
        assert!(!stale.exists(), "stale partial must be swept on run --log");
        // The pipelined log re-detects like any other v2 log.
        let detect_args = sv(&["--log", &path_s, "--non-stack", "100"]);
        assert_eq!(detect(&detect_args), std::process::ExitCode::SUCCESS);
        // Also exercised without --streaming (materialize, then encode).
        let run_args = sv(&[
            "--workload", "lflist", "--seed", "2",
            "--log", &path_s, "--encode-threads", "2",
        ]);
        assert_eq!(run(&run_args), std::process::ExitCode::SUCCESS);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pipelined_encode_rejects_v1_and_requires_log() {
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let no_log = sv(&["--workload", "lflist", "--encode-threads", "2"]);
        assert_eq!(run(&no_log), std::process::ExitCode::FAILURE);
        let dir = std::env::temp_dir();
        let path = dir.join("literace_cli_pipelined_v1_reject.lrlog");
        let path_s = path.to_str().unwrap().to_string();
        let v1 = sv(&[
            "--workload", "lflist", "--log", &path_s,
            "--format", "v1", "--encode-threads", "2",
        ]);
        assert_eq!(run(&v1), std::process::ExitCode::FAILURE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn detect_command_round_trips_with_threads() {
        // run --log writes an event log; detect --threads re-detects it
        // with the sharded detector. Both must succeed.
        let dir = std::env::temp_dir();
        let path = dir.join("literace_cli_detect_test.lrlog");
        let path_s = path.to_str().unwrap().to_string();
        let run_args: Vec<String> =
            ["--workload", "lflist", "--seed", "2", "--log", &path_s]
                .iter()
                .map(|s| (*s).to_string())
                .collect();
        assert_eq!(run(&run_args), std::process::ExitCode::SUCCESS);
        for threads in ["1", "4"] {
            let detect_args: Vec<String> =
                ["--log", &path_s, "--threads", threads, "--non-stack", "100"]
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect();
            assert_eq!(detect(&detect_args), std::process::ExitCode::SUCCESS);
        }
        let bad_args: Vec<String> =
            ["--log", &path_s, "--threads", "2", "--detector", "lockset"]
                .iter()
                .map(|s| (*s).to_string())
                .collect();
        assert_eq!(detect(&bad_args), std::process::ExitCode::FAILURE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_format_and_streaming_round_trip() {
        // run --format v1 writes the legacy format; run --streaming --log
        // writes v2 without materializing; detect handles both, with and
        // without --streaming (formats are auto-detected).
        let dir = std::env::temp_dir();
        let v1 = dir.join("literace_cli_v1_test.lrlog");
        let v2 = dir.join("literace_cli_v2_stream_test.lrlog");
        let v1_s = v1.to_str().unwrap().to_string();
        let v2_s = v2.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let run_v1 = sv(&[
            "--workload", "lflist", "--seed", "2", "--format", "v1", "--log", &v1_s,
        ]);
        assert_eq!(run(&run_v1), std::process::ExitCode::SUCCESS);
        let run_v2 = sv(&[
            "--workload", "lflist", "--seed", "2", "--streaming", "--threads", "2",
            "--log", &v2_s,
        ]);
        assert_eq!(run(&run_v2), std::process::ExitCode::SUCCESS);
        // v2 must be the smaller encoding of the identical record stream.
        let (v1_len, v2_len) = (
            std::fs::metadata(&v1).unwrap().len(),
            std::fs::metadata(&v2).unwrap().len(),
        );
        assert!(v2_len < v1_len, "v2 {v2_len} bytes vs v1 {v1_len} bytes");
        for path in [&v1_s, &v2_s] {
            assert_eq!(
                detect(&sv(&["--log", path, "--threads", "2"])),
                std::process::ExitCode::SUCCESS
            );
            assert_eq!(
                detect(&sv(&["--log", path, "--streaming", "--threads", "2"])),
                std::process::ExitCode::SUCCESS
            );
            assert_eq!(
                log_stats(&sv(&["--log", path])),
                std::process::ExitCode::SUCCESS
            );
        }
        assert_eq!(
            detect(&sv(&["--log", &v2_s, "--streaming", "--detector", "lockset"])),
            std::process::ExitCode::FAILURE
        );
        let bad_format = sv(&["--workload", "lflist", "--format", "v3"]);
        assert_eq!(run(&bad_format), std::process::ExitCode::FAILURE);
        let _ = std::fs::remove_file(&v1);
        let _ = std::fs::remove_file(&v2);
    }

    #[test]
    fn streaming_run_without_log_uses_in_memory_blocks() {
        let args: Vec<String> =
            ["--workload", "lflist", "--seed", "2", "--streaming", "--threads", "2"]
                .iter()
                .map(|s| (*s).to_string())
                .collect();
        assert_eq!(run(&args), std::process::ExitCode::SUCCESS);
    }

    #[test]
    fn metrics_command_exports_and_validates() {
        let dir = std::env::temp_dir();
        let path = dir.join("literace_cli_metrics_test.json");
        let path_s = path.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let export = sv(&[
            "--workload", "lflist", "--seed", "2", "--threads", "2", "--validate",
            "--out", &path_s,
        ]);
        assert_eq!(metrics_cmd(&export), std::process::ExitCode::SUCCESS);
        // The written snapshot re-exports as Prometheus text and validates.
        let reexport = sv(&["--in", &path_s, "--format", "prom", "--validate"]);
        assert_eq!(metrics_cmd(&reexport), std::process::ExitCode::SUCCESS);
        let bad_file = sv(&["--in", "/nonexistent/never.json"]);
        assert_eq!(metrics_cmd(&bad_file), std::process::ExitCode::FAILURE);
        let bad_format = sv(&["--workload", "lflist", "--format", "xml"]);
        assert_eq!(metrics_cmd(&bad_format), std::process::ExitCode::FAILURE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_with_metrics_out_writes_a_valid_snapshot() {
        let dir = std::env::temp_dir();
        let log = dir.join("literace_cli_metrics_run.lrlog");
        let json = dir.join("literace_cli_metrics_run.json");
        let log_s = log.to_str().unwrap().to_string();
        let json_s = json.to_str().unwrap().to_string();
        let args: Vec<String> = [
            "--workload", "lflist", "--seed", "2", "--streaming", "--threads", "2",
            "--log", &log_s, "--metrics-out", &json_s,
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        assert_eq!(run(&args), std::process::ExitCode::SUCCESS);
        let text = std::fs::read_to_string(&json).unwrap();
        let snap = literace::telemetry::Snapshot::from_json(&text).unwrap();
        assert_eq!(snap.missing_required(), Vec::<&str>::new());
        let _ = std::fs::remove_file(&log);
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn salvage_flag_recovers_a_truncated_log() {
        // Write a clean v2 log, truncate a copy mid-stream: plain detect
        // and log-stats must fail on the torn file, --salvage must
        // succeed on it (materialized and streaming), and the intact
        // original must still detect cleanly.
        let dir = std::env::temp_dir();
        let clean = dir.join("literace_cli_salvage_clean.lrlog");
        let torn = dir.join("literace_cli_salvage_torn.lrlog");
        let clean_s = clean.to_str().unwrap().to_string();
        let torn_s = torn.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let run_args = sv(&["--workload", "lflist", "--seed", "2", "--log", &clean_s]);
        assert_eq!(run(&run_args), std::process::ExitCode::SUCCESS);
        let bytes = std::fs::read(&clean).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() * 2 / 3]).unwrap();

        assert_eq!(
            detect(&sv(&["--log", &torn_s])),
            std::process::ExitCode::FAILURE,
            "a torn log must fail without --salvage"
        );
        assert_eq!(
            log_stats(&sv(&["--log", &torn_s])),
            std::process::ExitCode::FAILURE
        );
        assert_eq!(
            detect(&sv(&["--log", &torn_s, "--salvage"])),
            std::process::ExitCode::SUCCESS
        );
        assert_eq!(
            detect(&sv(&["--log", &torn_s, "--salvage", "--streaming", "--threads", "2"])),
            std::process::ExitCode::SUCCESS
        );
        assert_eq!(
            log_stats(&sv(&["--log", &torn_s, "--salvage"])),
            std::process::ExitCode::SUCCESS
        );
        // The atomically committed original is sealed and clean.
        assert_eq!(
            detect(&sv(&["--log", &clean_s, "--salvage"])),
            std::process::ExitCode::SUCCESS
        );
        assert!(
            !dir.join("literace_cli_salvage_clean.lrlog.partial").exists(),
            "temp file must be renamed away on commit"
        );
        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&torn);
    }

    #[test]
    fn decode_pool_flags_cover_every_reader() {
        // --decode-threads ≥ 2 routes detect, log-stats, and salvage
        // through the parallel pool; --no-streaming forces the
        // materialized path; conflicting or malformed flags fail.
        let dir = std::env::temp_dir();
        let clean = dir.join("literace_cli_pool_clean.lrlog");
        let torn = dir.join("literace_cli_pool_torn.lrlog");
        let clean_s = clean.to_str().unwrap().to_string();
        let torn_s = torn.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let run_args = sv(&["--workload", "lflist", "--seed", "2", "--log", &clean_s]);
        assert_eq!(run(&run_args), std::process::ExitCode::SUCCESS);
        let bytes = std::fs::read(&clean).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() * 2 / 3]).unwrap();

        for extra in [
            &["--decode-threads", "2"][..],
            &["--decode-threads", "4", "--stream-depth", "3"][..],
            &["--decode-threads", "auto"][..],
            &["--no-streaming"][..],
        ] {
            let mut args = sv(&["--log", &clean_s]);
            args.extend(sv(extra));
            assert_eq!(detect(&args), std::process::ExitCode::SUCCESS, "{extra:?}");
        }
        assert_eq!(
            log_stats(&sv(&["--log", &clean_s, "--decode-threads", "2"])),
            std::process::ExitCode::SUCCESS
        );
        assert_eq!(
            log_stats(&sv(&["--log", &torn_s, "--salvage", "--decode-threads", "2"])),
            std::process::ExitCode::SUCCESS
        );
        assert_eq!(
            detect(&sv(&["--log", &torn_s, "--salvage", "--decode-threads", "2"])),
            std::process::ExitCode::SUCCESS
        );
        // A torn log still fails strict decode through the pool.
        assert_eq!(
            detect(&sv(&["--log", &torn_s, "--decode-threads", "2"])),
            std::process::ExitCode::FAILURE
        );
        for bad in [
            &["--log", &clean_s, "--streaming", "--no-streaming"][..],
            &["--log", &clean_s, "--decode-threads", "0"][..],
            &["--log", &clean_s, "--decode-threads", "many"][..],
            &["--log", &clean_s, "--stream-depth", "0"][..],
        ] {
            assert_eq!(detect(&sv(bad)), std::process::ExitCode::FAILURE, "{bad:?}");
        }
        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&torn);
    }

    #[test]
    fn checkpoint_round_trip_through_the_cli() {
        // detect --checkpoint-out seals resumable state; checkpoint --in
        // inspects it; detect --resume-from continues from it on the
        // sequential, sharded, and streaming paths. A stale .partial from
        // a crashed save is swept, and a torn checkpoint fails cleanly.
        let dir = std::env::temp_dir();
        let log = dir.join("literace_cli_checkpoint_test.lrlog");
        let state = dir.join("literace_cli_checkpoint_test.lrcp");
        let log_s = log.to_str().unwrap().to_string();
        let state_s = state.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let run_args = sv(&["--workload", "lflist", "--seed", "2", "--log", &log_s]);
        assert_eq!(run(&run_args), std::process::ExitCode::SUCCESS);
        // A stale partial from a "crashed" previous save must be swept.
        let stale = dir.join("literace_cli_checkpoint_test.lrcp.partial");
        std::fs::write(&stale, b"torn").unwrap();
        let save_args = sv(&[
            "--log", &log_s, "--non-stack", "100",
            "--checkpoint-out", &state_s, "--checkpoint-every", "2",
        ]);
        assert_eq!(detect(&save_args), std::process::ExitCode::SUCCESS);
        assert!(!stale.exists(), "stale partial must be swept before saving");
        assert!(state.exists(), "final state must be sealed at end of stream");
        assert_eq!(
            checkpoint(&sv(&["--in", &state_s])),
            std::process::ExitCode::SUCCESS
        );
        // The final checkpoint covers the whole log: resuming it against
        // the same log's remaining records (none, when detect re-reads the
        // full file the resume driver skips nothing — so resume against
        // the full log is only valid for a mid-stream checkpoint; here we
        // simply check the resume plumbing succeeds at every shard count).
        for threads in ["1", "4"] {
            let resume_args = sv(&[
                "--log", &log_s, "--non-stack", "100", "--threads", threads,
                "--resume-from", &state_s,
            ]);
            assert_eq!(detect(&resume_args), std::process::ExitCode::SUCCESS);
            let materialized = sv(&[
                "--log", &log_s, "--non-stack", "100", "--threads", threads,
                "--no-streaming", "--resume-from", &state_s,
            ]);
            assert_eq!(detect(&materialized), std::process::ExitCode::SUCCESS);
        }
        // A torn checkpoint is a typed failure for both consumers.
        let bytes = std::fs::read(&state).unwrap();
        std::fs::write(&state, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(
            checkpoint(&sv(&["--in", &state_s])),
            std::process::ExitCode::FAILURE
        );
        assert_eq!(
            detect(&sv(&["--log", &log_s, "--resume-from", &state_s])),
            std::process::ExitCode::FAILURE
        );
        let _ = std::fs::remove_file(&log);
        let _ = std::fs::remove_file(&state);
    }

    #[test]
    fn checkpoint_flags_validate() {
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        // --checkpoint-every without --checkpoint-out.
        assert_eq!(
            detect(&sv(&["--log", "x.lrlog", "--checkpoint-every", "4"])),
            std::process::ExitCode::FAILURE
        );
        // Checkpointing is sequential-core only.
        assert_eq!(
            detect(&sv(&[
                "--log", "x.lrlog", "--checkpoint-out", "x.lrcp", "--threads", "2",
            ])),
            std::process::ExitCode::FAILURE
        );
        // Only the hb detector has resumable state.
        assert_eq!(
            detect(&sv(&[
                "--log", "x.lrlog", "--detector", "lockset", "--resume-from", "x.lrcp",
            ])),
            std::process::ExitCode::FAILURE
        );
        assert_eq!(
            checkpoint(&sv(&["--in", "/nonexistent/never.lrcp"])),
            std::process::ExitCode::FAILURE
        );
    }

    #[test]
    fn detect_command_reports_missing_file() {
        let args: Vec<String> = ["--log", "/nonexistent/xyz.lrlog"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        assert_eq!(detect(&args), std::process::ExitCode::FAILURE);
    }

    #[test]
    fn inspect_command_smoke() {
        let args: Vec<String> = ["--workload", "lkrhash", "--function", "hash_op"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        assert_eq!(inspect(&args), std::process::ExitCode::SUCCESS);
    }
}
