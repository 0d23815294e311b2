//! Command implementations.

use std::fs::File;
use std::io::Write;
use std::process::ExitCode;

use literace::detector::detect_stream;
use literace::eval::{evaluate_program, EvalConfig};
use literace::log::{
    auto_stream_depth, AtomicFile, DecodeOpts, EncodeOpts, LogFormat, LogStats, LogWriter,
    LogWriterV2, RecordStream, SalvageHandle,
};
use literace::overhead::measure_overhead;
use literace::pipeline::detect_phase;
use literace::prelude::*;
use literace::tables::{mb_s, pct, slowdown, Table};
use literace::workloads::WorkloadId;

use crate::args::{Flags, Spec};
use crate::error::CliError;
use crate::telemetry::Telemetry;

/// Top-level usage text.
const USAGE: &str = "\
literace — sampling-based data-race detection (LiteRace, PLDI 2009)

USAGE:
  literace workloads
      List the benchmark workloads.

  literace run --workload <name> [--sampler tl-ad] [--seed 1]
               [--scale smoke|paper] [--log <file>] [--format v1|v2]
               [--threads N] [--decode-threads N|auto]
               [--encode-threads N|auto] [--suppress pat1,pat2]
               [--prefilter] [--prefilter-stats]
               [--metrics-out <file>] [--trace-out <file>] [--progress]
      Instrument, execute, and detect. Optionally write the event log
      (compact v2 blocks by default; --format v1 for the legacy
      fixed-width format) and suppress races in functions matching the
      given name patterns. With --log, records stream to disk as the
      program runs (the log is never materialized in memory) and
      detection streams the file back through the decode pool
      (--decode-threads as under `detect`); without --log, detection
      runs over the run's in-memory log. --threads N shards detection
      across N workers as under `detect`.
      --encode-threads N moves v2 encoding off the run's hot path: the
      run only appends raw records and N background workers encode the
      blocks (4096 records each). It needs --log and v2; the file's
      bytes never depend on it. A stale <file>.partial left by a
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
                  [--non-stack <count>] [--threads N]
                  [--decode-threads N|auto] [--salvage]
                  [--resume-from <state.lrcp>]
                  [--checkpoint-out <state.lrcp>] [--checkpoint-every N]
                  [--metrics-out <file>] [--trace-out <file>]
                  [--progress]
      Run offline detection over a previously written event log (v1 or
      v2; the format is auto-detected). Every detector streams: decoded
      blocks flow straight from the decode pool into the detector and
      the log is never materialized. With --threads N ≥ 2, the hb
      detector shards accesses across N workers (byte-identical output;
      N above 64 runs 64 shards). --decode-threads sizes the
      block-decode pool (auto: one worker per core; ≥ 2 decodes v2
      blocks out of order and reassembles in sequence, byte-identical
      output).
      With --salvage, a torn or corrupted log is decoded best-effort:
      corrupt blocks are skipped where provably safe (no sync records
      lost), the rest is dropped, and the damage tally is printed — a
      salvaged log can never report a race the clean log would not.
      --checkpoint-out seals the hb detector's full state into a
      checkpoint file: every N input blocks with --checkpoint-every, and
      always once at end of stream, at any --threads (every shard count
      writes the same bytes unless one race pair passes 2^20 distinct
      addresses; a stale <state>.partial left by a crashed save is swept
      first).
      --resume-from loads a checkpoint and continues detection over
      --log, which must hold only the records *after* the checkpointed
      position: an empty log for a checkpoint sealed at end of stream,
      or the next segment of a segmented log. The report is then
      byte-identical to one-shot detection over the whole stream, at
      any --threads. A --log that repeats the checkpointed records
      counts them twice.
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
      race set is byte-identical to `run`/`detect` on the same input;
      --log streams the log as `detect` does.

  literace metrics [--in <metrics.json> | --workload <name> [--seed 1]
                   [--scale smoke|paper] [--threads N]]
                   [--format json|prom] [--out <file>] [--validate]
      Export the telemetry registry. With --in, re-export a previously
      written snapshot; otherwise run the workload's pipeline with
      telemetry on and export the fresh snapshot. --format prom emits
      Prometheus text; --validate fails unless the snapshot carries
      every required pipeline metric.

  literace log-stats --log <file> [--salvage] [--decode-threads N|auto]
                     [--metrics-out <file>] [--trace-out <file>]
      Print log composition, per-thread breakdown, encoded size and
      whether the log was cleanly finalized (either format), counted
      record by record as the log streams. With --salvage, read a
      damaged log best-effort and include the salvage summary.
      --decode-threads ≥ 2 reads v2 logs through the parallel decode
      pool (identical output, including the salvage summary).

  literace checkpoint --in <state.lrcp>
      Validate and describe a detector checkpoint written by
      `detect --checkpoint-out`: records processed, threads (retired
      counts every thread known to have ended, also one that ended
      before any record of its own), sync variables (every variable a
      sync record named), tracked locations, accumulated races, and the
      configuration it was taken under. A torn or tampered checkpoint
      fails with the exact corruption, never a partial printout; one
      written in an older format version fails naming that version.

  literace inspect --workload <name> [--scale smoke|paper]
                   [--function <substring>]
      Show a workload's structure; with --function, disassemble matching
      functions (offsets match race-report program counters).

  literace trace --workload <name> [--limit 40] [--seed 1]
                 [--scale smoke|paper]
      Print the first events of an execution, human-readably.

  literace trace --in <trace.json> [--top 10]
      Validate a --trace-out file and print a summary: per-track
      wall-clock attribution, the longest spans, and stall/race instants.

Every command refuses a flag it does not list above.
";

/// Writes a command's output to `out`, the process's one stdout writer
/// (tests hand in their own). A failed write is a [`CliError::Stdout`]
/// that the command returns, not a panic.
macro_rules! out {
    ($out:expr, $($arg:tt)*) => {
        write!($out, $($arg)*).map_err(CliError::Stdout)?
    };
}

/// [`out!`] with a trailing newline.
macro_rules! outln {
    ($out:expr) => {
        writeln!($out).map_err(CliError::Stdout)?
    };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(CliError::Stdout)?
    };
}

/// `literace help`
pub fn usage(out: &mut dyn Write) -> Result<(), CliError> {
    out!(out, "{USAGE}");
    Ok(())
}

/// A command's exit status. Success flushes stdout first. A closed stdout
/// (`literace … | head`) ends the command quietly with status 0; any
/// other failure is reported on stderr with status 1.
pub fn exit_code(result: Result<(), CliError>, out: &mut dyn Write) -> ExitCode {
    match result.and_then(|()| out.flush().map_err(CliError::Stdout)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
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

fn parse_scale(flags: &Flags) -> Result<Scale, String> {
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

fn parse_format(flags: &Flags) -> Result<LogFormat, String> {
    match flags.get("format") {
        None => Ok(LogFormat::V2),
        Some(name) => LogFormat::from_name(name)
            .ok_or_else(|| format!("--format expects v1|v2, got `{name}`")),
    }
}

/// Parses `--decode-threads` (default `auto`: one worker per available
/// core) into the [`DecodeOpts`] handed to the log readers, with the
/// channel depth auto-sized from the decode and detect thread counts.
/// With 2+ decode threads, v2 block payloads decode on a parallel
/// out-of-order worker pool; delivery order and every report stay
/// byte-identical to one decode thread.
fn parse_decode_opts(flags: &Flags, detect_threads: usize) -> Result<DecodeOpts, String> {
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
    Ok(opts.depth(auto_stream_depth(opts.threads, detect_threads)))
}

/// Parses `--encode-threads` (N or `auto`) into the v2 writer's
/// [`EncodeOpts`]. Without it the writer encodes on the producing thread
/// (0 workers).
fn parse_encode_opts(flags: &Flags) -> Result<EncodeOpts, String> {
    match flags.get("encode-threads") {
        None => Ok(EncodeOpts::default()),
        Some("auto") => Ok(EncodeOpts::auto()),
        Some(v) => {
            let threads: usize = v
                .parse()
                .map_err(|_| format!("flag --encode-threads: cannot parse `{v}`"))?;
            if threads == 0 {
                return Err("--encode-threads must be at least 1 (or `auto`)".into());
            }
            Ok(EncodeOpts::with_threads(threads))
        }
    }
}

/// Opens the log at `path` as one [`RecordStream`], strict or (with
/// `salvage`) best-effort. Either way the file is streamed, so a read
/// holds one decode channel of blocks, never the whole file. The salvage
/// handle's report is final once the stream is exhausted.
fn open_log(
    path: &str,
    salvage: bool,
    opts: DecodeOpts,
) -> Result<(RecordStream, Option<SalvageHandle>), CliError> {
    let file = File::open(path).map_err(CliError::io("cannot open", path))?;
    let read_err = |e| format!("read {path}: {e}");
    if salvage {
        let (stream, handle) = RecordStream::spawn_salvage_with(file, opts).map_err(read_err)?;
        return Ok((stream, Some(handle)));
    }
    let stream = RecordStream::spawn_with(file, opts).map_err(read_err)?;
    Ok((stream, None))
}

/// Feeds every record of `stream` to `consume`, block by block, and
/// fails at the first read error.
fn for_each_record(
    stream: &mut RecordStream,
    path: &str,
    mut consume: impl FnMut(&Record),
) -> Result<(), CliError> {
    for block in stream {
        block
            .map_err(|e| format!("read {path}: {e}"))?
            .iter()
            .for_each(&mut consume);
    }
    Ok(())
}

const WORKLOADS: Spec = Spec {
    values: &[],
    switches: &[],
};

/// `literace workloads`
pub fn workloads(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    Flags::parse(args, &WORKLOADS)?;
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
    outln!(out, "{t}");
    Ok(())
}

const RUN: Spec = Spec {
    values: &[
        "workload", "sampler", "seed", "scale", "log", "format", "threads", "decode-threads",
        "encode-threads", "suppress", "metrics-out", "trace-out",
    ],
    switches: &["progress", "prefilter", "prefilter-stats"],
};

/// `literace run …`
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &RUN)?;
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let threads: usize = flags.get_parsed("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let decode_opts = parse_decode_opts(&flags, threads)?;
    let format = parse_format(&flags)?;
    let encode_opts = parse_encode_opts(&flags)?;
    if flags.get("encode-threads").is_some() {
        if flags.get("log").is_none() {
            return Err("--encode-threads requires --log".into());
        }
        if matches!(format, LogFormat::V1) {
            return Err("--encode-threads shapes v2 logs only (drop --format v1)".into());
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

    // --prefilter forces the static ordering skip table with any sampler;
    // --prefilter-stats implies it, since the runtime counters only move
    // with a table installed. Building it here keeps the static
    // classification around for the stats printout. Otherwise the
    // pipeline installs one exactly when the sampler needs it.
    let prefilter_static = if flags.is_set("prefilter") || flags.is_set("prefilter-stats") {
        let table = literace::sim::PrefilterTable::build(&literace::sim::lower(&w.program));
        let stats = *table.stats();
        let bytes = table.table_bytes();
        cfg.instrument.prefilter = Some(table);
        Some((stats, bytes))
    } else {
        None
    };

    let (summary, stats, overhead, report, log_note) = if let Some(path) = flags.get("log") {
        // Records stream to disk in encoded blocks as the program runs,
        // then the file streams back through the detector. The decoded
        // log never sits in memory, and the file only appears at `path`
        // after a clean finish.
        let file = AtomicFile::create(path).map_err(CliError::io("cannot create", path))?;
        let write_err = |e| format!("write {path}: {e}");
        let (summary, stats, overhead, written, file) = match format {
            LogFormat::V2 => {
                let sink = LogWriterV2::with_opts(file, encode_opts).map_err(write_err)?;
                let (summary, out) = run_literace_with_sink(&w.program, sampler, &cfg, sink)
                    .map_err(|e| e.to_string())?;
                let written = out.log.records_written();
                let file = out.log.finish().map_err(write_err)?;
                (summary, out.stats, out.overhead, written, file)
            }
            LogFormat::V1 => {
                let sink = LogWriter::new(file);
                let (summary, out) = run_literace_with_sink(&w.program, sampler, &cfg, sink)
                    .map_err(|e| e.to_string())?;
                let written = out.log.records_written();
                let file = out.log.finish().map_err(write_err)?;
                (summary, out.stats, out.overhead, written, file)
            }
        };
        file.commit().map_err(CliError::io("cannot finalize", path))?;
        let non_stack = summary.non_stack_accesses;
        let report = detect_phase(|| -> Result<_, CliError> {
            let (blocks, _) = open_log(path, false, decode_opts)?;
            Ok(detect_stream(blocks, non_stack, &cfg.detect_config())
                .map_err(|e| format!("read {path}: {e}"))?)
        })?;
        let note = format!("wrote {written} records to {path} ({format} format)");
        (summary, stats, overhead, report, Some((note, non_stack, path)))
    } else {
        let outcome = run_literace(&w.program, sampler, &cfg).map_err(|e| e.to_string())?;
        (
            outcome.summary,
            outcome.instrumented.stats,
            outcome.instrumented.overhead,
            outcome.report,
            None,
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

    outln!(out, "workload           : {} ({:?} scale, seed {seed})", id, scale);
    outln!(out, "sampler            : {}", sampler.short_name());
    outln!(out, 
        "memory accesses    : {} executed, {} logged (ESR {})",
        stats.total_mem,
        stats.logged_mem,
        pct(stats.esr()),
    );
    outln!(out, "sync records       : {}", stats.sync_records);
    if flags.is_set("prefilter-stats") {
        if let Some((ps, bytes)) = prefilter_static {
            outln!(out, 
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
            outln!(out, 
                "prefilter (run)    : {} accesses skipped, {} residual",
                stats.prefilter_skipped, stats.prefilter_residual,
            );
        }
    }
    outln!(out, 
        "modeled slowdown   : {}",
        slowdown(overhead.slowdown(summary.baseline_cost))
    );
    if suppressed > 0 {
        outln!(out, "suppressed races   : {suppressed}");
    }
    outln!(out);
    out!(out, "{}", literace::render::render_report(&report, &w.program));

    if let Some((note, non_stack, path)) = log_note {
        outln!(out, "{note}");
        outln!(out, "(redetect with: literace detect --log {path} --non-stack {non_stack})");
    }
    Ok(())
}

const EVAL: Spec = Spec {
    values: &["workload", "seeds", "scale"],
    switches: &[],
};

/// `literace eval …`
pub fn eval(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &EVAL)?;
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
    outln!(out, 
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
    outln!(out, "{t}");
    Ok(())
}

const OVERHEAD: Spec = Spec {
    values: &["workload", "seed", "scale"],
    switches: &[],
};

/// `literace overhead …`
pub fn overhead(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &OVERHEAD)?;
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let w = build(id, scale);
    let r = measure_overhead(&w.program, &RunConfig::seeded(seed)).map_err(|e| e.to_string())?;
    outln!(out, "{id} — modeled overhead (Figure 6 decomposition):");
    outln!(out, "  baseline              : 1.00x  ({} abstract instructions)", r.baseline_cost);
    outln!(out, 
        "  + dispatch checks     : {}",
        slowdown(r.dispatch_only.slowdown(r.baseline_cost))
    );
    outln!(out, 
        "  + sync logging        : {}",
        slowdown(r.dispatch_sync.slowdown(r.baseline_cost))
    );
    outln!(out, 
        "  + sampled mem logging : {}  (LiteRace, ESR {})",
        slowdown(r.literace_slowdown()),
        pct(r.literace_esr)
    );
    outln!(out, 
        "  full logging          : {}",
        slowdown(r.full_logging_slowdown())
    );
    outln!(out, 
        "  log volume            : LiteRace {} MB/s vs full {} MB/s",
        mb_s(r.literace.log_mb_per_s()),
        mb_s(r.full_logging.log_mb_per_s())
    );
    Ok(())
}

const DETECT: Spec = Spec {
    values: &[
        "log", "detector", "non-stack", "threads", "decode-threads", "resume-from",
        "checkpoint-out", "checkpoint-every", "metrics-out", "trace-out",
    ],
    switches: &["salvage", "progress"],
};

/// `literace detect …`
pub fn detect(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use literace::detector::{
        detect_stream_checkpointed, detect_stream_from, Checkpoint, DetectConfig,
        LocksetDetector,
    };

    let flags = Flags::parse(args, &DETECT)?;
    let path = flags.require("log")?;
    let non_stack: u64 = flags.get_parsed("non-stack", 0)?;
    let threads: usize = flags.get_parsed("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let decode_opts = parse_decode_opts(&flags, threads)?;
    let lockset = match flags.get("detector") {
        None | Some("hb") => false,
        Some("lockset") => true,
        Some(other) => return Err(format!("unknown detector `{other}`").into()),
    };
    if lockset && threads > 1 {
        return Err("--threads only applies to the hb detector, not `lockset`".into());
    }
    // Checkpoint/resume only make sense for the hb detector (the lockset
    // detector carries no resumable state). A checkpoint is loaded and
    // fully validated up front so a torn file fails before any decoding
    // starts.
    let checkpoint_out = flags.get("checkpoint-out");
    let checkpoint_every: u64 = flags.get_parsed("checkpoint-every", 0)?;
    if checkpoint_every > 0 && checkpoint_out.is_none() {
        return Err("--checkpoint-every requires --checkpoint-out".into());
    }
    if (checkpoint_out.is_some() || flags.get("resume-from").is_some()) && lockset {
        return Err(
            "--checkpoint-out/--resume-from only apply to the hb detector".into(),
        );
    }
    let resume_cp = match flags.get("resume-from") {
        None => None,
        Some(p) => Some(
            Checkpoint::read_from(std::path::Path::new(p))
                .map_err(|e| format!("read {p}: {e}"))?,
        ),
    };
    if let Some(state) = checkpoint_out {
        if AtomicFile::sweep_stale(state).map_err(CliError::io("cannot sweep", state))? {
            eprintln!("note: removed stale {state}.partial left by a crashed save");
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
    // Decoded blocks flow from the decode pool straight into the
    // detector; the log is never materialized.
    let (mut blocks, salvage) = open_log(path, flags.is_set("salvage"), decode_opts)?;
    let format = blocks.format();
    let cfg = DetectConfig::with_threads(threads);
    let report = detect_phase(|| -> Result<_, CliError> {
        Ok(if lockset {
            let mut detector = LocksetDetector::new();
            for_each_record(&mut blocks, path, |r| detector.process(r))?;
            detector.finish(non_stack)
        } else {
            // With --checkpoint-out, state is sealed to `state` every
            // --checkpoint-every blocks and once more at end of stream, at
            // any --threads, each save atomic (written to <state>.partial,
            // renamed only after fsync). A failed save is reported against
            // `state`, not against the log being read.
            let resume = resume_cp.as_ref();
            let mut write_err = None;
            let report = match checkpoint_out {
                Some(state) => detect_stream_checkpointed(
                    blocks,
                    non_stack,
                    &cfg,
                    resume,
                    checkpoint_every,
                    |cp: &Checkpoint| {
                        cp.write_to(std::path::Path::new(state)).map(|_| ()).map_err(|e| {
                            let kind = e.kind();
                            write_err = Some(e);
                            kind.into()
                        })
                    },
                ),
                None => detect_stream_from(blocks, non_stack, &cfg, resume),
            };
            if let (Some(state), Some(e)) = (checkpoint_out, write_err) {
                return Err(CliError::io("write", state)(e));
            }
            report.map_err(|e| format!("read {path}: {e}"))?
        })
    })?;
    let salvaged = if salvage.is_some() { ", salvaged" } else { "" };
    let heading = format!("{format} log (streamed{salvaged})");
    let salvage_report = salvage.map(|h| h.report());
    telemetry.finish()?;
    outln!(out, 
        "{}: {}, {} static races ({} dynamic)",
        path,
        heading,
        report.static_count(),
        report.dynamic_races
    );
    if let Some(cp) = &resume_cp {
        outln!(out, 
            "resumed: {} records already processed before this run",
            cp.records_processed()
        );
    }
    if let Some(state) = checkpoint_out {
        let size = std::fs::metadata(state).map(|m| m.len()).unwrap_or(0);
        outln!(out, "checkpoint: sealed detector state at {state} ({size} bytes)");
        outln!(out, "(resume with: literace detect --log <file> --resume-from {state})");
    }
    for r in &report.static_races {
        outln!(out, "  {r}");
    }
    if non_stack == 0 {
        outln!(out, "(pass --non-stack to enable the rare/frequent split)");
    } else {
        let (rare, freq) = report.split_by_rarity();
        outln!(out, "rare: {}, frequent: {}", rare.len(), freq.len());
    }
    if let Some(s) = salvage_report {
        outln!(out, "salvage: {s}");
        if s.sync_tainted {
            outln!(out, 
                "warning: synchronization records were lost; everything after the \
                 damage was dropped so no false race can be reported"
            );
        }
    }
    Ok(())
}

const CHECKPOINT: Spec = Spec {
    values: &["in"],
    switches: &[],
};

/// `literace checkpoint …`
pub fn checkpoint(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use literace::detector::Checkpoint;
    let flags = Flags::parse(args, &CHECKPOINT)?;
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
    outln!(out, "{path}:");
    outln!(out, "  sealed             : yes (footer and checksums verified)");
    outln!(out, "  on-disk size       : {on_disk} bytes");
    outln!(out, "  records processed  : {}", cp.records_processed());
    outln!(out, 
        "  threads            : {} ({} retired)",
        cp.thread_count(),
        cp.retired_count()
    );
    outln!(out, "  sync variables     : {}", cp.syncvar_count());
    outln!(out, 
        "  tracked locations  : {} ({} escalated)",
        cp.location_count(),
        cp.escalated_count()
    );
    outln!(out, "  static race pairs  : {}", cp.pair_count());
    outln!(out, "  dynamic races      : {}", cp.dynamic_races());
    outln!(out, "  non-stack accesses : {}", cp.non_stack_accesses());
    outln!(out, "  timestamp faults   : {}", cp.timestamp_violations());
    outln!(out, 
        "  config             : max-history {}, max-dynamic-per-pair {}",
        cfg.max_history_per_location, cfg.max_dynamic_per_pair
    );
    outln!(out, "(resume with: literace detect --log <file> --resume-from {path})");
    Ok(())
}

const EXPLAIN: Spec = Spec {
    values: &["workload", "seed", "scale", "sampler", "race", "log", "non-stack"],
    switches: &[],
};

/// `literace explain …`
pub fn explain(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &EXPLAIN)?;
    let race_filter: usize = flags.get_parsed("race", 0)?;
    // Detection is always the sequential core with capture on —
    // provenance rides alongside the report and never changes it, so the
    // race set matches `run`/`detect` on the same input exactly. Either
    // mode feeds it and yields (non_stack, heading, program-for-names).
    let mut det = HbDetector::new();
    det.enable_provenance();
    let (non_stack, heading, program) = match (flags.get("log"), flags.get("workload")) {
        (Some(_), Some(_)) => return Err("--log conflicts with --workload".into()),
        (Some(path), None) => {
            let non_stack: u64 = flags.get_parsed("non-stack", 0)?;
            // `explain` takes no --decode-threads: the default pool.
            let (mut blocks, _) = open_log(path, false, parse_decode_opts(&flags, 1)?)?;
            for_each_record(&mut blocks, path, |r| det.process(r))?;
            (non_stack, path.to_owned(), None)
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
            det.process_log(&outcome.instrumented.log);
            (outcome.summary.non_stack_accesses, heading, Some(w.program))
        }
        (None, None) => {
            return Err("explain needs --workload <name> or --log <file>".into())
        }
    };
    let (report, provenance) = det.finish_full(non_stack);
    let provenance = provenance.expect("provenance was enabled");
    outln!(out, 
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
        outln!(out);
        outln!(out, 
            "race {k}: {} ↔ {} ({} occurrences, {} addresses)",
            site(r.pcs.0),
            site(r.pcs.1),
            r.count,
            r.distinct_addrs
        );
        match provenance.find(r.pcs) {
            Some(e) => outln!(out, "{e}"),
            None => outln!(out, "  (no evidence captured for this pair)"),
        }
    }
    Ok(())
}

const INSPECT: Spec = Spec {
    values: &["workload", "scale", "function"],
    switches: &[],
};

/// `literace inspect …`
pub fn inspect(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use literace::sim::{disasm, lower, FuncId};
    let flags = Flags::parse(args, &INSPECT)?;
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let w = build(id, scale);
    let compiled = lower(&w.program);
    outln!(out, "{id} ({:?} scale):", scale);
    outln!(out, "{}", literace::sim::ProgramStats::of(&compiled));
    outln!(out, 
        "planted races      : {} ({} rare at paper scale)",
        w.planted.total(),
        w.planted.rare()
    );
    if let Some(pattern) = flags.get("function") {
        let mut shown = 0;
        for (i, f) in compiled.functions.iter().enumerate() {
            if f.name.contains(pattern) {
                outln!(out);
                out!(out, "{}", disasm::disasm_function(FuncId::from_index(i), f));
                shown += 1;
                if shown >= 8 {
                    outln!(out, "(more matches elided)");
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

const TRACE: Spec = Spec {
    values: &["in", "top", "workload", "scale", "seed", "limit"],
    switches: &[],
};

/// `literace trace …`
pub fn trace(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use literace::sim::{
        lower, ChunkedRandomScheduler, Event, Machine, MachineConfig, Observer,
    };
    let flags = Flags::parse(args, &TRACE)?;
    if let Some(path) = flags.get("in") {
        // Summary mode: validate a --trace-out file with the strict
        // trace-event parser and print the per-track attribution table.
        let top: usize = flags.get_parsed("top", 10)?;
        let text =
            std::fs::read_to_string(path).map_err(CliError::io("cannot read", path))?;
        let summary = literace::telemetry::validate_chrome_trace(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        out!(out, "{}", literace::telemetry::render_trace_summary(&summary, top));
        return Ok(());
    }
    let id = parse_workload(flags.require("workload")?)?;
    let scale = parse_scale(&flags)?;
    let seed: u64 = flags.get_parsed("seed", 1)?;
    let limit: usize = flags.get_parsed("limit", 40)?;
    let w = build(id, scale);
    let compiled = lower(&w.program);

    /// Renders the first `remaining` events; they are printed once the
    /// run returns, so a write error can end the command.
    struct Tracer<'p> {
        program: &'p literace::sim::Program,
        remaining: usize,
        lines: Vec<String>,
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
            self.lines.push(line);
        }
    }
    let mut tracer = Tracer {
        program: &w.program,
        remaining: limit,
        lines: Vec::new(),
    };
    let run = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 64), &mut tracer);
    for line in &tracer.lines {
        outln!(out, "{line}");
    }
    run.map_err(|e| e.to_string())?;
    Ok(())
}

const LOG_STATS: Spec = Spec {
    values: &["log", "decode-threads", "metrics-out", "trace-out"],
    switches: &["salvage"],
};

/// `literace log-stats …`
pub fn log_stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &LOG_STATS)?;
    let path = flags.require("log")?;
    let decode_opts = parse_decode_opts(&flags, 0)?;
    let telemetry = Telemetry::from_flags(&flags);
    let on_disk = std::fs::metadata(path)
        .map_err(CliError::io("cannot open", path))?
        .len();
    // The reader detect uses, strict or salvage: the same numbers at
    // every --decode-threads, counted as the records stream by.
    let (mut blocks, salvage) = open_log(path, flags.is_set("salvage"), decode_opts)?;
    let mut stats = LogStats::default();
    let mut per_thread = std::collections::BTreeMap::new();
    for_each_record(&mut blocks, path, |r| {
        stats.add(r);
        LogStats::add_by_thread(&mut per_thread, r);
    })?;
    let (format, seal) = (blocks.format(), blocks.seal_state());
    let salvage_note = salvage.map(|h| h.report().to_string());
    if literace::telemetry::enabled() {
        let m = literace::telemetry::metrics();
        for (tid, t) in &per_thread {
            m.log_records_by_thread.add(tid.index(), t.records);
        }
    }
    outln!(out, "{path}:");
    outln!(out, "  format           : {format}");
    outln!(out, "  finalized        : {seal}");
    outln!(out, "  records          : {}", stats.records);
    outln!(out, "  memory accesses  : {}", stats.mem_records);
    outln!(out, "  synchronization  : {}", stats.sync_records);
    outln!(out, "  thread markers   : {}", stats.marker_records);
    outln!(out, "  on-disk size     : {on_disk} bytes");
    outln!(out, "  size as v1       : {} bytes", stats.bytes);
    if let Some(note) = salvage_note {
        outln!(out, "  salvage          : {note}");
    }
    if !per_thread.is_empty() {
        let mut t = Table::new(
            "per-thread breakdown",
            &["thread", "records", "memory", "sync", "markers"],
        );
        for (tid, s) in &per_thread {
            t.row(vec![
                format!("t{}", tid.index()),
                s.records.to_string(),
                s.mem_records.to_string(),
                s.sync_records.to_string(),
                s.marker_records.to_string(),
            ]);
        }
        outln!(out);
        outln!(out, "{t}");
    }
    telemetry.finish()?;
    Ok(())
}

const METRICS: Spec = Spec {
    values: &["in", "workload", "scale", "seed", "threads", "format", "out"],
    switches: &["validate"],
};

/// `literace metrics …`
pub fn metrics_cmd(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, &METRICS)?;
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
        None => out!(out, "{text}"),
        Some(path) => {
            std::fs::write(path, &text).map_err(CliError::io("cannot write", path))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::sink;
    use literace::sim::{Addr, FuncId, Pc, ThreadId};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workload_names_resolve() {
        assert_eq!(parse_workload("dryad").unwrap(), WorkloadId::Dryad);
        assert_eq!(parse_workload("FF-RENDER").unwrap(), WorkloadId::FirefoxRender);
        assert!(parse_workload("nope").is_err());
    }

    #[test]
    fn scale_parsing_defaults_to_smoke() {
        let f = Flags::parse(&[], &RUN).unwrap();
        assert_eq!(parse_scale(&f).unwrap(), Scale::Smoke);
        let f = Flags::parse(&["--scale".into(), "paper".into()], &RUN).unwrap();
        assert_eq!(parse_scale(&f).unwrap(), Scale::Paper);
        let f = Flags::parse(&["--scale".into(), "huge".into()], &RUN).unwrap();
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
        run(&args, &mut sink()).unwrap();
    }

    #[test]
    fn run_command_smoke() {
        // Drive the command function end to end on the smallest workload.
        let args: Vec<String> = ["--workload", "lflist", "--seed", "2"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        run(&args, &mut sink()).unwrap();
    }

    #[test]
    fn encode_opts_parse_and_validate() {
        let f = Flags::parse(&[], &RUN).unwrap();
        assert_eq!(parse_encode_opts(&f).unwrap(), EncodeOpts::default());
        let f = Flags::parse(&["--encode-threads".into(), "3".into()], &RUN).unwrap();
        let opts = parse_encode_opts(&f).unwrap();
        assert_eq!(opts, EncodeOpts::with_threads(3));
        let f = Flags::parse(&["--encode-threads".into(), "auto".into()], &RUN).unwrap();
        assert!(parse_encode_opts(&f).unwrap().threads >= 1);
        let f = Flags::parse(&["--encode-threads".into(), "0".into()], &RUN).unwrap();
        assert!(parse_encode_opts(&f).is_err());
        let f = Flags::parse(&["--encode-threads".into(), "x".into()], &RUN).unwrap();
        assert!(parse_encode_opts(&f).is_err());
        // The block size is not a flag: the writer's default is the one
        // the reader's memory bound is sized for.
        assert!(Flags::parse(&["--block-records".into(), "512".into()], &RUN).is_err());
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
            "--workload", "lflist", "--seed", "2",
            "--log", &path_s, "--encode-threads", "2",
        ]);
        run(&run_args, &mut sink()).unwrap();
        assert!(!stale.exists(), "stale partial must be swept on run --log");
        // The pipelined log re-detects like any other v2 log.
        let detect_args = sv(&["--log", &path_s, "--non-stack", "100"]);
        detect(&detect_args, &mut sink()).unwrap();
        // Encoding on the run's own thread writes the same bytes.
        let pooled = std::fs::read(&path).unwrap();
        let run_args = sv(&["--workload", "lflist", "--seed", "2", "--log", &path_s]);
        run(&run_args, &mut sink()).unwrap();
        assert!(std::fs::read(&path).unwrap() == pooled, "bytes depend on --encode-threads");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pipelined_encode_rejects_v1_and_requires_log() {
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let no_log = sv(&["--workload", "lflist", "--encode-threads", "2"]);
        assert!(run(&no_log, &mut sink()).is_err());
        let dir = std::env::temp_dir();
        let path = dir.join("literace_cli_pipelined_v1_reject.lrlog");
        let path_s = path.to_str().unwrap().to_string();
        let v1 = sv(&[
            "--workload", "lflist", "--log", &path_s,
            "--format", "v1", "--encode-threads", "2",
        ]);
        assert!(run(&v1, &mut sink()).is_err());
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
        run(&run_args, &mut sink()).unwrap();
        for threads in ["1", "4"] {
            let detect_args: Vec<String> =
                ["--log", &path_s, "--threads", threads, "--non-stack", "100"]
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect();
            detect(&detect_args, &mut sink()).unwrap();
        }
        let bad_args: Vec<String> =
            ["--log", &path_s, "--threads", "2", "--detector", "lockset"]
                .iter()
                .map(|s| (*s).to_string())
                .collect();
        assert!(detect(&bad_args, &mut sink()).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_format_and_streaming_round_trip() {
        // run --log streams either format to disk without materializing;
        // detect streams both back, with either detector (formats are
        // auto-detected).
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
        run(&run_v1, &mut sink()).unwrap();
        let run_v2 = sv(&[
            "--workload", "lflist", "--seed", "2", "--threads", "2", "--log", &v2_s,
        ]);
        run(&run_v2, &mut sink()).unwrap();
        // v2 must be the smaller encoding of the identical record stream.
        let (v1_len, v2_len) = (
            std::fs::metadata(&v1).unwrap().len(),
            std::fs::metadata(&v2).unwrap().len(),
        );
        assert!(v2_len < v1_len, "v2 {v2_len} bytes vs v1 {v1_len} bytes");
        for path in [&v1_s, &v2_s] {
            detect(&sv(&["--log", path, "--threads", "2"]), &mut sink()).unwrap();
            detect(&sv(&["--log", path, "--detector", "lockset"]), &mut sink()).unwrap();
            log_stats(&sv(&["--log", path]), &mut sink()).unwrap();
        }
        // --streaming is no flag: every read streams.
        assert!(detect(&sv(&["--log", &v2_s, "--streaming"]), &mut sink()).is_err());
        let bad_format = sv(&["--workload", "lflist", "--format", "v3"]);
        assert!(run(&bad_format, &mut sink()).is_err());
        let _ = std::fs::remove_file(&v1);
        let _ = std::fs::remove_file(&v2);
    }

    #[test]
    fn run_without_log_detects_in_memory() {
        let args: Vec<String> =
            ["--workload", "lflist", "--seed", "2", "--threads", "2"]
                .iter()
                .map(|s| (*s).to_string())
                .collect();
        run(&args, &mut sink()).unwrap();
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
        metrics_cmd(&export, &mut sink()).unwrap();
        // The written snapshot re-exports as Prometheus text and validates.
        let reexport = sv(&["--in", &path_s, "--format", "prom", "--validate"]);
        metrics_cmd(&reexport, &mut sink()).unwrap();
        let bad_file = sv(&["--in", "/nonexistent/never.json"]);
        assert!(metrics_cmd(&bad_file, &mut sink()).is_err());
        let bad_format = sv(&["--workload", "lflist", "--format", "xml"]);
        assert!(metrics_cmd(&bad_format, &mut sink()).is_err());
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
            "--workload", "lflist", "--seed", "2", "--threads", "2",
            "--log", &log_s, "--metrics-out", &json_s,
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        run(&args, &mut sink()).unwrap();
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
        // succeed on it (at one and two shards), and the intact original
        // must still detect cleanly.
        let dir = std::env::temp_dir();
        let clean = dir.join("literace_cli_salvage_clean.lrlog");
        let torn = dir.join("literace_cli_salvage_torn.lrlog");
        let clean_s = clean.to_str().unwrap().to_string();
        let torn_s = torn.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let run_args = sv(&["--workload", "lflist", "--seed", "2", "--log", &clean_s]);
        run(&run_args, &mut sink()).unwrap();
        let bytes = std::fs::read(&clean).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() * 2 / 3]).unwrap();

        assert!(
            detect(&sv(&["--log", &torn_s]), &mut sink()).is_err(),
            "a torn log must fail without --salvage"
        );
        assert!(log_stats(&sv(&["--log", &torn_s]), &mut sink()).is_err());
        detect(&sv(&["--log", &torn_s, "--salvage"]), &mut sink()).unwrap();
        detect(&sv(&["--log", &torn_s, "--salvage", "--threads", "2"]), &mut sink()).unwrap();
        log_stats(&sv(&["--log", &torn_s, "--salvage"]), &mut sink()).unwrap();
        // The atomically committed original is sealed and clean.
        detect(&sv(&["--log", &clean_s, "--salvage"]), &mut sink()).unwrap();
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
        // through the parallel pool, for either detector; malformed
        // values and the retired stream flags fail.
        let dir = std::env::temp_dir();
        let clean = dir.join("literace_cli_pool_clean.lrlog");
        let torn = dir.join("literace_cli_pool_torn.lrlog");
        let clean_s = clean.to_str().unwrap().to_string();
        let torn_s = torn.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let run_args = sv(&["--workload", "lflist", "--seed", "2", "--log", &clean_s]);
        run(&run_args, &mut sink()).unwrap();
        let bytes = std::fs::read(&clean).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() * 2 / 3]).unwrap();

        for extra in [
            &["--decode-threads", "2"][..],
            &["--decode-threads", "4"][..],
            &["--decode-threads", "auto"][..],
            &["--decode-threads", "2", "--detector", "lockset"][..],
        ] {
            let mut args = sv(&["--log", &clean_s]);
            args.extend(sv(extra));
            detect(&args, &mut sink()).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
        }
        log_stats(&sv(&["--log", &clean_s, "--decode-threads", "2"]), &mut sink()).unwrap();
        log_stats(
            &sv(&["--log", &torn_s, "--salvage", "--decode-threads", "2"]),
            &mut sink(),
        )
        .unwrap();
        detect(
            &sv(&["--log", &torn_s, "--salvage", "--decode-threads", "2"]),
            &mut sink(),
        )
        .unwrap();
        // A torn log still fails strict decode through the pool.
        assert!(detect(&sv(&["--log", &torn_s, "--decode-threads", "2"]), &mut sink()).is_err());
        for bad in [
            &["--log", &clean_s, "--streaming", "--no-streaming"][..],
            &["--log", &clean_s, "--decode-threads", "0"][..],
            &["--log", &clean_s, "--decode-threads", "many"][..],
            &["--log", &clean_s, "--stream-depth", "0"][..],
        ] {
            assert!(detect(&sv(bad), &mut sink()).is_err(), "{bad:?}");
        }
        let _ = std::fs::remove_file(&clean);
        let _ = std::fs::remove_file(&torn);
    }

    #[test]
    fn checkpoint_round_trip_through_the_cli() {
        // detect --checkpoint-out seals resumable state; checkpoint --in
        // inspects it; detect --resume-from continues from it at one and
        // four shards. A stale .partial from a crashed save is swept, and
        // a torn checkpoint fails cleanly.
        let dir = std::env::temp_dir();
        let log = dir.join("literace_cli_checkpoint_test.lrlog");
        let state = dir.join("literace_cli_checkpoint_test.lrcp");
        let log_s = log.to_str().unwrap().to_string();
        let state_s = state.to_str().unwrap().to_string();
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        let run_args = sv(&["--workload", "lflist", "--seed", "2", "--log", &log_s]);
        run(&run_args, &mut sink()).unwrap();
        // A stale partial from a "crashed" previous save must be swept.
        let stale = dir.join("literace_cli_checkpoint_test.lrcp.partial");
        std::fs::write(&stale, b"torn").unwrap();
        let save_args = sv(&[
            "--log", &log_s, "--non-stack", "100",
            "--checkpoint-out", &state_s, "--checkpoint-every", "2",
        ]);
        detect(&save_args, &mut sink()).unwrap();
        assert!(!stale.exists(), "stale partial must be swept before saving");
        assert!(state.exists(), "final state must be sealed at end of stream");
        checkpoint(&sv(&["--in", &state_s]), &mut sink()).unwrap();
        // The final checkpoint covers the whole log, so the records after
        // it are none: resume over an empty log. (Resuming over a suffix
        // is checked against the one-shot report in cli_roundtrip.rs.)
        let empty = dir.join("literace_cli_checkpoint_test_empty.lrlog");
        std::fs::write(&empty, b"").unwrap();
        let empty_s = empty.to_str().unwrap().to_string();
        for threads in ["1", "4"] {
            let resume_args = sv(&[
                "--log", &empty_s, "--non-stack", "100", "--threads", threads,
                "--resume-from", &state_s,
            ]);
            detect(&resume_args, &mut sink()).unwrap();
        }
        let _ = std::fs::remove_file(&empty);
        // A torn checkpoint is a typed failure for both consumers.
        let bytes = std::fs::read(&state).unwrap();
        std::fs::write(&state, &bytes[..bytes.len() - 3]).unwrap();
        assert!(checkpoint(&sv(&["--in", &state_s]), &mut sink()).is_err());
        assert!(detect(&sv(&["--log", &log_s, "--resume-from", &state_s]), &mut sink()).is_err());
        let _ = std::fs::remove_file(&log);
        let _ = std::fs::remove_file(&state);
    }

    #[test]
    fn checkpoint_flags_validate() {
        let sv = |parts: &[&str]| -> Vec<String> {
            parts.iter().map(|s| (*s).to_string()).collect()
        };
        // --checkpoint-every without --checkpoint-out.
        assert!(detect(
            &sv(&["--log", "x.lrlog", "--checkpoint-every", "4"]),
            &mut sink()
        )
        .is_err());
        // Checkpoints seal at any --threads, to the same bytes.
        let dir = std::env::temp_dir().join(format!("literace_cli_threads_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let log = path("x.lrlog");
        let run_args = sv(&["--workload", "lflist", "--sampler", "Full", "--log", &log]);
        run(&run_args, &mut sink()).unwrap();
        let sealed: Vec<Vec<u8>> = ["1", "2"]
            .iter()
            .map(|threads| {
                let out = path(&format!("x{threads}.lrcp"));
                detect(&sv(&[
                        "--log", &log, "--checkpoint-out", &out, "--threads", threads,
                    ]), &mut sink()).unwrap();
                std::fs::read(&out).unwrap()
            })
            .collect();
        assert!(
            sealed[0] == sealed[1],
            "the checkpoint depends on --threads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        // Only the hb detector has resumable state.
        assert!(detect(&sv(&[
                "--log", "x.lrlog", "--detector", "lockset", "--resume-from", "x.lrcp",
            ]), &mut sink()).is_err());
        assert!(checkpoint(&sv(&["--in", "/nonexistent/never.lrcp"]), &mut sink()).is_err());
    }

    #[test]
    fn detect_command_reports_missing_file() {
        let args: Vec<String> = ["--log", "/nonexistent/xyz.lrlog"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        assert!(detect(&args, &mut sink()).is_err());
    }

    /// Counts live and peak heap bytes of this test binary, then defers
    /// to the system allocator.
    struct Counting;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged, so `System`'s guarantees carry over; the
    // bookkeeping only touches atomics.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            grew(layout.size());
            // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            // SAFETY: forwarded as-is; `ptr` came from this allocator.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
            // SAFETY: forwarded as-is; the caller upholds `realloc`'s
            // contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    #[test]
    fn strict_pooled_read_holds_blocks_not_the_file() {
        // The counters are process-wide and this binary's other tests run
        // concurrently, so the measurement runs in a child process that
        // runs this test alone.
        const CHILD: &str = "LITERACE_CLI_HEAP_PROBE";
        if std::env::var_os(CHILD).is_none() {
            let name = module_path!().split_once("::").expect("crate::module").1;
            let name = format!("{name}::strict_pooled_read_holds_blocks_not_the_file");
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    name.as_str(),
                    "--exact",
                    "--test-threads",
                    "1",
                    "--nocapture",
                ])
                .env(CHILD, "1")
                .output()
                .unwrap();
            let text = format!(
                "{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success() && text.contains("1 passed"), "{text}");
            return;
        }
        // A multi-MB v2 log in which every access is logged; random
        // addresses and sites keep the deltas wide, so blocks stay large
        // on disk.
        const RECORDS: u64 = 1_000_000;
        let path = std::env::temp_dir().join(format!(
            "literace_cli_heap_probe_{}.lrlog",
            std::process::id()
        ));
        let path_s = path.to_str().unwrap().to_string();
        let mut rng = literace::log::SplitMix64::new(7);
        let file = std::io::BufWriter::new(File::create(&path).unwrap());
        let mut w = LogWriterV2::new(file);
        for i in 0..RECORDS {
            w.write_record(&Record::Mem {
                tid: ThreadId::from_index(i as usize % 4),
                pc: Pc::new(
                    FuncId::from_index(rng.below(64) as usize),
                    rng.below(4096) as usize,
                ),
                addr: Addr::global(rng.below(1 << 32)),
                is_write: rng.below(2) == 0,
                mask: SamplerMask::FULL,
            })
            .unwrap();
        }
        w.finish().unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(file_len > 8 << 20, "log is only {file_len} bytes");

        let start = LIVE.load(Ordering::SeqCst);
        PEAK.store(start, Ordering::SeqCst);
        let (mut stream, salvage) = open_log(&path_s, false, DecodeOpts::with_threads(2)).unwrap();
        assert!(salvage.is_none());
        let mut seen = 0u64;
        for_each_record(&mut stream, &path_s, |_| seen += 1).unwrap();
        drop(stream);
        let growth = PEAK.load(Ordering::SeqCst) - start;
        let _ = std::fs::remove_file(&path);
        assert_eq!(seen, RECORDS);
        println!("peak heap growth {growth} bytes for a {file_len}-byte log");
        assert!(
            growth < file_len / 3,
            "a strict read at 2 decode threads grew the heap {growth} bytes \
             for a {file_len}-byte log"
        );
    }

    #[test]
    fn inspect_command_smoke() {
        let args: Vec<String> = ["--workload", "lkrhash", "--function", "hash_op"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        inspect(&args, &mut sink()).unwrap();
    }
}
