//! The global metrics registry: every metric the pipeline records, as one
//! `static` of atomics.
//!
//! Fields are public so recording sites write straight to the atomic with
//! no name lookup; the name↔field tables at the bottom are the single
//! source of truth for exporters (snapshot, Prometheus) and for
//! [`reset`](Metrics::reset).

use crate::metrics::{Counter, Histogram, LevelGauges, MaxGauge, SlotCounters, BURST_SLOTS, SLOTS};
use crate::snapshot::Snapshot;
use crate::span::PhaseStats;

/// Every metric the LiteRace pipeline records. See the crate docs for the
/// naming convention; the canonical name of each field is in the tables
/// used by [`snapshot`](Metrics::snapshot).
#[derive(Debug)]
pub struct Metrics {
    // ── instrument side ────────────────────────────────────────────────
    /// Sampler dispatch checks executed (one per instrumented function
    /// entry, §4.1).
    pub instrument_dispatch_checks: Counter,
    /// Dispatch checks that chose the instrumented (sampled) copy.
    pub instrument_dispatch_sampled: Counter,
    /// Dispatch checks attributed to the simulated thread that ran them.
    pub instrument_dispatch_checks_by_thread: SlotCounters<SLOTS>,
    /// Sampled dispatch decisions per simulated thread.
    pub instrument_dispatch_sampled_by_thread: SlotCounters<SLOTS>,
    /// Memory accesses executed by the program (sampled or not).
    pub instrument_mem_executed: Counter,
    /// Memory accesses actually logged.
    pub instrument_mem_logged: Counter,
    /// Synchronization records logged (never sampled, §4.1).
    pub instrument_sync_logged: Counter,
    /// Memory accesses skipped by the static ordering prefilter — no
    /// sampler consultation, no log record.
    pub instrument_prefilter_skipped: Counter,
    /// Memory accesses that passed the prefilter (the residual
    /// possibly-racy set the sampler budget is spent on).
    pub instrument_prefilter_residual: Counter,
    /// Size in bytes of the installed prefilter skip table.
    pub instrument_prefilter_table_bytes: Counter,
    /// Burst-sampler back-off transitions, by the back-off level entered
    /// (slot 1 = first back-off, e.g. 100%→10% in the LiteRace schedule).
    pub sampler_burst_transitions: SlotCounters<BURST_SLOTS>,

    // ── log side ───────────────────────────────────────────────────────
    /// Records encoded to the fixed-width v1 format.
    pub log_encode_v1_records: Counter,
    /// v1 bytes flushed to the sink.
    pub log_encode_v1_bytes: Counter,
    /// Records encoded to the compact v2 format.
    pub log_encode_v2_records: Counter,
    /// v2 bytes flushed to the sink (headers + block frames).
    pub log_encode_v2_bytes: Counter,
    /// v2 blocks flushed to the sink.
    pub log_encode_v2_blocks: Counter,
    /// Delta fields emitted by the v2 encoder.
    pub log_encode_v2_deltas: Counter,
    /// Delta fields that needed more than one varint byte (the fallback
    /// rate of the zigzag delta scheme).
    pub log_encode_v2_deltas_multibyte: Counter,
    /// Records decoded from v1 logs.
    pub log_decode_v1_records: Counter,
    /// Nanoseconds spent decoding v1 blocks.
    pub log_decode_v1_ns: Counter,
    /// Records decoded from v2 logs.
    pub log_decode_v2_records: Counter,
    /// v2 bytes consumed by the decoder (block frames + payloads).
    pub log_decode_v2_bytes: Counter,
    /// v2 blocks decoded.
    pub log_decode_v2_blocks: Counter,
    /// Nanoseconds spent decoding v2 blocks.
    pub log_decode_v2_ns: Counter,
    /// Log-read failures: corrupt framing or payload.
    pub log_errors_corrupt: Counter,
    /// Log-read failures: unrecognized magic.
    pub log_errors_bad_magic: Counter,
    /// Log-read failures: known magic, unsupported version.
    pub log_errors_unsupported_version: Counter,
    /// Log-read failures: underlying I/O errors.
    pub log_errors_io: Counter,
    /// Writes or finishes attempted on an already-finished log writer.
    pub log_errors_writer_finished: Counter,
    /// Decoder-thread panics contained into stream errors.
    pub log_errors_decoder_panicked: Counter,
    /// Salvage decodes started (`--salvage` openers).
    pub log_salvage_runs: Counter,
    /// Corrupt v2 blocks skipped by salvage decode.
    pub log_salvage_blocks_skipped: Counter,
    /// Records known dropped by salvage (from trusted block headers).
    pub log_salvage_records_dropped: Counter,
    /// Bytes discarded by salvage (skipped blocks + dropped suffixes).
    pub log_salvage_bytes_dropped: Counter,
    /// Transient-I/O read retries attempted by the retry wrapper.
    pub log_retry_attempts: Counter,
    /// Reads that failed even after exhausting the retry budget.
    pub log_retry_exhausted: Counter,
    /// Nanoseconds parallel-decode workers spent decoding block payloads.
    pub log_decode_worker_busy_ns: Counter,
    /// Nanoseconds parallel-decode workers spent waiting for scanned
    /// blocks.
    pub log_decode_worker_idle_ns: Counter,
    /// Most blocks simultaneously in flight between the frame scanner and
    /// the in-order consumer of the parallel decode pool.
    pub log_decode_blocks_inflight_hwm: MaxGauge,
    /// Deepest reorder buffer the parallel-decode consumer needed to
    /// restore sequence order from out-of-order workers.
    pub log_decode_ooo_reorder_depth: MaxGauge,
    /// Nanoseconds pipelined-encode workers spent encoding sealed blocks.
    pub log_encode_worker_busy_ns: Counter,
    /// Nanoseconds pipelined-encode workers spent waiting for sealed
    /// blocks.
    pub log_encode_worker_idle_ns: Counter,
    /// Most raw blocks simultaneously sealed and awaiting an encode
    /// worker in the pipelined write path.
    pub log_encode_sealed_blocks_hwm: MaxGauge,
    /// Most blocks simultaneously in flight between the producer's seal
    /// and the in-order committer of the pipelined write path.
    pub log_encode_blocks_inflight_hwm: MaxGauge,
    /// Blocks handed from the decode thread to the streaming channel.
    pub log_stream_blocks: Counter,
    /// Times the decode thread found the streaming channel full and had to
    /// block (backpressure stalls).
    pub log_stream_stalls: Counter,
    /// Occupancy of the decode→detect channel (slot 0), with high-water
    /// mark.
    pub log_stream_queue: LevelGauges<1>,
    /// Total records a sealed v2 log declares in its footer — set before
    /// decoding starts so progress reporting can compute percent-complete.
    /// Zero when the input is unsealed or the total is unknown.
    pub log_decode_total_records: MaxGauge,
    /// Log records attributed per thread (populated by `log-stats`).
    pub log_records_by_thread: SlotCounters<SLOTS>,

    // ── detector side ──────────────────────────────────────────────────
    /// Records routed into detection (any path).
    pub detector_records_routed: Counter,
    /// Events assigned to each address shard.
    pub detector_shard_events: SlotCounters<SLOTS>,
    /// Occupancy of each shard's streaming channel, with high-water marks.
    pub detector_shard_queue: LevelGauges<SLOTS>,
    /// Times the streaming router found a shard channel full and had to
    /// block (backpressure stalls).
    pub detector_stream_stalls: Counter,
    /// Nanoseconds shard workers spent processing batches.
    pub detector_worker_busy_ns: Counter,
    /// Nanoseconds shard workers spent waiting for input.
    pub detector_worker_idle_ns: Counter,
    /// Frontier entries examined per access (antichain scan length).
    /// Detectors feed this through a [`ScanSampler`](crate::ScanSampler):
    /// a deterministic 1-in-16 systematic sample, so the per-access cost
    /// stays within the overhead budget. Counts are ~accesses/16; the
    /// shape of the distribution is what matters.
    pub detector_frontier_scan: Histogram,
    /// Frontier compaction passes run.
    pub detector_compact_runs: Counter,
    /// Locations reclaimed by compaction.
    pub detector_compact_dropped: Counter,
    /// Most addresses with live frontier state seen at once.
    pub detector_frontier_tracked_hwm: MaxGauge,
    /// Locations promoted from inline epochs to a full access history.
    pub detector_epoch_escalations: Counter,
    /// Escalated locations collapsed back to inline epochs.
    pub detector_epoch_deescalations: Counter,
    /// Accesses short-circuited by the same-epoch memo (no history work).
    pub detector_epoch_memo_hits: Counter,
    /// Most simultaneously escalated (full-history) locations, summed over
    /// shard frontiers.
    pub detector_epoch_resident_shared: MaxGauge,
    /// Checkpoint bytes serialized (sealed container size, summed over
    /// saves).
    pub detector_checkpoint_bytes: Counter,
    /// Nanoseconds spent serializing checkpoints.
    pub detector_checkpoint_save_ns: Counter,
    /// Nanoseconds spent parsing and validating checkpoints.
    pub detector_checkpoint_load_ns: Counter,
    /// Detectors resumed from a checkpoint (any path).
    pub detector_checkpoint_resumes: Counter,
    /// Static (PC-pair) races reported.
    pub detector_races_static: Counter,
    /// Dynamic race occurrences reported.
    pub detector_races_dynamic: Counter,
    /// Static races removed by suppression rules.
    pub detector_races_suppressed: Counter,

    // ── pipeline phases ────────────────────────────────────────────────
    /// Instrumented execution (simulator run, including sampling and
    /// logging).
    pub phase_execute: PhaseStats,
    /// Whole offline detection, any path.
    pub phase_detect: PhaseStats,
    /// Per-shard frontier replay (one span per worker).
    pub phase_shard_replay: PhaseStats,
    /// Merge of per-shard race pairs into the final report.
    pub phase_merge: PhaseStats,
}

impl Metrics {
    /// A fresh, zeroed registry — used by the global `static` and by tests
    /// that need isolation from it.
    pub(crate) const fn new() -> Metrics {
        Metrics {
            instrument_dispatch_checks: Counter::new(),
            instrument_dispatch_sampled: Counter::new(),
            instrument_dispatch_checks_by_thread: SlotCounters::new(),
            instrument_dispatch_sampled_by_thread: SlotCounters::new(),
            instrument_mem_executed: Counter::new(),
            instrument_mem_logged: Counter::new(),
            instrument_sync_logged: Counter::new(),
            instrument_prefilter_skipped: Counter::new(),
            instrument_prefilter_residual: Counter::new(),
            instrument_prefilter_table_bytes: Counter::new(),
            sampler_burst_transitions: SlotCounters::new(),
            log_encode_v1_records: Counter::new(),
            log_encode_v1_bytes: Counter::new(),
            log_encode_v2_records: Counter::new(),
            log_encode_v2_bytes: Counter::new(),
            log_encode_v2_blocks: Counter::new(),
            log_encode_v2_deltas: Counter::new(),
            log_encode_v2_deltas_multibyte: Counter::new(),
            log_decode_v1_records: Counter::new(),
            log_decode_v1_ns: Counter::new(),
            log_decode_v2_records: Counter::new(),
            log_decode_v2_bytes: Counter::new(),
            log_decode_v2_blocks: Counter::new(),
            log_decode_v2_ns: Counter::new(),
            log_errors_corrupt: Counter::new(),
            log_errors_bad_magic: Counter::new(),
            log_errors_unsupported_version: Counter::new(),
            log_errors_io: Counter::new(),
            log_errors_writer_finished: Counter::new(),
            log_errors_decoder_panicked: Counter::new(),
            log_salvage_runs: Counter::new(),
            log_salvage_blocks_skipped: Counter::new(),
            log_salvage_records_dropped: Counter::new(),
            log_salvage_bytes_dropped: Counter::new(),
            log_retry_attempts: Counter::new(),
            log_retry_exhausted: Counter::new(),
            log_decode_worker_busy_ns: Counter::new(),
            log_decode_worker_idle_ns: Counter::new(),
            log_decode_blocks_inflight_hwm: MaxGauge::new(),
            log_decode_ooo_reorder_depth: MaxGauge::new(),
            log_encode_worker_busy_ns: Counter::new(),
            log_encode_worker_idle_ns: Counter::new(),
            log_encode_sealed_blocks_hwm: MaxGauge::new(),
            log_encode_blocks_inflight_hwm: MaxGauge::new(),
            log_stream_blocks: Counter::new(),
            log_stream_stalls: Counter::new(),
            log_stream_queue: LevelGauges::new(),
            log_decode_total_records: MaxGauge::new(),
            log_records_by_thread: SlotCounters::new(),
            detector_records_routed: Counter::new(),
            detector_shard_events: SlotCounters::new(),
            detector_shard_queue: LevelGauges::new(),
            detector_stream_stalls: Counter::new(),
            detector_worker_busy_ns: Counter::new(),
            detector_worker_idle_ns: Counter::new(),
            detector_frontier_scan: Histogram::new(),
            detector_compact_runs: Counter::new(),
            detector_compact_dropped: Counter::new(),
            detector_frontier_tracked_hwm: MaxGauge::new(),
            detector_epoch_escalations: Counter::new(),
            detector_epoch_deescalations: Counter::new(),
            detector_epoch_memo_hits: Counter::new(),
            detector_epoch_resident_shared: MaxGauge::new(),
            detector_checkpoint_bytes: Counter::new(),
            detector_checkpoint_save_ns: Counter::new(),
            detector_checkpoint_load_ns: Counter::new(),
            detector_checkpoint_resumes: Counter::new(),
            detector_races_static: Counter::new(),
            detector_races_dynamic: Counter::new(),
            detector_races_suppressed: Counter::new(),
            phase_execute: PhaseStats::new(),
            phase_detect: PhaseStats::new(),
            phase_shard_replay: PhaseStats::new(),
            phase_merge: PhaseStats::new(),
        }
    }

    /// Name↔field table for plain counters (the canonical metric names).
    pub(crate) fn counters(&self) -> [(&'static str, &Counter); 54] {
        [
            ("instrument.dispatch.checks", &self.instrument_dispatch_checks),
            ("instrument.dispatch.sampled", &self.instrument_dispatch_sampled),
            ("instrument.mem.executed", &self.instrument_mem_executed),
            ("instrument.mem.logged", &self.instrument_mem_logged),
            ("instrument.sync.logged", &self.instrument_sync_logged),
            (
                "instrument.prefilter.skipped",
                &self.instrument_prefilter_skipped,
            ),
            (
                "instrument.prefilter.residual",
                &self.instrument_prefilter_residual,
            ),
            (
                "instrument.prefilter.table_bytes",
                &self.instrument_prefilter_table_bytes,
            ),
            ("log.encode.v1.records", &self.log_encode_v1_records),
            ("log.encode.v1.bytes", &self.log_encode_v1_bytes),
            ("log.encode.v2.records", &self.log_encode_v2_records),
            ("log.encode.v2.bytes", &self.log_encode_v2_bytes),
            ("log.encode.v2.blocks", &self.log_encode_v2_blocks),
            ("log.encode.v2.deltas", &self.log_encode_v2_deltas),
            (
                "log.encode.v2.deltas_multibyte",
                &self.log_encode_v2_deltas_multibyte,
            ),
            ("log.decode.v1.records", &self.log_decode_v1_records),
            ("log.decode.v1.ns", &self.log_decode_v1_ns),
            ("log.decode.v2.records", &self.log_decode_v2_records),
            ("log.decode.v2.bytes", &self.log_decode_v2_bytes),
            ("log.decode.v2.blocks", &self.log_decode_v2_blocks),
            ("log.decode.v2.ns", &self.log_decode_v2_ns),
            ("log.errors.corrupt", &self.log_errors_corrupt),
            ("log.errors.bad_magic", &self.log_errors_bad_magic),
            (
                "log.errors.unsupported_version",
                &self.log_errors_unsupported_version,
            ),
            ("log.errors.io", &self.log_errors_io),
            (
                "log.errors.writer_finished",
                &self.log_errors_writer_finished,
            ),
            (
                "log.errors.decoder_panicked",
                &self.log_errors_decoder_panicked,
            ),
            ("log.salvage.runs", &self.log_salvage_runs),
            ("log.salvage.blocks_skipped", &self.log_salvage_blocks_skipped),
            (
                "log.salvage.records_dropped",
                &self.log_salvage_records_dropped,
            ),
            ("log.salvage.bytes_dropped", &self.log_salvage_bytes_dropped),
            ("log.retry.attempts", &self.log_retry_attempts),
            ("log.retry.exhausted", &self.log_retry_exhausted),
            (
                "log.decode.worker_busy_ns",
                &self.log_decode_worker_busy_ns,
            ),
            (
                "log.decode.worker_idle_ns",
                &self.log_decode_worker_idle_ns,
            ),
            (
                "log.encode.worker_busy_ns",
                &self.log_encode_worker_busy_ns,
            ),
            (
                "log.encode.worker_idle_ns",
                &self.log_encode_worker_idle_ns,
            ),
            ("log.stream.blocks", &self.log_stream_blocks),
            ("log.stream.stalls", &self.log_stream_stalls),
            ("detector.records.routed", &self.detector_records_routed),
            ("detector.stream.stalls", &self.detector_stream_stalls),
            ("detector.worker.busy_ns", &self.detector_worker_busy_ns),
            ("detector.worker.idle_ns", &self.detector_worker_idle_ns),
            ("detector.compact.runs", &self.detector_compact_runs),
            ("detector.compact.dropped", &self.detector_compact_dropped),
            ("detector.epoch.escalations", &self.detector_epoch_escalations),
            (
                "detector.epoch.deescalations",
                &self.detector_epoch_deescalations,
            ),
            ("detector.epoch.memo_hits", &self.detector_epoch_memo_hits),
            (
                "detector.checkpoint.bytes",
                &self.detector_checkpoint_bytes,
            ),
            (
                "detector.checkpoint.save_ns",
                &self.detector_checkpoint_save_ns,
            ),
            (
                "detector.checkpoint.load_ns",
                &self.detector_checkpoint_load_ns,
            ),
            (
                "detector.checkpoint.resumes",
                &self.detector_checkpoint_resumes,
            ),
            ("detector.races.static", &self.detector_races_static),
            ("detector.races.dynamic", &self.detector_races_dynamic),
        ]
    }

    /// Name↔field table for slot-attributed counter families.
    pub(crate) fn slot_families(&self) -> [(&'static str, Vec<u64>); 7] {
        [
            (
                "instrument.dispatch.checks_by_thread",
                self.instrument_dispatch_checks_by_thread.values(),
            ),
            (
                "instrument.dispatch.sampled_by_thread",
                self.instrument_dispatch_sampled_by_thread.values(),
            ),
            (
                "sampler.burst.transitions",
                self.sampler_burst_transitions.values(),
            ),
            ("log.records_by_thread", self.log_records_by_thread.values()),
            ("detector.shard.events", self.detector_shard_events.values()),
            (
                "detector.shard.queue_depth_hwm",
                self.detector_shard_queue.hwm_values(),
            ),
            (
                "log.stream.queue_depth_hwm",
                self.log_stream_queue.hwm_values(),
            ),
        ]
    }

    /// Name↔field table for monotonic gauges. `detector.races.suppressed`
    /// lives here because suppression happens after snapshot-producing
    /// detection in some flows and must not look like detector throughput.
    pub(crate) fn gauges(&self) -> [(&'static str, u64); 8] {
        [
            (
                "log.decode.blocks_inflight_hwm",
                self.log_decode_blocks_inflight_hwm.get(),
            ),
            (
                "log.decode.total_records",
                self.log_decode_total_records.get(),
            ),
            (
                "log.decode.ooo_reorder_depth",
                self.log_decode_ooo_reorder_depth.get(),
            ),
            (
                "log.encode.sealed_blocks_hwm",
                self.log_encode_sealed_blocks_hwm.get(),
            ),
            (
                "log.encode.blocks_inflight_hwm",
                self.log_encode_blocks_inflight_hwm.get(),
            ),
            (
                "detector.frontier.tracked_hwm",
                self.detector_frontier_tracked_hwm.get(),
            ),
            (
                "detector.epoch.resident_shared",
                self.detector_epoch_resident_shared.get(),
            ),
            (
                "detector.races.suppressed",
                self.detector_races_suppressed.get(),
            ),
        ]
    }

    /// Name↔field table for histograms.
    pub(crate) fn histograms(&self) -> [(&'static str, &Histogram); 1] {
        [("detector.frontier.scan_len", &self.detector_frontier_scan)]
    }

    /// Name↔field table for phases.
    pub(crate) fn phases(&self) -> [(&'static str, &PhaseStats); 4] {
        [
            ("phase.execute", &self.phase_execute),
            ("phase.detect", &self.phase_detect),
            ("phase.shard_replay", &self.phase_shard_replay),
            ("phase.merge", &self.phase_merge),
        ]
    }

    /// Captures a point-in-time [`Snapshot`] of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(self)
    }

    /// Zeroes every metric (for benches and tests; not atomic as a whole).
    pub fn reset(&self) {
        for (_, c) in self.counters() {
            c.reset();
        }
        self.instrument_dispatch_checks_by_thread.reset();
        self.instrument_dispatch_sampled_by_thread.reset();
        self.sampler_burst_transitions.reset();
        self.log_records_by_thread.reset();
        self.detector_shard_events.reset();
        self.detector_shard_queue.reset();
        self.log_stream_queue.reset();
        self.log_decode_blocks_inflight_hwm.reset();
        self.log_decode_total_records.reset();
        self.log_decode_ooo_reorder_depth.reset();
        self.log_encode_sealed_blocks_hwm.reset();
        self.log_encode_blocks_inflight_hwm.reset();
        self.detector_frontier_tracked_hwm.reset();
        self.detector_epoch_resident_shared.reset();
        self.detector_races_suppressed.reset();
        self.detector_frontier_scan.reset();
        for (_, p) in self.phases() {
            p.reset();
        }
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide metrics registry.
#[inline]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_cover_distinct_names() {
        let m = Metrics::new();
        let mut names: Vec<&str> = m.counters().iter().map(|(n, _)| *n).collect();
        names.extend(m.slot_families().iter().map(|(n, _)| *n));
        names.extend(m.gauges().iter().map(|(n, _)| *n));
        names.extend(m.histograms().iter().map(|(n, _)| *n));
        names.extend(m.phases().iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        m.instrument_dispatch_checks.add(5);
        m.detector_shard_events.add(3, 7);
        m.detector_frontier_scan.record(9);
        m.phase_merge.record_ns(11);
        m.reset();
        assert_eq!(m.instrument_dispatch_checks.get(), 0);
        assert_eq!(m.detector_shard_events.total(), 0);
        assert_eq!(m.detector_frontier_scan.count(), 0);
        assert_eq!(m.phase_merge.count(), 0);
    }
}
