//! The global metrics registry: every metric the pipeline records, as one
//! `static` of atomics.
//!
//! Fields are public so recording sites write straight to the atomic with
//! no name lookup. Each metric is declared once, as one entry of the
//! `registry!` table below: its doc, its type, the snapshot section it
//! exports to, its canonical name, and whether `literace metrics
//! --validate` requires it. The struct, [`Metrics::new`], the snapshot
//! capture (and so the Prometheus names), [`reset`](Metrics::reset) and
//! the required list all expand from that table.

use crate::metrics::{Counter, Histogram, LevelGauges, MaxGauge, SlotCounters, BURST_SLOTS, SLOTS};
use crate::snapshot::{HistogramSnapshot, PhaseSnapshot, Snapshot};
use crate::span::PhaseStats;

/// Expands the one table of metrics. An entry reads
/// `field: Type => section["canonical.name"]`, plus `, required` if
/// `metrics --validate` requires it; `section` is the [`Snapshot`] map
/// the metric exports to.
macro_rules! registry {
    (@new phases, $ty:ty, $name:literal) => { <$ty>::new($name) };
    (@new $section:ident, $ty:ty, $name:literal) => { <$ty>::new() };
    (@required required) => { true };
    (@required) => { false };
    ($(
        $(#[doc = $doc:literal])+
        $field:ident: $ty:ty => $section:ident[$name:literal] $(, $required:ident)?;
    )+) => {
        /// Every metric the LiteRace pipeline records, declared once each
        /// in the table in `registry.rs`. See the crate docs for the
        /// naming convention.
        #[derive(Debug)]
        pub struct Metrics {
            $(
                $(#[doc = $doc])+
                #[doc = ""]
                #[doc = concat!("Exported as `", $name, "`.")]
                pub $field: $ty,
            )+
        }

        impl Metrics {
            /// Every canonical name, in table order.
            #[cfg(test)]
            const NAMES: &'static [&'static str] = &[$($name),+];

            /// A fresh, zeroed registry — used by the global `static` and
            /// by tests that need isolation from it.
            pub(crate) const fn new() -> Metrics {
                Metrics { $($field: registry!(@new $section, $ty, $name),)+ }
            }

            /// Puts every metric into its section of `snap`.
            pub(crate) fn capture_into(&self, snap: &mut Snapshot) {
                $(snap.$section.insert($name.to_owned(), Export::export(&self.$field));)+
            }

            /// Zeroes every metric (for benches and tests; not atomic as a
            /// whole).
            pub fn reset(&self) {
                $(self.$field.reset();)+
            }

            /// The required metrics `snap` lacks, in table order.
            pub(crate) fn missing_required(snap: &Snapshot) -> Vec<&'static str> {
                let entries = [$((
                    $name,
                    registry!(@required $($required)?),
                    snap.$section.contains_key($name),
                )),+];
                entries
                    .into_iter()
                    .filter(|&(_, required, present)| required && !present)
                    .map(|(name, ..)| name)
                    .collect()
            }

            /// Makes every part of every metric non-zero.
            #[cfg(test)]
            fn touch_all(&self) {
                $(Export::touch(&self.$field);)+
            }
        }
    };
}

registry! {
    // ── instrument side ────────────────────────────────────────────────
    /// Sampler dispatch checks executed (one per instrumented function
    /// entry, §4.1).
    instrument_dispatch_checks: Counter => counters["instrument.dispatch.checks"], required;
    /// Dispatch checks that chose the instrumented (sampled) copy.
    instrument_dispatch_sampled: Counter => counters["instrument.dispatch.sampled"], required;
    /// Dispatch checks attributed to the simulated thread that ran them.
    instrument_dispatch_checks_by_thread: SlotCounters<SLOTS>
        => slots["instrument.dispatch.checks_by_thread"];
    /// Sampled dispatch decisions per simulated thread.
    instrument_dispatch_sampled_by_thread: SlotCounters<SLOTS>
        => slots["instrument.dispatch.sampled_by_thread"];
    /// Memory accesses executed by the program (sampled or not).
    instrument_mem_executed: Counter => counters["instrument.mem.executed"];
    /// Memory accesses actually logged.
    instrument_mem_logged: Counter => counters["instrument.mem.logged"], required;
    /// Synchronization records logged (never sampled, §4.1).
    instrument_sync_logged: Counter => counters["instrument.sync.logged"], required;
    /// Memory accesses skipped by the static ordering prefilter — no
    /// sampler consultation, no log record.
    instrument_prefilter_skipped: Counter => counters["instrument.prefilter.skipped"];
    /// Memory accesses that passed the prefilter (the residual
    /// possibly-racy set the sampler budget is spent on).
    instrument_prefilter_residual: Counter => counters["instrument.prefilter.residual"];
    /// Size in bytes of the installed prefilter skip table.
    instrument_prefilter_table_bytes: Counter => counters["instrument.prefilter.table_bytes"];
    /// Burst-sampler back-off transitions, by the back-off level entered
    /// (slot 1 = first back-off, e.g. 100%→10% in the LiteRace schedule).
    sampler_burst_transitions: SlotCounters<BURST_SLOTS>
        => slots["sampler.burst.transitions"], required;

    // ── log side ───────────────────────────────────────────────────────
    /// Records encoded to the compact v2 format.
    log_encode_v2_records: Counter => counters["log.encode.v2.records"];
    /// v2 bytes flushed to the sink (headers + block frames).
    log_encode_v2_bytes: Counter => counters["log.encode.v2.bytes"];
    /// v2 blocks flushed to the sink.
    log_encode_v2_blocks: Counter => counters["log.encode.v2.blocks"];
    /// Delta fields emitted by the v2 encoder.
    log_encode_v2_deltas: Counter => counters["log.encode.v2.deltas"];
    /// Delta fields that needed more than one varint byte (the fallback
    /// rate of the zigzag delta scheme).
    log_encode_v2_deltas_multibyte: Counter => counters["log.encode.v2.deltas_multibyte"];
    /// Records decoded from v1 logs.
    log_decode_v1_records: Counter => counters["log.decode.v1.records"];
    /// Nanoseconds spent decoding v1 blocks.
    log_decode_v1_ns: Counter => counters["log.decode.v1.ns"];
    /// Records decoded from v2 logs.
    log_decode_v2_records: Counter => counters["log.decode.v2.records"];
    /// v2 bytes consumed by the decoder (block frames + payloads).
    log_decode_v2_bytes: Counter => counters["log.decode.v2.bytes"], required;
    /// v2 blocks decoded.
    log_decode_v2_blocks: Counter => counters["log.decode.v2.blocks"];
    /// Nanoseconds spent decoding v2 blocks.
    log_decode_v2_ns: Counter => counters["log.decode.v2.ns"], required;
    /// Log-read failures: corrupt framing or payload.
    log_errors_corrupt: Counter => counters["log.errors.corrupt"];
    /// Log-read failures: unrecognized magic.
    log_errors_bad_magic: Counter => counters["log.errors.bad_magic"];
    /// Log-read failures: known magic, unsupported version.
    log_errors_unsupported_version: Counter => counters["log.errors.unsupported_version"];
    /// Log-read failures: underlying I/O errors.
    log_errors_io: Counter => counters["log.errors.io"];
    /// Decoder-thread panics contained into stream errors.
    log_errors_decoder_panicked: Counter => counters["log.errors.decoder_panicked"];
    /// Salvage decodes started (`--salvage` openers).
    log_salvage_runs: Counter => counters["log.salvage.runs"];
    /// Corrupt v2 blocks skipped by salvage decode.
    log_salvage_blocks_skipped: Counter => counters["log.salvage.blocks_skipped"];
    /// Records known dropped by salvage (from trusted block headers).
    log_salvage_records_dropped: Counter => counters["log.salvage.records_dropped"];
    /// Bytes discarded by salvage (skipped blocks + dropped suffixes).
    log_salvage_bytes_dropped: Counter => counters["log.salvage.bytes_dropped"];
    /// Transient-I/O read retries attempted by the retry wrapper.
    log_retry_attempts: Counter => counters["log.retry.attempts"];
    /// Reads that failed even after exhausting the retry budget.
    log_retry_exhausted: Counter => counters["log.retry.exhausted"];
    /// Nanoseconds parallel-decode workers spent decoding block payloads.
    log_decode_worker_busy_ns: Counter => counters["log.decode.worker_busy_ns"];
    /// Nanoseconds parallel-decode workers spent waiting for scanned
    /// blocks.
    log_decode_worker_idle_ns: Counter => counters["log.decode.worker_idle_ns"];
    /// Most blocks simultaneously in flight between the frame scanner and
    /// the in-order consumer of the parallel decode pool.
    log_decode_blocks_inflight_hwm: MaxGauge => gauges["log.decode.blocks_inflight_hwm"];
    /// Deepest reorder buffer the parallel-decode consumer needed to
    /// restore sequence order from out-of-order workers.
    log_decode_ooo_reorder_depth: MaxGauge => gauges["log.decode.ooo_reorder_depth"];
    /// Nanoseconds pipelined-encode workers spent encoding sealed blocks.
    log_encode_worker_busy_ns: Counter => counters["log.encode.worker_busy_ns"];
    /// Nanoseconds pipelined-encode workers spent waiting for sealed
    /// blocks.
    log_encode_worker_idle_ns: Counter => counters["log.encode.worker_idle_ns"];
    /// Most raw blocks simultaneously sealed and awaiting an encode
    /// worker in the pipelined write path.
    log_encode_sealed_blocks_hwm: MaxGauge => gauges["log.encode.sealed_blocks_hwm"];
    /// Most blocks simultaneously in flight between the producer's seal
    /// and the in-order committer of the pipelined write path.
    log_encode_blocks_inflight_hwm: MaxGauge => gauges["log.encode.blocks_inflight_hwm"];
    /// Blocks handed from the decode thread to the streaming channel.
    log_stream_blocks: Counter => counters["log.stream.blocks"];
    /// Times the decode thread found the streaming channel full and had to
    /// block (backpressure stalls).
    log_stream_stalls: Counter => counters["log.stream.stalls"], required;
    /// Occupancy of the decode→detect channel (slot 0), with high-water
    /// mark.
    log_stream_queue: LevelGauges<1> => slots["log.stream.queue_depth_hwm"];
    /// Total records a sealed v2 log declares in its footer — set before
    /// decoding starts so progress reporting can compute percent-complete.
    /// Zero when the input is unsealed or the total is unknown.
    log_decode_total_records: MaxGauge => gauges["log.decode.total_records"];
    /// Log records attributed per thread (populated by `log-stats`).
    log_records_by_thread: SlotCounters<SLOTS> => slots["log.records_by_thread"];

    // ── detector side ──────────────────────────────────────────────────
    /// Records the detection engine replayed, counted once per block at
    /// every shard count.
    detector_records_routed: Counter => counters["detector.records.routed"], required;
    /// Accesses each address shard owned and checked; the slots sum to
    /// the accesses detected.
    detector_shard_events: SlotCounters<SLOTS> => slots["detector.shard.events"], required;
    /// Blocks queued on each shard worker's channel, with high-water
    /// marks.
    detector_shard_queue: LevelGauges<SLOTS>
        => slots["detector.shard.queue_depth_hwm"], required;
    /// Times the engine found a shard worker's channel full and had to
    /// block sending it a block (backpressure stalls).
    detector_stream_stalls: Counter => counters["detector.stream.stalls"], required;
    /// Nanoseconds shard workers spent processing blocks.
    detector_worker_busy_ns: Counter => counters["detector.worker.busy_ns"];
    /// Nanoseconds shard workers spent waiting for input.
    detector_worker_idle_ns: Counter => counters["detector.worker.idle_ns"];
    /// Frontier entries examined per access (antichain scan length).
    /// Detectors feed this through a [`ScanSampler`](crate::ScanSampler):
    /// a deterministic 1-in-16 systematic sample, so the per-access cost
    /// stays within the overhead budget. Counts are ~accesses/16; the
    /// shape of the distribution is what matters.
    detector_frontier_scan: Histogram => histograms["detector.frontier.scan_len"];
    /// Frontier compaction passes run.
    detector_compact_runs: Counter => counters["detector.compact.runs"];
    /// Locations reclaimed by compaction.
    detector_compact_dropped: Counter => counters["detector.compact.dropped"];
    /// Most addresses with live frontier state seen at once.
    detector_frontier_tracked_hwm: MaxGauge => gauges["detector.frontier.tracked_hwm"];
    /// Locations promoted from inline epochs to a full access history.
    detector_epoch_escalations: Counter => counters["detector.epoch.escalations"];
    /// Escalated locations collapsed back to inline epochs.
    detector_epoch_deescalations: Counter => counters["detector.epoch.deescalations"];
    /// Accesses short-circuited by the same-epoch memo (no history work).
    detector_epoch_memo_hits: Counter => counters["detector.epoch.memo_hits"];
    /// Most simultaneously escalated (full-history) locations, summed over
    /// shard frontiers.
    detector_epoch_resident_shared: MaxGauge => gauges["detector.epoch.resident_shared"];
    /// Checkpoint bytes serialized (sealed container size, summed over
    /// saves).
    detector_checkpoint_bytes: Counter => counters["detector.checkpoint.bytes"];
    /// Nanoseconds spent serializing checkpoints.
    detector_checkpoint_save_ns: Counter => counters["detector.checkpoint.save_ns"];
    /// Nanoseconds spent parsing and validating checkpoints.
    detector_checkpoint_load_ns: Counter => counters["detector.checkpoint.load_ns"];
    /// Detectors resumed from a checkpoint (any path).
    detector_checkpoint_resumes: Counter => counters["detector.checkpoint.resumes"];
    /// Static (PC-pair) races reported.
    detector_races_static: Counter => counters["detector.races.static"], required;
    /// Dynamic race occurrences reported.
    detector_races_dynamic: Counter => counters["detector.races.dynamic"], required;
    /// Static races removed by suppression rules. Exported as a gauge:
    /// suppression runs after the detection that feeds a snapshot in some
    /// flows, and must not read as detector throughput.
    detector_races_suppressed: Counter => gauges["detector.races.suppressed"], required;

    // ── pipeline phases ────────────────────────────────────────────────
    /// Instrumented execution (simulator run, including sampling and
    /// logging).
    phase_execute: PhaseStats => phases["phase.execute"];
    /// Whole offline detection, any path.
    phase_detect: PhaseStats => phases["phase.detect"];
    /// Per-shard frontier replay (one span per worker).
    phase_shard_replay: PhaseStats => phases["phase.shard_replay"];
    /// Merge of per-shard race pairs into the final report.
    phase_merge: PhaseStats => phases["phase.merge"];
}

impl Metrics {
    /// Captures a point-in-time [`Snapshot`] of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(self)
    }
}

/// A metric's value as its snapshot section holds it.
trait Export {
    type Value;
    fn export(&self) -> Self::Value;
    /// Makes every part of the metric non-zero.
    #[cfg(test)]
    fn touch(&self);
}

impl Export for Counter {
    type Value = u64;
    fn export(&self) -> u64 {
        self.get()
    }
    #[cfg(test)]
    fn touch(&self) {
        self.add(1);
    }
}

impl Export for MaxGauge {
    type Value = u64;
    fn export(&self) -> u64 {
        self.get()
    }
    #[cfg(test)]
    fn touch(&self) {
        self.record(1);
    }
}

impl<const N: usize> Export for SlotCounters<N> {
    type Value = Vec<u64>;
    fn export(&self) -> Vec<u64> {
        self.values()
    }
    #[cfg(test)]
    fn touch(&self) {
        (0..N).for_each(|slot| self.add(slot, 1));
    }
}

impl<const N: usize> Export for LevelGauges<N> {
    type Value = Vec<u64>;
    fn export(&self) -> Vec<u64> {
        self.hwm_values()
    }
    #[cfg(test)]
    fn touch(&self) {
        (0..N).for_each(|slot| self.inc(slot));
    }
}

impl Export for Histogram {
    type Value = HistogramSnapshot;
    fn export(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self.bucket_values(),
        }
    }
    #[cfg(test)]
    fn touch(&self) {
        // Bucket b's upper bound falls in bucket b.
        (0..crate::HIST_BUCKETS).for_each(|b| self.record(crate::metrics::bucket_bound(b)));
    }
}

impl Export for PhaseStats {
    type Value = PhaseSnapshot;
    fn export(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            count: self.count(),
            total_ns: self.total_ns(),
            max_ns: self.max_ns(),
            by_thread: self.by_thread(),
        }
    }
    #[cfg(test)]
    fn touch(&self) {
        self.record_ns(1);
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
    use std::collections::BTreeMap;

    /// Every metric of `snap` rendered by canonical name, across sections.
    fn by_name(snap: &Snapshot) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for (n, v) in snap.counters.iter().chain(&snap.gauges) {
            out.insert(n.clone(), v.to_string());
        }
        for (n, v) in &snap.slots {
            out.insert(n.clone(), format!("{v:?}"));
        }
        for (n, v) in &snap.histograms {
            out.insert(n.clone(), format!("{v:?}"));
        }
        for (n, v) in &snap.phases {
            out.insert(n.clone(), format!("{v:?}"));
        }
        out
    }

    #[test]
    fn tables_cover_distinct_names() {
        let mut names = Metrics::NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metrics::NAMES.len(), "duplicate metric name");
        let exported: Vec<String> = by_name(&Metrics::new().snapshot()).into_keys().collect();
        assert_eq!(exported, names);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = Metrics::new();
        let fresh = m.snapshot();
        m.touch_all();
        let touched = m.snapshot();
        let (zero, touched) = (by_name(&fresh), by_name(&touched));
        for (name, value) in &zero {
            assert_ne!(&touched[name], value, "{name} was not touched");
        }
        m.reset();
        assert_eq!(by_name(&m.snapshot()), zero, "reset left a metric non-zero");
    }
}
