//! Point-in-time snapshots of the registry and their exporters: a stable,
//! versioned JSON schema and Prometheus text format.
//!
//! # JSON schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "counters":   { "<name>": u64, ... },
//!   "gauges":     { "<name>": u64, ... },
//!   "slots":      { "<name>": [u64, ...], ... },
//!   "histograms": { "<name>": {"count": u64, "sum": u64, "buckets": [u64; 64]}, ... },
//!   "phases":     { "<name>": {"count": u64, "total_ns": u64, "max_ns": u64,
//!                              "by_thread": [u64, ...]}, ... },
//!   "derived":    { "<name>": f64, ... }
//! }
//! ```
//!
//! Keys within each section are sorted, arrays have fixed per-metric
//! lengths, and no wall-clock timestamp is embedded, so serialization is
//! deterministic: equal snapshots produce equal bytes. New metrics may be
//! *added* within a schema version; renaming or removing one bumps
//! [`SCHEMA_VERSION`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{escape_into, parse_json, JsonValue};
use crate::metrics::bucket_bound;
use crate::registry::Metrics;

/// Version of the JSON snapshot schema.
pub const SCHEMA_VERSION: u64 = 1;

/// A captured histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see [`crate::HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

/// A captured phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseSnapshot {
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds across spans.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Nanoseconds attributed to each thread slot.
    pub by_thread: Vec<u64>,
}

/// A point-in-time capture of every metric in the registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Plain counters, by canonical name.
    pub counters: BTreeMap<String, u64>,
    /// Monotonic gauges, by canonical name.
    pub gauges: BTreeMap<String, u64>,
    /// Slot-attributed counter families (per-thread, per-shard, per-level).
    pub slots: BTreeMap<String, Vec<u64>>,
    /// Histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Phase timings.
    pub phases: BTreeMap<String, PhaseSnapshot>,
    /// Ratios and rates computed at capture time (e.g.
    /// `log.decode.v2.mb_per_s`). Only finite values are emitted.
    pub derived: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Captures the current state of `metrics`.
    pub fn capture(metrics: &Metrics) -> Snapshot {
        let mut snap = Snapshot::default();
        metrics.capture_into(&mut snap);
        snap.compute_derived();
        snap
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// (Re)computes the `derived` section from the raw sections.
    fn compute_derived(&mut self) {
        let mb_per_s = |bytes: u64, ns: u64| {
            if ns == 0 {
                f64::NAN
            } else {
                (bytes as f64 / (1 << 20) as f64) / (ns as f64 / 1e9)
            }
        };
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                f64::NAN
            } else {
                num as f64 / den as f64
            }
        };
        let busy = self.counter("detector.worker.busy_ns");
        let idle = self.counter("detector.worker.idle_ns");
        let values = [
            (
                "log.decode.v2.mb_per_s",
                mb_per_s(
                    self.counter("log.decode.v2.bytes"),
                    self.counter("log.decode.v2.ns"),
                ),
            ),
            (
                "log.encode.v2.multibyte_delta_rate",
                ratio(
                    self.counter("log.encode.v2.deltas_multibyte"),
                    self.counter("log.encode.v2.deltas"),
                ),
            ),
            (
                "instrument.dispatch.sample_rate",
                ratio(
                    self.counter("instrument.dispatch.sampled"),
                    self.counter("instrument.dispatch.checks"),
                ),
            ),
            ("detector.worker.utilization", ratio(busy, busy + idle)),
        ];
        self.derived.clear();
        for (name, v) in values {
            if v.is_finite() {
                self.derived.insert(name.to_owned(), v);
            }
        }
    }

    /// Serializes the snapshot as pretty-printed, deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "{{\n  \"schema_version\": {SCHEMA_VERSION},");
        let int = |out: &mut String, v: &u64| {
            let _ = write!(out, "{v}");
        };
        write_section(&mut out, "counters", &self.counters, int);
        write_section(&mut out, "gauges", &self.gauges, int);
        write_section(&mut out, "slots", &self.slots, |out, v| write_list(out, v));
        write_section(&mut out, "histograms", &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"buckets\": ",
                h.count, h.sum
            );
            write_list(out, &h.buckets);
            out.push('}');
        });
        write_section(&mut out, "phases", &self.phases, |out, p| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"by_thread\": ",
                p.count, p.total_ns, p.max_ns
            );
            write_list(out, &p.by_thread);
            out.push('}');
        });
        write_section(&mut out, "derived", &self.derived, |out, v| {
            // `{}` on f64 is the shortest representation that parses back
            // to the same value, so serialization round-trips exactly.
            let _ = write!(out, "{v}");
        });
        // The last section closes the object instead of taking a comma.
        out.truncate(out.len() - ",\n".len());
        out.push_str("\n}\n");
        out
    }

    /// Parses a snapshot previously produced by [`to_json`](Snapshot::to_json).
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors, a missing or mismatched
    /// `schema_version`, and structurally invalid sections.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = parse_json(text)?;
        let version = root
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (supported: {SCHEMA_VERSION})"
            ));
        }
        let mut snap = Snapshot::default();
        for (name, v) in section(&root, "counters")? {
            let v = v.as_u64().ok_or_else(|| format!("counter {name} not a u64"))?;
            snap.counters.insert(name.clone(), v);
        }
        for (name, v) in section(&root, "gauges")? {
            let v = v.as_u64().ok_or_else(|| format!("gauge {name} not a u64"))?;
            snap.gauges.insert(name.clone(), v);
        }
        for (name, v) in section(&root, "slots")? {
            snap.slots.insert(name.clone(), u64_array(name, v)?);
        }
        for (name, v) in section(&root, "histograms")? {
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count: field_u64(name, v, "count")?,
                    sum: field_u64(name, v, "sum")?,
                    buckets: u64_array(
                        name,
                        v.get("buckets").ok_or_else(|| format!("{name}: no buckets"))?,
                    )?,
                },
            );
        }
        for (name, v) in section(&root, "phases")? {
            snap.phases.insert(
                name.clone(),
                PhaseSnapshot {
                    count: field_u64(name, v, "count")?,
                    total_ns: field_u64(name, v, "total_ns")?,
                    max_ns: field_u64(name, v, "max_ns")?,
                    by_thread: u64_array(
                        name,
                        v.get("by_thread")
                            .ok_or_else(|| format!("{name}: no by_thread"))?,
                    )?,
                },
            );
        }
        for (name, v) in section(&root, "derived")? {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("derived {name} not a number"))?;
            snap.derived.insert(name.clone(), v);
        }
        Ok(snap)
    }

    /// Checks that the snapshot carries every metric the registry marks
    /// required, plus the v2 decode rate whenever decode time was
    /// recorded, returning the missing names in registry order.
    ///
    /// Used by `literace metrics --validate` (and CI) as a schema-level
    /// sanity check on freshly produced snapshots.
    pub fn missing_required(&self) -> Vec<&'static str> {
        let mut missing = Metrics::missing_required(self);
        if !self.derived.contains_key("log.decode.v2.mb_per_s")
            && self.counters.get("log.decode.v2.ns").copied().unwrap_or(0) > 0
        {
            missing.push("log.decode.v2.mb_per_s");
        }
        missing
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Names gain a `literace_` prefix with dots rewritten to underscores;
    /// slot families become labelled series; histograms use cumulative
    /// `le` buckets over the log2 upper bounds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, values) in &self.slots {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            for (slot, v) in values.iter().enumerate() {
                let _ = writeln!(out, "{n}{{slot=\"{slot}\"}} {v}");
            }
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (b, count) in h.buckets.iter().enumerate() {
                cumulative += count;
                // Skip the long run of empty interior buckets but keep the
                // sentinel buckets Prometheus needs.
                if *count == 0 && b != 0 && b != h.buckets.len() - 1 {
                    continue;
                }
                let bound = bucket_bound(b);
                if bound == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(out, "{n}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        for (name, p) in &self.phases {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n}_total_ns counter");
            let _ = writeln!(out, "{n}_total_ns {}", p.total_ns);
            let _ = writeln!(out, "# TYPE {n}_count counter");
            let _ = writeln!(out, "{n}_count {}", p.count);
            let _ = writeln!(out, "# TYPE {n}_max_ns gauge");
            let _ = writeln!(out, "{n}_max_ns {}", p.max_ns);
        }
        for (name, v) in &self.derived {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("literace_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Writes one `"title": {...},` section: the map's entries in key order,
/// one per line, each value rendered by `render`.
fn write_section<V>(
    out: &mut String,
    title: &str,
    map: &BTreeMap<String, V>,
    render: impl Fn(&mut String, &V),
) {
    let _ = write!(out, "  \"{title}\": {{");
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_into(name, out);
        out.push_str("\": ");
        render(out, v);
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");
}

/// Writes `values` as a one-line JSON array, `[1, 2, 3]`.
fn write_list(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Reads a named object section. An absent section parses as empty, and
/// unknown sections (or unknown fields inside known entries) are simply
/// never looked at — snapshots written by a future version that *adds*
/// keys still load here; the `schema_version` gate is reserved for
/// incompatible changes to keys this reader does consume.
fn section<'a>(
    root: &'a JsonValue,
    name: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, String> {
    static EMPTY: BTreeMap<String, JsonValue> = BTreeMap::new();
    match root.get(name) {
        None => Ok(&EMPTY),
        Some(v) => v
            .as_object()
            .ok_or_else(|| format!("section {name} is not an object")),
    }
}

fn field_u64(owner: &str, v: &JsonValue, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{owner}: bad field {field}"))
}

fn u64_array(owner: &str, v: &JsonValue) -> Result<Vec<u64>, String> {
    v.as_array()
        .ok_or_else(|| format!("{owner}: not an array"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("{owner}: non-u64 element")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        // Local registries keep these tests independent of the global one
        // (the test runner is parallel).
        let m = Metrics::new();
        m.instrument_dispatch_checks.add(100);
        m.instrument_dispatch_sampled.add(12);
        m.detector_shard_events.add(2, 40);
        m.detector_frontier_scan.record(5);
        m.detector_frontier_scan.record(1000);
        m.phase_merge.record_ns(12345);
        m.log_decode_v2_bytes.add(1 << 20);
        m.log_decode_v2_ns.add(1_000_000_000);
        let snap = m.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json, "serialization is deterministic");
        assert_eq!(back.derived["log.decode.v2.mb_per_s"], 1.0);
    }

    #[test]
    fn exporters_emit_the_same_metric_name_set() {
        let m = Metrics::new();
        m.detector_frontier_scan.record(3);
        m.log_decode_v2_ns.add(1_000_000);
        m.log_decode_v2_bytes.add(1 << 20);
        let snap = m.snapshot();

        // Every name the JSON snapshot carries, sanitized the way the
        // Prometheus exporter does (phases expand to their three series).
        let mut json_names: std::collections::BTreeSet<String> =
            std::collections::BTreeSet::new();
        json_names.extend(snap.counters.keys().map(|n| prom_name(n)));
        json_names.extend(snap.gauges.keys().map(|n| prom_name(n)));
        json_names.extend(snap.slots.keys().map(|n| prom_name(n)));
        json_names.extend(snap.histograms.keys().map(|n| prom_name(n)));
        for n in snap.phases.keys() {
            let p = prom_name(n);
            json_names.insert(format!("{p}_total_ns"));
            json_names.insert(format!("{p}_count"));
            json_names.insert(format!("{p}_max_ns"));
        }
        json_names.extend(snap.derived.keys().map(|n| prom_name(n)));

        // Every family the Prometheus exporter declares.
        let prom = snap.to_prometheus();
        let prom_names: std::collections::BTreeSet<String> = prom
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|rest| rest.split(' ').next().unwrap().to_owned())
            .collect();

        assert_eq!(
            json_names, prom_names,
            "JSON and Prometheus exporters disagree on the metric set"
        );
    }

    #[test]
    fn from_json_ignores_unknown_keys() {
        let m = Metrics::new();
        m.instrument_dispatch_checks.add(3);
        m.detector_frontier_scan.record(7);
        m.phase_detect.record_ns(11);
        let snap = m.snapshot();
        // A future writer adds a top-level section, a field inside the
        // first histogram entry, and a field inside the first phase entry;
        // this reader must skip all three and recover the same snapshot.
        let patched = snap
            .to_json()
            .replacen(
                "\"counters\"",
                "\"future_section\": {\"x\": 1}, \"counters\"",
                1,
            )
            .replacen("\"count\":", "\"future_field\": \"y\", \"count\":", 2);
        assert_eq!(Snapshot::from_json(&patched).expect("parses"), snap);
    }

    #[test]
    fn from_json_tolerates_absent_sections() {
        let minimal = format!("{{\"schema_version\": {SCHEMA_VERSION}}}");
        assert_eq!(
            Snapshot::from_json(&minimal).expect("parses"),
            Snapshot::default()
        );
    }

    #[test]
    fn from_json_rejects_other_schema_versions() {
        let json = Metrics::new().snapshot().to_json();
        let bumped = json.replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
            1,
        );
        let err = Snapshot::from_json(&bumped).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn fresh_snapshot_carries_all_required_metrics() {
        let snap = Metrics::new().snapshot();
        // Zero-valued decode ns means the MB/s derived metric is allowed
        // to be absent; everything else must exist even when zero.
        assert_eq!(snap.missing_required(), Vec::<&str>::new());
    }

    #[test]
    fn missing_required_names_what_a_snapshot_lacks() {
        let mut snap = Metrics::new().snapshot();
        snap.counters.remove("detector.records.routed");
        snap.counters.remove("instrument.mem.executed"); // not required
        snap.gauges.remove("detector.races.suppressed");
        snap.counters.insert("log.decode.v2.ns".into(), 5);
        assert_eq!(
            snap.missing_required(),
            [
                "detector.records.routed",
                "detector.races.suppressed",
                "log.decode.v2.mb_per_s"
            ]
        );
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let m = Metrics::new();
        m.detector_frontier_scan.record(7);
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE literace_instrument_dispatch_checks counter"));
        assert!(text.contains("literace_detector_shard_events{slot=\"0\"}"));
        assert!(text.contains("literace_detector_frontier_scan_len_bucket{le=\"+Inf\"}"));
        assert!(text.contains("literace_detector_frontier_scan_len_sum"));
        assert!(!text.contains(".."), "no unsanitized names");
    }
}
