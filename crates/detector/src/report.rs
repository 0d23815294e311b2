//! Race reports: dynamic races grouped into static races, with the paper's
//! rare/frequent classification (§5.3.1), and the one per-pair aggregate
//! every detector builds them from.
//!
//! **One mergeable aggregate.** A detector counts each dynamic race into
//! its static pair's [`PairAgg`] through one insert, [`count_race`]: the
//! occurrence count, the first occurrence's global record position and
//! address, and at most a cap of distinct racing addresses. Nothing is
//! kept per dynamic race. The happens-before shards and the lockset
//! detector both count this way. [`merge`] folds aggregates built over
//! disjoint records (the engine's shards, a checkpoint's prefix): counts
//! sum, the earliest first occurrence supplies the example address, and
//! the address sets union up to the cap, so the distinct-address count is
//! the smaller of the distinct racing addresses and the cap at any shard
//! count. [`report`] turns the aggregates into a [`RaceReport`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use literace_sim::{Addr, Pc};

use crate::fast_hash::{FastMap, FastSet};

/// Distinct racing addresses a static pair remembers by default (see
/// [`HbConfig::max_dynamic_per_pair`](crate::HbConfig)); the lockset
/// detector always uses it.
pub(crate) const DEFAULT_PAIR_ADDR_CAP: usize = 1 << 20;

/// One static pair's running aggregate: the report row, built as races
/// are detected, and mergeable across shards and with a checkpoint's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PairAgg {
    /// Dynamic occurrences.
    pub count: u64,
    /// Global record position of the first occurrence. A checkpoint's
    /// pairs precede every record resumed after them, so they carry 0.
    pub first_pos: u64,
    /// Address of the first occurrence.
    pub example_addr: Addr,
    /// The first `cap` distinct racing addresses.
    pub addrs: FastSet<Addr>,
}

impl PairAgg {
    /// Folds in `other`, the same pair's aggregate over other records.
    fn absorb(&mut self, other: PairAgg, cap: usize) {
        self.count += other.count;
        if other.first_pos < self.first_pos {
            self.first_pos = other.first_pos;
            self.example_addr = other.example_addr;
        }
        for addr in other.addrs {
            if self.addrs.len() >= cap {
                break;
            }
            self.addrs.insert(addr);
        }
    }
}

/// Per-static-pair aggregates, keyed by the normalized (smaller-first)
/// pc pair.
pub(crate) type PairMap = FastMap<(Pc, Pc), PairAgg>;

/// The one per-pair insert: counts one dynamic race between sites `a`
/// and `b` on `addr`, completed at global record position `pos`, keeping
/// at most `cap` distinct addresses. Returns the normalized pair and
/// whether this was its first occurrence in `pairs`.
#[inline]
pub(crate) fn count_race(
    pairs: &mut PairMap,
    a: Pc,
    b: Pc,
    pos: u64,
    addr: Addr,
    cap: usize,
) -> ((Pc, Pc), bool) {
    let key = if a <= b { (a, b) } else { (b, a) };
    let agg = pairs.entry(key).or_insert_with(|| PairAgg {
        count: 0,
        first_pos: pos,
        example_addr: addr,
        addrs: FastSet::default(),
    });
    let first = agg.count == 0;
    agg.count += 1;
    if agg.addrs.len() < cap {
        agg.addrs.insert(addr);
    }
    (key, first)
}

/// The one merge: folds aggregates over disjoint records into one map.
/// Counts sum, the earliest first occurrence supplies the example address,
/// and the address sets union up to `cap`.
pub(crate) fn merge(parts: impl IntoIterator<Item = PairMap>, cap: usize) -> PairMap {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().unwrap_or_default();
    for part in parts {
        for (key, agg) in part {
            match merged.entry(key) {
                Entry::Vacant(e) => {
                    e.insert(agg);
                }
                Entry::Occupied(mut e) => e.get_mut().absorb(agg, cap),
            }
        }
    }
    merged
}

/// The report of merged aggregates: one row per static pair, most
/// frequent first, ties by pc pair.
pub(crate) fn report(pairs: PairMap, non_stack_accesses: u64) -> RaceReport {
    let mut dynamic_races = 0;
    let mut static_races: Vec<StaticRace> = pairs
        .into_iter()
        .map(|(pcs, agg)| {
            dynamic_races += agg.count;
            StaticRace {
                pcs,
                count: agg.count,
                example_addr: agg.example_addr,
                distinct_addrs: agg.addrs.len() as u64,
            }
        })
        .collect();
    static_races.sort_by(|a, b| b.count.cmp(&a.count).then(a.pcs.cmp(&b.pcs)));
    if literace_telemetry::enabled() {
        let m = literace_telemetry::metrics();
        m.detector_races_static.add(static_races.len() as u64);
        m.detector_races_dynamic.add(dynamic_races);
    }
    RaceReport {
        static_races,
        dynamic_races,
        non_stack_accesses,
    }
}

/// A static race: a pair of instruction sites observed racing, "roughly a
/// possible synchronization error in the program" (§5.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticRace {
    /// Normalized (smaller-first) pair of program counters.
    pub pcs: (Pc, Pc),
    /// Dynamic occurrences observed.
    pub count: u64,
    /// An example address involved.
    pub example_addr: Addr,
    /// Distinct addresses observed racing at this site pair.
    pub distinct_addrs: u64,
}

impl StaticRace {
    /// The paper's rarity rule: a static race is *rare* if it manifested
    /// fewer than 3 times per million non-stack memory instructions.
    pub fn is_rare(&self, non_stack_accesses: u64) -> bool {
        if non_stack_accesses == 0 {
            return true;
        }
        (self.count as f64) * 1_000_000.0 / (non_stack_accesses as f64) < 3.0
    }
}

impl fmt::Display for StaticRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race {}↔{} (×{}, e.g. {})",
            self.pcs.0, self.pcs.1, self.count, self.example_addr
        )
    }
}

/// The result of one detection pass.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RaceReport {
    /// Static races, sorted by descending dynamic count then by PC pair.
    pub static_races: Vec<StaticRace>,
    /// Total dynamic race occurrences.
    pub dynamic_races: u64,
    /// Non-stack memory accesses *executed* in the run (the rarity
    /// denominator); carried on the report for classification.
    pub non_stack_accesses: u64,
}

impl RaceReport {
    /// Number of static races.
    pub fn static_count(&self) -> usize {
        self.static_races.len()
    }

    /// The set of static-race keys (PC pairs).
    pub fn static_keys(&self) -> std::collections::HashSet<(Pc, Pc)> {
        self.static_races.iter().map(|s| s.pcs).collect()
    }

    /// Splits static races into (rare, frequent) by the §5.3.1 rule.
    pub fn split_by_rarity(&self) -> (Vec<&StaticRace>, Vec<&StaticRace>) {
        self.static_races
            .iter()
            .partition(|s| s.is_rare(self.non_stack_accesses))
    }

    /// Merges several runs' reports into one aggregate: static races are
    /// united by PC pair with dynamic counts summed, and the rarity
    /// denominator accumulates — the way a tester triages races collected
    /// from many executions of the same binary (§3.1: more runs, more
    /// coverage).
    ///
    /// # Examples
    ///
    /// ```
    /// use literace_detector::RaceReport;
    /// let merged = RaceReport::merge(std::iter::empty());
    /// assert_eq!(merged.static_count(), 0);
    /// ```
    pub fn merge<'a>(reports: impl IntoIterator<Item = &'a RaceReport>) -> RaceReport {
        let mut by_key: HashMap<(Pc, Pc), StaticRace> = HashMap::new();
        let mut dynamic_races = 0;
        let mut non_stack_accesses = 0;
        for r in reports {
            dynamic_races += r.dynamic_races;
            non_stack_accesses += r.non_stack_accesses;
            for s in &r.static_races {
                by_key
                    .entry(s.pcs)
                    .and_modify(|acc| {
                        acc.count += s.count;
                        acc.distinct_addrs = acc.distinct_addrs.max(s.distinct_addrs);
                    })
                    .or_insert_with(|| s.clone());
            }
        }
        let mut static_races: Vec<StaticRace> = by_key.into_values().collect();
        static_races.sort_by(|a, b| b.count.cmp(&a.count).then(a.pcs.cmp(&b.pcs)));
        RaceReport {
            static_races,
            dynamic_races,
            non_stack_accesses,
        }
    }

    /// Detection rate of this report against a ground-truth report: the
    /// fraction of the truth's static races whose PC pair appears here.
    pub fn detection_rate_against(&self, truth: &RaceReport) -> f64 {
        if truth.static_races.is_empty() {
            return 1.0;
        }
        let mine = self.static_keys();
        let found = truth
            .static_races
            .iter()
            .filter(|s| mine.contains(&s.pcs))
            .count();
        found as f64 / truth.static_races.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use literace_sim::FuncId;

    fn pc(i: usize) -> Pc {
        Pc::new(FuncId::from_index(0), i)
    }

    /// The report of races `(first site, second site, address)`, each
    /// counted through the one per-pair insert in order.
    fn report_of(races: &[(usize, usize, u64)], non_stack: u64) -> RaceReport {
        let mut pairs = PairMap::default();
        for (pos, &(a, b, addr)) in races.iter().enumerate() {
            let addr = Addr::global(addr);
            count_race(&mut pairs, pc(a), pc(b), pos as u64, addr, DEFAULT_PAIR_ADDR_CAP);
        }
        report(pairs, non_stack)
    }

    #[test]
    fn static_key_is_order_insensitive() {
        let mut pairs = PairMap::default();
        let (key, first) = count_race(&mut pairs, pc(1), pc(2), 0, Addr::global(0), 4);
        assert_eq!((key, first), ((pc(1), pc(2)), true));
        let (key, first) = count_race(&mut pairs, pc(2), pc(1), 1, Addr::global(0), 4);
        assert_eq!((key, first), ((pc(1), pc(2)), false));
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn grouping_counts_occurrences_and_addresses() {
        let report = report_of(&[(1, 2, 0), (2, 1, 5), (3, 4, 0)], 1_000_000);
        assert_eq!(report.static_count(), 2);
        assert_eq!(report.dynamic_races, 3);
        let top = &report.static_races[0];
        assert_eq!(top.count, 2);
        assert_eq!(top.distinct_addrs, 2);
        assert_eq!(top.example_addr, Addr::global(0), "the first occurrence's");
    }

    #[test]
    fn the_cap_bounds_addresses_and_the_merge_keeps_the_earliest_example() {
        let mut early = PairMap::default();
        let mut late = PairMap::default();
        for addr in 0..4 {
            count_race(&mut late, pc(1), pc(2), 10 + addr, Addr::global(addr), 3);
        }
        count_race(&mut early, pc(2), pc(1), 5, Addr::global(9), 3);
        assert_eq!(late[&(pc(1), pc(2))].addrs.len(), 3, "capped");
        let merged = report(merge([late, early], 3), 0);
        let row = &merged.static_races[0];
        assert_eq!((row.count, row.distinct_addrs), (5, 3));
        assert_eq!(row.example_addr, Addr::global(9));
    }

    #[test]
    fn rarity_threshold_matches_paper() {
        let s = StaticRace {
            pcs: (pc(0), pc(1)),
            count: 2,
            example_addr: Addr::global(0),
            distinct_addrs: 1,
        };
        // 2 per 1M -> rare; 2 per 0.5M = 4 per 1M -> frequent.
        assert!(s.is_rare(1_000_000));
        assert!(!s.is_rare(500_000));
        // Exactly 3 per million is NOT rare ("fewer than 3").
        let s3 = StaticRace { count: 3, ..s };
        assert!(!s3.is_rare(1_000_000));
    }

    #[test]
    fn detection_rate() {
        let truth = report_of(&[(1, 2, 0), (3, 4, 0), (5, 6, 0)], 100);
        let partial = report_of(&[(1, 2, 0), (5, 6, 1)], 100);
        let rate = partial.detection_rate_against(&truth);
        assert!((rate - 2.0 / 3.0).abs() < 1e-9);
        let empty = RaceReport::default();
        assert_eq!(empty.detection_rate_against(&RaceReport::default()), 1.0);
        assert_eq!(empty.detection_rate_against(&truth), 0.0);
    }

    #[test]
    fn merge_unions_static_races_and_sums_counts() {
        let a = report_of(&[(1, 2, 0), (1, 2, 3)], 100);
        let b = report_of(&[(1, 2, 0), (5, 6, 0)], 200);
        let merged = RaceReport::merge([&a, &b]);
        assert_eq!(merged.static_count(), 2);
        assert_eq!(merged.dynamic_races, 4);
        assert_eq!(merged.non_stack_accesses, 300);
        let pair12 = merged
            .static_races
            .iter()
            .find(|s| s.pcs == (pc(1), pc(2)))
            .unwrap();
        assert_eq!(pair12.count, 3);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let merged = RaceReport::merge(std::iter::empty());
        assert_eq!(merged, RaceReport::default());
    }

    #[test]
    fn split_by_rarity_partitions() {
        let mut races = vec![(1, 2, 0)];
        races.extend(std::iter::repeat_n((3, 4, 0), 100));
        let report = report_of(&races, 1_000_000);
        let (rare, freq) = report.split_by_rarity();
        assert_eq!(rare.len(), 1);
        assert_eq!(freq.len(), 1);
        assert_eq!(freq[0].pcs, (pc(3), pc(4)));
    }
}
