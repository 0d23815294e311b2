//! Workload identities and the paper's reference numbers.
//!
//! Table 2 lists the four industrial benchmarks (plus two micro-benchmarks
//! in §5.4); Tables 4 and 5 report per-benchmark-input race counts and
//! overheads. The reference values are carried here so the benchmark
//! harness can print *paper vs. measured* side by side.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The nine benchmark-input pairs of §5.1 plus the two §5.4
/// micro-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadId {
    /// Dryad channel test with the statically linked C library instrumented.
    DryadStdlib,
    /// Dryad channel test, application code only.
    Dryad,
    /// ConcRT concurrency-runtime Messaging test.
    ConcrtMessaging,
    /// ConcRT Explicit Scheduling test (synchronization heavy).
    ConcrtScheduling,
    /// Apache, mixed workload (static pages + CGI).
    Apache1,
    /// Apache, small-static-page-only workload.
    Apache2,
    /// Firefox browser start-up.
    FirefoxStart,
    /// Firefox rendering 2500 positioned DIVs.
    FirefoxRender,
    /// LKRHash hash-table micro-benchmark (lock-free + striped locks).
    LkrHash,
    /// Lock-free linked list micro-benchmark (CAS-heavy).
    LfList,
}

impl WorkloadId {
    /// All workloads, in the paper's presentation order.
    pub fn all() -> [WorkloadId; 10] {
        [
            WorkloadId::DryadStdlib,
            WorkloadId::Dryad,
            WorkloadId::ConcrtMessaging,
            WorkloadId::ConcrtScheduling,
            WorkloadId::Apache1,
            WorkloadId::Apache2,
            WorkloadId::FirefoxStart,
            WorkloadId::FirefoxRender,
            WorkloadId::LkrHash,
            WorkloadId::LfList,
        ]
    }

    /// The benchmark-input pairs used in the sampler-effectiveness study
    /// (Figures 4 and 5, Table 4) — the micro-benchmarks are excluded there.
    pub fn detection_set() -> [WorkloadId; 8] {
        [
            WorkloadId::DryadStdlib,
            WorkloadId::Dryad,
            WorkloadId::ConcrtMessaging,
            WorkloadId::ConcrtScheduling,
            WorkloadId::Apache1,
            WorkloadId::Apache2,
            WorkloadId::FirefoxStart,
            WorkloadId::FirefoxRender,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::DryadStdlib => "Dryad Channel + stdlib",
            WorkloadId::Dryad => "Dryad Channel",
            WorkloadId::ConcrtMessaging => "ConcRT Messaging",
            WorkloadId::ConcrtScheduling => "ConcRT Explicit Scheduling",
            WorkloadId::Apache1 => "Apache-1",
            WorkloadId::Apache2 => "Apache-2",
            WorkloadId::FirefoxStart => "Firefox Start",
            WorkloadId::FirefoxRender => "Firefox Render",
            WorkloadId::LkrHash => "LKRHash",
            WorkloadId::LfList => "LFList",
        }
    }

    /// The short name the command line uses (`dryad-stdlib`, `apache-1`,
    /// `ff-render`, …).
    pub fn short_name(self) -> &'static str {
        match self {
            WorkloadId::DryadStdlib => "dryad-stdlib",
            WorkloadId::Dryad => "dryad",
            WorkloadId::ConcrtMessaging => "messaging",
            WorkloadId::ConcrtScheduling => "scheduling",
            WorkloadId::Apache1 => "apache-1",
            WorkloadId::Apache2 => "apache-2",
            WorkloadId::FirefoxStart => "ff-start",
            WorkloadId::FirefoxRender => "ff-render",
            WorkloadId::LkrHash => "lkrhash",
            WorkloadId::LfList => "lflist",
        }
    }

    /// Resolves a workload name, ignoring ASCII case: the
    /// [`short_name`](WorkloadId::short_name), the paper's
    /// [`name`](WorkloadId::name), or one of the aliases `dryadstdlib`,
    /// `concrt-messaging`, `concrt-scheduling`, `apache1`, `apache2`,
    /// `firefox-start` and `firefox-render`.
    pub fn from_name(name: &str) -> Option<WorkloadId> {
        let key = name.to_ascii_lowercase();
        let short = match key.as_str() {
            "dryadstdlib" => "dryad-stdlib",
            "concrt-messaging" => "messaging",
            "concrt-scheduling" => "scheduling",
            "apache1" => "apache-1",
            "apache2" => "apache-2",
            "firefox-start" => "ff-start",
            "firefox-render" => "ff-render",
            other => other,
        };
        WorkloadId::all()
            .into_iter()
            .find(|id| id.short_name() == short || id.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution scale: how much dynamic work the generated program performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Fast runs for unit/integration tests (~10⁴–10⁵ memory accesses).
    /// Too small for the §5.3.1 rare/frequent split to be meaningful.
    Smoke,
    /// Evaluation runs (~10⁶ memory accesses): large enough that a
    /// once-or-twice race is *rare* under the paper's per-million rule.
    Paper,
}

impl Scale {
    /// Scales a hot-loop trip count.
    pub fn hot(self, paper_trips: u32) -> u32 {
        match self {
            Scale::Smoke => (paper_trips / 16).max(1),
            Scale::Paper => paper_trips,
        }
    }
}

/// Reference values transcribed from the paper, for side-by-side printing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperNumbers {
    /// Static races found under full logging (Table 4), if reported.
    pub races: Option<u32>,
    /// …of which rare (Table 4).
    pub rare: Option<u32>,
    /// …of which frequent (Table 4).
    pub frequent: Option<u32>,
    /// LiteRace slowdown over baseline (Table 5).
    pub literace_slowdown: f64,
    /// Full-logging slowdown over baseline (Table 5).
    pub full_logging_slowdown: f64,
    /// LiteRace log rate in MB/s (Table 5).
    pub literace_mb_s: f64,
    /// Full-logging log rate in MB/s (Table 5).
    pub full_logging_mb_s: f64,
}

/// Everything known about one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Identity.
    pub id: WorkloadId,
    /// One-line description (Table 2 Description column, paraphrased).
    pub description: &'static str,
    /// Reference values from the paper.
    pub paper: PaperNumbers,
}

/// The number of *planted* static races in a generated workload, split by
/// the gadget classes used to plant them (see
/// [`common`](crate::common)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlantedRaces {
    /// Init races: two cold threads race once each at start-up.
    pub init: u32,
    /// Cold-racer races: a per-thread-cold access races with a hot thread —
    /// the class that separates thread-local from global samplers.
    pub cold: u32,
    /// Hot races: two hot paths race continuously (frequent).
    pub hot: u32,
    /// Phase races: a single post-synchronization access races once, deep
    /// into a hot phase — hard for every sampler.
    pub phase: u32,
}

impl PlantedRaces {
    /// Total planted static races.
    pub fn total(&self) -> u32 {
        self.init + self.cold + self.hot + self.phase
    }

    /// Planted races expected to be classified *rare* at paper scale.
    pub fn rare(&self) -> u32 {
        self.init + self.cold + self.phase
    }

    /// Planted races expected to be classified *frequent* at paper scale.
    pub fn frequent(&self) -> u32 {
        self.hot
    }
}

/// Returns the spec (paper reference values) for a workload.
pub fn spec(id: WorkloadId) -> WorkloadSpec {
    let paper = match id {
        WorkloadId::DryadStdlib => PaperNumbers {
            races: Some(19),
            rare: Some(17),
            frequent: Some(2),
            literace_slowdown: 1.0,
            full_logging_slowdown: 1.8,
            literace_mb_s: 1.2,
            full_logging_mb_s: 12.8,
        },
        WorkloadId::Dryad => PaperNumbers {
            races: Some(8),
            rare: Some(3),
            frequent: Some(5),
            literace_slowdown: 1.0,
            full_logging_slowdown: 1.14,
            literace_mb_s: 1.1,
            full_logging_mb_s: 2.6,
        },
        WorkloadId::ConcrtMessaging => PaperNumbers {
            races: None,
            rare: None,
            frequent: None,
            literace_slowdown: 1.03,
            full_logging_slowdown: 1.08,
            literace_mb_s: 0.7,
            full_logging_mb_s: 10.6,
        },
        WorkloadId::ConcrtScheduling => PaperNumbers {
            races: None,
            rare: None,
            frequent: None,
            literace_slowdown: 2.4,
            full_logging_slowdown: 9.1,
            literace_mb_s: 4.6,
            full_logging_mb_s: 109.7,
        },
        WorkloadId::Apache1 => PaperNumbers {
            races: Some(17),
            rare: Some(8),
            frequent: Some(9),
            literace_slowdown: 1.02,
            full_logging_slowdown: 1.4,
            literace_mb_s: 1.2,
            full_logging_mb_s: 41.9,
        },
        WorkloadId::Apache2 => PaperNumbers {
            races: Some(16),
            rare: Some(9),
            frequent: Some(7),
            literace_slowdown: 1.04,
            full_logging_slowdown: 3.2,
            literace_mb_s: 4.0,
            full_logging_mb_s: 260.7,
        },
        WorkloadId::FirefoxStart => PaperNumbers {
            races: Some(12),
            rare: Some(5),
            frequent: Some(7),
            literace_slowdown: 1.44,
            full_logging_slowdown: 8.89,
            literace_mb_s: 7.4,
            full_logging_mb_s: 107.0,
        },
        WorkloadId::FirefoxRender => PaperNumbers {
            races: Some(16),
            rare: Some(10),
            frequent: Some(6),
            literace_slowdown: 1.3,
            full_logging_slowdown: 33.5,
            literace_mb_s: 19.8,
            full_logging_mb_s: 731.1,
        },
        WorkloadId::LkrHash => PaperNumbers {
            races: None,
            rare: None,
            frequent: None,
            literace_slowdown: 2.4,
            full_logging_slowdown: 14.7,
            literace_mb_s: 154.5,
            full_logging_mb_s: 1936.3,
        },
        WorkloadId::LfList => PaperNumbers {
            races: None,
            rare: None,
            frequent: None,
            literace_slowdown: 2.1,
            full_logging_slowdown: 16.1,
            literace_mb_s: 92.5,
            full_logging_mb_s: 751.7,
        },
    };
    let description = match id {
        WorkloadId::DryadStdlib => {
            "shared-memory channel library test, standard library instrumented"
        }
        WorkloadId::Dryad => "shared-memory channel library test",
        WorkloadId::ConcrtMessaging => ".NET concurrency runtime, messaging test",
        WorkloadId::ConcrtScheduling => ".NET concurrency runtime, explicit scheduling test",
        WorkloadId::Apache1 => "web server, mixed static + CGI request workload",
        WorkloadId::Apache2 => "web server, 10,000 small static page requests",
        WorkloadId::FirefoxStart => "web browser start-up",
        WorkloadId::FirefoxRender => "web browser rendering 2500 positioned DIVs",
        WorkloadId::LkrHash => "hash table with lock-free techniques and striped locks",
        WorkloadId::LfList => "lock-free linked list (CAS-based)",
    };
    WorkloadSpec {
        id,
        description,
        paper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_have_specs() {
        for id in WorkloadId::all() {
            let s = spec(id);
            assert_eq!(s.id, id);
            assert!(!s.description.is_empty());
            assert!(s.paper.literace_slowdown >= 1.0);
            assert!(s.paper.full_logging_slowdown >= s.paper.literace_slowdown);
        }
    }

    #[test]
    fn table_4_counts_are_transcribed() {
        let s = spec(WorkloadId::DryadStdlib);
        assert_eq!(s.paper.races, Some(19));
        assert_eq!(s.paper.rare, Some(17));
        assert_eq!(s.paper.frequent, Some(2));
    }

    #[test]
    fn planted_race_arithmetic() {
        let p = PlantedRaces {
            init: 2,
            cold: 3,
            hot: 5,
            phase: 1,
        };
        assert_eq!(p.total(), 11);
        assert_eq!(p.rare(), 6);
        assert_eq!(p.frequent(), 5);
    }

    #[test]
    fn every_workload_name_resolves() {
        use WorkloadId::*;
        for id in WorkloadId::all() {
            assert_eq!(WorkloadId::from_name(id.short_name()), Some(id));
            assert_eq!(WorkloadId::from_name(id.name()), Some(id));
            assert_eq!(
                WorkloadId::from_name(&id.name().to_ascii_uppercase()),
                Some(id)
            );
        }
        // The aliases the CLI and the bench harness each accepted.
        for (name, id) in [
            ("dryadstdlib", DryadStdlib),
            ("concrt-messaging", ConcrtMessaging),
            ("concrt-scheduling", ConcrtScheduling),
            ("apache1", Apache1),
            ("Apache2", Apache2),
            ("firefox-start", FirefoxStart),
            ("firefox-render", FirefoxRender),
            ("FF-RENDER", FirefoxRender),
            ("Dryad Channel", Dryad),
        ] {
            assert_eq!(WorkloadId::from_name(name), Some(id), "{name}");
        }
        for unknown in ["nope", "", "dryad channel + std", "apache-3"] {
            assert_eq!(WorkloadId::from_name(unknown), None, "{unknown}");
        }
    }

    #[test]
    fn smoke_scale_shrinks_hot_loops() {
        assert!(Scale::Smoke.hot(1600) < Scale::Paper.hot(1600));
        assert_eq!(Scale::Smoke.hot(1), 1);
    }
}
