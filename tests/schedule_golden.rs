//! Cross-commit pin of the simulator's schedules.
//!
//! For every bundled workload at Smoke scale and scheduler seeds 1 and 2,
//! and for the six programs the paper-scale benchmark times (`perfbench/`)
//! at Paper scale and seed 1, a run under the pipeline's scheduler (chunked
//! random, default quantum) must reproduce the committed step count, event
//! count and 64-bit hash of the event stream. The Smoke constants were
//! computed with the simulator that rescanned every thread before every
//! pick, and the Paper constants with the one that called the scheduler on
//! every step and allocated each frame's locals, so a change to how the
//! machine schedules, stores frames, or what it emits fails here rather
//! than silently shifting a downstream figure.

use literace::pipeline::RunConfig;
use literace::sim::{lower, ChunkedRandomScheduler, Event, Machine, Observer, ThreadId};
use literace::workloads::{build, Scale, WorkloadId};

/// `(workload, seed, steps, events, event-stream hash)`.
type Row = (WorkloadId, u64, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (WorkloadId::DryadStdlib, 1, 152069, 134908, 0x7ecf59d1d6965f06),
    (WorkloadId::DryadStdlib, 2, 152044, 134908, 0x7a2c863979961b72),
    (WorkloadId::Dryad, 1, 86710, 75121, 0xac610077dbe8a453),
    (WorkloadId::Dryad, 2, 86722, 75121, 0xa0f9ef4be9f827ab),
    (WorkloadId::ConcrtMessaging, 1, 56830, 46794, 0x1fced23d57d75f1d),
    (WorkloadId::ConcrtMessaging, 2, 56844, 46794, 0x350e5320b647f3ed),
    (WorkloadId::ConcrtScheduling, 1, 151508, 123474, 0xe29e6005c32df8e4),
    (WorkloadId::ConcrtScheduling, 2, 151435, 123474, 0x4553e69fea4ac8ec),
    (WorkloadId::Apache1, 1, 76385, 62308, 0xedeff641af4d5f08),
    (WorkloadId::Apache1, 2, 76348, 62308, 0x42adb3e74de75084),
    (WorkloadId::Apache2, 1, 97497, 77251, 0x0e34ec3004a48979),
    (WorkloadId::Apache2, 2, 97511, 77251, 0xd0f3318317bbaf15),
    (WorkloadId::FirefoxStart, 1, 123298, 101662, 0x03058c0407fcb70c),
    (WorkloadId::FirefoxStart, 2, 123296, 101662, 0x5163a80f3b63a924),
    (WorkloadId::FirefoxRender, 1, 117667, 101025, 0xfaab49f1337767e6),
    (WorkloadId::FirefoxRender, 2, 117670, 101025, 0x93a9ab612c9db06e),
    (WorkloadId::LkrHash, 1, 41273, 37509, 0xa9b32a41428d4099),
    (WorkloadId::LkrHash, 2, 41271, 37509, 0xf424dac896047375),
    (WorkloadId::LfList, 1, 53654, 48449, 0x7e2c458f86660a3d),
    (WorkloadId::LfList, 2, 53655, 48449, 0x71f6cceb1977740d),
];

/// Paper-scale rows, seed 1: the benchmark's `sampled-apps`/`full-log`
/// programs, then its `sync-heavy` ones.
#[rustfmt::skip]
const PAPER_GOLDEN: &[Row] = &[
    (WorkloadId::Apache1, 1, 1129182, 925274, 0x88d5d1efb1f16df6),
    (WorkloadId::DryadStdlib, 1, 2334769, 2089221, 0xd12d7059f1b6a341),
    (WorkloadId::FirefoxRender, 1, 2180908, 1898657, 0xdc71cf06e742fe38),
    (WorkloadId::LkrHash, 1, 661280, 600069, 0xf519469c9fe05431),
    (WorkloadId::LfList, 1, 861026, 777053, 0x8d0a887306180cbd),
    (WorkloadId::ConcrtScheduling, 1, 2382746, 1943660, 0x54e2226797fd78e3),
];

/// Counts events and folds every field of each into an FNV-1a hash.
struct StreamHash {
    events: u64,
    hash: u64,
}

impl StreamHash {
    fn new() -> StreamHash {
        StreamHash {
            events: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn mix(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.hash ^= u64::from(b);
                self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
}

impl Observer for StreamHash {
    fn on_event(&mut self, event: &Event) {
        self.events += 1;
        let t = |tid: ThreadId| tid.index() as u64;
        match *event {
            Event::ThreadStart { tid, parent, func } => {
                self.mix(&[0, t(tid), parent.map_or(u64::MAX, t), func.index() as u64])
            }
            Event::ThreadExit { tid } => self.mix(&[1, t(tid)]),
            Event::FunctionEntry { tid, func } => self.mix(&[2, t(tid), func.index() as u64]),
            Event::FunctionExit { tid, func } => self.mix(&[3, t(tid), func.index() as u64]),
            Event::LoopIter { tid, func, head } => {
                self.mix(&[4, t(tid), func.index() as u64, head.0])
            }
            Event::MemRead { tid, pc, addr } => self.mix(&[5, t(tid), pc.0, addr.raw()]),
            Event::MemWrite { tid, pc, addr } => self.mix(&[6, t(tid), pc.0, addr.raw()]),
            Event::Sync { tid, pc, kind, var } => self.mix(&[7, t(tid), pc.0, kind as u64, var.0]),
            Event::Alloc {
                tid,
                pc,
                base,
                words,
            } => self.mix(&[8, t(tid), pc.0, base.raw(), words]),
            Event::Free {
                tid,
                pc,
                base,
                words,
            } => self.mix(&[9, t(tid), pc.0, base.raw(), words]),
        }
    }
}

fn measure(id: WorkloadId, scale: Scale, seed: u64) -> Row {
    let compiled = lower(&build(id, scale).program);
    let cfg = RunConfig::seeded(seed);
    let mut sched = ChunkedRandomScheduler::seeded(seed, cfg.sched_quantum);
    let mut obs = StreamHash::new();
    let summary = Machine::new(&compiled, cfg.machine)
        .run(&mut sched, &mut obs)
        .expect("bundled workloads run to completion");
    (id, seed, summary.steps, obs.events, obs.hash)
}

/// Fails with the measured table, ready to paste, unless it equals `golden`.
fn assert_golden(actual: &[Row], golden: &[Row]) {
    let table: String = actual
        .iter()
        .map(|(id, seed, steps, events, hash)| {
            format!("    (WorkloadId::{id:?}, {seed}, {steps}, {events}, {hash:#018x}),\n")
        })
        .collect();
    assert!(
        actual == golden,
        "schedules drifted from the committed values; measured:\n{table}"
    );
}

#[test]
fn schedules_match_the_committed_golden_values() {
    let actual: Vec<_> = WorkloadId::all()
        .into_iter()
        .flat_map(|id| [1, 2].map(|seed| measure(id, Scale::Smoke, seed)))
        .collect();
    assert_golden(&actual, GOLDEN);
}

#[test]
fn paper_scale_schedules_match_the_committed_golden_values() {
    let actual: Vec<_> = [
        WorkloadId::Apache1,
        WorkloadId::DryadStdlib,
        WorkloadId::FirefoxRender,
        WorkloadId::LkrHash,
        WorkloadId::LfList,
        WorkloadId::ConcrtScheduling,
    ]
    .into_iter()
    .map(|id| measure(id, Scale::Paper, 1))
    .collect();
    assert_golden(&actual, PAPER_GOLDEN);
}
