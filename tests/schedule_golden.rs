//! Cross-commit pin of the simulator's schedules.
//!
//! For every bundled workload at Smoke scale and scheduler seeds 1 and 2,
//! a run under the pipeline's scheduler (chunked random, default quantum)
//! must reproduce the committed step count, event count and 64-bit hash of
//! the event stream. The constants were computed with the simulator that
//! rescanned every thread before every pick, so a change to how the
//! machine tracks runnable threads, or to what it emits, fails here rather
//! than silently shifting a downstream figure.

use literace::pipeline::RunConfig;
use literace::sim::{lower, ChunkedRandomScheduler, Event, Machine, Observer, ThreadId};
use literace::workloads::{build, Scale, WorkloadId};

/// `(workload, seed, steps, events, event-stream hash)`.
#[rustfmt::skip]
const GOLDEN: &[(WorkloadId, u64, u64, u64, u64)] = &[
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

fn measure(id: WorkloadId, seed: u64) -> (WorkloadId, u64, u64, u64, u64) {
    let compiled = lower(&build(id, Scale::Smoke).program);
    let cfg = RunConfig::seeded(seed);
    let mut sched = ChunkedRandomScheduler::seeded(seed, cfg.sched_quantum);
    let mut obs = StreamHash::new();
    let summary = Machine::new(&compiled, cfg.machine)
        .run(&mut sched, &mut obs)
        .expect("bundled workloads run to completion");
    (id, seed, summary.steps, obs.events, obs.hash)
}

#[test]
fn schedules_match_the_committed_golden_values() {
    let actual: Vec<_> = WorkloadId::all()
        .into_iter()
        .flat_map(|id| [1, 2].map(|seed| measure(id, seed)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(id, seed, steps, events, hash)| {
            format!("    (WorkloadId::{id:?}, {seed}, {steps}, {events}, {hash:#018x}),\n")
        })
        .collect();
    assert!(
        actual == GOLDEN,
        "schedules drifted from the committed values; measured:\n{table}"
    );
}
