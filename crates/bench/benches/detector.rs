//! Criterion benches for the happens-before core: throughput of detection
//! over logs of varying sync density, against the lockset baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use literace::detector::{detect, detect_lockset};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::EventLog;
use literace::samplers::SamplerKind;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig};
use literace::workloads::{build, Scale, WorkloadId};

fn workload_log(id: WorkloadId) -> (EventLog, u64) {
    let w = build(id, Scale::Smoke);
    let compiled = lower(&w.program);
    let mut inst = Instrumenter::new(SamplerKind::Always.build(1), InstrumentConfig::default());
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(1, 64), &mut inst)
        .expect("workload runs");
    (inst.finish().log, summary.non_stack_accesses)
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector");
    for id in [WorkloadId::Dryad, WorkloadId::LkrHash] {
        let (log, non_stack) = workload_log(id);
        group.throughput(Throughput::Elements(log.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("happens-before", id.name()),
            &log,
            |b, log| b.iter(|| detect(log, non_stack)),
        );
        group.bench_with_input(
            BenchmarkId::new("lockset", id.name()),
            &log,
            |b, log| b.iter(|| detect_lockset(log, non_stack)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
