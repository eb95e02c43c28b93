//! Component benchmarks: the cost of the framework's building blocks.
//!
//! These measure the simulator substrate (disk service, elevator, cache)
//! and the engine at controlled sizes, so regressions in the hot paths are
//! visible without running whole experiments. The compiler's cost is
//! measured by `repro perf` (its `"compile"` entry).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sdds_compiler::ir::{IoDirection, Program};
use sdds_compiler::{analyze_slacks, SchedulerConfig, SlotGranularity};
use sdds_disk::service::service_timing;
use sdds_disk::{Disk, DiskParams, DiskRequest, RequestKind};
use sdds_power::{PolicyKind, PoweredArray};
use sdds_storage::{FileId, LruCache, StripingLayout};
use simkit::{SimDuration, SimTime};

/// A synthetic streaming program sized by `procs` and `blocks`.
fn scan_program(procs: usize, blocks: i64) -> Program {
    const STRIPE: i64 = 64 * 1024;
    let blk = 2 * STRIPE;
    let span = blocks * blk + STRIPE;
    let mut p = Program::new("bench-scan", procs);
    let f = p.add_file(FileId(0), (procs as i64 * span) as u64);
    p.push_loop("i", 0, blocks - 1, move |b| {
        b.io(
            IoDirection::Read,
            f,
            |e| e.term("p", span).term("i", blk),
            blk as u64,
        );
        b.compute(SimDuration::from_millis(10));
        b.skip(2, SimDuration::from_millis(10));
    });
    p
}

fn bench_disk(c: &mut Criterion) {
    let params = DiskParams::paper_defaults();
    c.bench_function("disk/service_timing", |b| {
        let req = DiskRequest::new(0, RequestKind::Read, 1_234_567, 128);
        b.iter(|| black_box(service_timing(&params, &req, 40_000, params.max_rpm)))
    });

    c.bench_function("disk/serve_1000_requests", |b| {
        b.iter(|| {
            let mut disk = Disk::new(params.clone()).unwrap();
            let mut t = SimTime::ZERO;
            for i in 0..1_000u64 {
                t += SimDuration::from_micros(500);
                disk.submit(
                    DiskRequest::new(i, RequestKind::Read, (i * 9_973) % 100_000_000, 64),
                    t,
                );
            }
            disk.finish(t + SimDuration::from_secs(10));
            black_box(disk.energy().total_joules())
        })
    });

    c.bench_function("disk/powered_array_spin_cycles", |b| {
        b.iter(|| {
            let mut node = PoweredArray::new(
                DiskParams::paper_single_speed(),
                1,
                PolicyKind::simple_spin_down_default(),
            )
            .unwrap();
            let mut t = SimTime::ZERO;
            for i in 0..20u64 {
                t += SimDuration::from_secs(120);
                node.submit(0, DiskRequest::new(i, RequestKind::Read, i * 10_000, 64), t);
            }
            node.finish(t + SimDuration::from_secs(60));
            black_box(node.total_joules())
        })
    });
}

fn bench_storage(c: &mut Criterion) {
    c.bench_function("storage/lru_mixed_ops", |b| {
        b.iter(|| {
            let mut cache = LruCache::new(1_024);
            for i in 0..10_000u64 {
                let key = (i * 2_654_435_761) % 4_096;
                if i % 3 == 0 {
                    black_box(cache.get(&key));
                } else {
                    cache.insert(key, key);
                }
            }
            cache.len()
        })
    });

    let layout = StripingLayout::paper_defaults();
    c.bench_function("storage/split_range", |b| {
        b.iter(|| {
            let mut n = 0;
            for i in 0..100u64 {
                n += layout.split_range(FileId(0), i * 100_000, 512 * 1024).len();
            }
            black_box(n)
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    use sdds_runtime::{CompiledPlan, Engine, EngineConfig};
    use sdds_storage::StorageConfig;
    let program = scan_program(4, 64);
    let trace = program.trace(SlotGranularity::unit()).unwrap();
    let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
    let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
    let table = SchedulerConfig::paper_defaults()
        .schedule(&accesses, &trace)
        .unwrap();

    // Throughput in events/sec: criterion divides the measured time by the
    // (deterministic) number of engine events per run, so the report reads
    // directly in Kelem/s — the same unit `repro perf` gates on.
    let events_plain = Engine::new(EngineConfig::paper_defaults(), storage.clone())
        .unwrap()
        .run(&trace, None)
        .unwrap()
        .events;
    let events_scheme = Engine::new(EngineConfig::paper_defaults(), storage.clone())
        .unwrap()
        .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
        .unwrap()
        .events;
    let mut group = c.benchmark_group("engine");
    group.throughput(criterion::Throughput::Elements(events_plain));
    group.bench_function("run_without_scheme", |b| {
        b.iter(|| {
            let e = Engine::new(EngineConfig::paper_defaults(), storage.clone()).unwrap();
            black_box(e.run(&trace, None).unwrap().energy_joules)
        })
    });
    group.throughput(criterion::Throughput::Elements(events_scheme));
    group.bench_function("run_with_scheme", |b| {
        b.iter(|| {
            let e = Engine::new(EngineConfig::paper_defaults(), storage.clone()).unwrap();
            black_box(
                e.run(&trace, Some(CompiledPlan::new(&accesses, &table)))
                    .unwrap()
                    .energy_joules,
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_disk, bench_storage, bench_engine
}
criterion_main!(kernels);
