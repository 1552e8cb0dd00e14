//! Criterion: detection-index maintenance — the kinetic tournament vs the
//! O(n) rescan, under streaming insertions (the DESIGN.md §4.3 ablation).
//!
//! Every timed insert is a first-time insert of an increment: when the
//! increments run out the engine is re-bootstrapped outside the timed
//! region. Cycling over them instead would re-insert edges already
//! present, which FD's set semantics turns into no-ops about three
//! orders of magnitude cheaper than the reorder being measured.

#![allow(missing_docs)] // criterion macros generate undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spade_bench::replay::MetricKind;
use spade_bench::table3_datasets;
use spade_core::{DetectionBackend, SpadeConfig, SpadeEngine};
use std::time::{Duration, Instant};

fn bench_detection_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("detection_backend");
    let data = table3_datasets().into_iter().find(|d| d.name == "Grab1").unwrap();
    let bootstrap = |backend| {
        SpadeEngine::bootstrap(
            MetricKind::Fd.metric(),
            SpadeConfig { detection: backend },
            data.initial.iter().map(|e| (e.src, e.dst, e.raw)),
        )
        .unwrap()
    };
    for (label, backend) in
        [("kinetic", DetectionBackend::Kinetic), ("eager_scan", DetectionBackend::EagerScan)]
    {
        group.bench_function(BenchmarkId::new("insert+detect", label), |b| {
            let mut engine = bootstrap(backend);
            let mut cursor = 0usize;
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    if cursor == data.increments.len() {
                        engine = bootstrap(backend);
                        cursor = 0;
                    }
                    let e = &data.increments[cursor];
                    cursor += 1;
                    let started = Instant::now();
                    let det = engine.insert_edge(e.src, e.dst, e.raw).unwrap();
                    timed += started.elapsed();
                    std::hint::black_box(det);
                }
                timed
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detection_backends);
criterion_main!(benches);
