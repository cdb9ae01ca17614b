//! E9 timing: the classical baselines, for cost comparison against the
//! Byzantine-resilient protocols.

use bcount_baselines::{Convergecast, GeometricMax, SupportEstimation};
use bcount_bench::runners::network;
use bcount_graph::NodeId;
use bcount_sim::{Execution, NullAdversary, SimConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for &n in &[256usize, 1024] {
        let g = network(n, 8, n as u64);
        group.bench_with_input(BenchmarkId::new("geometric_max", n), &n, |b, _| {
            b.iter(|| {
                Execution::new(
                    &g,
                    &[],
                    |_, init| GeometricMax::new(40, init),
                    NullAdversary,
                    SimConfig::default(),
                )
                .run()
            });
        });
        group.bench_with_input(BenchmarkId::new("support_estimation", n), &n, |b, _| {
            b.iter(|| {
                Execution::new(
                    &g,
                    &[],
                    |_, init| SupportEstimation::new(32, 40, init),
                    NullAdversary,
                    SimConfig::default(),
                )
                .run()
            });
        });
        group.bench_with_input(BenchmarkId::new("convergecast", n), &n, |b, _| {
            b.iter(|| {
                Execution::new(
                    &g,
                    &[],
                    |u, init| Convergecast::new(u == NodeId(0), init),
                    NullAdversary,
                    SimConfig::default(),
                )
                .run()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
