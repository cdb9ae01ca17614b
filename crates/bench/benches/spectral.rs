//! Cost of the spectral toolkit — the tractable substitute for
//! Algorithm 1's exponential subset check (`bcount_core::local::checks`),
//! so its price is the price of the substitution.

use bcount_graph::analysis::spectral::{min_sweep_expansion, spectral_gap};
use bcount_graph::gen::hnd;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn bench_spectral(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for &n in &[512usize, 2_048, 8_192] {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = hnd(n, 8, &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("spectral_gap_200it", n), &n, |b, _| {
            b.iter(|| spectral_gap(&g, 200));
        });
        group.bench_with_input(BenchmarkId::new("min_sweep_expansion", n), &n, |b, _| {
            b.iter(|| min_sweep_expansion(&g, 120));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spectral);
criterion_main!(benches);
