//! Scenario-matrix throughput: **cells/sec** through the generic runner —
//! the number the pool fanout moves.
//!
//! One iteration runs a fixed small scenario end to end through
//! [`run_scenario`] — graph generation, placement, simulation, summary —
//! exactly the per-cell cost the experiment suite pays, so the reported
//! rate is whole-cell throughput. With `--features parallel` the same
//! scenario fans
//! its cells out over the persistent worker pool (`BCOUNT_POOL_THREADS`
//! sizes it), so the delta between pools of one and more workers is the
//! fanout win. Runs in `--test` smoke mode like every bench in this
//! crate.

use bcount_bench::scenario::{
    run_scenario, AdversarySpec, BudgetSpec, GraphFamily, Placement, ProtocolSpec, Scenario,
};
use bcount_core::estimate::Band;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

/// A small but real matrix: 2 sizes × 2 seeds × 1 budget × 1 placement =
/// 4 cells of the geometric-max baseline under its max-faker attack on
/// `H(n, 8)` — cheap enough to smoke, heavy enough that a cell dwarfs the
/// fork overhead.
fn matrix_scenario() -> Scenario {
    Scenario {
        name: "bench/matrix".into(),
        family: GraphFamily::Hnd { d: 8 },
        sizes: vec![96, 128],
        quick_sizes: vec![96],
        budgets: vec![BudgetSpec::Fixed(2)],
        quick_budgets: Vec::new(),
        placements: vec![Placement::Spread],
        adversary: AdversarySpec::MaxFaker {
            fake_value: 1 << 20,
        },
        protocol: ProtocolSpec::GeometricMax { budget: 40 },
        band: Band::new(0.0, 1e9),
        seeds: vec![11, 12],
        max_rounds: 400,
        graph_seed_base: 4_000,
        run_to_halt: false,
        fault: None,
    }
}

fn bench_scenario_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_matrix");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(3));
    let scenario = matrix_scenario();
    let cell_count = run_scenario(&scenario, false, None).len() as u64;
    group.throughput(Throughput::Elements(cell_count));
    group.bench_function("cells", |b| {
        b.iter(|| {
            let cells = run_scenario(&scenario, false, None);
            assert_eq!(cells.len() as u64, cell_count);
            cells.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_scenario_matrix);
criterion_main!(benches);
