//! Reproducibility: identical seeds produce identical executions across
//! the full stack (graph generation, ID assignment, per-node randomness,
//! adversary randomness).

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn congest_run(seed: u64) -> (u64, Vec<Option<u32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let g = hnd(96, 8, &mut rng).unwrap();
    let params = CongestParams::default();
    let byz = [NodeId(7)];
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, init| CongestCounting::new(params, init),
        BeaconSpamAdversary::new(params),
        SimConfig {
            seed,
            max_rounds: 20_000,
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    (
        report.rounds,
        report
            .outputs
            .iter()
            .map(|o| o.map(|e| e.estimate))
            .collect(),
    )
}

#[test]
fn same_seed_identical_congest_execution() {
    let a = congest_run(12345);
    let b = congest_run(12345);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ_somewhere() {
    let mut distinct = false;
    let base = congest_run(1);
    for seed in 2..6 {
        if congest_run(seed) != base {
            distinct = true;
            break;
        }
    }
    assert!(distinct, "five seeds produced identical executions");
}

#[test]
fn same_seed_identical_local_execution() {
    let run = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = hnd(64, 6, &mut rng).unwrap();
        let cfg = LocalConfig {
            max_degree: 8,
            ..LocalConfig::default()
        };
        let mut sim = Execution::new(
            &g,
            &[NodeId(3)],
            |_, init| LocalCounting::new(cfg, init),
            FakeExpanderAdversary::new(2, 6, 2, seed),
            SimConfig {
                seed,
                max_rounds: 200,
                ..SimConfig::default()
            },
        );
        let report = sim.run();
        let ests: Vec<Option<u32>> = report.outputs.iter().map(|o| o.map(|e| e.radius)).collect();
        (report.rounds, ests, report.metrics.per_node.clone())
    };
    assert_eq!(run(42), run(42));
}
