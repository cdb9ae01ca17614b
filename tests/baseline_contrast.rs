//! E9's claim as a test: on the same network with the same single
//! Byzantine node, every classical baseline is destroyed while the
//! paper's Algorithm 2 keeps far honest nodes in the constant-factor
//! band.

use byzantine_counting::baselines::{GeometricMax, MaxFakerAdversary};
use byzantine_counting::graph::analysis::bfs::distances;
use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn same_fault_breaks_baseline_not_core() {
    let n = 96;
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let g = hnd(n, 8, &mut rng).unwrap();
    let byz = [NodeId(11)];

    // Baseline: geometric max with one faker — everyone believes a
    // million.
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, init| GeometricMax::new(30, init),
        MaxFakerAdversary {
            fake_value: 1_000_000,
        },
        SimConfig {
            seed: 10,
            ..SimConfig::default()
        },
    );
    let baseline = sim.run();
    for u in baseline.honest_nodes() {
        assert_eq!(baseline.outputs[u], Some(1_000_000));
    }

    // The paper's Algorithm 2 under an *active* spammer at the same
    // position: far honest nodes stay in band.
    let params = CongestParams::default();
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, init| CongestCounting::new(params, init),
        BeaconSpamAdversary::new(params),
        SimConfig {
            seed: 10,
            max_rounds: 40_000,
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        },
    );
    let core = sim.run();
    let dist = distances(&g, byz[0]);
    let band = Band::new(0.15, 3.0);
    let mut far_in_band = 0usize;
    let mut far_total = 0usize;
    for u in core.honest_nodes() {
        if dist[u].unwrap_or(u32::MAX) >= 2 {
            far_total += 1;
            if let Some(est) = core.outputs[u] {
                if band.contains(f64::from(est.estimate), n) {
                    far_in_band += 1;
                }
            }
        }
    }
    assert!(far_total > 0);
    assert!(
        far_in_band as f64 >= 0.9 * far_total as f64,
        "{far_in_band}/{far_total} far nodes in band"
    );
}
