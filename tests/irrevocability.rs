//! Irrevocability: Definition 2 requires decisions to be final. Drive
//! simulations step by step and verify that no node's output ever changes
//! once set — under benign and adversarial conditions, for both
//! algorithms.

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Steps a congest simulation manually, recording first outputs and
/// asserting they never change.
#[test]
fn congest_decisions_never_change() {
    let n = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let g = hnd(n, 8, &mut rng).unwrap();
    let params = CongestParams::default();
    let byz = [NodeId(5)];
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, init| CongestCounting::new(params, init),
        BeaconSpamAdversary::new(params),
        SimConfig {
            seed: 4,
            max_rounds: 5_000,
            ..SimConfig::default()
        },
    );
    let mut first: Vec<Option<CongestEstimate>> = vec![None; n];
    for _ in 0..1_500 {
        sim.step();
        for (u, slot) in first.iter_mut().enumerate() {
            if let Some(proto) = sim.protocol(NodeId(u as u32)) {
                let out = proto.output();
                match (*slot, out) {
                    (None, Some(o)) => *slot = Some(o),
                    (Some(prev), Some(now)) => {
                        assert_eq!(prev, now, "node {u} changed its decision");
                    }
                    _ => {}
                }
            }
        }
    }
    // Sanity: a meaningful number of nodes decided during the window.
    assert!(first.iter().flatten().count() > n / 2);
}

#[test]
fn local_decisions_never_change() {
    let n = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let g = hnd(n, 6, &mut rng).unwrap();
    let cfg = LocalConfig {
        max_degree: 8,
        ..LocalConfig::default()
    };
    let mut sim = Execution::new(
        &g,
        &[NodeId(0)],
        |_, init| LocalCounting::new(cfg, init),
        FakeExpanderAdversary::new(2, 6, 2, 11),
        SimConfig {
            seed: 6,
            max_rounds: 200,
            ..SimConfig::default()
        },
    );
    let mut first: Vec<Option<LocalEstimate>> = vec![None; n];
    for _ in 0..60 {
        sim.step();
        for (u, slot) in first.iter_mut().enumerate() {
            if let Some(proto) = sim.protocol(NodeId(u as u32)) {
                match (*slot, proto.output()) {
                    (None, Some(o)) => *slot = Some(o),
                    (Some(prev), Some(now)) => {
                        assert_eq!(prev, now, "node {u} changed its decision");
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(first.iter().flatten().count() > n / 2);
}

#[test]
fn decided_round_matches_first_output() {
    // The engine's decided_round bookkeeping must agree with the
    // protocol-level outputs at the end of the run.
    let n = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let g = hnd(n, 8, &mut rng).unwrap();
    let params = CongestParams::default();
    let mut sim = Execution::new(
        &g,
        &[],
        |_, init| CongestCounting::new(params, init),
        NullAdversary,
        SimConfig {
            seed: 8,
            max_rounds: 20_000,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    for u in report.honest_nodes() {
        assert_eq!(
            report.outputs[u].is_some(),
            report.decided_round[u].is_some(),
            "node {u}: output/decided_round disagree"
        );
        if let Some(r) = report.decided_round[u] {
            assert!(r <= report.rounds);
        }
    }
}
