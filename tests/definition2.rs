//! Definition 2 acceptance: both algorithms, multiple topologies, every
//! adversary — the paper's success criterion checked end to end.
//!
//! Definition 2 (Byzantine counting): every honest node irrevocably
//! decides an estimate within T rounds, and at least `(1−ϵ)n − B(n)`
//! honest nodes land in a constant-factor band around `log n`.

use byzantine_counting::graph::analysis::bfs::distances;
use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn far_nodes(g: &Graph, byz: &[NodeId], min_dist: u32) -> Vec<usize> {
    let dists: Vec<_> = byz.iter().map(|&b| distances(g, b)).collect();
    (0..g.len())
        .filter(|&u| !byz.iter().any(|b| b.index() == u))
        .filter(|&u| dists.iter().all(|d| d[u].unwrap_or(u32::MAX) >= min_dist))
        .collect()
}

#[test]
fn local_meets_definition2_on_hnd() {
    let n = 96;
    let d = 8;
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = hnd(n, d, &mut rng).unwrap();
    let byz = [NodeId(0), NodeId(48)];
    let cfg = LocalConfig {
        max_degree: d + 2,
        ..LocalConfig::default()
    };
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, init| LocalCounting::new(cfg, init),
        FakeExpanderAdversary::new(2, d, 2, 3),
        SimConfig {
            seed: 1,
            max_rounds: 300,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    // Property 1: every honest node decides.
    assert_eq!(report.honest_decided_count(), report.honest_count());
    // Property 2: the far honest nodes are in a constant-factor band.
    let far = far_nodes(&g, &byz, 2);
    let band = Band::new(0.2, 2.0);
    let er = EstimateReport::evaluate(
        n,
        far.iter()
            .map(|&u| report.outputs[u].map(|e| f64::from(e.radius))),
        band,
    );
    assert!(
        er.in_band_fraction() >= 0.95,
        "far in-band fraction {}",
        er.in_band_fraction()
    );
}

#[test]
fn local_meets_definition2_on_small_world() {
    // Theorem 1 needs only bounded degree + expansion; a Watts–Strogatz
    // small world in the rewired regime qualifies (and is the topology the
    // prior work [14] needed — here it is just one more expander).
    let n = 96;
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let g = watts_strogatz(n, 3, 0.3, &mut rng).unwrap();
    let cfg = LocalConfig {
        max_degree: 12,
        alpha_prime: 0.03,
        ..LocalConfig::default()
    };
    let mut sim = Execution::new(
        &g,
        &[],
        |_, init| LocalCounting::new(cfg, init),
        NullAdversary,
        SimConfig {
            seed: 2,
            max_rounds: 300,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    assert_eq!(report.honest_decided_count(), report.honest_count());
    // Benign estimates sit at diam + O(1) = Θ(log n).
    let ln_n = (n as f64).ln();
    for out in report.outputs.iter().flatten() {
        assert!(
            f64::from(out.radius) <= 3.0 * ln_n,
            "radius {} vs ln n {ln_n}",
            out.radius
        );
    }
}

#[test]
fn congest_meets_definition2_under_spam() {
    let n = 128;
    let d = 8;
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = hnd(n, d, &mut rng).unwrap();
    let byz: Vec<NodeId> = (0..4).map(|k| NodeId(k * 32)).collect();
    let params = CongestParams::default();
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, init| CongestCounting::new(params, init),
        BeaconSpamAdversary::new(params),
        SimConfig {
            seed: 3,
            max_rounds: 40_000,
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    let far = far_nodes(&g, &byz, 2);
    assert!(!far.is_empty());
    let band = Band::new(0.15, 3.0);
    let er = EstimateReport::evaluate(
        n,
        far.iter()
            .map(|&u| report.outputs[u].map(|e| f64::from(e.estimate))),
        band,
    );
    assert!(
        er.decided_fraction() >= 0.95,
        "far decided {}",
        er.decided_fraction()
    );
    assert!(
        er.in_band_fraction() >= 0.9,
        "far in-band {}",
        er.in_band_fraction()
    );
}

#[test]
fn congest_estimates_bounded_above_benign() {
    // Remark 2: benign estimates are upper-bounded by roughly ⌈log n⌉;
    // nothing should ever exceed the natural log by much.
    for &n in &[64usize, 128, 256] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = hnd(n, 8, &mut rng).unwrap();
        let params = CongestParams::default();
        let mut sim = Execution::new(
            &g,
            &[],
            |_, init| CongestCounting::new(params, init),
            NullAdversary,
            SimConfig {
                seed: n as u64,
                max_rounds: 40_000,
                ..SimConfig::default()
            },
        );
        let report = sim.run();
        let cap = (n as f64).ln().ceil() + 1.0;
        for out in report.outputs.iter().flatten() {
            assert!(
                f64::from(out.estimate) <= cap,
                "n={n}: estimate {} above ⌈ln n⌉+1 = {cap}",
                out.estimate
            );
        }
    }
}

#[test]
fn congest_works_on_configuration_model_too() {
    // Contiguity in practice: the same protocol behaves the same on the
    // configuration model as on H(n,d).
    let n = 128;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = configuration_model(n, 8, &mut rng).unwrap();
    let params = CongestParams::default();
    let mut sim = Execution::new(
        &g,
        &[],
        |_, init| CongestCounting::new(params, init),
        NullAdversary,
        SimConfig {
            seed: 5,
            max_rounds: 40_000,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    assert_eq!(report.honest_decided_count(), n);
    let ests: Vec<u32> = report
        .outputs
        .iter()
        .flatten()
        .map(|e| e.estimate)
        .collect();
    let lo = *ests.iter().min().unwrap();
    let hi = *ests.iter().max().unwrap();
    assert!(hi - lo <= 2, "benign estimates cluster: {lo}..{hi}");
}
