//! Theorem 3 end to end: behind a silent Byzantine cut node, `t` phantom
//! copies are indistinguishable from one — estimates cannot track the
//! true network size without expansion.

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn median_estimate(g: &Graph, byz: &[NodeId], seed: u64) -> f64 {
    let params = CongestParams::default();
    let mut sim = Execution::new(
        g,
        byz,
        |_, init| CongestCounting::new(params, init),
        NullAdversary,
        SimConfig {
            seed,
            max_rounds: 40_000,
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    let mut ests: Vec<f64> = report
        .outputs
        .iter()
        .flatten()
        .map(|e| f64::from(e.estimate))
        .collect();
    assert!(!ests.is_empty());
    ests.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ests[ests.len() / 2]
}

#[test]
fn phantom_copies_freeze_the_estimate() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let base = hnd(65, 8, &mut rng).unwrap();
    let single = median_estimate(&phantom_copies(&base, NodeId(0), 1), &[NodeId(0)], 3);
    let many = median_estimate(&phantom_copies(&base, NodeId(0), 8), &[NodeId(0)], 3);
    // Indistinguishability: the 8-copy median matches the single copy
    // (up to one phase of randomness slack), although n grew 8-fold.
    assert!(
        (single - many).abs() <= 1.0,
        "phantom estimates moved: {single} vs {many}"
    );
    // While a genuine expander of the grown size yields a larger estimate.
    let n_total = 1 + 8 * 64;
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let expander = hnd(n_total, 8, &mut rng).unwrap();
    let honest_growth = median_estimate(&expander, &[NodeId(0)], 3);
    assert!(
        honest_growth > many,
        "expander median {honest_growth} must exceed phantom median {many}"
    );
}

#[test]
fn cut_node_degree_matches_theorem() {
    // The construction of Theorem 3: b participates in each copy, degree
    // t·deg(b).
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let base = hnd(33, 4, &mut rng).unwrap();
    let t = 5;
    let g = phantom_copies(&base, NodeId(10), t);
    assert_eq!(g.degree(NodeId(0)), t * base.degree(NodeId(10)));
    assert_eq!(g.len(), 1 + t * 32);
}
