//! Characterization: what the counting protocols do *outside* their
//! guaranteed domain. The theorems require expansion; these tests document
//! (and pin down) the failure shapes on low-expansion topologies, which is
//! the empirical face of Theorem 3's necessity claim.

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn median_estimate(g: &Graph, seed: u64) -> f64 {
    let params = CongestParams::default();
    let mut sim = Execution::new(
        g,
        &[],
        |_, init| CongestCounting::new(params, init),
        NullAdversary,
        SimConfig {
            seed,
            max_rounds: 30_000,
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
    assert_eq!(ests.len(), g.len(), "everyone still decides");
    ests.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ests[ests.len() / 2]
}

#[test]
fn bridged_expanders_estimate_one_side_not_the_whole() {
    // Two H(128,8) expanders joined by one edge: beacons rarely cross the
    // bridge within a phase's flooding radius, so estimates reflect a
    // side, not the union — the counting analogue of almost-everywhere
    // agreement being the best possible across a sparse cut.
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let bridged = bridged_expanders(128, 8, &mut rng).unwrap();
    let med_bridged = median_estimate(&bridged, 7);
    let mut rng = ChaCha8Rng::seed_from_u64(32);
    let side = hnd(128, 8, &mut rng).unwrap();
    let med_side = median_estimate(&side, 7);
    // The bridged graph's estimates sit at (or within one phase of) the
    // single side's value.
    assert!(
        (med_bridged - med_side).abs() <= 1.0,
        "bridged {med_bridged} vs side {med_side}"
    );
}

#[test]
fn low_expansion_estimates_are_size_blind() {
    // The decisive failure on poor expanders is not a fixed bias but
    // *size-blindness*: a phase-i beacon covers Θ(i) (cycle) or Θ(i²)
    // (torus) nodes instead of dⁱ, so what a node sees within a phase is
    // a local picture that does not change when the network quadruples —
    // exactly the indistinguishability Theorem 3 builds on. (The absolute
    // value is also skewed by the dⁱ activation denominator assuming
    // exponential ball growth, but the blindness is the fatal part.)
    let med_cycle = median_estimate(&cycle(512).unwrap(), 9);
    let med_cycle4 = median_estimate(&cycle(2048).unwrap(), 9);
    assert!(
        (med_cycle4 - med_cycle).abs() <= 1.0,
        "cycle estimates must be size-blind: {med_cycle} vs {med_cycle4}"
    );
    let med_torus = median_estimate(&torus2d(16, 16).unwrap(), 11);
    let med_torus4 = median_estimate(&torus2d(32, 32).unwrap(), 11);
    assert!(
        (med_torus4 - med_torus).abs() <= 1.0,
        "torus estimates must be size-blind: {med_torus} vs {med_torus4}"
    );
}

#[test]
fn expander_estimates_do_track_size() {
    // The control for the size-blindness test: on expanders the same
    // protocol's estimates grow when the network grows 32-fold.
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let small = median_estimate(&hnd(64, 8, &mut rng).unwrap(), 11);
    let large = median_estimate(&hnd(2048, 8, &mut rng).unwrap(), 11);
    assert!(
        large >= small + 1.0,
        "expander estimates must track size: {small} vs {large}"
    );
}
