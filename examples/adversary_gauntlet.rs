//! The adversary gauntlet: both counting algorithms against every attack.
//!
//! Runs Algorithm 1 (LOCAL) and Algorithm 2 (CONGEST) on the same
//! expander against each implemented Byzantine strategy and prints how
//! the far-from-Byzantine honest nodes fared — the guarantee surface of
//! Theorems 1 and 2.
//!
//! ```text
//! cargo run --release --example adversary_gauntlet
//! ```

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn far_nodes(g: &Graph, byz: &[NodeId], min_dist: u32) -> Vec<usize> {
    use byzantine_counting::graph::analysis::bfs::distances;
    let dists: Vec<_> = byz.iter().map(|&b| distances(g, b)).collect();
    (0..g.len())
        .filter(|&u| !byz.iter().any(|b| b.index() == u))
        .filter(|&u| dists.iter().all(|d| d[u].unwrap_or(u32::MAX) >= min_dist))
        .collect()
}

fn summarize(name: &str, n: usize, ests: Vec<Option<f64>>, band: Band) {
    let er = EstimateReport::evaluate(n, ests, band);
    println!(
        "  {name:<28} decided {:5.1}%   in-band {:5.1}%   median L/ln n = {:.2}",
        100.0 * er.decided_fraction(),
        100.0 * er.in_band_fraction(),
        er.median_ratio,
    );
}

fn main() {
    let n = 128;
    let d = 8;
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let g = hnd(n, d, &mut rng).expect("valid parameters");
    let byz: Vec<NodeId> = vec![NodeId(0), NodeId(43), NodeId(86)];
    let far = far_nodes(&g, &byz, 2);
    println!(
        "== Adversary gauntlet: n = {n}, d = {d}, |Byz| = {} ==",
        byz.len()
    );
    println!("reporting far honest nodes (distance >= 2 from every Byzantine node)\n");

    // ---- Algorithm 1 (LOCAL). -----------------------------------------
    println!("Algorithm 1 (deterministic, LOCAL):");
    let cfg = LocalConfig {
        max_degree: d + 2,
        ..LocalConfig::default()
    };
    let local_band = Band::new(0.2, 2.0);
    let run_local = |adv: &str| -> Vec<Option<f64>> {
        let factory = |_: NodeId, init: &NodeInit| LocalCounting::new(cfg, init);
        let sim_cfg = SimConfig {
            seed: 9,
            max_rounds: 300,
            ..SimConfig::default()
        };
        let report = match adv {
            "silent (crash)" => Execution::new(&g, &byz, factory, NullAdversary, sim_cfg).run(),
            "fake-expander" => Execution::new(
                &g,
                &byz,
                factory,
                FakeExpanderAdversary::new(2, d, 2, 5),
                sim_cfg,
            )
            .run(),
            _ => Execution::new(&g, &byz, factory, EdgeInjectorAdversary::new(5), sim_cfg).run(),
        };
        far.iter()
            .map(|&u| report.outputs[u].map(|e| f64::from(e.radius)))
            .collect()
    };
    for adv in ["silent (crash)", "fake-expander", "edge-injector"] {
        summarize(adv, n, run_local(adv), local_band);
    }

    // ---- Algorithm 2 (CONGEST). -----------------------------------------
    println!("\nAlgorithm 2 (randomized, CONGEST):");
    let params = CongestParams::default();
    let congest_band = Band::new(0.15, 3.0);
    let run_congest = |adv: &str| -> Vec<Option<f64>> {
        let factory = |_: NodeId, init: &NodeInit| CongestCounting::new(params, init);
        let sim_cfg = SimConfig {
            seed: 11,
            max_rounds: 40_000,
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        };
        let report = match adv {
            "silent (crash)" => Execution::new(&g, &byz, factory, NullAdversary, sim_cfg).run(),
            "beacon-spam" => {
                Execution::new(&g, &byz, factory, BeaconSpamAdversary::new(params), sim_cfg).run()
            }
            _ => Execution::new(&g, &byz, factory, PathTamperAdversary::new(params), sim_cfg).run(),
        };
        far.iter()
            .map(|&u| report.outputs[u].map(|e| f64::from(e.estimate)))
            .collect()
    };
    for adv in ["silent (crash)", "beacon-spam", "path-tamper"] {
        summarize(adv, n, run_congest(adv), congest_band);
    }
    println!("\nTheorems 1 & 2: far honest nodes decide constant-factor estimates of ln n");
    println!("no matter which of these strategies the adversary picks.");
}
