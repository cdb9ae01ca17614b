//! Topology zoo: where Byzantine counting works — and where it cannot.
//!
//! Runs the CONGEST counting algorithm (benign, so topology is the only
//! variable) across the graph families in this workspace and reports the
//! estimates against `ln n`. Expanders (random regular, rewired small
//! worlds) land in a tight constant-factor band; low-expansion topologies
//! (cycles, tori, barbells, bridged expanders) under- or over-shoot —
//! the experimental face of the paper's impossibility result: vertex
//! expansion is what makes the estimate meaningful.
//!
//! ```text
//! cargo run --release --example topology_zoo
//! ```

use byzantine_counting::graph::analysis::spectral::spectral_gap;
use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn run(g: &Graph, seed: u64) -> (f64, u64) {
    let params = CongestParams::default();
    let mut sim = Execution::new(
        g,
        &[],
        |_, init| CongestCounting::new(params, init),
        NullAdversary,
        SimConfig {
            seed,
            max_rounds: 20_000,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    let ests: Vec<f64> = report
        .outputs
        .iter()
        .flatten()
        .map(|e| f64::from(e.estimate))
        .collect();
    (median(ests), report.rounds)
}

fn main() {
    let n = 256;
    println!("== Topology zoo: benign CONGEST counting on {n}-node graphs ==");
    println!("truth: ln n = {:.2}\n", (n as f64).ln());
    println!(
        "{:<28} {:>8} {:>10} {:>10} {:>8}",
        "topology", "gap", "median L", "L / ln n", "rounds"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let zoo: Vec<(&str, Graph)> = vec![
        ("H(n,8) random regular", hnd(n, 8, &mut rng).unwrap()),
        (
            "configuration model d=8",
            configuration_model(n, 8, &mut rng).unwrap(),
        ),
        (
            "small world k=4 p=0.3",
            watts_strogatz(n, 4, 0.3, &mut rng).unwrap(),
        ),
        (
            "small world k=4 p=0.0 (ring)",
            watts_strogatz(n, 4, 0.0, &mut rng).unwrap(),
        ),
        ("cycle", cycle(n).unwrap()),
        ("torus 16x16", torus2d(16, 16).unwrap()),
        ("barbell 2x64 cliques", barbell(64, 0).unwrap()),
        (
            "bridged expanders 2x128",
            bridged_expanders(n / 2, 8, &mut rng).unwrap(),
        ),
    ];
    for (name, g) in zoo {
        let gap = spectral_gap(&g, 300);
        let (med, rounds) = run(&g, 23);
        println!(
            "{:<28} {:>8.3} {:>10.1} {:>10.2} {:>8}",
            name,
            gap,
            med,
            med / (g.len() as f64).ln(),
            rounds
        );
    }
    println!("\nHigh spectral gap -> estimates track ln n (rerun with larger n and they");
    println!("grow). Poor expansion -> a phase's beacons only ever see a local patch,");
    println!("so the estimate is SIZE-BLIND: quadruple the cycle or torus and the");
    println!("numbers barely move (Theorem 3 says no algorithm can do better there).");
}
