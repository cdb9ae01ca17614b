//! Quickstart: Byzantine counting on a random regular network.
//!
//! Generates an `H(n, d)` expander, runs the paper's CONGEST counting
//! algorithm (Algorithm 2) with a handful of Byzantine beacon spammers,
//! and prints what every honest node decided `log n` to be.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let n = 512;
    let d = 8;
    let n_byz = 8;
    println!("== Byzantine counting quickstart ==");
    println!(
        "network: H({n}, {d}) — {} honest, {n_byz} Byzantine",
        n - n_byz
    );
    println!(
        "truth:   ln n = {:.2}, log_d n = {:.2}\n",
        (n as f64).ln(),
        (n as f64).ln() / (d as f64).ln()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = hnd(n, d, &mut rng).expect("valid parameters");
    let byz: Vec<NodeId> = (0..n_byz).map(|k| NodeId((k * n / n_byz) as u32)).collect();

    let params = CongestParams::default();
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, init| CongestCounting::new(params, init),
        BeaconSpamAdversary::new(params),
        SimConfig {
            seed: 42,
            max_rounds: 40_000,
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        },
    );
    let report = sim.run();

    // Histogram of decided estimates.
    let mut histogram = std::collections::BTreeMap::<u32, usize>::new();
    for u in report.honest_nodes() {
        if let Some(est) = report.outputs[u] {
            *histogram.entry(est.estimate).or_default() += 1;
        }
    }
    println!("decided estimates of log n (phase numbers):");
    for (estimate, count) in &histogram {
        println!(
            "  L = {estimate:>2}  x{count:<4} {}",
            "#".repeat(count / 4 + 1)
        );
    }

    let band = Band::new(0.15, 3.0);
    let er = EstimateReport::evaluate(
        n,
        report
            .honest_nodes()
            .map(|u| report.outputs[u].map(|e| f64::from(e.estimate))),
        band,
    );
    println!(
        "\ndecided:  {:5.1}% of honest nodes",
        100.0 * er.decided_fraction()
    );
    println!(
        "in band:  {:5.1}% within [{:.2}, {:.2}]·ln n",
        100.0 * er.in_band_fraction(),
        band.lo,
        band.hi
    );
    println!("median L/ln n = {:.2}", er.median_ratio);
    println!("rounds:   {}", report.rounds);
    let honest: Vec<usize> = report.honest_nodes().collect();
    println!(
        "messages: {} total from honest nodes, largest message {} bits",
        report.metrics.total_messages(honest.iter().copied()),
        honest
            .iter()
            .map(|&u| report.metrics.per_node[u].max_message_bits)
            .max()
            .unwrap_or(0),
    );
}
