//! Peer-to-peer overlay bootstrap: the paper's §1.1 application.
//!
//! A fresh unstructured overlay (random regular graph) wants to run the
//! Byzantine agreement protocol of Augustine–Pandurangan–Robinson, but
//! that protocol needs a constant-factor bound on `log n` for its random
//! walks and iteration counts — and nobody knows `n`. The paper's answer:
//! run Byzantine counting first. This example runs the whole pipeline and
//! compares it against an oracle that magically knows `ln n`.
//!
//! ```text
//! cargo run --release --example p2p_bootstrap
//! ```

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let n = 256;
    let d = 8;
    let n_byz = ((n as f64).sqrt() / 4.0) as usize;
    let majority = 7 * n / 10;
    println!("== P2P bootstrap: counting -> agreement ==");
    println!(
        "overlay: H({n}, {d}); {n_byz} Byzantine (silent); inputs: {majority} ones / {} zeros\n",
        n - majority
    );

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = hnd(n, d, &mut rng).expect("valid parameters");
    let byz: Vec<NodeId> = (0..n_byz)
        .map(|k| NodeId((k * n / n_byz.max(1)) as u32))
        .collect();
    let inputs: Vec<bool> = (0..n).map(|u| u < majority).collect();

    // --- Phase 1 + 2: the pipeline. -----------------------------------
    let pipeline = counting_then_agreement(
        &g,
        &byz,
        &inputs,
        CongestParams::default(),
        AgreementParams::default(),
        1,
    );
    let estimates: Vec<u32> = pipeline.log_estimates.iter().flatten().copied().collect();
    let (lo, hi) = (
        estimates.iter().min().copied().unwrap_or(0),
        estimates.iter().max().copied().unwrap_or(0),
    );
    println!("counting phase: {} rounds", pipeline.counting_rounds);
    println!(
        "  estimates of log n: {lo}..{hi} (truth: ln n = {:.2})",
        (n as f64).ln()
    );
    println!(
        "pipeline agreement on the majority input: {:.1}% of honest nodes",
        100.0 * pipeline.agreement_fraction(true)
    );

    // --- Oracle comparison. --------------------------------------------
    let oracle = (n as f64).ln().ceil() as u32;
    let mut sim = Execution::new(
        &g,
        &byz,
        |u, _| AgreementProtocol::new(AgreementParams::default(), inputs[u.index()], oracle),
        NullAdversary,
        SimConfig {
            seed: 2,
            max_rounds: 20_000,
            ..SimConfig::default()
        },
    );
    let oracle_report = sim.run();
    let honest: Vec<usize> = oracle_report.honest_nodes().collect();
    let agree = honest
        .iter()
        .filter(|&&u| oracle_report.outputs[u].map(|o| o.value).unwrap_or(false))
        .count();
    println!(
        "oracle agreement (log n given for free): {:.1}% of honest nodes",
        100.0 * agree as f64 / honest.len() as f64
    );
    println!("\nThe pipeline removes the known-n assumption at the cost of the counting rounds.");
}
