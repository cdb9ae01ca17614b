//! Theorem 3 live: without expansion, counting is impossible.
//!
//! Builds the impossibility proof's graph — `t` copies of a base network
//! glued at a single Byzantine cut node — and shows that honest estimates
//! cannot track the true size: each copy's transcript is identical to a
//! standalone network, so estimates stay flat as `t` (and hence `n`)
//! grows. The same protocol on a genuine expander of equal size tracks
//! `ln n` just fine — expansion is not an artifact of the algorithm, it
//! is information-theoretically necessary.
//!
//! ```text
//! cargo run --release --example impossibility
//! ```

use byzantine_counting::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn run_counting(g: &Graph, byz: &[NodeId], seed: u64) -> Vec<f64> {
    let params = CongestParams::default();
    let mut sim = Execution::new(
        g,
        byz,
        |_, init| CongestCounting::new(params, init),
        NullAdversary, // silence IS the attack: copies cannot be told apart
        SimConfig {
            seed,
            max_rounds: 60_000,
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    report
        .outputs
        .iter()
        .flatten()
        .map(|e| f64::from(e.estimate))
        .collect()
}

fn main() {
    let base_n = 65;
    let d = 8;
    println!("== Theorem 3: phantom copies behind a Byzantine cut node ==");
    println!("base network: H({base_n}, {d}); node 0 is Byzantine and silent\n");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let base = hnd(base_n, d, &mut rng).expect("valid parameters");
    println!(
        "{:>7} {:>8} {:>8} {:>18} {:>22}",
        "copies", "true n", "ln n", "median L (phantom)", "median L (expander)"
    );
    for t in [1usize, 2, 4, 8, 16] {
        let phantom = phantom_copies(&base, NodeId(0), t);
        let n_total = phantom.len();
        let phantom_ests = run_counting(&phantom, &[NodeId(0)], 5);
        // Contrast: a genuine expander of the same size, same silent fault.
        let mut rng = ChaCha8Rng::seed_from_u64(100 + t as u64);
        let expander = hnd(n_total, d, &mut rng).expect("valid parameters");
        let expander_ests = run_counting(&expander, &[NodeId(0)], 5);
        println!(
            "{:>7} {:>8} {:>8.2} {:>18.1} {:>22.1}",
            t,
            n_total,
            (n_total as f64).ln(),
            median(phantom_ests),
            median(expander_ests),
        );
    }
    println!("\nThe phantom column is flat: honest nodes inside a copy see transcripts");
    println!("identical to a standalone copy, so no algorithm can output anything that");
    println!("tracks the true size — exactly the indistinguishability of Theorem 3.");
}
