//! The geometric-distribution max protocol (Section 1.2 of the paper).
//!
//! Every node flips a fair coin until it lands heads; the number of flips
//! `X_u` is Geometric(1/2), and the global maximum `X̄ = max_u X_u`
//! satisfies `X̄ = Θ(log n)` whp (concretely, `X̄ ≈ log₂ n` within an
//! additive constant). Flooding the running maximum for a round budget `T`
//! lets every node learn `X̄`.
//!
//! **Why it is not Byzantine-resilient:** a Byzantine node floods a huge
//! fake value and every honest node's estimate becomes that value — the
//! paper: "Byzantine nodes can fake the maximum value or can stop the
//! correct maximum value from spreading and hence can violate any desired
//! approximation guarantee."

use bcount_sim::{
    Adversary, ByzantineContext, FullInfoView, MessageSize, NodeContext, NodeInit, Protocol,
};
use rand::Rng;

/// The flooded running maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxSample(pub u32);

impl MessageSize for MaxSample {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        32
    }
}

/// One node of the geometric-max protocol. Runs for a fixed round budget
/// `T` (the protocol has no Byzantine-safe termination rule; experiments
/// pass `T ≈ 2·diam`), then outputs the largest sample seen.
#[derive(Debug, Clone)]
pub struct GeometricMax {
    budget: u64,
    sample: Option<u32>,
    best: u32,
    done: bool,
}

impl GeometricMax {
    /// Creates a node with round budget `budget`.
    pub fn new(budget: u64, _init: &NodeInit) -> Self {
        GeometricMax {
            budget,
            sample: None,
            best: 0,
            done: false,
        }
    }

    /// This node's own geometric sample (for tests).
    pub fn own_sample(&self) -> Option<u32> {
        self.sample
    }
}

impl Protocol for GeometricMax {
    type Message = MaxSample;
    type Output = u32;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, MaxSample>) {
        if self.done {
            return;
        }
        if ctx.round() == 1 {
            // Flip a fair coin until heads.
            let mut flips = 1u32;
            while ctx.rng().gen_bool(0.5) {
                flips += 1;
            }
            self.sample = Some(flips);
            self.best = flips;
            ctx.broadcast(MaxSample(flips));
        } else {
            // Aggregate-only intake: the max never needs the senders, so
            // fold over the payload plane directly (no pid widening).
            let best = ctx
                .inbox()
                .fold_payloads(self.best, |best, msg| best.max(msg.0));
            if best > self.best {
                self.best = best;
                ctx.broadcast(MaxSample(self.best));
            }
        }
        if ctx.round() >= self.budget {
            self.done = true;
        }
    }

    fn output(&self) -> Option<u32> {
        self.done.then_some(self.best)
    }

    fn has_halted(&self) -> bool {
        self.done
    }
}

/// The one-node attack: flood an arbitrary fake maximum.
#[derive(Debug, Clone, Copy)]
pub struct MaxFakerAdversary {
    /// The value every honest node will end up believing.
    pub fake_value: u32,
}

impl Adversary<GeometricMax> for MaxFakerAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, GeometricMax>,
        ctx: &mut ByzantineContext<'_, MaxSample>,
    ) {
        if view.round() == 1 {
            for b in view.byzantine_nodes() {
                ctx.broadcast(b, MaxSample(self.fake_value));
            }
        }
    }

    /// This strategy never inspects the in-flight honest traffic
    /// ([`FullInfoView::honest_outgoing`]) — it works off states, inboxes,
    /// and topology — so it licenses the engine's outbox feed.
    fn observes_traffic(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcount_graph::gen::hnd;
    use bcount_graph::NodeId;
    use bcount_sim::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run(n: usize, byz: &[NodeId], fake: Option<u32>, seed: u64) -> SimReport<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, 8, &mut rng).unwrap();
        let budget = 30;
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        match fake {
            None => Simulation::new(
                &g,
                byz,
                |_, init| GeometricMax::new(budget, init),
                NullAdversary,
                cfg,
            )
            .run(),
            Some(v) => Simulation::new(
                &g,
                byz,
                |_, init| GeometricMax::new(budget, init),
                MaxFakerAdversary { fake_value: v },
                cfg,
            )
            .run(),
        }
    }

    #[test]
    fn benign_estimate_tracks_log2_n() {
        // Average over seeds: max of n geometric samples ≈ log2 n ± O(1).
        let n = 256;
        let mut sum = 0.0;
        let seeds = 8;
        for seed in 0..seeds {
            let report = run(n, &[], None, seed);
            let est = report.outputs[0].expect("decided");
            // Everyone agrees on the global max.
            assert!(report.outputs.iter().all(|o| *o == Some(est)));
            sum += f64::from(est);
        }
        let avg = sum / seeds as f64;
        let log2n = (n as f64).log2();
        assert!(
            (avg - log2n).abs() < 3.5,
            "avg estimate {avg} vs log2 n = {log2n}"
        );
    }

    #[test]
    fn one_byzantine_node_destroys_the_estimate() {
        let n = 128;
        let report = run(n, &[NodeId(5)], Some(1_000_000), 3);
        for u in report.honest_nodes() {
            assert_eq!(report.outputs[u], Some(1_000_000));
        }
    }

    #[test]
    fn samples_are_geometric() {
        // Sanity-check the sampler through the protocol: P(X >= k) = 2^{1-k}.
        let n = 512;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = hnd(n, 8, &mut rng).unwrap();
        let mut sim = Simulation::new(
            &g,
            &[],
            |_, init| GeometricMax::new(1, init),
            NullAdversary,
            SimConfig::default(),
        );
        sim.step();
        let ones = (0..n)
            .filter(|&u| sim.protocol(NodeId(u as u32)).and_then(|p| p.own_sample()) == Some(1))
            .count();
        // P(X = 1) = 1/2; allow 4 sigma.
        let expect = n as f64 / 2.0;
        let sigma = (n as f64 * 0.25).sqrt();
        assert!(
            ((ones as f64) - expect).abs() < 4.0 * sigma,
            "{ones} ones out of {n}"
        );
    }
}
