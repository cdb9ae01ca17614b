//! Support estimation via exponential minima ([7, 5] in the paper).
//!
//! Every node draws `k` independent Exp(1) samples; the network floods
//! coordinate-wise minima. Each coordinate's global minimum is Exp(n), so
//! `n̂ = (k−1) / Σᵢ minᵢ` is an unbiased, concentrated estimator of `n`
//! (the classical support-estimation technique, robust even in anonymous
//! networks).
//!
//! **Why it is not Byzantine-resilient:** minima can only be lowered, and
//! a Byzantine node flooding zeros (or any tiny values) drives `n̂` to
//! infinity. Unlike the geometric-max protocol it cannot be fooled into
//! *under*-estimating past honest values — but unbounded over-estimation
//! is already fatal for counting.

use bcount_sim::{
    Adversary, ByzantineContext, FullInfoView, MessageSize, NodeContext, NodeInit, Protocol,
};
use rand::Rng;

/// The flooded coordinate-wise minima.
#[derive(Debug, Clone, PartialEq)]
pub struct Minima(pub Vec<f64>);

impl MessageSize for Minima {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        64 * self.0.len() as u64
    }
}

/// One node of the support-estimation protocol: floods coordinate-wise
/// minima of `k` exponential samples for `budget` rounds, then outputs
/// `n̂ = (k−1)/Σ minᵢ`.
#[derive(Debug, Clone)]
pub struct SupportEstimation {
    budget: u64,
    k: usize,
    mins: Vec<f64>,
    done: bool,
}

impl SupportEstimation {
    /// Creates a node flooding `k` coordinates for `budget` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (the estimator needs `k−1 ⩾ 1`).
    pub fn new(k: usize, budget: u64, _init: &NodeInit) -> Self {
        assert!(k >= 2, "support estimation needs k >= 2 repetitions");
        SupportEstimation {
            budget,
            k,
            mins: Vec::new(),
            done: false,
        }
    }

    /// The current size estimate `(k−1)/Σ minᵢ`.
    pub fn estimate(&self) -> f64 {
        let sum: f64 = self.mins.iter().sum();
        if sum <= 0.0 {
            f64::INFINITY
        } else {
            (self.k as f64 - 1.0) / sum
        }
    }
}

impl Protocol for SupportEstimation {
    type Message = Minima;
    type Output = f64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Minima>) {
        if self.done {
            return;
        }
        if ctx.round() == 1 {
            self.mins = (0..self.k)
                .map(|_| {
                    // Exp(1) via inverse CDF.
                    let u: f64 = ctx.rng().gen_range(f64::MIN_POSITIVE..1.0);
                    -u.ln()
                })
                .collect();
            ctx.broadcast(Minima(self.mins.clone()));
        } else {
            let mut improved = false;
            let inbox: Vec<Vec<f64>> = ctx.inbox().iter().map(|env| env.msg.0.clone()).collect();
            for values in inbox {
                for (slot, v) in self.mins.iter_mut().zip(values) {
                    // Negative "samples" are adversarial; clamp at 0 so the
                    // estimator stays a minimum, not a sum exploit.
                    let v = v.max(0.0);
                    if v < *slot {
                        *slot = v;
                        improved = true;
                    }
                }
            }
            if improved {
                ctx.broadcast(Minima(self.mins.clone()));
            }
        }
        if ctx.round() >= self.budget {
            self.done = true;
        }
    }

    fn output(&self) -> Option<f64> {
        self.done.then(|| self.estimate())
    }

    fn has_halted(&self) -> bool {
        self.done
    }
}

/// The one-node attack: flood zero minima.
#[derive(Debug, Clone, Copy)]
pub struct ZeroFakerAdversary {
    /// Number of coordinates the honest protocol uses.
    pub k: usize,
}

impl Adversary<SupportEstimation> for ZeroFakerAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, SupportEstimation>,
        ctx: &mut ByzantineContext<'_, Minima>,
    ) {
        if view.round() == 1 {
            for b in view.byzantine_nodes() {
                ctx.broadcast(b, Minima(vec![0.0; self.k]));
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

    fn run(n: usize, k: usize, byz: &[NodeId], attack: bool, seed: u64) -> SimReport<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, 8, &mut rng).unwrap();
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        if attack {
            Simulation::new(
                &g,
                byz,
                |_, init| SupportEstimation::new(k, 30, init),
                ZeroFakerAdversary { k },
                cfg,
            )
            .run()
        } else {
            Simulation::new(
                &g,
                byz,
                |_, init| SupportEstimation::new(k, 30, init),
                NullAdversary,
                cfg,
            )
            .run()
        }
    }

    #[test]
    fn benign_estimate_concentrates_around_n() {
        let n = 200;
        let k = 64;
        let report = run(n, k, &[], false, 5);
        let est = report.outputs[0].expect("decided");
        // All nodes agree (same global minima).
        for o in &report.outputs {
            assert_eq!(*o, Some(est));
        }
        // (k-1)/sum is within ~4/sqrt(k) relative error whp.
        assert!(
            (est - n as f64).abs() < 0.5 * n as f64,
            "estimate {est} vs n = {n}"
        );
    }

    #[test]
    fn one_byzantine_node_forces_infinite_estimate() {
        let n = 100;
        let report = run(n, 16, &[NodeId(3)], true, 7);
        for u in report.honest_nodes() {
            assert_eq!(report.outputs[u], Some(f64::INFINITY));
        }
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_degenerate_k() {
        let init = NodeInit {
            pid: bcount_sim::Pid(1),
            neighbors: vec![],
        };
        let _ = SupportEstimation::new(1, 10, &init);
    }
}
