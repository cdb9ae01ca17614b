//! Birthday-paradox size estimation (the random-walk sampling approach of
//! Ganesh et al., cited as \[21\] in the paper's §1.2).
//!
//! Every node launches one random-walk token tagged with its own identity
//! (the *walk id*); after `τ` steps the token lands, and the landing
//! node's identity is a (near-)uniform node sample. The
//! `(walk id, landing)` pairs are gossiped to everyone — walk ids make
//! gossip deduplication possible without erasing genuine collisions. With
//! `s` uniform samples among `n` nodes the expected number of colliding
//! pairs is `≈ s(s−1)/(2n)`, so `n̂ = s(s−1)/(2·collisions)`.
//!
//! **Why it is not Byzantine-resilient** (the paper: "it fails too in the
//! Byzantine case"): samples are unauthenticated claims. A Byzantine node
//! floods fake pairs with phantom walk ids that all "landed" on one
//! identity to manufacture collisions (`n̂ → 0`), or pairs landing on
//! fresh phantom identities to suppress the collision rate (`n̂ → ∞`) —
//! [`CollisionFakerAdversary`] implements both.

use std::collections::BTreeMap;

use bcount_sim::{
    Adversary, ByzantineContext, FullInfoView, MessageSize, NodeContext, NodeInit, Pid, Protocol,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// Messages: walking tokens and gossiped `(walk id, landing)` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BirthdayMsg {
    /// A random-walk token.
    Walk {
        /// Steps left before the token lands.
        ttl: u32,
        /// The identity of the node that launched the walk.
        walk: Pid,
    },
    /// Newly learned `(walk id, landing node)` samples, gossiped.
    Samples(Vec<(Pid, Pid)>),
}

impl MessageSize for BirthdayMsg {
    fn size_bits(&self, id_bits: u32) -> u64 {
        match self {
            BirthdayMsg::Walk { .. } => 1 + 32 + u64::from(id_bits),
            BirthdayMsg::Samples(s) => 1 + 2 * s.len() as u64 * u64::from(id_bits),
        }
    }
}

/// One node of the birthday estimator: walk window of `tau + 1` rounds,
/// then gossip until the round budget, then estimate from collisions.
#[derive(Debug, Clone)]
pub struct BirthdayCounting {
    tau: u32,
    budget: u64,
    me: Pid,
    /// Known samples: walk id → landing node.
    pool: BTreeMap<Pid, Pid>,
    /// Samples learned this round, to gossip next round.
    fresh: Vec<(Pid, Pid)>,
    holding: Vec<(u32, Pid)>,
    done: bool,
}

impl BirthdayCounting {
    /// Creates a node with walk length `tau` and total round budget
    /// `budget` (experiments use `budget ≈ tau + 2·diam` so gossip can
    /// complete).
    pub fn new(tau: u32, budget: u64, init: &NodeInit) -> Self {
        BirthdayCounting {
            tau,
            budget,
            me: init.pid,
            pool: BTreeMap::new(),
            fresh: Vec::new(),
            holding: Vec::new(),
            done: false,
        }
    }

    /// The collision-based estimate `s(s−1)/(2C)`, or `f64::INFINITY`
    /// with no collisions.
    pub fn estimate(&self) -> f64 {
        let s = self.pool.len() as u64;
        let mut landing_counts: BTreeMap<Pid, u64> = BTreeMap::new();
        for landing in self.pool.values() {
            *landing_counts.entry(*landing).or_default() += 1;
        }
        let collisions: u64 = landing_counts.values().map(|&c| c * (c - 1) / 2).sum();
        if collisions == 0 || s < 2 {
            f64::INFINITY
        } else {
            (s * (s - 1)) as f64 / (2 * collisions) as f64
        }
    }

    fn record(&mut self, walk: Pid, landing: Pid) {
        if let std::collections::btree_map::Entry::Vacant(e) = self.pool.entry(walk) {
            e.insert(landing);
            self.fresh.push((walk, landing));
        }
    }
}

impl Protocol for BirthdayCounting {
    type Message = BirthdayMsg;
    type Output = f64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, BirthdayMsg>) {
        if self.done {
            return;
        }
        let neighbors = ctx.neighbors().to_vec();
        // Intake.
        for env in ctx.inbox().to_vec() {
            match env.msg {
                BirthdayMsg::Walk { ttl, walk } => {
                    if ttl == 0 {
                        let me = self.me;
                        self.record(walk, me);
                    } else {
                        self.holding.push((ttl - 1, walk));
                    }
                }
                BirthdayMsg::Samples(samples) => {
                    for (walk, landing) in samples {
                        self.record(walk, landing);
                    }
                }
            }
        }
        // Launch my token in round 1.
        if ctx.round() == 1 {
            let me = self.me;
            if let Some(&to) = neighbors.choose(ctx.rng()) {
                ctx.send(
                    to,
                    BirthdayMsg::Walk {
                        ttl: self.tau,
                        walk: me,
                    },
                );
            } else {
                self.record(me, me);
            }
        }
        // Forward held tokens one uniform step.
        let holding = std::mem::take(&mut self.holding);
        for (ttl, walk) in holding {
            if let Some(&to) = neighbors.choose(ctx.rng()) {
                ctx.send(to, BirthdayMsg::Walk { ttl, walk });
            }
        }
        // Gossip fresh samples.
        if !self.fresh.is_empty() {
            let fresh = std::mem::take(&mut self.fresh);
            ctx.broadcast(BirthdayMsg::Samples(fresh));
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

/// The one-node attack: manufacture collisions (or suppress them) with
/// fabricated samples under phantom walk ids.
#[derive(Debug, Clone, Copy)]
pub struct CollisionFakerAdversary {
    /// `true`: all fake walks land on one phantom identity (`n̂ → small`);
    /// `false`: each fake walk lands on a fresh phantom (`n̂ → ∞`).
    pub duplicate: bool,
    /// How many fake samples to inject per Byzantine node.
    pub count: usize,
}

impl Adversary<BirthdayCounting> for CollisionFakerAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, BirthdayCounting>,
        ctx: &mut ByzantineContext<'_, BirthdayMsg>,
    ) {
        if view.round() != 2 {
            return;
        }
        for b in view.byzantine_nodes() {
            let fakes: Vec<(Pid, Pid)> = (0..self.count)
                .map(|_| {
                    let walk = Pid(ctx.rng().gen());
                    let landing = if self.duplicate {
                        Pid(0xDEAD_BEEF)
                    } else {
                        Pid(ctx.rng().gen())
                    };
                    (walk, landing)
                })
                .collect();
            ctx.broadcast(b, BirthdayMsg::Samples(fakes));
        }
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

    fn run(
        n: usize,
        byz: &[NodeId],
        attack: Option<CollisionFakerAdversary>,
        seed: u64,
    ) -> SimReport<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, 8, &mut rng).unwrap();
        let tau = 3 * (n as f64).ln().ceil() as u32;
        let budget = u64::from(tau) + 30;
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        match attack {
            None => Execution::new(
                &g,
                byz,
                |_, init| BirthdayCounting::new(tau, budget, init),
                NullAdversary,
                cfg,
            )
            .run(),
            Some(a) => Execution::new(
                &g,
                byz,
                |_, init| BirthdayCounting::new(tau, budget, init),
                a,
                cfg,
            )
            .run(),
        }
    }

    #[test]
    fn benign_estimate_is_in_the_right_ballpark() {
        let n = 256;
        // Average a few seeds: collision counts are noisy at s = n.
        let mut finite = Vec::new();
        for seed in 0..4 {
            let report = run(n, &[], None, seed);
            let est = report.outputs[0].expect("decided");
            // All nodes share the gossiped pool, hence the estimate.
            assert_eq!(report.outputs[n / 2], Some(est));
            if est.is_finite() {
                finite.push(est);
            }
        }
        assert!(finite.len() >= 3, "too many collision-free runs");
        let avg = finite.iter().sum::<f64>() / finite.len() as f64;
        assert!(
            avg > n as f64 / 3.0 && avg < 3.0 * n as f64,
            "birthday estimate {avg} vs n = {n}"
        );
    }

    #[test]
    fn duplicate_attack_collapses_the_estimate() {
        let n = 128;
        let report = run(
            n,
            &[NodeId(9)],
            Some(CollisionFakerAdversary {
                duplicate: true,
                count: 64,
            }),
            7,
        );
        for u in report.honest_nodes() {
            let est = report.outputs[u].expect("decided");
            assert!(
                est < n as f64 / 4.0,
                "fake collisions must crush the estimate, got {est}"
            );
        }
    }

    #[test]
    fn phantom_attack_inflates_the_estimate() {
        let n = 128;
        let attacked = run(
            n,
            &[NodeId(9)],
            Some(CollisionFakerAdversary {
                duplicate: false,
                count: 512,
            }),
            7,
        );
        let benign = run(n, &[], None, 7);
        let est_a = attacked.outputs[1].expect("decided");
        let est_b = benign.outputs[1].expect("decided");
        assert!(
            est_a > 2.0 * est_b || est_a.is_infinite(),
            "phantom identities must inflate: {est_b} -> {est_a}"
        );
    }
}
