//! Diameter estimation by leader flooding (Section 1.2's last strawman).
//!
//! In a sparse expander, `diam(G) = Θ(log n)`, so a designated leader can
//! flood a token and every node reads off its own distance from the
//! arrival round; flooding the largest observed distance back gives a
//! diameter lower bound, hence a `Θ(log n)` size estimate.
//!
//! The paper's objection is not the flood itself but the premise: "it is
//! not clear how to break symmetry initially by choosing a leader — this
//! by itself appears to be a hard problem in the Byzantine setting without
//! knowledge of n". The simulation designates the leader by oracle and
//! the experiments treat this baseline as benign-only.

use bcount_sim::{MessageSize, NodeContext, NodeInit, Protocol};

/// Flooding messages: the wave token and the running eccentricity max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodMsg {
    /// The leader's wave; receipt round = distance to the leader.
    Token,
    /// Running maximum of observed distances, flooded back.
    MaxDist(u32),
}

impl MessageSize for FloodMsg {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        match self {
            FloodMsg::Token => 1,
            FloodMsg::MaxDist(_) => 1 + 32,
        }
    }
}

/// One node of the flood-diameter protocol: record the token's arrival
/// round as the distance to the leader, then flood the max distance for
/// the remaining budget; output that max (a diameter lower bound, and an
/// eccentricity-exact value at the leader).
#[derive(Debug, Clone)]
pub struct FloodDiameter {
    is_leader: bool,
    budget: u64,
    my_dist: Option<u32>,
    best: u32,
    done: bool,
}

impl FloodDiameter {
    /// Creates a node; `is_leader` marks the oracle-designated leader and
    /// `budget` bounds the total rounds.
    pub fn new(is_leader: bool, budget: u64, _init: &NodeInit) -> Self {
        FloodDiameter {
            is_leader,
            budget,
            my_dist: None,
            best: 0,
            done: false,
        }
    }

    /// This node's distance to the leader, once known.
    pub fn distance(&self) -> Option<u32> {
        self.my_dist
    }
}

impl Protocol for FloodDiameter {
    type Message = FloodMsg;
    type Output = u32;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, FloodMsg>) {
        if self.done {
            return;
        }
        if ctx.round() == 1 && self.is_leader {
            self.my_dist = Some(0);
            ctx.broadcast(FloodMsg::Token);
        }
        let mut got_token = false;
        let mut max_seen = self.best;
        for env in ctx.inbox() {
            match env.msg {
                FloodMsg::Token => got_token = true,
                FloodMsg::MaxDist(d) => max_seen = max_seen.max(*d),
            }
        }
        if got_token && self.my_dist.is_none() {
            // Token sent in round r arrives in round r+1; the leader sent
            // in round 1, so distance = arrival round − 1.
            let d = u32::try_from(ctx.round() - 1).expect("fits");
            self.my_dist = Some(d);
            ctx.broadcast(FloodMsg::Token);
            max_seen = max_seen.max(d);
        }
        if max_seen > self.best || (self.my_dist.is_some() && ctx.round() == 1) {
            self.best = max_seen;
            ctx.broadcast(FloodMsg::MaxDist(self.best));
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

#[cfg(test)]
mod tests {
    use super::*;
    use bcount_graph::analysis::bfs::eccentricity;
    use bcount_graph::gen::{cycle, hnd};
    use bcount_graph::NodeId;
    use bcount_sim::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run(g: &bcount_graph::Graph, leader: NodeId, budget: u64, seed: u64) -> SimReport<u32> {
        let mut sim = Execution::new(
            g,
            &[],
            |u, init| FloodDiameter::new(u == leader, budget, init),
            NullAdversary,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        );
        sim.run()
    }

    #[test]
    fn recovers_leader_eccentricity_on_cycle() {
        let g = cycle(12).unwrap();
        let report = run(&g, NodeId(0), 40, 1);
        let ecc = eccentricity(&g, NodeId(0)).unwrap();
        for o in &report.outputs {
            assert_eq!(*o, Some(ecc));
        }
    }

    #[test]
    fn estimate_grows_logarithmically_on_expanders() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let small = hnd(64, 8, &mut rng).unwrap();
        let large = hnd(1024, 8, &mut rng).unwrap();
        let es = run(&small, NodeId(0), 60, 3).outputs[1].unwrap();
        let el = run(&large, NodeId(0), 60, 3).outputs[1].unwrap();
        assert!(el > es, "diameter estimate must grow: {es} -> {el}");
        assert!(el <= 4 * es, "growth must be logarithmic-ish: {es} -> {el}");
    }
}
