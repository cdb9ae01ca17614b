//! Exact counting over a BFS spanning tree (the classical non-Byzantine
//! solution mentioned in Section 1.2: "simply building a spanning tree and
//! converge-casting the nodes' counts to the root").
//!
//! The protocol needs a distinguished root — which is exactly the global
//! knowledge the paper shows is unobtainable in the Byzantine setting
//! ("how to break symmetry initially by choosing a leader — this by itself
//! appears to be a hard problem"). The simulation designates the root by
//! oracle.
//!
//! Phases (all message-driven, no global knowledge of depth):
//! 1. **Join wave** — the root floods `Join`; each node adopts the first
//!    (lowest-ID) sender as parent and tells every other neighbour
//!    `NotChild`.
//! 2. **Convergecast** — once every non-parent neighbour has resolved
//!    (sent `Count` or `NotChild`), a node sends
//!    `Count(1 + Σ children)` to its parent.
//! 3. **Broadcast** — the root floods the total back down; everyone
//!    outputs it.
//!
//! **Why it is not Byzantine-resilient:** any Byzantine node reports an
//! arbitrary subtree count ([`CountLiarAdversary`]), shifting the total by
//! any amount — no honest node can audit a subtree it cannot see.

use bcount_sim::{
    Adversary, ByzantineContext, FullInfoView, MessageSize, NodeContext, NodeInit, Pid, Protocol,
};
use std::collections::{HashMap, HashSet};

/// Spanning-tree counting messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMsg {
    /// Join wave: "I am in the tree; you may adopt me as parent."
    Join,
    /// "You are not my parent" (resolves the sender for the convergecast).
    NotChild,
    /// Subtree count reported to the parent.
    Count(u64),
    /// Final total flooded down from the root.
    Total(u64),
}

impl MessageSize for TreeMsg {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        match self {
            TreeMsg::Join | TreeMsg::NotChild => 2,
            TreeMsg::Count(_) | TreeMsg::Total(_) => 2 + 64,
        }
    }
}

/// One node of the spanning-tree counting protocol.
#[derive(Debug, Clone)]
pub struct Convergecast {
    is_root: bool,
    joined: bool,
    parent: Option<Pid>,
    /// Neighbours that have not yet resolved (sent `Count` or `NotChild`).
    pending: HashSet<Pid>,
    child_counts: HashMap<Pid, u64>,
    reported: bool,
    total: Option<u64>,
    announced_total: bool,
}

impl Convergecast {
    /// Creates a node; `is_root` designates the oracle-chosen leader.
    pub fn new(is_root: bool, init: &NodeInit) -> Self {
        let mut distinct = init.neighbors.clone();
        distinct.dedup();
        Convergecast {
            is_root,
            joined: false,
            parent: None,
            pending: distinct.into_iter().collect(),
            child_counts: HashMap::new(),
            reported: false,
            total: None,
            announced_total: false,
        }
    }

    fn subtree_count(&self) -> u64 {
        1 + self.child_counts.values().sum::<u64>()
    }
}

impl Protocol for Convergecast {
    type Message = TreeMsg;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, TreeMsg>) {
        // --- Root bootstrap. ------------------------------------------------
        if ctx.round() == 1 && self.is_root {
            self.joined = true;
            ctx.broadcast(TreeMsg::Join);
            return;
        }
        // --- Message intake. -------------------------------------------------
        let mut joins: Vec<Pid> = Vec::new();
        for env in ctx.inbox().to_vec() {
            match env.msg {
                TreeMsg::Join => joins.push(env.sender),
                TreeMsg::NotChild => {
                    self.pending.remove(&env.sender);
                }
                TreeMsg::Count(c) => {
                    self.pending.remove(&env.sender);
                    self.child_counts.insert(env.sender, c);
                }
                TreeMsg::Total(t) => {
                    if self.total.is_none() {
                        self.total = Some(t);
                    }
                }
            }
        }
        if !joins.is_empty() {
            if !self.joined {
                // Adopt the lowest-ID joiner as parent; everyone else who
                // offered is not our parent (and we are not their child).
                self.joined = true;
                let parent = *joins.iter().min().expect("nonempty");
                self.parent = Some(parent);
                self.pending.remove(&parent);
                ctx.broadcast(TreeMsg::Join);
                for other in joins.iter().filter(|&&p| p != parent) {
                    ctx.send(*other, TreeMsg::NotChild);
                }
            } else {
                // Already in the tree: decline all offers.
                for p in &joins {
                    ctx.send(*p, TreeMsg::NotChild);
                }
            }
        }
        // --- Convergecast once all non-parent neighbours resolved. ----------
        if self.joined && !self.reported && self.pending.is_empty() {
            self.reported = true;
            if self.is_root {
                self.total = Some(self.subtree_count());
            } else if let Some(parent) = self.parent {
                ctx.send(parent, TreeMsg::Count(self.subtree_count()));
            }
        }
        // --- Downward broadcast of the total. --------------------------------
        if let Some(t) = self.total {
            if !self.announced_total {
                self.announced_total = true;
                ctx.broadcast(TreeMsg::Total(t));
            }
        }
    }

    fn output(&self) -> Option<u64> {
        self.total
    }

    fn has_halted(&self) -> bool {
        self.announced_total
    }
}

/// The one-node attack: play the protocol faithfully except report an
/// inflated subtree count.
#[derive(Debug, Clone, Copy)]
pub struct CountLiarAdversary {
    /// How much to add to the true subtree count (which is 0 children for
    /// the strategy below — the lie is the whole payload).
    pub inflation: u64,
}

impl Adversary<Convergecast> for CountLiarAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, Convergecast>,
        ctx: &mut ByzantineContext<'_, TreeMsg>,
    ) {
        for b in view.byzantine_nodes() {
            // Respond to the first Join offer with an inflated count and
            // decline everyone else, then relay totals as a good citizen.
            let joins: Vec<Pid> = view
                .inbox(b)
                .iter()
                .filter(|e| matches!(e.msg, TreeMsg::Join))
                .map(|e| e.sender)
                .collect();
            if let Some(&parent_pid) = joins.iter().min() {
                let parent = view.node_of(parent_pid).expect("sender exists");
                ctx.send(b, parent, TreeMsg::Count(1 + self.inflation));
                for other in joins.iter().filter(|&&p| p != parent_pid) {
                    if let Some(node) = view.node_of(*other) {
                        ctx.send(b, node, TreeMsg::NotChild);
                    }
                }
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
    use bcount_graph::gen::{hnd, path};
    use bcount_graph::NodeId;
    use bcount_sim::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn counts_exactly_on_a_path() {
        let g = path(7).unwrap();
        let mut sim = Simulation::new(
            &g,
            &[],
            |u, init| Convergecast::new(u == NodeId(3), init),
            NullAdversary,
            SimConfig::default(),
        );
        let report = sim.run();
        for o in &report.outputs {
            assert_eq!(*o, Some(7));
        }
    }

    #[test]
    fn counts_exactly_on_expanders() {
        for seed in 0..3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = 150;
            let g = hnd(n, 6, &mut rng).unwrap();
            let mut sim = Simulation::new(
                &g,
                &[],
                |u, init| Convergecast::new(u == NodeId(0), init),
                NullAdversary,
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            let report = sim.run();
            assert_eq!(report.stop_reason, StopReason::AllHalted);
            for o in &report.outputs {
                assert_eq!(*o, Some(n as u64), "seed {seed}");
            }
        }
    }

    #[test]
    fn one_liar_shifts_the_count_arbitrarily() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 100;
        let g = hnd(n, 6, &mut rng).unwrap();
        let byz = [NodeId(42)];
        let mut sim = Simulation::new(
            &g,
            &byz,
            |u, init| Convergecast::new(u == NodeId(0), init),
            CountLiarAdversary {
                inflation: 1_000_000,
            },
            SimConfig::default(),
        );
        let report = sim.run();
        let total = report.outputs[0].expect("root decided");
        assert!(
            total >= 1_000_000,
            "the lie must dominate the count, got {total}"
        );
    }
}
