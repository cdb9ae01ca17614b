//! The per-node state machine of Algorithm 1.

use std::sync::Arc;

use bcount_graph::TopologyView;
use bcount_sim::{MessageSize, NodeContext, NodeInit, Pid, Protocol};
use serde::{Deserialize, Serialize};

use super::checks::{run_expansion_checks, CheckOutcome, LocalConfig};

/// The message of Algorithm 1: the sender's entire current view
/// `B̂(u, i)`. This is a LOCAL-model protocol — messages grow to
/// polynomial size by design, which the metrics make visible (contrast
/// with [`crate::congest::CongestCounting`]).
///
/// The view is a shared, immutable snapshot behind an [`Arc`]: a
/// broadcasting node copies its view once per round, and every neighbour
/// receives the same snapshot (a clone is a reference-count bump).
/// Receivers only read it. [`MessageSize::size_bits`] still charges the
/// whole view to every copy sent — it models the wire size, not the
/// in-memory sharing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalMsg(pub Arc<TopologyView<Pid>>);

impl MessageSize for LocalMsg {
    fn size_bits(&self, id_bits: u32) -> u64 {
        // One ID per announced node plus one per announced edge entry,
        // plus one per frontier mention.
        let announced_entries: usize = self
            .0
            .announced()
            .map(|p| 1 + self.0.announced_edges(p).map_or(0, |e| e.len()))
            .sum();
        let frontier = self.0.mentioned_count() - self.0.announced_count();
        (announced_entries + frontier) as u64 * u64::from(id_bits)
    }
}

/// What triggered a node's decision (the paper's three triggers plus the
/// simulation horizon).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LocalTrigger {
    /// A neighbour failed to broadcast (Line 5) — either it decided and
    /// went quiet (honest cascade, Lemma 4) or it is Byzantine.
    MuteNeighbor,
    /// Structural inconsistency: conflicting or asymmetric announcements,
    /// or a claimed degree above `Δ` (Lines 16–18).
    Inconsistency,
    /// A candidate subset of the view failed the `α′` expansion check
    /// (Lines 9–13); carries the witnessing expansion.
    ExpansionFailure {
        /// Vertex expansion of the witnessing subset.
        witness: f64,
    },
    /// The simulation safety horizon [`LocalConfig::max_radius`] fired
    /// (eclipsed nodes can be strung along forever; Remark 1).
    Horizon,
}

/// The irrevocable decision of a node running Algorithm 1: the radius `i`
/// at which it decided, which is its estimate of `log n` (Theorem 1: a
/// `(γ/2·logΔ)`-factor approximation for all but `o(n)` good nodes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalEstimate {
    /// The decided radius (round number at decision).
    pub radius: u32,
    /// What triggered the decision.
    pub trigger: LocalTrigger,
}

/// One honest node executing Algorithm 1 (see [module docs](super)).
#[derive(Debug, Clone)]
pub struct LocalCounting {
    cfg: LocalConfig,
    me: Pid,
    /// Distinct neighbour identities (multi-edges collapsed: the view
    /// tracks adjacency, not multiplicity).
    neighbors: Vec<Pid>,
    view: TopologyView<Pid>,
    decided: Option<LocalEstimate>,
}

impl LocalCounting {
    /// Creates the protocol state for one node.
    pub fn new(cfg: LocalConfig, init: &NodeInit) -> Self {
        let mut neighbors = init.neighbors.clone();
        neighbors.dedup(); // init.neighbors is sorted
        LocalCounting {
            cfg,
            me: init.pid,
            neighbors,
            view: TopologyView::new(),
            decided: None,
        }
    }

    /// The node's current view `B̂(u, i)` (exposed for adversaries and
    /// tests via the full-information view).
    pub fn view(&self) -> &TopologyView<Pid> {
        &self.view
    }

    fn decide(&mut self, radius: u32, trigger: LocalTrigger) {
        if self.decided.is_none() {
            self.decided = Some(LocalEstimate { radius, trigger });
        }
    }
}

impl Protocol for LocalCounting {
    type Message = LocalMsg;
    type Output = LocalEstimate;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, LocalMsg>) {
        let r = u32::try_from(ctx.round()).expect("round fits u32");
        if self.decided.is_some() {
            return;
        }
        if r == 1 {
            // Line 1: B̂(u, 1) is the inclusive neighbourhood.
            self.view
                .announce(self.me, self.neighbors.iter().copied())
                .expect("own announcement is consistent");
            ctx.broadcast(LocalMsg(Arc::new(self.view.clone())));
            return;
        }
        // Simulation horizon (Remark 1: eclipsed nodes never self-terminate).
        if r > self.cfg.max_radius {
            self.decide(r, LocalTrigger::Horizon);
            return;
        }
        // Line 5: mute-neighbour detection.
        for &w in &self.neighbors {
            if !ctx.heard_from(w) {
                self.decide(r, LocalTrigger::MuteNeighbor);
                return;
            }
        }
        // Lines 4–8: incorporate received views; any write-time conflict or
        // degree anomaly is the `inconsistent` predicate firing.
        for env in ctx.inbox() {
            if env.msg.0.max_claimed_degree() > self.cfg.max_degree
                || env
                    .msg
                    .0
                    .nodes()
                    .any(|p| env.msg.0.announced_edges(p).is_some_and(|e| e.contains(&p)))
            {
                self.decide(r, LocalTrigger::Inconsistency);
                return;
            }
            if self.view.merge(&env.msg.0).is_err() {
                self.decide(r, LocalTrigger::Inconsistency);
                return;
            }
        }
        if self.view.max_claimed_degree() > self.cfg.max_degree {
            self.decide(r, LocalTrigger::Inconsistency);
            return;
        }
        // Lines 9–13: the expansion-check family.
        if let CheckOutcome::Fail { expansion, .. } =
            run_expansion_checks(&self.view, self.me, &self.cfg)
        {
            self.decide(r, LocalTrigger::ExpansionFailure { witness: expansion });
            return;
        }
        // Line 3: broadcast the grown view.
        ctx.broadcast(LocalMsg(Arc::new(self.view.clone())));
    }

    fn output(&self) -> Option<LocalEstimate> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.decided.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcount_graph::analysis::bfs::diameter;
    use bcount_graph::gen::hnd;
    use bcount_sim::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_benign(n: usize, d: usize, seed: u64) -> (SimReport<LocalEstimate>, u32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, d, &mut rng).unwrap();
        let diam = diameter(&g).expect("connected");
        let cfg = LocalConfig {
            max_degree: d + 1,
            ..LocalConfig::default()
        };
        let mut sim = Simulation::new(
            &g,
            &[],
            |_, init| LocalCounting::new(cfg, init),
            NullAdversary,
            SimConfig {
                seed,
                max_rounds: 500,
                ..SimConfig::default()
            },
        );
        (sim.run(), diam)
    }

    #[test]
    fn benign_run_decides_at_diameter_plus_one() {
        let (report, diam) = run_benign(64, 8, 3);
        assert_eq!(report.stop_reason, StopReason::AllHalted);
        for out in report.outputs.iter() {
            let est = out.expect("all decide");
            // Lemma 5: decisions land by diam + 1. The stall can trigger a
            // round or two early when the outermost BFS layers fall under
            // α′ of the ball; either way the estimate is Θ(diam) = Θ(log n).
            assert!(
                est.radius >= diam.saturating_sub(2).max(1) && est.radius <= diam + 2,
                "estimate {} vs diameter {}",
                est.radius,
                diam
            );
            assert!(matches!(
                est.trigger,
                LocalTrigger::ExpansionFailure { .. } | LocalTrigger::MuteNeighbor
            ));
        }
    }

    #[test]
    fn benign_estimates_grow_with_n() {
        let (small, _) = run_benign(32, 8, 9);
        let (large, _) = run_benign(256, 8, 9);
        let avg = |r: &SimReport<LocalEstimate>| {
            let vals: Vec<f64> = r
                .outputs
                .iter()
                .map(|o| f64::from(o.expect("decided").radius))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            avg(&large) > avg(&small),
            "radius estimates must grow with n: {} vs {}",
            avg(&large),
            avg(&small)
        );
    }

    #[test]
    fn degree_violation_triggers_inconsistency() {
        // Run on an 8-regular graph but tell nodes the bound is 4.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = hnd(32, 8, &mut rng).unwrap();
        let cfg = LocalConfig {
            max_degree: 4,
            ..LocalConfig::default()
        };
        let mut sim = Simulation::new(
            &g,
            &[],
            |_, init| LocalCounting::new(cfg, init),
            NullAdversary,
            SimConfig::default(),
        );
        let report = sim.run();
        // Everyone sees over-degree announcements in round 2 and decides.
        for out in report.outputs.iter() {
            let est = out.expect("decided");
            assert_eq!(est.radius, 2);
            assert_eq!(est.trigger, LocalTrigger::Inconsistency);
        }
    }

    #[test]
    fn decisions_are_irrevocable_and_halting() {
        let (report, _) = run_benign(32, 8, 11);
        for u in report.honest_nodes() {
            assert!(report.halted[u]);
            assert!(report.decided_round[u].is_some());
        }
    }

    #[test]
    fn message_size_accounts_for_view_contents() {
        let mut v: TopologyView<Pid> = TopologyView::new();
        v.announce(Pid(1), [Pid(2), Pid(3)]).unwrap();
        let msg = LocalMsg(Arc::new(v));
        // 1 announced node + 2 edge entries + 2 frontier mentions = 5 IDs.
        assert_eq!(msg.size_bits(64), 5 * 64);
    }
}
