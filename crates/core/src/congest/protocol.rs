//! The per-node state machine of Algorithm 2.

use std::collections::HashSet;
use std::iter;
use std::sync::Arc;

use bcount_sim::{Inbox, NodeContext, NodeInit, Pid, Protocol};
use rand::Rng;
use serde::{Deserialize, Serialize};

use super::beacon::CongestMsg;
use super::params::CongestParams;
use super::schedule::{PhaseClock, RoundPosition};

/// Why a node decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestTrigger {
    /// An iteration passed with no acceptable beacon — the paper's
    /// decision rule (Line 29).
    NoBeacon,
    /// The simulation safety horizon [`CongestParams::max_phase`] was
    /// reached (only possible under adversaries that keep faking
    /// liveness; cf. Remark 1).
    Horizon,
}

/// The irrevocable decision of a node running Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CongestEstimate {
    /// The decided phase number — the node's estimate of `log n`.
    pub estimate: u32,
    /// The iteration (within the decided phase) at which the decision
    /// fired.
    pub iteration: u64,
    /// What triggered the decision.
    pub trigger: CongestTrigger,
}

/// One honest node executing Algorithm 2 (see [module docs](super)).
///
/// Construct one per node via [`CongestCounting::new`] inside the
/// simulation factory; the type implements [`bcount_sim::Protocol`].
#[derive(Debug, Clone)]
pub struct CongestCounting {
    params: CongestParams,
    me: Pid,
    degree: usize,
    clock: PhaseClock,
    decided: Option<CongestEstimate>,
    exited: bool,
    /// Phase whose state (blacklist) is currently loaded.
    cur_phase: u32,
    /// Per-phase blacklist `BL` (Line 2).
    blacklist: HashSet<Pid>,
    /// Per-iteration `shortestPath` (Line 4): the accepted beacon's path,
    /// origin first, sender last. Shared with the beacon it came from.
    shortest_path: Option<Arc<[Pid]>>,
    /// Whether a `⟨continue⟩` arrived during the current continue window.
    heard_continue: bool,
    /// Flood dedup: forwarded a continue already in this window.
    forwarded_continue: bool,
}

impl CongestCounting {
    /// Creates the protocol state for one node.
    ///
    /// # Panics
    ///
    /// Panics if `params` violates the analysis constraints
    /// ([`CongestParams::validate`]).
    pub fn new(params: CongestParams, init: &NodeInit) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid CongestParams: {e}"));
        CongestCounting {
            params,
            me: init.pid,
            degree: init.neighbors.len(),
            clock: PhaseClock::new(params),
            decided: None,
            exited: false,
            cur_phase: params.first_phase(),
            blacklist: HashSet::new(),
            shortest_path: None,
            heard_continue: false,
            forwarded_continue: false,
        }
    }

    /// The node's current phase counter (its running guess of `log n`).
    pub fn current_phase(&self) -> u32 {
        self.cur_phase
    }

    /// The current per-phase blacklist (for adversaries and tests
    /// inspecting protocol state through the full-information view).
    pub fn blacklist(&self) -> &HashSet<Pid> {
        &self.blacklist
    }

    /// The accepted beacon path of the current iteration, if any.
    pub fn shortest_path(&self) -> Option<&[Pid]> {
        self.shortest_path.as_deref()
    }

    fn decide(&mut self, pos: RoundPosition, trigger: CongestTrigger) {
        if self.decided.is_none() {
            self.decided = Some(CongestEstimate {
                estimate: pos.phase,
                iteration: pos.iteration,
                trigger,
            });
        }
    }

    /// Validates a received beacon: non-empty path whose last entry is the
    /// authenticated sender, and a length that fits in the window (honest
    /// paths never exceed `i + 2` entries; longer ones are adversarial
    /// padding and are dropped as a memory guard).
    fn beacon_is_valid(path: &[Pid], sender: Pid, phase: u32) -> bool {
        !path.is_empty()
            && *path.last().expect("nonempty") == sender
            && path.len() <= phase as usize + 2
    }

    /// The paths of the valid beacons in `inbox`, in inbox order.
    fn valid_beacons(
        inbox: Inbox<'_, CongestMsg>,
        phase: u32,
    ) -> impl Iterator<Item = &Arc<[Pid]>> {
        inbox.iter().filter_map(move |env| match env.msg {
            CongestMsg::Beacon { path } if Self::beacon_is_valid(path, env.sender, phase) => {
                Some(path)
            }
            _ => None,
        })
    }

    /// The blacklist test of Lines 20–21: the path prefix (everything
    /// except the trusted `⌊(1−ϵ)i⌋`-suffix) must not intersect `BL`.
    fn passes_blacklist(&self, path: &[Pid], phase: u32) -> bool {
        if !self.params.blacklisting {
            return true;
        }
        let suffix = self.params.trusted_suffix_len(self.degree.max(2), phase);
        let prefix_len = path.len().saturating_sub(suffix);
        path[..prefix_len]
            .iter()
            .all(|p| !self.blacklist.contains(p))
    }

    /// End-of-beacon-window bookkeeping (Lines 27–32): decide if no
    /// acceptable beacon was seen, then blacklist the accepted path's
    /// untrusted prefix.
    fn finish_beacon_window(&mut self, pos: RoundPosition) {
        if self.shortest_path.is_none() {
            self.decide(pos, CongestTrigger::NoBeacon);
        }
        if self.params.blacklisting {
            if let Some(path) = &self.shortest_path {
                let suffix = self
                    .params
                    .trusted_suffix_len(self.degree.max(2), pos.phase);
                let prefix_len = path.len().saturating_sub(suffix);
                self.blacklist.extend(path[..prefix_len].iter().copied());
            }
        }
    }
}

impl Protocol for CongestCounting {
    type Message = CongestMsg;
    type Output = CongestEstimate;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, CongestMsg>) {
        let pos = self.clock.locate(ctx.round());
        // --- Phase transition: reset the per-phase blacklist (Line 2). ---
        if pos.phase != self.cur_phase {
            self.cur_phase = pos.phase;
            self.blacklist.clear();
        }
        // --- Safety horizon (simulation-only; see CongestParams). --------
        if pos.phase >= self.params.max_phase {
            self.decide(pos, CongestTrigger::Horizon);
            self.exited = true;
            return;
        }
        let i = pos.phase;

        if pos.is_iteration_start() {
            // Fresh iteration (Lines 4–11): reset shortestPath, roll the
            // activation coin, and originate a beacon if active.
            self.shortest_path = None;
            // Isolated nodes never activate: a beacon with no recipients
            // cannot signal liveness, so they decide at the first
            // iteration end (degenerate, outside the paper's d-regular
            // model, but must terminate).
            let p = if self.degree == 0 {
                0.0
            } else {
                self.params.activation_probability(self.degree.max(2), i)
            };
            if p > 0.0 && ctx.rng().gen_bool(p) {
                let path: Arc<[Pid]> = Arc::from([self.me]);
                self.shortest_path = Some(Arc::clone(&path));
                ctx.broadcast(CongestMsg::Beacon { path });
            }
            return;
        }

        if pos.in_beacon_window() {
            // Beacon receipt (Lines 13–26): keep one arbitrarily chosen
            // valid beacon, forward it (window permitting), and run the
            // acceptance test. The pick is taken by reference: count the
            // valid beacons, draw once, and walk to the drawn one.
            let inbox = ctx.inbox();
            let valid = Self::valid_beacons(inbox, i).count();
            if valid == 0 {
                return;
            }
            let pick = ctx.rng().gen_range(0..valid);
            let path = Self::valid_beacons(inbox, i)
                .nth(pick)
                .expect("pick is below the valid count");
            if pos.can_forward_beacon() {
                let fwd: Arc<[Pid]> = path.iter().copied().chain(iter::once(self.me)).collect();
                ctx.broadcast(CongestMsg::Beacon { path: fwd });
            }
            if self.shortest_path.is_none() && self.passes_blacklist(path, i) {
                self.shortest_path = Some(Arc::clone(path));
            }
            return;
        }

        if pos.is_continue_start() {
            // End of the beacon window (Lines 27–32), then continue
            // origination (Lines 34–35).
            self.finish_beacon_window(pos);
            self.heard_continue = false;
            self.forwarded_continue = false;
            if self.decided.is_none() {
                ctx.broadcast(CongestMsg::Continue);
            }
            return;
        }

        // --- Continue window (Lines 35–40). -------------------------------
        let got_continue = ctx
            .inbox()
            .iter()
            .any(|env| matches!(env.msg, CongestMsg::Continue));
        if got_continue {
            self.heard_continue = true;
            if !self.forwarded_continue && pos.can_forward_continue() {
                self.forwarded_continue = true;
                ctx.broadcast(CongestMsg::Continue);
            }
        }
        if pos.is_iteration_end(&self.params) && self.decided.is_some() && !self.heard_continue {
            // Line 38–39: decided and no liveness signal — exit for good.
            self.exited = true;
        }
    }

    fn output(&self) -> Option<CongestEstimate> {
        self.decided
    }

    fn has_halted(&self) -> bool {
        self.exited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{Band, EstimateReport};
    use bcount_graph::gen::hnd;
    use bcount_graph::NodeId;
    use bcount_sim::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_benign(n: usize, d: usize, seed: u64) -> SimReport<CongestEstimate> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, d, &mut rng).unwrap();
        let params = CongestParams::default();
        let mut sim = Simulation::new(
            &g,
            &[],
            |_, init| CongestCounting::new(params, init),
            NullAdversary,
            SimConfig {
                seed,
                max_rounds: 50_000,
                ..SimConfig::default()
            },
        );
        sim.run()
    }

    #[test]
    fn benign_run_decides_and_terminates() {
        let n = 128;
        let report = run_benign(n, 8, 7);
        // Corollary 1: all nodes decide and the execution terminates.
        assert_eq!(report.stop_reason, StopReason::AllHalted);
        assert_eq!(report.honest_decided_count(), n);
        // All decisions came from the no-beacon rule, not the horizon.
        for out in report.outputs.iter().flatten() {
            assert_eq!(out.trigger, CongestTrigger::NoBeacon);
        }
    }

    #[test]
    fn benign_estimates_scale_with_log_n() {
        let d = 8;
        let small = run_benign(64, d, 11);
        let large = run_benign(512, d, 11);
        let band = Band::new(0.05, 3.0);
        let es = EstimateReport::evaluate(
            64,
            small
                .honest_nodes()
                .map(|u| small.outputs[u].map(|e| f64::from(e.estimate))),
            band,
        );
        let el = EstimateReport::evaluate(
            512,
            large
                .honest_nodes()
                .map(|u| large.outputs[u].map(|e| f64::from(e.estimate))),
            band,
        );
        assert!(
            el.median_ratio * (512f64).ln() > es.median_ratio * (64f64).ln(),
            "larger networks must produce larger estimates: {} vs {}",
            el.median_ratio * (512f64).ln(),
            es.median_ratio * (64f64).ln()
        );
    }

    #[test]
    fn beacon_validation_rules() {
        assert!(CongestCounting::beacon_is_valid(
            &[Pid(1), Pid(2)],
            Pid(2),
            5
        ));
        // Sender mismatch.
        assert!(!CongestCounting::beacon_is_valid(
            &[Pid(1), Pid(2)],
            Pid(3),
            5
        ));
        // Empty path.
        assert!(!CongestCounting::beacon_is_valid(&[], Pid(3), 5));
        // Oversized path.
        let long: Vec<Pid> = (0..10).map(Pid).collect();
        assert!(!CongestCounting::beacon_is_valid(&long, Pid(9), 5));
    }

    #[test]
    fn blacklist_blocks_prefix_but_trusts_suffix() {
        let params = CongestParams::default();
        let init = NodeInit {
            pid: Pid(100),
            neighbors: vec![Pid(1); 8],
        };
        let mut node = CongestCounting::new(params, &init);
        node.blacklist.insert(Pid(42));
        // Suffix length at phase 8, d=8: floor((1-eps)*8) with
        // (1-eps) = 0.9*0.55/ln 8 ≈ 0.238 → 1.
        let i = 8;
        assert_eq!(params.trusted_suffix_len(8, i), 1);
        // Blacklisted node in the prefix: rejected.
        assert!(!node.passes_blacklist(&[Pid(42), Pid(7)], i));
        // Blacklisted node only in the trusted suffix: accepted.
        assert!(node.passes_blacklist(&[Pid(7), Pid(42)], i));
        // Blacklisting disabled: everything passes (E11 ablation).
        let mut p2 = params;
        p2.blacklisting = false;
        let mut node2 = CongestCounting::new(p2, &init);
        node2.blacklist.insert(Pid(42));
        assert!(node2.passes_blacklist(&[Pid(42), Pid(7)], i));
    }

    #[test]
    fn finish_beacon_window_blacklists_accepted_prefix() {
        let params = CongestParams::default();
        let init = NodeInit {
            pid: Pid(100),
            neighbors: vec![Pid(1); 8],
        };
        let mut node = CongestCounting::new(params, &init);
        node.cur_phase = 8;
        node.shortest_path = Some(Arc::from([Pid(1), Pid(2), Pid(3)]));
        let pos = RoundPosition {
            phase: 8,
            iteration: 0,
            offset: 10,
        };
        node.finish_beacon_window(pos);
        // Suffix 1 → blacklist {1, 2}, trust {3}.
        assert!(node.blacklist.contains(&Pid(1)));
        assert!(node.blacklist.contains(&Pid(2)));
        assert!(!node.blacklist.contains(&Pid(3)));
        // Had a beacon, so no decision.
        assert!(node.decided.is_none());
    }

    #[test]
    fn empty_iteration_triggers_decision() {
        let params = CongestParams::default();
        let init = NodeInit {
            pid: Pid(100),
            neighbors: vec![Pid(1); 8],
        };
        let mut node = CongestCounting::new(params, &init);
        let pos = RoundPosition {
            phase: 5,
            iteration: 3,
            offset: 7,
        };
        node.finish_beacon_window(pos);
        let est = node.decided.expect("must decide");
        assert_eq!(est.estimate, 5);
        assert_eq!(est.iteration, 3);
        assert_eq!(est.trigger, CongestTrigger::NoBeacon);
        // Irrevocable: a later decide must not overwrite.
        node.decide(
            RoundPosition {
                phase: 9,
                iteration: 0,
                offset: 7,
            },
            CongestTrigger::NoBeacon,
        );
        assert_eq!(node.decided.unwrap().estimate, 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_benign(64, 8, 5);
        let b = run_benign(64, 8, 5);
        assert_eq!(a.rounds, b.rounds);
        let ea: Vec<_> = a.outputs.iter().map(|o| o.map(|e| e.estimate)).collect();
        let eb: Vec<_> = b.outputs.iter().map(|o| o.map(|e| e.estimate)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn isolated_node_decides_immediately() {
        // A node with no neighbours sees no beacons and decides at its
        // first iteration end (degenerate but must not hang or panic).
        let g = bcount_graph::Graph::empty(1);
        let params = CongestParams::default();
        let mut sim = Simulation::new(
            &g,
            &[],
            |_, init| CongestCounting::new(params, init),
            NullAdversary,
            SimConfig::default(),
        );
        let report = sim.run();
        let est = report.outputs[0].expect("decided");
        assert_eq!(est.estimate, params.first_phase());
        assert_eq!(report.stop_reason, StopReason::AllHalted);
        let _ = NodeId(0); // keep import used
    }
}
