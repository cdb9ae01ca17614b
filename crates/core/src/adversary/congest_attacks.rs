//! Byzantine strategies against Algorithm 2 (the CONGEST protocol).

use std::iter;
use std::sync::Arc;

use bcount_sim::{Adversary, ByzantineContext, FullInfoView, Pid};
use rand::Rng;

use crate::congest::{CongestCounting, CongestMsg, CongestParams, PhaseClock};

/// The headline threat of Section 5: Byzantine nodes fabricate a fresh
/// beacon every beacon round — with a path prefix of never-seen phantom
/// identities so the blacklist never matches — to fake network liveness
/// and push honest phase counters (hence estimates of `log n`) upward
/// forever. They also flood `⟨continue⟩` in every continue window so
/// decided nodes never exit.
///
/// The defence (Lemma 11): the Byzantine sender cannot remove *itself*
/// from the path suffix it is authenticated on, so every honest node at
/// distance greater than the trusted suffix length blacklists it after
/// accepting one spam beacon, and a phase has more iterations than there
/// are Byzantine nodes.
#[derive(Debug)]
pub struct BeaconSpamAdversary {
    clock: PhaseClock,
    /// Also spam `⟨continue⟩` to suppress termination (on by default).
    pub spam_continues: bool,
}

impl BeaconSpamAdversary {
    /// Creates the attack; `params` must match the honest protocol's so
    /// the adversary stays aligned with the phase clock (it is omniscient,
    /// after all).
    pub fn new(params: CongestParams) -> Self {
        BeaconSpamAdversary {
            clock: PhaseClock::new(params),
            spam_continues: true,
        }
    }
}

impl Adversary<CongestCounting> for BeaconSpamAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, CongestCounting>,
        ctx: &mut ByzantineContext<'_, CongestMsg>,
    ) {
        let pos = self.clock.locate(view.round());
        if pos.in_beacon_window() && pos.can_forward_beacon() {
            for b in view.byzantine_nodes() {
                // Fabricate a plausible-length path of phantom IDs ending
                // in our own (unfakeable) identity.
                let path = fabricate(ctx, pos.offset as usize, view.pid(b));
                ctx.broadcast(b, CongestMsg::Beacon { path });
            }
        } else if self.spam_continues && pos.can_forward_continue() {
            for b in view.byzantine_nodes() {
                ctx.broadcast(b, CongestMsg::Continue);
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

/// A beacon path of `prefix_len` phantom IDs, drawn from the adversary's
/// stream in order, ending in the sender's own identity — collected
/// straight into the shared path (one allocation).
fn fabricate(ctx: &mut ByzantineContext<'_, CongestMsg>, prefix_len: usize, me: Pid) -> Arc<[Pid]> {
    (0..prefix_len)
        .map(|_| Pid(ctx.rng().gen()))
        .chain(iter::once(me))
        .collect()
}

/// A stealthier variant: instead of fabricating beacons from nothing,
/// Byzantine nodes *relay* real beacons they received but rewrite the path
/// prefix with phantom identities (hiding the true origin and polluting
/// honest blacklists with junk), falling back to fabrication when nothing
/// arrived. Ends up equally powerless against blacklisting: the Byzantine
/// relay is still pinned at the path's authenticated tail.
#[derive(Debug)]
pub struct PathTamperAdversary {
    clock: PhaseClock,
}

impl PathTamperAdversary {
    /// Creates the attack with the honest protocol's parameters.
    pub fn new(params: CongestParams) -> Self {
        PathTamperAdversary {
            clock: PhaseClock::new(params),
        }
    }
}

impl Adversary<CongestCounting> for PathTamperAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, CongestCounting>,
        ctx: &mut ByzantineContext<'_, CongestMsg>,
    ) {
        let pos = self.clock.locate(view.round());
        if pos.in_beacon_window() && pos.can_forward_beacon() {
            for b in view.byzantine_nodes() {
                // Pick up a real beacon if one arrived: only its length
                // is kept, so the relay looks plausible.
                let received = view.inbox(b).iter().find_map(|env| match env.msg {
                    CongestMsg::Beacon { path } => Some(path.len()),
                    CongestMsg::Continue => None,
                });
                let path = match received {
                    Some(len) => {
                        // Garble every entry of the real path, then give
                        // the last (the real sender's) slot to ourselves:
                        // its phantom ID is drawn and discarded.
                        let path = fabricate(ctx, len.saturating_sub(1), view.pid(b));
                        if len > 0 {
                            let _discarded = Pid(ctx.rng().gen());
                        }
                        path
                    }
                    None => fabricate(ctx, pos.offset as usize, view.pid(b)),
                };
                ctx.broadcast(b, CongestMsg::Beacon { path });
            }
        } else if pos.can_forward_continue() {
            for b in view.byzantine_nodes() {
                ctx.broadcast(b, CongestMsg::Continue);
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

/// Intermittent spam: attack only every other phase, exploiting the fact
/// that blacklists reset at phase boundaries (Line 2) — each attacked
/// phase starts with a clean slate. The defence still wins because the
/// pigeonhole of Lemma 11 is *per phase*: within any single attacked
/// phase the iteration budget exceeds the number of Byzantine nodes, so
/// fresh blacklists refill before the phase ends.
#[derive(Debug)]
pub struct OscillatingSpamAdversary {
    clock: PhaseClock,
    inner: BeaconSpamAdversary,
}

impl OscillatingSpamAdversary {
    /// Creates the attack with the honest protocol's parameters.
    pub fn new(params: CongestParams) -> Self {
        OscillatingSpamAdversary {
            clock: PhaseClock::new(params),
            inner: BeaconSpamAdversary::new(params),
        }
    }
}

impl Adversary<CongestCounting> for OscillatingSpamAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, CongestCounting>,
        ctx: &mut ByzantineContext<'_, CongestMsg>,
    ) {
        let pos = self.clock.locate(view.round());
        if pos.phase.is_multiple_of(2) {
            self.inner.on_round(view, ctx);
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
    use crate::congest::CongestCounting;
    use crate::estimate::{Band, EstimateReport};
    use bcount_graph::analysis::bfs::distances;
    use bcount_graph::gen::hnd;
    use bcount_graph::NodeId;
    use bcount_sim::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_with<A: Adversary<CongestCounting>>(
        n: usize,
        d: usize,
        byz: &[NodeId],
        adversary: A,
        params: CongestParams,
        seed: u64,
        max_rounds: u64,
    ) -> (
        SimReport<crate::congest::CongestEstimate>,
        bcount_graph::Graph,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, d, &mut rng).unwrap();
        let mut sim = Simulation::new(
            &g,
            byz,
            |_, init| CongestCounting::new(params, init),
            adversary,
            SimConfig {
                seed,
                max_rounds,
                stop_when: StopWhen::AllHonestDecided,
                ..SimConfig::default()
            },
        );
        (sim.run(), g)
    }

    #[test]
    fn blacklisting_defeats_beacon_spam() {
        let n = 128;
        let d = 8;
        let params = CongestParams::default();
        let byz = [NodeId(0), NodeId(64)];
        let (report, g) = run_with(
            n,
            d,
            &byz,
            BeaconSpamAdversary::new(params),
            params,
            41,
            60_000,
        );
        // Nodes far from every Byzantine node must still decide, in band.
        let d0 = distances(&g, byz[0]);
        let d1 = distances(&g, byz[1]);
        let far: Vec<usize> = report
            .honest_nodes()
            .filter(|&u| d0[u].unwrap_or(u32::MAX) >= 2 && d1[u].unwrap_or(u32::MAX) >= 2)
            .collect();
        assert!(!far.is_empty());
        let est = EstimateReport::evaluate(
            n,
            far.iter()
                .map(|&u| report.outputs[u].map(|e| f64::from(e.estimate))),
            Band::new(0.05, 3.0),
        );
        assert!(
            est.decided_fraction() > 0.95,
            "spam must not block far nodes: {} decided",
            est.decided_fraction()
        );
        assert!(
            est.in_band_fraction() > 0.9,
            "far estimates must stay in band: {}",
            est.in_band_fraction()
        );
    }

    #[test]
    fn spam_without_blacklisting_inflates_estimates() {
        // E11 ablation: with the blacklist disabled, the spam never stops
        // being accepted and estimates ride to the safety horizon.
        let n = 64;
        let d = 8;
        let params = CongestParams {
            blacklisting: false,
            max_phase: 9,
            ..CongestParams::default()
        };
        let byz = [NodeId(0)];
        let (ablated, _) = run_with(
            n,
            d,
            &byz,
            BeaconSpamAdversary::new(params),
            params,
            43,
            120_000,
        );
        let mut with_bl = params;
        with_bl.blacklisting = true;
        let (protected, _) = run_with(
            n,
            d,
            &byz,
            BeaconSpamAdversary::new(with_bl),
            with_bl,
            43,
            120_000,
        );
        let mean = |r: &SimReport<crate::congest::CongestEstimate>| {
            let vals: Vec<f64> = r
                .honest_nodes()
                .filter_map(|u| r.outputs[u].map(|e| f64::from(e.estimate)))
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        assert!(
            mean(&ablated) > mean(&protected) + 1.0,
            "ablation must overshoot: {} vs {}",
            mean(&ablated),
            mean(&protected)
        );
    }

    #[test]
    fn oscillating_spam_cannot_exploit_blacklist_resets() {
        let n = 96;
        let d = 8;
        let params = CongestParams::default();
        let byz = [NodeId(0), NodeId(48)];
        let (report, g) = run_with(
            n,
            d,
            &byz,
            OscillatingSpamAdversary::new(params),
            params,
            53,
            60_000,
        );
        let d0 = distances(&g, byz[0]);
        let d1 = distances(&g, byz[1]);
        let far: Vec<usize> = report
            .honest_nodes()
            .filter(|&u| d0[u].unwrap_or(u32::MAX) >= 2 && d1[u].unwrap_or(u32::MAX) >= 2)
            .collect();
        let est = EstimateReport::evaluate(
            n,
            far.iter()
                .map(|&u| report.outputs[u].map(|e| f64::from(e.estimate))),
            Band::new(0.05, 3.0),
        );
        assert!(
            est.decided_fraction() > 0.95,
            "intermittent spam must not block far nodes: {}",
            est.decided_fraction()
        );
        assert!(
            est.in_band_fraction() > 0.9,
            "far estimates must stay in band: {}",
            est.in_band_fraction()
        );
    }

    #[test]
    fn path_tampering_is_also_defeated() {
        let n = 96;
        let d = 8;
        let params = CongestParams::default();
        let byz = [NodeId(10)];
        let (report, g) = run_with(
            n,
            d,
            &byz,
            PathTamperAdversary::new(params),
            params,
            47,
            60_000,
        );
        let dist = distances(&g, byz[0]);
        let far_decided = report
            .honest_nodes()
            .filter(|&u| dist[u].unwrap_or(u32::MAX) >= 2)
            .filter(|&u| report.outputs[u].is_some())
            .count();
        let far_total = report
            .honest_nodes()
            .filter(|&u| dist[u].unwrap_or(u32::MAX) >= 2)
            .count();
        assert!(
            far_decided as f64 >= 0.95 * far_total as f64,
            "{far_decided}/{far_total} far nodes decided"
        );
    }
}
