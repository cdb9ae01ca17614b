//! Byzantine strategies against Algorithm 1 (the LOCAL protocol).

use std::collections::HashMap;
use std::sync::Arc;

use bcount_graph::gen::hamiltonian::hnd;
use bcount_graph::{Graph, NodeId, TopologyView};
use bcount_sim::{Adversary, ByzantineContext, FullInfoView, Pid};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::local::{LocalCounting, LocalMsg};

/// Remark 1's attack: every Byzantine node claims edges into a shared
/// phantom expander and "reveals" it one BFS layer per round, mimicking
/// honest view growth.
///
/// The phantom world is an `H(m, d_fake)` expander of `m =
/// fake_multiplier · n` nodes with fresh random identities. Each Byzantine
/// node `b` announces its *true* honest edges (it cannot deny them — the
/// honest endpoints announce them symmetrically) plus `entries_per_byz`
/// edges into the phantom world. All claims are mutually consistent, so
/// the `inconsistent` predicate never fires; only the expansion check can
/// unmask the attack, because the entire phantom region hangs off a
/// `|Byz|`-vertex cut.
///
/// Degree discipline: the victims' degree bound `Δ` must admit
/// `deg(b) + entries_per_byz` and `d_fake + 1`, otherwise the degree check
/// trivially exposes the attack (experiments use `Δ = d + 2`,
/// `entries_per_byz = 2`, `d_fake = d`).
#[derive(Debug)]
pub struct FakeExpanderAdversary {
    fake_multiplier: usize,
    d_fake: usize,
    entries_per_byz: usize,
    seed: u64,
    world: Option<PhantomWorld>,
}

#[derive(Debug)]
struct PhantomWorld {
    fake_graph: Graph,
    fake_pids: Vec<Pid>,
    /// Per Byzantine node: its entry nodes in the phantom graph.
    entries: HashMap<NodeId, Vec<NodeId>>,
    /// Per phantom node: the Byzantine pids attached to it. Every
    /// Byzantine node's revelation must tell the *same* story about a
    /// phantom node — including other Byzantine nodes' entry edges —
    /// or honest nodes comparing notes catch a conflicting announcement.
    entry_owners: HashMap<NodeId, Vec<NodeId>>,
    /// Per Byzantine node: phantom-graph BFS distance from its entry set.
    dist: HashMap<NodeId, Vec<u32>>,
}

impl FakeExpanderAdversary {
    /// Creates the attack. `fake_multiplier` scales the phantom world
    /// relative to the true network; `d_fake` is its internal degree;
    /// `entries_per_byz` is how many phantom edges each Byzantine node
    /// claims.
    pub fn new(fake_multiplier: usize, d_fake: usize, entries_per_byz: usize, seed: u64) -> Self {
        assert!(fake_multiplier >= 1 && entries_per_byz >= 1);
        FakeExpanderAdversary {
            fake_multiplier,
            d_fake,
            entries_per_byz,
            seed,
            world: None,
        }
    }

    fn build_world(&mut self, view: &FullInfoView<'_, LocalCounting>) -> &PhantomWorld {
        if self.world.is_none() {
            let n = view.graph().len();
            let m = (self.fake_multiplier * n).max(self.d_fake + 2).max(8);
            let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
            let fake_graph =
                hnd(m, self.d_fake.max(2), &mut rng).expect("phantom world parameters are valid");
            let fake_pids: Vec<Pid> = (0..m).map(|_| Pid(rng.gen())).collect();
            let byz: Vec<NodeId> = view.byzantine_nodes().collect();
            let mut entries = HashMap::new();
            let mut entry_owners: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
            let mut dist = HashMap::new();
            // Spread entry points evenly through the phantom world so the
            // Byzantine nodes' stories never collide.
            let stride = (m / (byz.len().max(1) * self.entries_per_byz).max(1)).max(1);
            let mut cursor = 0usize;
            for &b in &byz {
                let mut es = Vec::new();
                for _ in 0..self.entries_per_byz {
                    let e = NodeId((cursor % m) as u32);
                    es.push(e);
                    entry_owners.entry(e).or_default().push(b);
                    cursor += stride;
                }
                // Multi-source BFS from the entry set for growth pacing.
                let mut d = vec![u32::MAX; m];
                let mut q = std::collections::VecDeque::new();
                for &e in &es {
                    d[e.index()] = 0;
                    q.push_back(e);
                }
                while let Some(u) = q.pop_front() {
                    for v in fake_graph.neighbors(u) {
                        if d[v.index()] == u32::MAX {
                            d[v.index()] = d[u.index()] + 1;
                            q.push_back(v);
                        }
                    }
                }
                entries.insert(b, es);
                dist.insert(b, d);
            }
            self.world = Some(PhantomWorld {
                fake_graph,
                fake_pids,
                entries,
                entry_owners,
                dist,
            });
        }
        self.world.as_ref().expect("just built")
    }
}

impl Adversary<LocalCounting> for FakeExpanderAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, LocalCounting>,
        ctx: &mut ByzantineContext<'_, LocalMsg>,
    ) {
        let round = view.round();
        let graph = view.graph();
        let pids: Vec<Pid> = graph.nodes().map(|u| view.pid(u)).collect();
        let byz: Vec<NodeId> = view.byzantine_nodes().collect();
        self.build_world(view);
        let world = self.world.as_ref().expect("built");
        // Phantom knowledge revealed this round: BFS layers up to round-1
        // (mimicking how far honest announcements would have travelled).
        let reveal = u32::try_from(round.saturating_sub(1)).unwrap_or(u32::MAX);
        for &b in &byz {
            let mut fake_view: TopologyView<Pid> = TopologyView::new();
            // b's own announcement: true honest edges + phantom entries.
            let mut b_edges: Vec<Pid> = graph.neighbors(b).map(|w| pids[w.index()]).collect();
            b_edges.sort_unstable();
            b_edges.dedup();
            let entry_nodes = &world.entries[&b];
            b_edges.extend(entry_nodes.iter().map(|e| world.fake_pids[e.index()]));
            fake_view
                .announce(pids[b.index()], b_edges)
                .expect("phantom story is self-consistent");
            // Phantom announcements within the revealed radius.
            let dist = &world.dist[&b];
            for f in world.fake_graph.nodes() {
                if dist[f.index()] > reveal {
                    continue;
                }
                let mut edges: Vec<Pid> = world
                    .fake_graph
                    .neighbors(f)
                    .map(|g| world.fake_pids[g.index()])
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                // The global story: an entry node is attached to *its*
                // Byzantine owners, regardless of who reveals it.
                if let Some(owners) = world.entry_owners.get(&f) {
                    edges.extend(owners.iter().map(|o| pids[o.index()]));
                }
                fake_view
                    .announce(world.fake_pids[f.index()], edges)
                    .expect("phantom story is self-consistent");
            }
            ctx.broadcast(b, LocalMsg(Arc::new(fake_view)));
        }
    }

    /// This strategy never inspects the in-flight honest traffic
    /// ([`FullInfoView::honest_outgoing`]) — it works off states, inboxes,
    /// and topology — so it licenses the engine's outbox feed.
    fn observes_traffic(&self) -> bool {
        false
    }
}

/// A nuisance attack: each Byzantine node tells different neighbours
/// contradictory stories about a phantom node's edge list, so honest nodes
/// that compare notes decide early via the `inconsistent` predicate.
#[derive(Debug, Clone)]
pub struct EdgeInjectorAdversary {
    seed: u64,
}

impl EdgeInjectorAdversary {
    /// Creates the attack with a seed for phantom identities.
    pub fn new(seed: u64) -> Self {
        EdgeInjectorAdversary { seed }
    }
}

impl Adversary<LocalCounting> for EdgeInjectorAdversary {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, LocalCounting>,
        ctx: &mut ByzantineContext<'_, LocalMsg>,
    ) {
        let graph = view.graph();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ view.round());
        for b in view.byzantine_nodes() {
            let me = view.pid(b);
            let mut real: Vec<Pid> = graph.neighbors(b).map(|w| view.pid(w)).collect();
            real.sort_unstable();
            real.dedup();
            let phantom = Pid(rng.gen());
            let mut targets: Vec<NodeId> = graph.neighbors(b).collect();
            targets.sort_unstable();
            targets.dedup();
            for (k, to) in targets.into_iter().enumerate() {
                // Same announcement for b, conflicting stories about the
                // phantom node: its edge list varies per recipient.
                let mut v: TopologyView<Pid> = TopologyView::new();
                let mut b_edges = real.clone();
                b_edges.push(phantom);
                v.announce(me, b_edges).expect("self-consistent");
                let mut phantom_edges = vec![me];
                if k % 2 == 1 {
                    phantom_edges.push(Pid(rng.gen()));
                }
                v.announce(phantom, phantom_edges).expect("self-consistent");
                ctx.send(b, to, LocalMsg(Arc::new(v)));
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
    use crate::local::{LocalConfig, LocalTrigger};
    use bcount_graph::analysis::bfs::distances;
    use bcount_sim::prelude::*;

    fn run_attack<A: Adversary<LocalCounting>>(
        n: usize,
        d: usize,
        n_byz: usize,
        adversary: A,
        cfg: LocalConfig,
        seed: u64,
    ) -> (SimReport<crate::local::LocalEstimate>, Graph, Vec<NodeId>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(n, d, &mut rng).unwrap();
        let byz: Vec<NodeId> = (0..n_byz)
            .map(|k| NodeId((k * (n / n_byz.max(1))) as u32))
            .collect();
        let mut sim = Simulation::new(
            &g,
            &byz,
            |_, init| LocalCounting::new(cfg, init),
            adversary,
            SimConfig {
                seed,
                max_rounds: 200,
                ..SimConfig::default()
            },
        );
        (sim.run(), g, byz)
    }

    #[test]
    fn fake_expander_is_caught_by_expansion_check() {
        let d = 6;
        let cfg = LocalConfig {
            max_degree: d + 2,
            alpha_prime: 0.05,
            ..LocalConfig::default()
        };
        let (report, g, byz) =
            run_attack(96, d, 2, FakeExpanderAdversary::new(2, 6, 2, 99), cfg, 17);
        // All honest nodes decide despite the phantom network.
        assert_eq!(report.honest_decided_count(), report.honest_count());
        // Far-from-Byzantine nodes must not be strung along to the horizon.
        let dist0 = distances(&g, byz[0]);
        for u in report.honest_nodes() {
            let est = report.outputs[u].expect("decided");
            if dist0[u].unwrap_or(u32::MAX) >= 3 {
                assert!(
                    est.trigger != LocalTrigger::Horizon,
                    "far node {u} hit the horizon: {est:?}"
                );
            }
        }
    }

    #[test]
    fn fake_expander_story_is_internally_consistent() {
        // No honest node may decide via Inconsistency: the phantom story
        // must be airtight so that only the expansion check can fire —
        // including across *multiple* Byzantine revealers whose phantom
        // balls overlap (each must tell the same story about shared
        // phantom nodes and each other's entry edges).
        let d = 6;
        let cfg = LocalConfig {
            max_degree: d + 2,
            alpha_prime: 0.05,
            ..LocalConfig::default()
        };
        for n_byz in [1usize, 3] {
            let (report, _, _) = run_attack(
                64,
                d,
                n_byz,
                FakeExpanderAdversary::new(2, 6, 2, 5),
                cfg,
                23,
            );
            for u in report.honest_nodes() {
                let est = report.outputs[u].expect("decided");
                assert!(
                    est.trigger != LocalTrigger::Inconsistency,
                    "phantom story leaked an inconsistency at {u} ({n_byz} byz): {est:?}"
                );
            }
        }
    }

    #[test]
    fn edge_injector_triggers_early_inconsistency_nearby() {
        let d = 6;
        let cfg = LocalConfig {
            max_degree: d + 2,
            ..LocalConfig::default()
        };
        let (report, g, byz) = run_attack(64, d, 1, EdgeInjectorAdversary::new(7), cfg, 31);
        assert_eq!(report.honest_decided_count(), report.honest_count());
        // Neighbours of the Byzantine node see conflicting stories within
        // a few rounds once they exchange views.
        let dist = distances(&g, byz[0]);
        let near_inconsistent = report
            .honest_nodes()
            .filter(|&u| dist[u] == Some(1))
            .any(|u| {
                matches!(
                    report.outputs[u].expect("decided").trigger,
                    LocalTrigger::Inconsistency
                )
            });
        assert!(
            near_inconsistent,
            "some neighbour must catch the contradiction"
        );
    }
}
