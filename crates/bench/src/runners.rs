//! Shared execution helpers for the experiments.

use bcount_core::congest::{CongestCounting, CongestEstimate, CongestParams};
use bcount_core::local::{LocalConfig, LocalCounting, LocalEstimate};
use bcount_daemon::cell::GraphFamily;
use bcount_graph::analysis::bfs::distances;
use bcount_graph::{Graph, NodeId};
use bcount_sim::{Adversary, Execution, SimConfig, SimReport, StopWhen};

pub use bcount_daemon::cell::{spread_byzantine, theorem1_budget, theorem2_budget};

/// Generates the standard experiment network: `H(n, d)`.
pub fn network(n: usize, d: usize, seed: u64) -> Graph {
    GraphFamily::Hnd { d }
        .generate(n, seed)
        .expect("valid H(n,d) parameters")
}

/// Runs Algorithm 2 on `g` against `adversary`.
pub fn run_congest<A: Adversary<CongestCounting>>(
    g: &Graph,
    byz: &[NodeId],
    params: CongestParams,
    adversary: A,
    seed: u64,
    max_rounds: u64,
) -> SimReport<CongestEstimate> {
    let mut sim = Execution::new(
        g,
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
    sim.run()
}

/// Runs Algorithm 1 on `g` against `adversary`.
pub fn run_local<A: Adversary<LocalCounting>>(
    g: &Graph,
    byz: &[NodeId],
    cfg: LocalConfig,
    adversary: A,
    seed: u64,
    max_rounds: u64,
) -> SimReport<LocalEstimate> {
    let mut sim = Execution::new(
        g,
        byz,
        |_, init| LocalCounting::new(cfg, init),
        adversary,
        SimConfig {
            seed,
            max_rounds,
            ..SimConfig::default()
        },
    );
    sim.run()
}

/// Honest nodes at distance at least `min_dist` from every Byzantine node
/// — the paper's `Good`-style sets whose guarantees the theorems state.
pub fn far_honest_nodes(g: &Graph, byz: &[NodeId], min_dist: u32) -> Vec<usize> {
    let dists: Vec<Vec<Option<u32>>> = byz.iter().map(|&b| distances(g, b)).collect();
    let is_byz: Vec<bool> = {
        let mut v = vec![false; g.len()];
        for &b in byz {
            v[b.index()] = true;
        }
        v
    };
    (0..g.len())
        .filter(|&u| !is_byz[u])
        .filter(|&u| dists.iter().all(|d| d[u].unwrap_or(u32::MAX) >= min_dist))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_formulas() {
        assert_eq!(theorem2_budget(1024, 0.05), 22); // 1024^0.45
        assert_eq!(theorem1_budget(1024, 0.7), 8); // 1024^0.3
        assert_eq!(theorem2_budget(0, 0.05), 0);
    }

    #[test]
    fn spread_is_distinct_for_sane_counts() {
        let byz = spread_byzantine(100, 5);
        assert_eq!(byz.len(), 5);
        let set: std::collections::HashSet<_> = byz.iter().collect();
        assert_eq!(set.len(), 5);
        assert!(spread_byzantine(10, 0).is_empty());
    }

    #[test]
    fn far_nodes_exclude_byzantine_and_near() {
        let g = bcount_graph::gen::cycle(10).unwrap();
        let byz = [NodeId(0)];
        let far = far_honest_nodes(&g, &byz, 2);
        assert!(!far.contains(&0));
        assert!(!far.contains(&1));
        assert!(!far.contains(&9));
        assert!(far.contains(&5));
    }
}
