//! Message-budget accounting for the built-in adversaries.
//!
//! The engine books Byzantine traffic into the Byzantine slots of
//! [`Metrics::per_node`] and into the per-round honest/Byzantine split of
//! the round trace. These tests pin that accounting for every built-in
//! strategy: totals agree between the two views, and each adversary
//! respects the physical budget of the model — at most one broadcast
//! (`≤ degree` messages) per Byzantine node per round.

use bcount_core::adversary::{
    BeaconSpamAdversary, EdgeInjectorAdversary, FakeExpanderAdversary, OscillatingSpamAdversary,
    PathTamperAdversary,
};
use bcount_core::congest::{CongestCounting, CongestParams};
use bcount_core::local::{LocalConfig, LocalCounting};
use bcount_graph::gen::hnd;
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: usize = 64;
const D: usize = 8;

fn graph() -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(71);
    hnd(N, D, &mut rng).unwrap()
}

/// Per-execution accounting invariants shared by every adversary:
/// Byzantine per-node totals equal the trace's per-round Byzantine
/// totals, and no Byzantine node exceeds one broadcast per round.
fn check_accounting<O>(report: &SimReport<O>, g: &Graph, byz: &[NodeId]) -> u64 {
    let byz_total: u64 = byz
        .iter()
        .map(|b| report.metrics.per_node[b.index()].messages_sent)
        .sum();
    let trace_total: u64 = report
        .metrics
        .round_trace
        .iter()
        .map(|t| t.byzantine_messages)
        .sum();
    assert_eq!(
        byz_total, trace_total,
        "per-node Byzantine totals must match the round-trace split"
    );
    let per_round_budget: u64 = byz
        .iter()
        .map(|&b| {
            let mut nbrs: Vec<NodeId> = g.neighbors(b).collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs.len() as u64
        })
        .sum();
    for t in &report.metrics.round_trace {
        assert!(
            t.byzantine_messages <= per_round_budget,
            "round {}: {} Byzantine messages exceed the broadcast budget {}",
            t.round,
            t.byzantine_messages,
            per_round_budget
        );
    }
    // Honest slots never absorb adversary traffic: their totals equal the
    // trace's honest split.
    let honest_total: u64 = report
        .honest_nodes()
        .map(|u| report.metrics.per_node[u].messages_sent)
        .sum();
    let trace_honest: u64 = report
        .metrics
        .round_trace
        .iter()
        .map(|t| t.honest_messages)
        .sum();
    assert_eq!(honest_total, trace_honest);
    byz_total
}

fn run_congest<A: Adversary<CongestCounting>>(
    g: &Graph,
    byz: &[NodeId],
    params: CongestParams,
    adversary: A,
) -> SimReport<bcount_core::congest::CongestEstimate> {
    let mut sim = Execution::new(
        g,
        byz,
        |_, init| CongestCounting::new(params, init),
        adversary,
        SimConfig {
            seed: 23,
            max_rounds: 4_000,
            stop_when: StopWhen::AllHonestDecided,
            record_round_stats: true,
            ..SimConfig::default()
        },
    );
    sim.run()
}

fn run_local<A: Adversary<LocalCounting>>(
    g: &Graph,
    byz: &[NodeId],
    adversary: A,
) -> SimReport<bcount_core::local::LocalEstimate> {
    let cfg = LocalConfig {
        max_degree: D + 2,
        ..LocalConfig::default()
    };
    let mut sim = Execution::new(
        g,
        byz,
        |_, init| LocalCounting::new(cfg, init),
        adversary,
        SimConfig {
            seed: 23,
            max_rounds: 200,
            record_round_stats: true,
            ..SimConfig::default()
        },
    );
    sim.run()
}

#[test]
fn beacon_spam_budget_is_accounted() {
    let g = graph();
    let byz = [NodeId(0), NodeId(32)];
    let params = CongestParams::default();
    let report = run_congest(&g, &byz, params, BeaconSpamAdversary::new(params));
    let total = check_accounting(&report, &g, &byz);
    assert!(total > 0, "beacon spam must actually send");
    // Spam rides the beacon/continue windows, not every round.
    assert!(report
        .metrics
        .round_trace
        .iter()
        .any(|t| t.byzantine_messages == 0));
}

#[test]
fn path_tamper_budget_is_accounted() {
    let g = graph();
    let byz = [NodeId(5)];
    let params = CongestParams::default();
    let report = run_congest(&g, &byz, params, PathTamperAdversary::new(params));
    let total = check_accounting(&report, &g, &byz);
    assert!(total > 0);
}

#[test]
fn oscillating_spam_stays_within_the_full_time_spammer() {
    let g = graph();
    let byz = [NodeId(0), NodeId(32)];
    let params = CongestParams::default();
    let osc = run_congest(&g, &byz, params, OscillatingSpamAdversary::new(params));
    let full = run_congest(&g, &byz, params, BeaconSpamAdversary::new(params));
    let osc_total = check_accounting(&osc, &g, &byz);
    let full_total = check_accounting(&full, &g, &byz);
    assert!(osc_total > 0);
    // Attacking every other phase can never out-send the full-time
    // spammer per round; compare densities since run lengths differ.
    let density = |total: u64, r: &SimReport<bcount_core::congest::CongestEstimate>| {
        total as f64 / r.rounds.max(1) as f64
    };
    assert!(
        density(osc_total, &osc) <= density(full_total, &full) + 1e-9,
        "oscillating spam density {} exceeds full spam density {}",
        density(osc_total, &osc),
        density(full_total, &full)
    );
}

#[test]
fn fake_expander_budget_is_accounted() {
    let g = graph();
    let byz = [NodeId(3), NodeId(40)];
    let report = run_local(&g, &byz, FakeExpanderAdversary::new(2, D, 2, 7));
    let total = check_accounting(&report, &g, &byz);
    assert!(total > 0, "the phantom world must be advertised");
}

#[test]
fn edge_injector_budget_is_accounted() {
    let g = graph();
    let byz = [NodeId(3)];
    let report = run_local(&g, &byz, EdgeInjectorAdversary::new(11));
    let total = check_accounting(&report, &g, &byz);
    assert!(total > 0, "inconsistent claims must actually be sent");
}

#[test]
fn null_adversary_spends_no_budget() {
    let g = graph();
    let byz = [NodeId(0)];
    let params = CongestParams::default();
    let report = run_congest(&g, &byz, params, NullAdversary);
    assert_eq!(check_accounting(&report, &g, &byz), 0);
}
