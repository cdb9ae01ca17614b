//! The decision contract the engine's snapshots rely on: once a node's
//! [`Protocol::output`] is `Some`, it never changes. The engine records a
//! node's first decision and serves snapshots, node states and reports
//! from that record, so a protocol that revised its output would be
//! misreported.
//!
//! Every registered protocol runs against each adversary the registry
//! pairs it with (and `silent`) on a small graph, one round at a time. At
//! every round each node's live output, lowered through the row's raw
//! estimate hook, must keep the bit pattern it had when it first became
//! `Some`. Each typed execution is checked against the registry's own
//! build of the same cell at every round (identical node states), so the
//! rows here are the registry's rows.

use std::sync::Arc;

use bcount_baselines::{
    BirthdayCounting, CollisionFakerAdversary, Convergecast, CountLiarAdversary, GeometricMax,
    MaxFakerAdversary, SupportEstimation, ZeroFakerAdversary,
};
use bcount_core::adversary::{
    BeaconSpamAdversary, EdgeInjectorAdversary, FakeExpanderAdversary, OscillatingSpamAdversary,
    PathTamperAdversary,
};
use bcount_core::congest::{CongestCounting, CongestEstimate, CongestParams};
use bcount_core::local::{LocalConfig, LocalCounting, LocalEstimate};
use bcount_daemon::cell::{AdversarySpec, CellSpec, GraphFamily, Placement, ProtocolSpec};
use bcount_graph::{Graph, NodeId};
use bcount_sim::{
    Adversary, Execution, FaultPlan, NodeInit, NullAdversary, PhaseSend, PhaseShared, Protocol,
    SimConfig,
};

/// The registry's saturation of a raw estimate (`NaN` counts as broken
/// upward), so the typed rows lower outputs exactly as the sessions do.
fn saturate(v: f64) -> f64 {
    if v.is_nan() {
        f64::MAX
    } else {
        v.clamp(f64::MIN, f64::MAX)
    }
}

fn cell(protocol: ProtocolSpec, adversary: AdversarySpec) -> CellSpec {
    CellSpec {
        family: GraphFamily::Hnd { d: 8 },
        n: 48,
        protocol,
        adversary,
        // Two Byzantine nodes away from node 0, the convergecast root.
        placement: Placement::at(vec![7, 30]),
        byzantine: 2,
        graph_seed: 700,
        engine_seed: 3,
        max_rounds: 300,
        stop: protocol.default_stop(),
        fault: FaultPlan::default(),
    }
}

/// Steps the typed execution of `spec` and the registry's build of it to
/// the stop condition, asserting at every round that no node's output
/// changes once `Some` and that both report the same node states. Returns
/// how many nodes decided.
fn watch<P, A>(
    spec: &CellSpec,
    graph: &Arc<Graph>,
    factory: impl FnMut(NodeId, &NodeInit) -> P,
    adversary: A,
    raw: fn(&P::Output) -> f64,
) -> usize
where
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    let label = format!("{}/{}", spec.protocol.label(), spec.adversary.label());
    let byz = spec
        .placement
        .place(graph, spec.byzantine, spec.placement_seed())
        .unwrap();
    let config = SimConfig::builder()
        .seed(spec.engine_seed)
        .max_rounds(spec.max_rounds)
        .stop_when(spec.stop)
        .build()
        .unwrap();
    let mut typed = Execution::new(Arc::clone(graph), &byz, factory, adversary, config);
    let mut registry = spec.build(Arc::clone(graph)).unwrap();
    let mut decided: Vec<Option<u64>> = vec![None; graph.len()];
    loop {
        let round = typed.round();
        assert_eq!(
            typed.node_states_with(raw),
            registry.node_states(),
            "{label}: not the registry's row (round {round})"
        );
        for (u, first) in decided.iter_mut().enumerate() {
            let now = typed
                .protocol(NodeId(u as u32))
                .and_then(|p| p.output())
                .map(|out| raw(&out).to_bits());
            match *first {
                Some(was) => assert_eq!(
                    now,
                    Some(was),
                    "{label}: node {u} revised its decision in round {round}"
                ),
                None => *first = now,
            }
        }
        if typed.finished().is_some() {
            assert_eq!(registry.finished(), typed.finished(), "{label}");
            break;
        }
        typed.step();
        registry.step_rounds(1);
    }
    decided.iter().flatten().count()
}

/// The registry's protocol × adversary table, typed.
fn run_row(spec: &CellSpec, graph: &Arc<Graph>) -> usize {
    use AdversarySpec as A;
    macro_rules! row {
        ($factory:expr, $raw:expr, { $($adv:pat => $make:expr),+ $(,)? }) => {
            match spec.adversary {
                A::Null => watch(spec, graph, $factory, NullAdversary, $raw),
                $($adv => watch(spec, graph, $factory, $make, $raw),)+
                _ => unreachable!("registered pairing without a typed row"),
            }
        };
    }
    match spec.protocol {
        ProtocolSpec::Congest => {
            let params = CongestParams::default();
            row!(
                move |_: NodeId, init: &NodeInit| CongestCounting::new(params, init),
                |e: &CongestEstimate| f64::from(e.estimate),
                {
                    A::BeaconSpam => BeaconSpamAdversary::new(params),
                    A::PathTamper => PathTamperAdversary::new(params),
                    A::OscillatingSpam => OscillatingSpamAdversary::new(params),
                }
            )
        }
        ProtocolSpec::Local {
            max_degree,
            alpha_prime,
            exhaustive_limit,
        } => {
            let cfg = LocalConfig {
                max_degree,
                alpha_prime,
                exhaustive_limit,
                ..LocalConfig::default()
            };
            row!(
                move |_: NodeId, init: &NodeInit| LocalCounting::new(cfg, init),
                |e: &LocalEstimate| f64::from(e.radius),
                {
                    A::FakeExpander { seed } => FakeExpanderAdversary::new(2, 8, 2, seed),
                    A::EdgeInjector { seed } => EdgeInjectorAdversary::new(seed),
                }
            )
        }
        ProtocolSpec::GeometricMax { budget } => row!(
            move |_: NodeId, init: &NodeInit| GeometricMax::new(budget, init),
            |v: &u32| f64::from(*v),
            {
                A::MaxFaker { fake_value } => MaxFakerAdversary { fake_value },
            }
        ),
        ProtocolSpec::Support => row!(
            |_: NodeId, init: &NodeInit| SupportEstimation::new(64, 40, init),
            |v: &f64| saturate(*v),
            {
                A::ZeroFaker => ZeroFakerAdversary { k: 64 },
            }
        ),
        ProtocolSpec::Convergecast => row!(
            |u: NodeId, init: &NodeInit| Convergecast::new(u == NodeId(0), init),
            |v: &u64| *v as f64,
            {
                A::CountLiar { inflation } => CountLiarAdversary { inflation },
            }
        ),
        ProtocolSpec::Birthday => {
            let tau = 3 * (graph.len() as f64).ln().ceil() as u32;
            let budget = u64::from(tau) + 30;
            row!(
                move |_: NodeId, init: &NodeInit| BirthdayCounting::new(tau, budget, init),
                |v: &f64| saturate(*v),
                {
                    A::CollisionFaker => CollisionFakerAdversary { duplicate: true, count: 64 },
                }
            )
        }
    }
}

#[test]
fn registered_protocols_never_revise_a_decision() {
    let mut registered = Vec::new();
    for protocol in ProtocolSpec::rows() {
        // A silent Byzantine node can stall a baseline (a convergecast
        // waits on its subtree), but every protocol must decide somewhere.
        let mut decided = 0;
        for adversary in AdversarySpec::rows(0) {
            let spec = cell(protocol, adversary);
            let graph = Arc::new(spec.generate().unwrap());
            if spec.build(Arc::clone(&graph)).is_err() {
                continue; // not a registered pairing
            }
            registered.push(format!("{}/{}", protocol.label(), adversary.label()));
            decided += run_row(&spec, &graph);
        }
        assert!(decided > 0, "{}: no decision was checked", protocol.label());
    }
    assert_eq!(registered.len(), 15, "{registered:?}");
}
