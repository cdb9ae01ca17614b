//! Direct coverage for `crates/sim/src/adversary.rs`: what the
//! full-information view exposes each round, and how the engine accounts
//! the adversary's traffic (Byzantine sends land in the Byzantine slots
//! of [`Metrics::per_node`] and in the round trace's budget split). That
//! an observing adversary's `honest_outgoing` view is exactly the
//! node-order traffic the model defines is checked round by round
//! against the reference executor in the crate's unit tests.

use bcount_graph::gen::cycle;
use bcount_graph::{GraphBuilder, NodeId};
use bcount_sim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Honest protocol: broadcasts its round number every round, never halts.
struct Echo {
    round: u64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Num(u64);

impl MessageSize for Num {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        64
    }
}

impl Protocol for Echo {
    type Message = Num;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Num>) {
        self.round = ctx.round();
        ctx.broadcast(Num(ctx.round()));
    }

    fn output(&self) -> Option<u64> {
        (self.round >= 2).then_some(self.round)
    }
}

/// What the probing adversary observed, shared with the test body.
#[derive(Default)]
struct Observations {
    rounds: Vec<u64>,
    honest_outgoing_counts: Vec<usize>,
    saw_honest_states: bool,
    saw_own_inbox: Vec<usize>,
    pid_lookups_consistent: bool,
}

/// An adversary that inspects every face of the [`FullInfoView`] and
/// sends one message per Byzantine node per round.
struct Probe {
    log: Rc<RefCell<Observations>>,
}

impl Adversary<Echo> for Probe {
    fn on_round(&mut self, view: &FullInfoView<'_, Echo>, ctx: &mut ByzantineContext<'_, Num>) {
        let mut log = self.log.borrow_mut();
        log.rounds.push(view.round());

        // Rushing: the honest traffic of THIS round is already visible.
        log.honest_outgoing_counts
            .push(view.honest_outgoing().len());

        // Full information: honest protocol state is readable; Byzantine
        // slots read as None.
        let byz: Vec<NodeId> = view.byzantine_nodes().collect();
        let honest: Vec<NodeId> = view
            .graph()
            .nodes()
            .filter(|&u| !view.is_byzantine(u))
            .collect();
        // Rushing schedule: honest nodes computed THIS round already, so
        // their introspected state shows the current round counter.
        log.saw_honest_states = honest.iter().all(|&u| {
            view.honest_state(u)
                .is_some_and(|p| p.round == view.round())
        }) && byz.iter().all(|&b| view.honest_state(b).is_none());

        // Pid table and reverse index agree on every node.
        log.pid_lookups_consistent = view
            .graph()
            .nodes()
            .all(|u| view.node_of(view.pid(u)) == Some(u));

        // The adversary can read its own nodes' channels.
        for &b in &byz {
            log.saw_own_inbox.push(view.inbox(b).len());
            ctx.broadcast(b, Num(1_000_000 + view.round()));
        }
    }
}

fn run_probe(n: usize, byz: &[NodeId], rounds: u64) -> (SimReport<u64>, Observations) {
    let g = cycle(n).unwrap();
    let log = Rc::new(RefCell::new(Observations::default()));
    let mut sim = Execution::new(
        &g,
        byz,
        |_, _| Echo { round: 0 },
        Probe {
            log: Rc::clone(&log),
        },
        SimConfig {
            max_rounds: rounds,
            stop_when: StopWhen::MaxRoundsOnly,
            record_round_stats: true,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    drop(sim); // releases the adversary's clone of the log
    let obs = Rc::try_unwrap(log).ok().expect("sim dropped").into_inner();
    (report, obs)
}

#[test]
fn view_exposes_rounds_states_and_rushing_traffic() {
    let n = 6;
    let byz = [NodeId(2)];
    let (_, obs) = run_probe(n, &byz, 5);
    // The adversary runs once per round, in order.
    assert_eq!(obs.rounds, vec![1, 2, 3, 4, 5]);
    // Rushing: every honest node broadcasts to both cycle neighbours every
    // round, and the adversary sees it before delivery.
    assert!(obs.honest_outgoing_counts.iter().all(|&c| c == (n - 1) * 2));
    assert!(
        obs.saw_honest_states,
        "honest states must be introspectable"
    );
    assert!(
        obs.pid_lookups_consistent,
        "pid <-> node lookups must agree"
    );
    // From round 2 on, the Byzantine inbox holds its two honest
    // neighbours' messages (round 1 inboxes are empty).
    assert_eq!(obs.saw_own_inbox[0], 0);
    assert!(obs.saw_own_inbox[1..].iter().all(|&c| c == 2));
}

#[test]
fn byzantine_traffic_is_accounted_to_byzantine_slots() {
    let n = 6;
    let byz = [NodeId(2)];
    let rounds = 5u64;
    let (report, _) = run_probe(n, &byz, rounds);
    // The Byzantine node broadcast to its 2 neighbours every round.
    let byz_slot = &report.metrics.per_node[2];
    assert_eq!(byz_slot.messages_sent, rounds * 2);
    assert_eq!(byz_slot.bits_sent, rounds * 2 * 64);
    assert_eq!(byz_slot.max_message_bits, 64);
    // Honest slots hold exactly their own broadcasts.
    for u in report.honest_nodes() {
        assert_eq!(report.metrics.per_node[u].messages_sent, rounds * 2);
    }
    // The round trace splits the budget by sender class.
    for t in &report.metrics.round_trace {
        assert_eq!(t.byzantine_messages, 2, "round {}", t.round);
        assert_eq!(t.honest_messages, (n as u64 - 1) * 2, "round {}", t.round);
    }
}

#[test]
fn null_adversary_sends_nothing_and_delivers_nothing() {
    let g = cycle(5).unwrap();
    let byz = [NodeId(0)];
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, _| Echo { round: 0 },
        NullAdversary,
        SimConfig {
            max_rounds: 4,
            stop_when: StopWhen::MaxRoundsOnly,
            record_round_stats: true,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    assert_eq!(report.metrics.per_node[0].messages_sent, 0);
    assert!(report
        .metrics
        .round_trace
        .iter()
        .all(|t| t.byzantine_messages == 0));
}

/// The model restriction tests (send-from-honest, non-edge) live in
/// `adversary.rs` unit tests; this checks the authenticated-sender
/// guarantee end to end: receivers see the Byzantine node's true pid.
/// The Byzantine node has a parallel edge to node 0, and a broadcast
/// still reaches each distinct neighbour exactly once a round.
#[test]
fn byzantine_messages_carry_authentic_sender_pids() {
    struct Collect {
        inbox: Vec<Pid>,
    }
    impl Protocol for Collect {
        type Message = Num;
        type Output = ();
        fn on_round(&mut self, ctx: &mut NodeContext<'_, Num>) {
            for env in ctx.inbox() {
                self.inbox.push(env.sender);
            }
        }
        fn output(&self) -> Option<()> {
            None
        }
    }
    struct Shout;
    impl Adversary<Collect> for Shout {
        fn on_round(
            &mut self,
            view: &FullInfoView<'_, Collect>,
            ctx: &mut ByzantineContext<'_, Num>,
        ) {
            for b in view.byzantine_nodes().collect::<Vec<_>>() {
                ctx.broadcast(b, Num(9));
            }
        }
    }
    let mut b = GraphBuilder::new(4);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)] {
        b.add_edge(NodeId(u), NodeId(v));
    }
    let g = b.build();
    let byz = [NodeId(1)];
    let mut sim = Execution::new(
        &g,
        &byz,
        |_, _| Collect { inbox: Vec::new() },
        Shout,
        SimConfig {
            max_rounds: 3,
            stop_when: StopWhen::MaxRoundsOnly,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    let byz_pid = report.pids[1];
    // Node 0 and node 2 neighbour the Byzantine node; every message they
    // got carries its authentic pid, one per round after the first.
    for u in [0u32, 2] {
        let seen = &sim.protocol(NodeId(u)).expect("honest, not halted").inbox;
        assert_eq!(seen.len(), 2, "node {u} saw {seen:?}");
        assert!(seen.iter().all(|&p| p == byz_pid), "node {u} saw {seen:?}");
    }
}
