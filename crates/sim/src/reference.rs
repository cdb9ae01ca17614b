//! A literal reference executor of the synchronous round model — the
//! independent oracle the engine is diffed against (test builds only).
//!
//! It implements the model exactly as stated and nothing more. Each round
//! it drives every honest, non-crashed, unhalted node; collects the sends
//! as `(from, to, msg)` in node order; applies the fault plan from its own
//! stream; hands the rushing adversary that flat vector; and delivers by
//! stable-sorting each inbox by sender [`Pid`]. It uses none of the
//! engine's delivery machinery — no delivery map, sender ranks, arena,
//! feeds, or active set — so agreement inbox by inbox at every
//! round is evidence that all of that machinery is transparent.

use std::borrow::Borrow;
use std::fmt::Debug;

use bcount_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::adversary::{Adversary, ByzantineContext, FullInfoView, HonestTraffic};
use crate::engine::{
    NodeInit, PhaseSend, PhaseShared, SimConfig, SimReport, Simulation, StopReason, StopWhen,
};
use crate::idspace::{assign_pids, Pid, PidIndex};
use crate::message::{Inbox, InboxesView, MessageSize};
use crate::metrics::Metrics;
use crate::protocol::{NodeContext, Outbox, Protocol};
use crate::trace::RoundTrace;

/// One message in flight: sender, destination, payload.
type Sent<M> = (NodeId, NodeId, M);

/// The reference executor; construct like [`Simulation::new`].
pub(crate) struct Reference<'g, P: Protocol, A> {
    graph: &'g Graph,
    config: SimConfig,
    adversary: A,
    pids: Vec<Pid>,
    pid_index: PidIndex,
    /// Each node's neighbour pids, sorted, with edge multiplicity — what
    /// a send's slot indexes.
    neighbors: Vec<Vec<Pid>>,
    is_byzantine: Vec<bool>,
    protocols: Vec<Option<P>>,
    rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    fault_rng: ChaCha8Rng,
    crashed: Vec<bool>,
    /// Withheld messages with the round they come due, in withholding
    /// order.
    delayed: Vec<(u64, Sent<P::Message>)>,
    /// Last round's deliveries packed node after node (each inbox already
    /// sorted): span starts and lengths, and the sender/payload planes
    /// (one payload per delivered message; `refs` is the identity).
    offsets: Vec<u32>,
    lens: Vec<u32>,
    senders: Vec<NodeId>,
    refs: Vec<u32>,
    msgs: Vec<P::Message>,
    decided_round: Vec<Option<u64>>,
    halted: Vec<bool>,
    metrics: Metrics,
    round: u64,
}

impl<'g, P: Protocol, A: Adversary<P>> Reference<'g, P, A> {
    /// Sets up an execution with the model's seeding: pids, then one
    /// stream per node, then the adversary's stream, all from the master
    /// seed; the fault stream from the plan's own seed.
    pub(crate) fn new(
        graph: &'g Graph,
        byzantine: &[NodeId],
        mut factory: impl FnMut(NodeId, &NodeInit) -> P,
        adversary: A,
        config: SimConfig,
    ) -> Self {
        let n = graph.len();
        let mut master = ChaCha8Rng::seed_from_u64(config.seed);
        let pids = assign_pids(n, &mut master);
        let rngs = (0..n)
            .map(|_| ChaCha8Rng::seed_from_u64(master.gen()))
            .collect();
        let adversary_rng = ChaCha8Rng::seed_from_u64(master.gen());
        let mut is_byzantine = vec![false; n];
        for &b in byzantine {
            is_byzantine[b.index()] = true;
        }
        let neighbors: Vec<Vec<Pid>> = graph
            .nodes()
            .map(|u| {
                let mut of_u: Vec<Pid> = graph.neighbors(u).map(|w| pids[w.index()]).collect();
                of_u.sort();
                of_u
            })
            .collect();
        let protocols = (0..n)
            .map(|u| {
                let init = NodeInit {
                    pid: pids[u],
                    neighbors: neighbors[u].clone(),
                };
                (!is_byzantine[u]).then(|| factory(NodeId(u as u32), &init))
            })
            .collect();
        Reference {
            graph,
            adversary,
            pid_index: PidIndex::new(&pids),
            fault_rng: ChaCha8Rng::seed_from_u64(config.fault.seed),
            config,
            pids,
            neighbors,
            is_byzantine,
            protocols,
            rngs,
            adversary_rng,
            crashed: vec![false; n],
            delayed: Vec::new(),
            offsets: vec![0; n],
            lens: vec![0; n],
            senders: Vec::new(),
            refs: Vec::new(),
            msgs: Vec::new(),
            decided_round: vec![None; n],
            halted: vec![false; n],
            metrics: Metrics::new(n),
            round: 0,
        }
    }

    /// Executes one round.
    pub(crate) fn step(&mut self) {
        self.round += 1;
        let n = self.graph.len();
        let id_bits = self.config.id_bits;
        let plan = &self.config.fault;
        for ev in &plan.crashes {
            let u = ev.node as usize;
            if ev.round <= self.round && !self.crashed[u] {
                self.crashed[u] = true;
                self.metrics.crashed += 1;
            }
        }

        // 1. Drive every honest, non-crashed, unhalted node.
        let inboxes = InboxesView {
            offsets: &self.offsets,
            lens: &self.lens,
            senders: &self.senders,
            refs: &self.refs,
            payloads: &self.msgs,
            pids: &self.pids,
        };
        let mut outboxes: Vec<Outbox<P::Message>> =
            (0..n).map(|_| Outbox::with_capacity(0, 0)).collect();
        for (u, outgoing) in outboxes.iter_mut().enumerate() {
            if self.is_byzantine[u] || self.crashed[u] || self.halted[u] {
                continue;
            }
            let proto = self.protocols[u].as_mut().expect("honest node");
            proto.on_round(&mut NodeContext {
                round: self.round,
                me: self.pids[u],
                neighbors: &self.neighbors[u],
                inbox: inboxes.inbox(u),
                rng: &mut self.rngs[u],
                outgoing,
            });
            if self.decided_round[u].is_none() && proto.output().is_some() {
                self.decided_round[u] = Some(self.round);
            }
            self.halted[u] = proto.has_halted();
        }

        // 2. Collect the sends in node order, each with its own copy of
        // the payload it references; a slot names a neighbour pid.
        let mut traffic: Vec<Sent<P::Message>> = Vec::new();
        for (u, outbox) in outboxes.into_iter().enumerate() {
            for (slot, payload) in outbox.sends {
                let msg = outbox.payloads[payload as usize].clone();
                let to = self.pid_index.node_of(self.neighbors[u][slot as usize]);
                self.metrics.per_node[u].record(msg.size_bits(id_bits));
                traffic.push((NodeId(u as u32), to.expect("neighbour pid"), msg));
            }
        }

        // 3. Faults: one roll per message — drop, duplicate, delay, or
        // pass — then the withheld messages now due, in withholding order.
        let drop_below = u32::from(plan.drop_per_mille);
        let dup_below = drop_below + u32::from(plan.dup_per_mille);
        let delay_below = dup_below + u32::from(plan.delay_per_mille);
        if delay_below > 0 {
            let mut passed = Vec::new();
            for sent in traffic {
                let roll: u32 = self.fault_rng.gen_range(0..1000);
                if roll < drop_below {
                    self.metrics.dropped += 1;
                } else if roll < dup_below {
                    self.metrics.duplicated += 1;
                    passed.push(sent.clone());
                    passed.push(sent);
                } else if roll < delay_below {
                    self.metrics.delayed += 1;
                    let due = self.round + plan.delay_rounds.max(1);
                    self.delayed.push((due, sent));
                } else {
                    passed.push(sent);
                }
            }
            traffic = passed;
        }
        let round = self.round;
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.delayed)
            .into_iter()
            .partition(|(due, _)| *due <= round);
        self.delayed = later;
        traffic.extend(due.into_iter().map(|(_, sent)| sent));

        // 4. The rushing adversary sees the honest states and the vector;
        // a crashed Byzantine node stays silent whoever controls it.
        let mut byzantine: Vec<Sent<P::Message>> = Vec::new();
        let sends: Vec<(NodeId, NodeId, u32)> = traffic
            .iter()
            .enumerate()
            .map(|(i, &(from, to, _))| (from, to, i as u32))
            .collect();
        let payloads: Vec<P::Message> = traffic.iter().map(|(_, _, msg)| msg.clone()).collect();
        let view = FullInfoView {
            round: self.round,
            graph: self.graph,
            pids: &self.pids,
            pid_index: &self.pid_index,
            is_byzantine: &self.is_byzantine,
            honest_states: &self.protocols,
            honest_outgoing: HonestTraffic {
                sends: &sends,
                payloads: &payloads,
            },
            inboxes,
        };
        let mut ctx = ByzantineContext {
            graph: self.graph,
            is_byzantine: &self.is_byzantine,
            rng: &mut self.adversary_rng,
            outgoing: &mut byzantine,
        };
        self.adversary.on_round(&view, &mut ctx);
        byzantine.retain(|(from, _, _)| !self.crashed[from.index()]);
        for (from, _, msg) in &byzantine {
            self.metrics.per_node[from.index()].record(msg.size_bits(id_bits));
        }

        // 5. Deliver: every inbox stable-sorted by sender pid.
        let honest_count = traffic.len() as u64;
        let byzantine_count = byzantine.len() as u64;
        let mut delivered: Vec<Vec<(NodeId, P::Message)>> = (0..n).map(|_| Vec::new()).collect();
        for (from, to, msg) in traffic.into_iter().chain(byzantine) {
            delivered[to.index()].push((from, msg));
        }
        self.senders.clear();
        self.refs.clear();
        self.msgs.clear();
        for (v, mut inbox) in delivered.into_iter().enumerate() {
            inbox.sort_by_key(|(from, _)| self.pids[from.index()]);
            self.offsets[v] = self.senders.len() as u32;
            self.lens[v] = inbox.len() as u32;
            for (from, msg) in inbox {
                self.senders.push(from);
                self.refs.push(self.msgs.len() as u32);
                self.msgs.push(msg);
            }
        }

        self.metrics.rounds = self.round;
        if self.config.record_round_stats {
            let alive = |u: &usize| !self.is_byzantine[*u] && !self.crashed[*u];
            let decided = (0..n)
                .filter(alive)
                .filter(|&u| self.decided_round[u].is_some())
                .count();
            let halted = (0..n).filter(alive).filter(|&u| self.halted[u]).count();
            self.metrics
                .messages_per_round
                .push(honest_count + byzantine_count);
            self.metrics.round_trace.push(RoundTrace {
                round: self.round,
                honest_messages: honest_count,
                byzantine_messages: byzantine_count,
                decided,
                halted,
            });
        }
    }

    /// What node `u` received in the last executed round.
    pub(crate) fn inbox(&self, u: NodeId) -> Inbox<'_, P::Message> {
        InboxesView {
            offsets: &self.offsets,
            lens: &self.lens,
            senders: &self.senders,
            refs: &self.refs,
            payloads: &self.msgs,
            pids: &self.pids,
        }
        .inbox(u.index())
    }

    /// The stop condition over the surviving (non-Byzantine, non-crashed)
    /// nodes, bounded by the round budget.
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        let survivors =
            || (0..self.graph.len()).filter(|&u| !self.is_byzantine[u] && !self.crashed[u]);
        match self.config.stop_when {
            StopWhen::AllHonestHalted if survivors().all(|u| self.halted[u]) => {
                Some(StopReason::AllHalted)
            }
            StopWhen::AllHonestDecided if survivors().all(|u| self.decided_round[u].is_some()) => {
                Some(StopReason::AllDecided)
            }
            _ if self.round >= self.config.max_rounds => Some(StopReason::MaxRounds),
            _ => None,
        }
    }

    /// The report of the current state.
    pub(crate) fn report(&self, stop_reason: StopReason) -> SimReport<P::Output> {
        SimReport {
            rounds: self.round,
            outputs: self
                .protocols
                .iter()
                .map(|p| p.as_ref().and_then(|p| p.output()))
                .collect(),
            decided_round: self.decided_round.clone(),
            halted: self.halted.clone(),
            is_byzantine: self.is_byzantine.clone(),
            pids: self.pids.clone(),
            metrics: self.metrics.clone(),
            stop_reason,
        }
    }
}

/// Steps `engine` and `reference` in lockstep to their stop condition,
/// asserting identical stop checks and inboxes at every round and an
/// identical [`SimReport`] at the end, which it returns.
pub(crate) fn assert_lockstep<G, P, A, B>(
    engine: &mut Simulation<G, P, A>,
    reference: &mut Reference<'_, P, B>,
) -> SimReport<P::Output>
where
    G: Borrow<Graph>,
    P: Protocol + PhaseSend,
    P::Message: PhaseShared + PartialEq + Debug,
    P::Output: PartialEq + Debug,
    A: Adversary<P>,
    B: Adversary<P>,
{
    loop {
        let stop = engine.stop_reason();
        assert_eq!(
            stop,
            reference.stop_reason(),
            "stop check, round {}",
            engine.round()
        );
        if let Some(reason) = stop {
            let report = engine.report(reason);
            assert_eq!(report, reference.report(reason), "final report");
            return report;
        }
        engine.step();
        reference.step();
        for u in engine.graph().nodes() {
            assert_eq!(
                engine.inbox(u),
                reference.inbox(u),
                "inbox of {u}, round {}",
                engine.round()
            );
        }
    }
}

mod tests;
