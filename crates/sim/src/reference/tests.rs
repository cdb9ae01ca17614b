//! The engine against the reference executor, inbox by inbox at every
//! round and on the final [`SimReport`]: cycle, path, H(n, d), and torus
//! graphs; silent, beacon-spamming, double-sending, and observing
//! adversaries; same-sender multi-send ties; mixed unicast/broadcast/repeat
//! sends sharing payloads; unicasts to random neighbour subsets (the
//! compacted table path, and repeated slots of parallel edges) and to
//! every distinct neighbour in reverse slot order; Byzantine traffic on
//! the table (full spam rounds, and a Byzantine repeat); a schedule that
//! walks each arena generation through every pair of round kinds (sparse,
//! dense, full, spilled); fault plans that drop, duplicate and delay
//! ([`with_faults`], proptest-generated ones, and full broadcast under
//! faults on every placement); event-driven relays; and worker pools of
//! 1, 4, and 8 threads.

use super::{assert_lockstep, Reference};
use crate::adversary::{Adversary, ByzantineContext, FullInfoView, NullAdversary};
use crate::engine::{Execution, NodeInit, SimConfig, SimReport, StopReason, StopWhen};
use crate::fault::{CrashEvent, FaultPlan};
use crate::idspace::Pid;
use crate::message::Envelope;
use crate::protocol::{NodeContext, Protocol};
use bcount_graph::gen::{cycle, hnd, path, torus2d};
use bcount_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// Flood-max that folds fresh randomness and its intake size into its
/// state every round, and halts after a fixed budget: any divergence in
/// RNG streams, message order, or fault rolls shows in the outputs.
#[derive(Debug, Clone)]
struct JitterFlood {
    best: Pid,
    noise: u64,
    heard: u64,
    rounds_left: u32,
}

impl Protocol for JitterFlood {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        self.heard += ctx.inbox().len() as u64;
        for env in ctx.inbox() {
            self.best = self.best.max(*env.msg);
            self.noise = self.noise.rotate_left(5) ^ env.sender.0;
        }
        self.noise = self.noise.wrapping_mul(31).wrapping_add(ctx.rng().gen());
        ctx.broadcast(self.best);
        self.rounds_left = self.rounds_left.saturating_sub(1);
    }

    fn output(&self) -> Option<u64> {
        (self.rounds_left == 0).then_some(self.best.0 ^ self.noise ^ self.heard)
    }

    fn has_halted(&self) -> bool {
        self.rounds_left == 0
    }
}

fn jitter(rounds: u32) -> impl FnMut(NodeId, &NodeInit) -> JitterFlood + Copy {
    move |_, init| JitterFlood {
        best: init.pid,
        noise: init.pid.0,
        heard: 0,
        rounds_left: rounds,
    }
}

/// Sends 1–3 *distinct* payloads to every distinct neighbour each round,
/// so the order of one sender's messages within an inbox is observable.
#[derive(Debug, Clone)]
struct SprayFlood {
    acc: u64,
}

impl Protocol for SprayFlood {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        for env in ctx.inbox() {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(env.msg.0);
        }
        let mut last = None;
        for i in 0..ctx.neighbors().len() {
            let to = ctx.neighbors()[i];
            if last == Some(to) {
                continue;
            }
            last = Some(to);
            for copy in 0..1 + ctx.rng().gen::<u64>() % 3 {
                ctx.send(to, Pid(self.acc ^ (copy + 1)));
            }
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.acc)
    }
}

/// An event-driven relay: sources launch a TTL-stamped wave in round 1,
/// and afterwards a node acts only on a non-empty inbox, so most outboxes
/// stay empty between the adversary's injections and no round is a
/// broadcast round.
#[derive(Debug, Clone)]
struct FrontierRelay {
    source: bool,
    heard: u64,
    noise: u64,
}

impl Protocol for FrontierRelay {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        if ctx.round() == 1 {
            if self.source {
                ctx.broadcast(Pid(6));
            }
            return;
        }
        let Some(ttl) = ctx.inbox().iter().map(|e| e.msg.0.min(6)).max() else {
            return;
        };
        self.heard += ctx.inbox().len() as u64;
        self.noise = self.noise.wrapping_mul(31).wrapping_add(ctx.rng().gen());
        if ttl > 0 {
            ctx.broadcast(Pid(ttl - 1));
        }
    }

    fn output(&self) -> Option<u64> {
        (self.heard > 0).then_some(self.heard ^ self.noise)
    }
}

fn relay(u: NodeId, init: &NodeInit) -> FrontierRelay {
    FrontierRelay {
        source: u.index().is_multiple_of(17),
        heard: 0,
        noise: init.pid.0,
    }
}

/// Beacon spam that ignores the traffic: every Byzantine node broadcasts a
/// fresh random beacon on two rounds out of three, twice on every fifth
/// round — more than the spans it reaches have room for, so they spill.
struct BeaconSpam;

impl<P: Protocol<Message = Pid>> Adversary<P> for BeaconSpam {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        if view.round().is_multiple_of(3) {
            return;
        }
        let beacon = Pid(ctx.rng().gen());
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, beacon);
            if view.round().is_multiple_of(5) {
                ctx.broadcast(b, Pid(beacon.0.wrapping_add(1)));
            }
        }
    }
}

/// Two fresh messages per Byzantine-incident edge every round: every
/// span a Byzantine node reaches gets twice its Byzantine neighbours'
/// share, so whole spans spill.
struct DoubleSender;

impl<P: Protocol<Message = Pid>> Adversary<P> for DoubleSender {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let beacon: u64 = ctx.rng().gen();
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, Pid(beacon));
            ctx.broadcast(b, Pid(beacon ^ 1));
        }
    }
}

/// A rushing adversary that reads the round's in-flight honest traffic
/// and its own inboxes, outbids the largest value in flight, and sends a
/// second copy to one neighbour (a same-sender tie), which can spill that
/// neighbour's span. It reads the outboxes in place.
struct Rusher;

impl<P: Protocol<Message = Pid>> Adversary<P> for Rusher {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let best = view.honest_outgoing().iter().map(|(_, _, m)| m.0).max();
        for b in view.byzantine_nodes() {
            let bid = Pid(best
                .unwrap_or(0)
                .wrapping_add(view.inbox(b).len() as u64 + 1));
            ctx.broadcast(b, bid);
            if let Some(to) = view.graph().neighbors(b).next() {
                ctx.send(b, to, Pid(bid.0 ^ 1));
            }
        }
    }
}

fn config(seed: u64, max_rounds: u64) -> SimConfig {
    SimConfig {
        seed,
        max_rounds,
        record_round_stats: true,
        ..SimConfig::default()
    }
}

/// `cfg` under a plan that drops, duplicates and delays, seeded from
/// `cfg.seed`, with no crash.
fn with_faults(cfg: SimConfig) -> SimConfig {
    let fault = FaultPlan {
        seed: cfg.seed ^ 0xFA17,
        drop_per_mille: 60,
        dup_per_mille: 60,
        delay_per_mille: 60,
        delay_rounds: 2,
        ..FaultPlan::default()
    };
    SimConfig { fault, ..cfg }
}

/// `cfg` with a crash-only plan whose one crash lies past the last round:
/// the crash pass runs, and no fault randomness is drawn.
fn crash_only(mut cfg: SimConfig) -> SimConfig {
    let round = cfg.max_rounds + 1;
    cfg.fault.crashes.push(CrashEvent { round, node: 0 });
    cfg
}

/// Runs `factory` against `adversary` on the engine and the reference in
/// lockstep; `adversary` is called once per side.
fn check<P, A>(
    g: &Graph,
    byz: &[NodeId],
    factory: impl FnMut(NodeId, &NodeInit) -> P + Copy,
    adversary: impl Fn() -> A,
    cfg: SimConfig,
) -> SimReport<P::Output>
where
    P: Protocol + crate::engine::PhaseSend,
    P::Message: crate::engine::PhaseShared + PartialEq + std::fmt::Debug,
    P::Output: PartialEq + std::fmt::Debug,
    A: Adversary<P>,
{
    let mut engine = Execution::new(g, byz, factory, adversary(), cfg.clone());
    let mut reference = Reference::new(g, byz, factory, adversary(), cfg);
    assert_lockstep(&mut engine, &mut reference)
}

fn graphs() -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    vec![
        cycle(37).unwrap(),
        path(23).unwrap(),
        hnd(96, 8, &mut rng).unwrap(),
        torus2d(9, 8).unwrap(),
        cycle(3).unwrap(),
    ]
}

#[test]
fn engine_matches_reference_across_graphs_and_adversaries() {
    for (seed, g) in graphs().iter().enumerate() {
        let seed = seed as u64;
        let byz = [NodeId(1), NodeId(g.len() as u32 / 2)];
        let report = check(g, &byz, jitter(25), || NullAdversary, config(seed, 40));
        assert_eq!(report.stop_reason, StopReason::AllHalted);
        check(g, &byz, jitter(25), || BeaconSpam, config(seed, 40));
        check(g, &byz, jitter(25), || Rusher, config(seed, 40));
        check(g, &[], jitter(25), || NullAdversary, config(seed, 40));
    }
}

#[test]
fn frontier_relay_matches_reference_with_and_without_faults() {
    for seed in [3u64, 0xBEEF] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(192, 8, &mut rng).unwrap();
        let byz = [NodeId(2), NodeId(90)];
        let cfg = SimConfig {
            stop_when: StopWhen::MaxRoundsOnly,
            ..config(seed, 60)
        };
        // Observed or not, without a fault plan and under one.
        for cfg in [cfg.clone(), with_faults(cfg)] {
            check(&g, &byz, relay, || BeaconSpam, cfg.clone());
            check(&g, &byz, relay, || Rusher, cfg);
        }
    }
}

/// A relay that halts after its one action: the engine's stop check must
/// fire on the reference's round.
#[derive(Debug, Clone)]
struct RelayOnceThenHalt {
    source: bool,
    relayed: bool,
}

impl Protocol for RelayOnceThenHalt {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        let fire = if ctx.round() == 1 {
            self.source
        } else {
            !ctx.inbox().is_empty()
        };
        if fire && !self.relayed {
            ctx.broadcast(Pid(1));
            self.relayed = true;
        }
    }

    fn output(&self) -> Option<u64> {
        self.relayed.then_some(1)
    }

    fn has_halted(&self) -> bool {
        self.relayed
    }
}

#[test]
fn halting_relay_stop_matches_reference() {
    let g = cycle(33).unwrap();
    let factory = |u: NodeId, _: &NodeInit| RelayOnceThenHalt {
        source: u.index() == 0,
        relayed: false,
    };
    let report = check(
        &g,
        &[NodeId(5)],
        factory,
        || NullAdversary,
        config(11, 1_000),
    );
    assert_eq!(report.stop_reason, StopReason::AllHalted);
    // The Byzantine node blocks one direction, so the wave crosses the
    // cycle the long way.
    assert!(report.rounds > 16);
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        crashes: vec![
            CrashEvent { round: 2, node: 11 },
            CrashEvent { round: 2, node: 40 },
            CrashEvent { round: 7, node: 3 },
            // A crashed Byzantine node: the adversary loses it.
            CrashEvent { round: 5, node: 77 },
        ],
        drop_per_mille: 60,
        dup_per_mille: 40,
        delay_per_mille: 50,
        delay_rounds: 2,
    }
}

/// Pool-size invariance against the reference: the engine with and
/// without faults inside explicit pools of 1 (the honest compute as one
/// leaf), 4, and 8 workers (forked across the pool with the `parallel`
/// feature; without it every pool is one thread wide).
#[test]
fn parallel_engine_matches_reference_at_every_pool_size() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = hnd(160, 8, &mut rng).unwrap();
    let byz = [NodeId(5), NodeId(77)];
    let cfg = config(42, 40);
    let faulty = SimConfig {
        fault: chaos_plan(42),
        ..cfg.clone()
    };
    let fixed_budget = SimConfig {
        stop_when: StopWhen::MaxRoundsOnly,
        ..cfg.clone()
    };
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(|| {
            let report = check(&g, &byz, jitter(25), || Rusher, faulty.clone());
            let m = &report.metrics;
            assert!(m.crashed >= 3 && m.dropped > 0 && m.duplicated > 0 && m.delayed > 0);
            check(&g, &byz, jitter(25), || BeaconSpam, cfg.clone());
            check(&g, &byz, jitter(25), || Rusher, cfg.clone());
            check(
                &g,
                &byz,
                |_, _| SprayFlood { acc: 1 },
                || BeaconSpam,
                fixed_budget.clone(),
            );
            check(&g, &byz, jitter(25), || BeaconSpam, faulty.clone());
            check(&g, &byz, relay, || BeaconSpam, fixed_budget.clone());
        });
    }
}

/// One executed round of a full broadcast under faults, as the engine
/// placed it (`"full"`, `"compacted"` or `"spilled"`), whether the
/// messages in flight equal the table's positions, and how many were
/// redelivered.
type Census = Vec<(&'static str, bool, u64)>;

/// Steps the engine alone through `cfg` with every node broadcasting
/// every round (no Byzantine node, no crash) and records each round's
/// [`Census`] entry. Every outbox's slots increase.
fn broadcast_census(g: &Graph, cfg: &SimConfig) -> Census {
    let positions = (0..g.len())
        .map(|v| {
            let mut from: Vec<NodeId> = g.neighbors(NodeId(v as u32)).collect();
            from.dedup();
            from.len() as u64
        })
        .sum::<u64>();
    let mut engine = Execution::new(g, &[], jitter(40), NullAdversary, cfg.clone());
    let mut census = Census::new();
    while engine.finished().is_none() {
        let before = engine.metrics().clone();
        engine.step();
        let m = engine.metrics();
        let in_flight = m.round_trace.last().expect("round stats").honest_messages;
        let (dropped, delayed) = (m.dropped - before.dropped, m.delayed - before.delayed);
        let duplicated = m.duplicated - before.duplicated;
        let redelivered = in_flight + dropped + delayed - duplicated - positions;
        census.push((engine.last_placement(), in_flight == positions, redelivered));
    }
    census
}

/// Full broadcast under drops, duplicates and delays, where every round
/// fills every table position before the fault pass. The census pins
/// that the run covers the three round kinds the fault pass makes: a
/// compacted table round whose messages in flight still equal the
/// table's positions (a hole and an extra in one span — never full), a
/// round whose extras overflow a whole span (which spills to the arena's
/// tail), and redeliveries on both. The engine matches the reference on
/// all of them, in pools of 1, 4 and 8 workers.
#[test]
fn full_broadcast_faults_match_reference_on_every_placement() {
    let g = cycle(12).unwrap();
    let cfg = SimConfig {
        fault: FaultPlan {
            seed: 1,
            drop_per_mille: 40,
            dup_per_mille: 40,
            delay_per_mille: 30,
            delay_rounds: 1,
            ..FaultPlan::default()
        },
        ..config(3, 60)
    };
    let census = broadcast_census(&g, &cfg);
    let saw = |kind: &str, at_positions: bool, redelivered: bool| {
        census
            .iter()
            .any(|&(k, p, r)| k == kind && (p || !at_positions) && (r > 0 || !redelivered))
    };
    assert!(saw("compacted", true, false), "{census:?}");
    assert!(saw("spilled", false, false), "{census:?}");
    assert!(saw("compacted", false, true), "{census:?}");
    assert!(saw("spilled", false, true), "{census:?}");
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(|| check(&g, &[], jitter(40), || NullAdversary, cfg.clone()));
    }
}

/// Mixes send shapes so that every delivery path's `pbase + idx` payload
/// remap shows in inbox order. Odd rounds: a unicast, a broadcast, a
/// second broadcast and a repeat send to one neighbour — four payloads per
/// outbox, with references out of slot order and every slot repeated (each
/// repeat an extra of a compacted round). Even rounds: a distinct unicast to every distinct neighbour
/// in slot order — one payload per send, and a full table round wherever
/// no node is Byzantine.
#[derive(Debug, Clone)]
struct MixedSends {
    acc: u64,
}

impl Protocol for MixedSends {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        for env in ctx.inbox() {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(env.msg.0 ^ env.sender.0);
        }
        let first = ctx.neighbors()[0];
        let last = ctx.neighbors()[ctx.degree() - 1];
        let salt: u64 = ctx.rng().gen();
        if ctx.round() % 2 == 1 {
            ctx.send(last, Pid(self.acc ^ 1));
            ctx.broadcast(Pid(self.acc ^ 2));
            ctx.broadcast(Pid(salt));
            ctx.send(first, Pid(self.acc ^ 3));
        } else {
            let mut prev = None;
            for i in 0..ctx.degree() {
                let to = ctx.neighbors()[i];
                if prev != Some(to) {
                    prev = Some(to);
                    ctx.send(to, Pid(salt ^ i as u64));
                }
            }
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.acc)
    }
}

/// [`MixedSends`] with and without Byzantine nodes (full or compacted
/// rounds, repeats as extras), also under an observing adversary, and
/// under fault plans with a silent and an observing adversary — in pools
/// of 1, 4, and 8 workers. On the torus and on the multigraph alike the
/// even rounds are full table rounds without faults: `send` resolves a
/// doubled neighbour to the first slot of the parallel edge.
#[test]
fn mixed_send_shapes_match_reference() {
    let torus = torus2d(9, 8).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = hnd(160, 8, &mut rng).unwrap();
    let byz = [NodeId(5), NodeId(77)];
    let mixed = |_: NodeId, init: &NodeInit| MixedSends { acc: init.pid.0 };
    let cfg = SimConfig {
        stop_when: StopWhen::MaxRoundsOnly,
        ..config(9, 12)
    };
    let faulty = SimConfig {
        fault: chaos_plan(9),
        ..cfg.clone()
    };
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(|| {
            check(&torus, &[], mixed, || NullAdversary, cfg.clone());
            check(&g, &[], mixed, || NullAdversary, cfg.clone());
            check(&g, &byz, mixed, || BeaconSpam, cfg.clone());
            check(&g, &byz, mixed, || Rusher, cfg.clone());
            check(&g, &byz, mixed, || Rusher, with_faults(cfg.clone()));
            check(&g, &byz, mixed, || BeaconSpam, faulty.clone());
        });
    }
}

/// The rushing view itself: an observing adversary sees, round by round,
/// exactly the `(from, to, msg)` vector the reference builds — in node
/// order, after the fault pass — and never an empty honest round here.
/// It broadcasts once per Byzantine node, within every span's room, so it
/// reads the outboxes of table rounds: full without a plan
/// and under a crash-only plan that crashes nothing, and rewritten in
/// place — duplicates marked, redeliveries behind — under a faulty plan.
#[test]
fn observing_adversary_sees_the_reference_traffic() {
    type Seen = Rc<RefCell<Vec<Vec<(NodeId, NodeId, Pid)>>>>;
    struct Recorder(Seen);
    impl Adversary<JitterFlood> for Recorder {
        fn on_round(
            &mut self,
            view: &FullInfoView<'_, JitterFlood>,
            ctx: &mut ByzantineContext<'_, Pid>,
        ) {
            let seen = view.honest_outgoing().iter();
            let seen = seen.map(|(from, to, &msg)| (from, to, msg)).collect();
            self.0.borrow_mut().push(seen);
            for b in view.byzantine_nodes().collect::<Vec<_>>() {
                ctx.broadcast(b, Pid(7));
            }
        }
    }
    let g = cycle(8).unwrap();
    let byz = [NodeId(3)];
    let faulty = FaultPlan {
        seed: 5,
        crashes: vec![CrashEvent { round: 3, node: 6 }],
        drop_per_mille: 100,
        dup_per_mille: 100,
        delay_per_mille: 100,
        delay_rounds: 2,
    };
    let faulty = SimConfig {
        fault: faulty,
        ..config(5, 6)
    };
    for cfg in [config(5, 6), crash_only(config(5, 6)), faulty] {
        let (engine_seen, reference_seen) = (Seen::default(), Seen::default());
        let mut engine = Execution::new(
            &g,
            &byz,
            jitter(6),
            Recorder(engine_seen.clone()),
            cfg.clone(),
        );
        let mut reference =
            Reference::new(&g, &byz, jitter(6), Recorder(reference_seen.clone()), cfg);
        assert_lockstep(&mut engine, &mut reference);
        assert_eq!(engine_seen.borrow().len(), 6);
        assert!(engine_seen.borrow().iter().all(|round| !round.is_empty()));
        assert_eq!(engine_seen, reference_seen);
    }
}

fn build_graph(kind: u8, n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    match kind % 5 {
        0 => cycle(n).unwrap(),
        1 => path(n).unwrap(),
        2 => hnd(n, 4, &mut rng).unwrap(),
        3 => torus2d(3, n.div_ceil(3).max(3)).unwrap(),
        _ => hnd(n, 8, &mut rng).unwrap(),
    }
}

/// Distinct unicasts, in slot order, to a seeded random subset of the
/// distinct neighbours: table rounds with holes anywhere in the spans.
/// Every fifth round reaches every distinct neighbour (a full round when
/// no node is Byzantine). Every third round a picked doubled neighbour is
/// sent to once per parallel edge: `send` resolves each of those sends to
/// the first slot, so the slot repeats and each repeat is an extra. Every
/// fourth round a node whose last neighbour is doubled instead broadcasts
/// and then sends once more to that neighbour, which repeats the
/// broadcast's last slot — an extra again.
#[derive(Debug, Clone)]
struct SubsetUnicast {
    acc: u64,
}

impl Protocol for SubsetUnicast {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        for env in ctx.inbox() {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(env.msg.0 ^ env.sender.0);
        }
        let degree = ctx.degree();
        let last = ctx.neighbors()[degree - 1];
        let last_doubled = degree > 1 && ctx.neighbors()[degree - 2] == last;
        if ctx.round().is_multiple_of(4) && last_doubled {
            ctx.broadcast(Pid(self.acc));
            ctx.send(last, Pid(!self.acc));
            return;
        }
        let everyone = ctx.round() % 5 == 1;
        let repeated_slots = ctx.round().is_multiple_of(3);
        let mut picked = false;
        for i in 0..ctx.degree() {
            let to = ctx.neighbors()[i];
            // `send` resolves `to` to its first slot, as this does.
            let first_slot = ctx.neighbors().partition_point(|&p| p < to) == i;
            if first_slot {
                picked = everyone || ctx.rng().gen_bool(0.5);
            }
            if picked && (first_slot || repeated_slots) {
                ctx.send(to, Pid(self.acc ^ (i as u64 + 1)));
            }
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.acc)
    }
}

/// Whether some node has a doubled neighbour (a parallel edge).
fn has_doubled_neighbor(g: &Graph) -> bool {
    (0..g.len()).any(|u| {
        let mut neighbors: Vec<NodeId> = g.neighbors(NodeId(u as u32)).collect();
        neighbors.sort_unstable();
        neighbors.windows(2).any(|w| w[0] == w[1])
    })
}

/// [`SubsetUnicast`] with no Byzantine node, silent
/// Byzantine nodes, beacon spam, and a double-sender whose bursts spill
/// spans, in pools of 1 and 4 workers.
fn check_subset_unicasts(g: &Graph, byz: &[NodeId], seed: u64, rounds: u64) {
    let subset = |_: NodeId, init: &NodeInit| SubsetUnicast { acc: init.pid.0 };
    let cfg = SimConfig {
        stop_when: StopWhen::MaxRoundsOnly,
        ..config(seed, rounds)
    };
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(|| {
            check(g, &[], subset, || NullAdversary, cfg.clone());
            check(g, byz, subset, || NullAdversary, cfg.clone());
            check(g, byz, subset, || BeaconSpam, cfg.clone());
            check(g, byz, subset, || DoubleSender, cfg.clone());
        });
    }
}

#[test]
fn subset_unicasts_match_reference_on_every_table_path() {
    // A small H(n, 8) has many parallel edges; the larger one has spans
    // long enough for holes anywhere.
    for (n, seed) in [(16usize, 21u64), (96, 22)] {
        let g = hnd(n, 8, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let byz = [NodeId(3), NodeId(n as u32 / 2)];
        // The multigraph has parallel edges, so the repeated-slot rounds
        // really ran (repeats as extras), not only one send per neighbour.
        assert!(has_doubled_neighbor(&g));
        check_subset_unicasts(&g, &byz, seed, 16);
    }
}

/// One distinct unicast to every distinct neighbour, in reverse slot
/// order: each send owns its table position, so the round needs no extra,
/// but its slots decrease, which only the compacted path places.
#[derive(Debug, Clone)]
struct ReverseUnicast {
    acc: u64,
}

impl Protocol for ReverseUnicast {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        for env in ctx.inbox() {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(env.msg.0 ^ env.sender.0);
        }
        for i in (0..ctx.degree()).rev() {
            let to = ctx.neighbors()[i];
            if i == 0 || ctx.neighbors()[i - 1] != to {
                ctx.send(to, Pid(self.acc ^ (i as u64 + 1)));
            }
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.acc)
    }
}

/// [`ReverseUnicast`] fills every table position each round out of slot
/// order: every round is compacted, with no hole and no extra. The engine
/// matches the reference on it, alone, under beacon spam and under a
/// fault plan, in pools of 1, 4 and 8 workers.
#[test]
fn reverse_slot_unicasts_are_placed_on_the_table() {
    let g = hnd(96, 8, &mut ChaCha8Rng::seed_from_u64(23)).unwrap();
    let byz = [NodeId(4), NodeId(50)];
    let reverse = |_: NodeId, init: &NodeInit| ReverseUnicast { acc: init.pid.0 };
    let cfg = SimConfig {
        stop_when: StopWhen::MaxRoundsOnly,
        ..config(23, 12)
    };
    let mut engine = Execution::new(&g, &[], reverse, NullAdversary, cfg.clone());
    while engine.finished().is_none() {
        engine.step();
        assert_eq!(engine.last_placement(), "compacted");
    }
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(|| {
            check(&g, &[], reverse, || NullAdversary, cfg.clone());
            check(&g, &byz, reverse, || BeaconSpam, cfg.clone());
            check(&g, &byz, reverse, || Rusher, with_faults(cfg.clone()));
        });
    }
}

/// Runs `f` inside explicit pools of 1, 4 and 8 workers.
fn in_pools(f: impl Fn() + Sync) {
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(&f);
    }
}

/// Beacon spam on a forwarding wave: every round every Byzantine node
/// sends each distinct neighbour a fresh beacon of its own, one message
/// per neighbour, so a message placed in the wrong span shows in the
/// inboxes.
struct ForwardingSpam;

impl<P: Protocol<Message = Pid>> Adversary<P> for ForwardingSpam {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let beacon: u64 = ctx.rng().gen();
        for b in view.byzantine_nodes() {
            for to in distinct_neighbors(view.graph(), b) {
                ctx.send(b, to, Pid(beacon ^ u64::from(to.0)));
            }
        }
    }
}

/// Every honest node broadcasts every round and every Byzantine node
/// spams one beacon per distinct neighbour: Byzantine messages place
/// through the table, so each round fills every position once and is
/// full. One Byzantine node reaches a neighbour over a parallel edge, and
/// its one message lands at its single position in that neighbour's span.
/// The engine matches the reference on it in pools of 1, 4 and 8.
#[test]
fn beacon_spam_forwarding_rounds_are_full() {
    let g = hnd(128, 8, &mut ChaCha8Rng::seed_from_u64(25)).unwrap();
    let doubled = |&b: &NodeId| distinct_neighbors(&g, b).len() < g.degree(b);
    let b = (0..g.len() as u32)
        .map(NodeId)
        .find(doubled)
        .expect("a parallel edge");
    let nbrs: Vec<NodeId> = g.neighbors(b).collect();
    let twice = nbrs
        .windows(2)
        .find(|w| w[0] == w[1])
        .expect("a doubled neighbour")[0];
    let byz = [b, NodeId(70)];
    let cfg = config(25, 40);
    let mut engine = Execution::new(&g, &byz, jitter(20), ForwardingSpam, cfg.clone());
    while engine.finished().is_none() {
        engine.step();
        assert_eq!(engine.last_placement(), "full", "round {}", engine.round());
        // `twice` hears each distinct neighbour once, `b` included, in
        // sender-pid order.
        let senders: Vec<Pid> = engine.inbox(twice).iter().map(|e| e.sender).collect();
        assert!(senders.windows(2).all(|w| w[0] < w[1]), "{senders:?}");
        assert_eq!(senders.len(), distinct_neighbors(&g, twice).len());
    }
    assert!(engine.metrics().per_node[b.index()].messages_sent > 0);
    in_pools(|| {
        check(&g, &byz, jitter(20), || ForwardingSpam, cfg.clone());
    });
}

/// The distinct neighbours of `v`, in node order.
fn distinct_neighbors(g: &Graph, v: NodeId) -> Vec<NodeId> {
    let mut nbrs: Vec<NodeId> = g.neighbors(v).collect();
    nbrs.dedup();
    nbrs
}

/// Byzantine node `b`'s repeat target: its first neighbour with a
/// parallel edge (a span with room for one message past its distinct
/// senders), else its first neighbour.
fn repeat_target(g: &Graph, b: NodeId) -> NodeId {
    let nbrs = distinct_neighbors(g, b);
    let roomy = nbrs
        .iter()
        .find(|&&v| distinct_neighbors(g, v).len() < g.degree(v));
    *roomy.unwrap_or(&nbrs[0])
}

/// Each Byzantine node sends one message to every distinct neighbour but
/// one, and a second, different message to its [`repeat_target`]: as
/// many messages as a broadcast, with one repeat and one hole.
struct RepeatForOne;

impl<P: Protocol<Message = Pid>> Adversary<P> for RepeatForOne {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let beacon: u64 = ctx.rng().gen();
        for b in view.byzantine_nodes() {
            let nbrs = distinct_neighbors(view.graph(), b);
            let target = repeat_target(view.graph(), b);
            let skip = if nbrs[0] == target { nbrs[1] } else { nbrs[0] };
            for &to in nbrs.iter().filter(|&&to| to != skip) {
                ctx.send(b, to, Pid(beacon));
            }
            ctx.send(b, target, Pid(!beacon));
        }
    }
}

/// A Byzantine sender sends twice to one neighbour in an otherwise full
/// broadcast round: the round carries exactly as many messages as the
/// table has positions, but the repeat leaves a hole, so the round is
/// compacted, and the repeat, which fits the span of a neighbour with a
/// parallel edge, lands right behind its sender's first message. The
/// engine matches the reference on it in pools of 1, 4 and 8.
#[test]
fn byzantine_repeat_in_a_broadcast_round_is_compacted() {
    let g = hnd(96, 8, &mut ChaCha8Rng::seed_from_u64(24)).unwrap();
    let roomy = (0..g.len() as u32)
        .map(NodeId)
        .find(|&v| distinct_neighbors(&g, v).len() < g.degree(v))
        .expect("H(96, 8) has a parallel edge");
    let b = distinct_neighbors(&g, roomy)[0];
    let target = repeat_target(&g, b);
    assert_eq!(distinct_neighbors(&g, target).len() + 1, g.degree(target));
    let positions: u64 = (0..g.len() as u32)
        .map(|v| distinct_neighbors(&g, NodeId(v)).len() as u64)
        .sum();
    let cfg = config(24, 40);
    let mut engine = Execution::new(&g, &[b], jitter(12), RepeatForOne, cfg.clone());
    while engine.finished().is_none() {
        engine.step();
        let trace = engine.metrics().round_trace.last().expect("round stats");
        assert_eq!(trace.honest_messages + trace.byzantine_messages, positions);
        assert_eq!(
            engine.last_placement(),
            "compacted",
            "round {}",
            engine.round()
        );
        // The target hears `b` twice: the first message, then right
        // behind it the repeat, its complement.
        let inbox = engine.inbox(target).to_vec();
        let repeat = |w: &[Envelope<Pid>]| w[0].sender == w[1].sender && w[1].msg.0 == !w[0].msg.0;
        assert!(inbox.windows(2).any(repeat), "{inbox:?}");
    }
    in_pools(|| {
        check(&g, &[b], jitter(12), || RepeatForOne, cfg.clone());
    });
}

/// The round kinds [`Scheduled`] cycles through, as
/// `Execution::last_placement` names them.
const KINDS: [&str; 5] = ["sparse", "sparse, spilled", "compacted", "spilled", "full"];

/// A de Bruijn sequence over the five [`KINDS`]: every ordered pair of
/// kinds appears once as consecutive entries (cyclically).
const KIND_ORDER: [usize; 25] = [
    0, 0, 1, 0, 2, 0, 3, 0, 4, 1, 1, 2, 1, 3, 1, 4, 2, 2, 3, 2, 4, 3, 3, 4, 4,
];

/// The kind of round `round` (1-based). Rounds `r` and `r + 2` place into
/// one arena generation, so each generation steps through [`KIND_ORDER`].
fn scheduled_kind(round: u64) -> usize {
    KIND_ORDER[((round - 1) / 2) as usize % KIND_ORDER.len()]
}

/// Node count of the [`Scheduled`] graph; the Byzantine nodes sit past
/// the node indices the first 60 rounds name.
const SCHEDULED_N: usize = 96;

/// Sends each round's [`scheduled_kind`] on H(96, 8): a sparse round is
/// one unicast from every twelfth node, a spilled sparse round adds nine
/// sends from node `round % n` to one neighbour (more than its span has
/// room for), a dense round is a broadcast from three nodes in four, a
/// spilled dense round a broadcast from every node plus eight more sends
/// from node `round % n`, and a full round a broadcast from every node.
#[derive(Debug, Clone)]
struct Scheduled {
    index: usize,
    acc: u64,
}

impl Protocol for Scheduled {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        for env in ctx.inbox() {
            self.acc = self
                .acc
                .wrapping_mul(31)
                .wrapping_add(env.msg.0 ^ env.sender.0);
        }
        let round = ctx.round();
        let spiller = self.index == round as usize % SCHEDULED_N;
        let first = ctx.neighbors()[0];
        let (broadcast, spill) = match scheduled_kind(round) {
            0 | 1 => {
                if (self.index + round as usize).is_multiple_of(12) {
                    let to = ctx.neighbors()[self.acc as usize % ctx.degree()];
                    ctx.send(to, Pid(self.acc));
                }
                (false, if scheduled_kind(round) == 1 { 9 } else { 0 })
            }
            2 => (!self.index.is_multiple_of(4), 0),
            3 => (true, 8),
            _ => (true, 0),
        };
        if broadcast {
            ctx.broadcast(Pid(self.acc ^ round));
        }
        if spiller {
            for copy in 0..spill {
                ctx.send(first, Pid(self.acc ^ copy));
            }
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.acc)
    }
}

/// The Byzantine side of [`Scheduled`]: on sparse rounds each Byzantine
/// node sends twice to its first neighbour (a repeat on the sparse
/// path), on every other round it broadcasts once.
struct ScheduledSpam;

impl<P: Protocol<Message = Pid>> Adversary<P> for ScheduledSpam {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let beacon: u64 = ctx.rng().gen();
        for b in view.byzantine_nodes() {
            if scheduled_kind(view.round()) <= 1 {
                let first = view.graph().neighbors(b).next().expect("a neighbour");
                ctx.send(b, first, Pid(beacon));
                ctx.send(b, first, Pid(!beacon));
            } else {
                ctx.broadcast(b, Pid(beacon));
            }
        }
    }
}

/// [`Scheduled`] under [`ScheduledSpam`] places every round as its kind
/// says, and over 54 rounds each arena generation follows every round
/// kind with every other (and itself): a sparse round re-marks its
/// generation's last sparse spans, or the whole plane after any other
/// kind. The engine matches the reference on the schedule without
/// faults, and under a plan that drops, duplicates and delays (whose
/// redeliveries reach spans no fresh sparse send reaches), in pools of
/// 1, 4 and 8.
#[test]
fn every_round_kind_follows_every_other_in_each_generation() {
    let g = hnd(SCHEDULED_N, 8, &mut ChaCha8Rng::seed_from_u64(26)).unwrap();
    let byz = [NodeId(70), NodeId(90)];
    let scheduled = |u: NodeId, init: &NodeInit| Scheduled {
        index: u.index(),
        acc: init.pid.0,
    };
    let cfg = SimConfig {
        stop_when: StopWhen::MaxRoundsOnly,
        ..config(26, 54)
    };
    let mut engine = Execution::new(&g, &byz, scheduled, ScheduledSpam, cfg.clone());
    let mut placed = Vec::new();
    while engine.finished().is_none() {
        engine.step();
        let kind = KINDS[scheduled_kind(engine.round())];
        assert_eq!(engine.last_placement(), kind, "round {}", engine.round());
        placed.push(kind);
    }
    for parity in 0..2 {
        let generation: Vec<&str> = placed.iter().skip(parity).step_by(2).copied().collect();
        let pairs: std::collections::BTreeSet<(&str, &str)> =
            generation.windows(2).map(|w| (w[0], w[1])).collect();
        assert_eq!(
            pairs.len(),
            KINDS.len() * KINDS.len(),
            "generation {parity}"
        );
    }
    let faulty = SimConfig {
        fault: FaultPlan {
            seed: 26,
            drop_per_mille: 60,
            dup_per_mille: 60,
            delay_per_mille: 150,
            delay_rounds: 2,
            ..FaultPlan::default()
        },
        ..cfg.clone()
    };
    in_pools(|| {
        check(&g, &byz, scheduled, || ScheduledSpam, cfg.clone());
        check(&g, &byz, scheduled, || ScheduledSpam, faulty.clone());
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Same-sender ties on both traffic classes: honest multi-sends with
    /// distinct payloads, and Byzantine double sends, silent or observing
    /// (bit 0 of `shape`), with or without faults (bit 1 adds a plan that
    /// drops, duplicates and delays).
    #[test]
    fn multi_send_ties_match_reference(
        seed in 0u64..1_000_000,
        n in 3usize..40,
        kind in 0u8..4,
        byz_count in 0usize..4,
        rounds in 1u64..10,
        shape in 0u8..4,
    ) {
        let g = build_graph(kind, n, seed);
        let n = g.len();
        let byz: Vec<NodeId> = (0..byz_count.min(n - 1))
            .map(|i| NodeId((i * n / byz_count.max(1)) as u32))
            .collect();
        let cfg = SimConfig { stop_when: StopWhen::MaxRoundsOnly, ..config(seed, rounds) };
        let cfg = if shape & 2 != 0 { with_faults(cfg) } else { cfg };
        let spray = |_: NodeId, init: &NodeInit| SprayFlood { acc: init.pid.0 };
        if shape & 1 != 0 {
            check(&g, &byz, spray, || Rusher, cfg);
        } else {
            check(&g, &byz, spray, || BeaconSpam, cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random-subset unicasts on every graph family, H(n, 8) included,
    /// each at `n` and at `n + 64` nodes: past the honest compute's
    /// 64-node leaf floor, so the pool of four really forks.
    #[test]
    fn subset_unicasts_match_reference(
        seed in 0u64..1_000_000,
        n in 3usize..40,
        kind in 0u8..5,
        byz_count in 1usize..4,
        rounds in 1u64..10,
    ) {
        for n in [n, n + 64] {
            let g = build_graph(kind, n, seed);
            let n = g.len();
            let byz: Vec<NodeId> = (0..byz_count.min(n - 1))
                .map(|i| NodeId((i * n / byz_count) as u32))
                .collect();
            check_subset_unicasts(&g, &byz, seed, rounds);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Arbitrary valid fault plans, with crashes of honest and Byzantine
    /// nodes, against both a silent and an observing adversary.
    #[test]
    fn fault_plans_match_reference(
        fault_seed in any::<u64>(),
        drop in 0u16..300,
        dup in 0u16..300,
        delay in 0u16..300,
        delay_rounds in 1u64..4,
        crash_mask in 0u8..16,
    ) {
        let crashes: Vec<CrashEvent> = (0..4)
            .filter(|k| crash_mask & (1 << k) != 0)
            .map(|k| CrashEvent { round: 2 + k as u64, node: (k * 19) as u32 })
            .collect();
        let plan = FaultPlan {
            seed: fault_seed,
            crashes,
            drop_per_mille: drop,
            dup_per_mille: dup,
            delay_per_mille: delay,
            delay_rounds,
        };
        plan.validate().expect("generated plans are valid");
        let g = hnd(80, 8, &mut ChaCha8Rng::seed_from_u64(13)).unwrap();
        let byz = [NodeId(2), NodeId(38)];
        let cfg = SimConfig { fault: plan, ..config(13, 30) };
        // The fault seed's low bit picks the adversary.
        if fault_seed & 1 == 1 {
            check(&g, &byz, jitter(20), || Rusher, cfg);
        } else {
            check(&g, &byz, jitter(20), || BeaconSpam, cfg);
        }
    }
}
