//! The engine against the reference executor, inbox by inbox at every
//! round and on the final [`SimReport`]: cycle, path, H(n, d), and torus
//! graphs; silent, beacon-spamming, double-sending, and observing
//! adversaries; same-sender multi-send ties; mixed unicast/broadcast/repeat
//! sends sharing payloads; unicasts to random neighbour subsets (the
//! outbox feed's compacted table path, and repeated slots of parallel
//! edges); proptest-generated fault plans; event-driven relays; and worker
//! pools of 1, 4, and 8 threads.

use super::{assert_lockstep, Reference};
use crate::adversary::{Adversary, ByzantineContext, FullInfoView, NullAdversary};
use crate::engine::{NodeInit, SimConfig, SimReport, Simulation, StopReason, StopWhen};
use crate::fault::{CrashEvent, FaultPlan};
use crate::idspace::Pid;
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

/// Beacon spam without observation: every Byzantine node broadcasts a
/// fresh random beacon on two rounds out of three, twice on every fifth
/// round — overflowing the table paths' Byzantine budget (one message per
/// Byzantine-incident edge), so the outbox feed's exact two-pass path runs
/// too.
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

    fn observes_traffic(&self) -> bool {
        false
    }
}

/// Two fresh messages per Byzantine-incident edge every round, without
/// observing: always over the table paths' Byzantine budget, so every
/// round with a Byzantine node that has a neighbour takes the outbox
/// feed's two-pass path.
struct DoubleSender;

impl<P: Protocol<Message = Pid>> Adversary<P> for DoubleSender {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let beacon: u64 = ctx.rng().gen();
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, Pid(beacon));
            ctx.broadcast(b, Pid(beacon ^ 1));
        }
    }

    fn observes_traffic(&self) -> bool {
        false
    }
}

/// A rushing adversary that reads the round's in-flight honest traffic
/// and its own inboxes, outbids the largest value in flight, and sends a
/// second copy to one neighbour (a same-sender tie).
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
    let mut engine = Simulation::new(g, byz, factory, adversary(), cfg.clone());
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
fn frontier_relay_matches_reference_on_both_feeds() {
    for seed in [3u64, 0xBEEF] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(192, 8, &mut rng).unwrap();
        let byz = [NodeId(2), NodeId(90)];
        let cfg = SimConfig {
            stop_when: StopWhen::MaxRoundsOnly,
            ..config(seed, 60)
        };
        // BeaconSpam leaves the outbox feed licensed (with its two-pass
        // overflow path)...
        let mut engine = Simulation::new(&g, &byz, relay, BeaconSpam, cfg.clone());
        let mut reference = Reference::new(&g, &byz, relay, BeaconSpam, cfg.clone());
        assert_lockstep(&mut engine, &mut reference);
        // ...while an observing adversary selects the flat feed.
        let mut engine = Simulation::new(&g, &byz, relay, Rusher, cfg.clone());
        let mut reference = Reference::new(&g, &byz, relay, Rusher, cfg);
        assert_lockstep(&mut engine, &mut reference);
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

/// Pool-size invariance against the reference: the parallel engine
/// (parallel honest compute on both feeds) inside explicit pools of 1, 4,
/// and 8 workers. Without the `parallel` feature the flag is a no-op and this
/// checks the serial engine.
#[test]
fn parallel_engine_matches_reference_at_every_pool_size() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = hnd(160, 8, &mut rng).unwrap();
    let byz = [NodeId(5), NodeId(77)];
    let cfg = SimConfig {
        parallel: true,
        ..config(42, 40)
    };
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

/// Mixes send shapes so that every delivery path's `pbase + idx` payload
/// remap shows in inbox order. Odd rounds: a unicast, a broadcast, a
/// second broadcast and a repeat send to one neighbour — four payloads per
/// outbox, with references out of slot order (non-monotone: the two-pass
/// path). Even rounds: a distinct unicast to every distinct neighbour in
/// slot order — one payload per send, and a full table round wherever
/// every `send` resolves to a first slot and no node is Byzantine.
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

/// [`MixedSends`] on both feeds — the outbox feed with and without
/// Byzantine nodes (table full or compacted, two-pass) and the flat feed
/// with an observing adversary and under a fault plan — in pools of 1, 4,
/// and 8 workers. The torus has no parallel edges, so its even rounds are
/// full table rounds (on a multigraph `send` may resolve a doubled
/// neighbour to a repeated slot of the parallel edge, which the table
/// cannot place: such a round takes the two-pass path).
#[test]
fn mixed_send_shapes_match_reference_on_both_feeds() {
    let torus = torus2d(9, 8).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = hnd(160, 8, &mut rng).unwrap();
    let byz = [NodeId(5), NodeId(77)];
    let mixed = |_: NodeId, init: &NodeInit| MixedSends { acc: init.pid.0 };
    let cfg = SimConfig {
        parallel: true,
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
            check(&g, &byz, mixed, || BeaconSpam, faulty.clone());
        });
    }
}

/// The rushing view itself: an observing adversary sees, round by round,
/// exactly the `(from, to, msg)` vector the reference builds — in node
/// order, after the fault pass — and never an empty honest round here.
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
    for plan in [FaultPlan::default(), faulty] {
        let cfg = SimConfig {
            fault: plan,
            ..config(5, 6)
        };
        let (engine_seen, reference_seen) = (Seen::default(), Seen::default());
        let mut engine = Simulation::new(
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
/// no node is Byzantine). A doubled neighbour whose `send` resolves to a
/// repeated slot of the parallel edge is skipped, except on every third
/// round, where it is sent to as well — which the table cannot place, so
/// those rounds take the two-pass path. Every fourth round a node whose
/// last neighbour is doubled instead broadcasts and then sends once more
/// to that neighbour: where `send` resolves it to the repeated slot, the
/// slots still strictly increase but reach one neighbour twice.
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
        let mut prev = None;
        for i in 0..ctx.degree() {
            let to = ctx.neighbors()[i];
            if prev == Some(to) {
                continue;
            }
            prev = Some(to);
            // `send` resolves `to` by the same binary search.
            let first_slot = ctx.neighbors().binary_search(&to) == Ok(i);
            let picked = everyone || ctx.rng().gen_bool(0.5);
            if picked && (first_slot || repeated_slots) {
                ctx.send(to, Pid(self.acc ^ (i as u64 + 1)));
            }
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.acc)
    }
}

/// Whether some node's `send` to a doubled neighbour resolves to a
/// repeated slot of the parallel edge, under the pid assignment `pids`.
fn send_reaches_a_repeated_slot(g: &Graph, pids: &[Pid]) -> bool {
    (0..g.len()).any(|u| {
        let mut neighbors: Vec<Pid> = g
            .neighbors(NodeId(u as u32))
            .map(|w| pids[w.index()])
            .collect();
        neighbors.sort_unstable();
        neighbors.iter().any(|to| {
            let first = neighbors.partition_point(|p| p < to);
            neighbors.binary_search(to) != Ok(first)
        })
    })
}

/// [`SubsetUnicast`] on the outbox feed with no Byzantine node, silent
/// Byzantine nodes, beacon spam, and a double-sender over the Byzantine
/// budget, in pools of 1 and 4 workers.
fn check_subset_unicasts(g: &Graph, byz: &[NodeId], seed: u64, rounds: u64) -> Vec<Pid> {
    let subset = |_: NodeId, init: &NodeInit| SubsetUnicast { acc: init.pid.0 };
    let cfg = SimConfig {
        parallel: true,
        stop_when: StopWhen::MaxRoundsOnly,
        ..config(seed, rounds)
    };
    let mut pids = Vec::new();
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(|| {
            pids = check(g, &[], subset, || NullAdversary, cfg.clone()).pids;
            check(g, byz, subset, || NullAdversary, cfg.clone());
            check(g, byz, subset, || BeaconSpam, cfg.clone());
            check(g, byz, subset, || DoubleSender, cfg.clone());
        });
    }
    pids
}

#[test]
fn subset_unicasts_match_reference_on_every_table_path() {
    // A small H(n, 8) has many parallel edges; the larger one has spans
    // long enough for holes anywhere.
    for (n, seed) in [(16usize, 21u64), (96, 22)] {
        let g = hnd(n, 8, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let byz = [NodeId(3), NodeId(n as u32 / 2)];
        let pids = check_subset_unicasts(&g, &byz, seed, 16);
        // The multigraph's repeated-slot rounds really ran (the two-pass
        // fallback), not only the table rounds.
        assert!(send_reaches_a_repeated_slot(&g, &pids));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Same-sender ties on both traffic classes: honest multi-sends with
    /// distinct payloads, and Byzantine double sends, silent or observing.
    #[test]
    fn multi_send_ties_match_reference(
        seed in 0u64..1_000_000,
        n in 3usize..40,
        kind in 0u8..4,
        byz_count in 0usize..4,
        rounds in 1u64..10,
        observe: bool,
    ) {
        let g = build_graph(kind, n, seed);
        let n = g.len();
        let byz: Vec<NodeId> = (0..byz_count.min(n - 1))
            .map(|i| NodeId((i * n / byz_count.max(1)) as u32))
            .collect();
        let cfg = SimConfig { stop_when: StopWhen::MaxRoundsOnly, ..config(seed, rounds) };
        let spray = |_: NodeId, init: &NodeInit| SprayFlood { acc: init.pid.0 };
        if observe {
            check(&g, &byz, spray, || Rusher, cfg);
        } else {
            check(&g, &byz, spray, || BeaconSpam, cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random-subset unicasts on every graph family, H(n, 8) included.
    #[test]
    fn subset_unicasts_match_reference(
        seed in 0u64..1_000_000,
        n in 3usize..40,
        kind in 0u8..5,
        byz_count in 1usize..4,
        rounds in 1u64..10,
    ) {
        let g = build_graph(kind, n, seed);
        let n = g.len();
        let byz: Vec<NodeId> = (0..byz_count.min(n - 1))
            .map(|i| NodeId((i * n / byz_count) as u32))
            .collect();
        check_subset_unicasts(&g, &byz, seed, rounds);
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
