//! Determinism regression: an execution inside a pool of 2, 4 or 8
//! workers must produce **bit-identical** [`SimReport`]s to the same
//! execution inside a one-thread pool — same pids, rounds, metrics,
//! outputs, decided rounds, halt flags, and stop reason — across seeds,
//! topologies and fault plans.
//!
//! The honest compute phase always goes through the pool's splitter: a
//! one-thread pool runs it as one leaf over every node, and a wider pool
//! forks it across the workers; the merge, the fault pass and delivery
//! stay serial. `NoisyEcho` runs without a fault plan, and `NoisyRusher`,
//! which reads the in-flight honest traffic, runs without one, under a
//! crash-only plan that crashes nothing (one crash past the last round),
//! and under a plan that drops, duplicates and delays. The same
//! workload shapes are also diffed round by round against the crate's
//! reference executor in its unit tests (`src/reference/tests.rs`), which
//! an integration test cannot reach.
//!
//! Without the `parallel` feature every pool is one thread wide and every
//! comparison degenerates to one leaf against one leaf; run with
//! `cargo test -p bcount-sim --features parallel` (CI does, under
//! `BCOUNT_POOL_THREADS` ∈ {1, 4, 8}) for the real forked comparison.

use bcount_graph::gen::{cycle, hnd, torus2d};
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Flood-max with per-round random jitter, so the test also proves the
/// per-node RNG streams are split identically across both paths.
#[derive(Debug, Clone)]
struct JitterFlood {
    best: Pid,
    noise: u64,
    rounds_left: u32,
}

impl Protocol for JitterFlood {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        let inbox_max = ctx.inbox().iter().map(|e| *e.msg).max();
        if let Some(m) = inbox_max {
            if m > self.best {
                self.best = m;
            }
        }
        // Fold randomness into the state every round: any divergence in
        // RNG scheduling between pool widths shows up here.
        self.noise = self
            .noise
            .wrapping_mul(31)
            .wrapping_add(rand::Rng::gen::<u64>(ctx.rng()));
        let best = self.best;
        ctx.broadcast(best);
        self.rounds_left = self.rounds_left.saturating_sub(1);
    }

    fn output(&self) -> Option<u64> {
        (self.rounds_left == 0).then_some(self.best.0 ^ self.noise)
    }

    fn has_halted(&self) -> bool {
        self.rounds_left == 0
    }
}

/// A rushing adversary with its own randomness that never reads
/// `honest_outgoing`. The double broadcast every fifth round gives the
/// spans it reaches more messages than their degree, so those rounds spill
/// spans to the arena's tail.
struct NoisyEcho;

impl<P: Protocol<Message = Pid>> Adversary<P> for NoisyEcho {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        if view.round().is_multiple_of(3) {
            return;
        }
        let fake = Pid(rand::Rng::gen(ctx.rng()));
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, fake);
            if view.round().is_multiple_of(5) {
                ctx.broadcast(b, Pid(fake.0.wrapping_add(1)));
            }
        }
    }
}

/// A rushing adversary that outbids the largest value in flight — it
/// reads `honest_outgoing`: the outboxes in place, as the fault pass
/// rewrote them, then the redeliveries.
struct NoisyRusher;

impl<P: Protocol<Message = Pid>> Adversary<P> for NoisyRusher {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let best = view.honest_outgoing().iter().map(|(_, _, m)| m.0).max();
        let bid = Pid(best.unwrap_or(0) ^ rand::Rng::gen::<u64>(ctx.rng()));
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, bid);
        }
    }
}

/// A crash-only plan whose one crash lies past [`run`]'s last round: the
/// crash pass runs, and no fault randomness is drawn.
fn crash_only() -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashEvent { round: 61, node: 0 }],
        ..FaultPlan::default()
    }
}

/// A plan that drops, duplicates and delays, seeded by `seed`.
fn faulty(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_per_mille: 60,
        dup_per_mille: 60,
        delay_per_mille: 60,
        delay_rounds: 2,
        ..FaultPlan::default()
    }
}

/// Runs 60 rounds at most under `fault`.
fn run<A: Adversary<JitterFlood>>(
    g: &Graph,
    byz: &[NodeId],
    seed: u64,
    adversary: A,
    fault: FaultPlan,
) -> SimReport<u64> {
    let mut sim = Execution::new(
        g,
        byz,
        |_, init| JitterFlood {
            best: init.pid,
            noise: init.pid.0,
            rounds_left: 40,
        },
        adversary,
        SimConfig {
            seed,
            max_rounds: 60,
            record_round_stats: true,
            fault,
            ..SimConfig::default()
        },
    );
    sim.run()
}

/// Runs `body` inside a fresh pool of `threads` workers.
fn in_pool<R: Send>(threads: usize, body: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build test pool")
        .install(body)
}

fn assert_identical(a: &SimReport<u64>, b: &SimReport<u64>) {
    assert_eq!(a.pids, b.pids, "pid assignment diverged");
    assert_eq!(a.rounds, b.rounds, "round count diverged");
    assert_eq!(a.metrics, b.metrics, "metrics diverged");
    assert_eq!(a.outputs, b.outputs, "outputs diverged");
    assert_eq!(a.decided_round, b.decided_round, "decided rounds diverged");
    assert_eq!(a.halted, b.halted, "halt flags diverged");
    assert_eq!(a.is_byzantine, b.is_byzantine, "byzantine sets diverged");
    assert_eq!(a.stop_reason, b.stop_reason, "stop reason diverged");
}

/// A four-worker pool against a one-thread pool, with and without faults.
fn assert_parallel_matches_serial(g: &Graph, byz: &[NodeId], seed: u64) {
    let none = FaultPlan::default;
    let serial = in_pool(1, || run(g, byz, seed, NoisyEcho, none()));
    assert_identical(
        &serial,
        &in_pool(4, || run(g, byz, seed, NoisyEcho, none())),
    );
    for plan in [none(), crash_only(), faulty(seed)] {
        let serial = in_pool(1, || run(g, byz, seed, NoisyRusher, plan.clone()));
        assert_identical(
            &serial,
            &in_pool(4, || run(g, byz, seed, NoisyRusher, plan.clone())),
        );
    }
}

#[test]
fn parallel_matches_serial_on_expanders() {
    for seed in [1u64, 0xC0DE, 987_654_321] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(192, 8, &mut rng).unwrap();
        assert_parallel_matches_serial(&g, &[NodeId(3), NodeId(77), NodeId(120)], seed);
    }
}

#[test]
fn parallel_matches_serial_on_cycles_and_tori() {
    for (seed, g) in [
        (7u64, cycle(257).unwrap()),
        (8u64, torus2d(12, 11).unwrap()),
        (9u64, cycle(3).unwrap()),
    ] {
        assert_parallel_matches_serial(&g, &[NodeId(1)], seed);
    }
}

#[test]
fn parallel_matches_serial_without_byzantine_nodes() {
    assert_parallel_matches_serial(&cycle(100).unwrap(), &[], 5);
}

/// Pool-size invariance: without a plan, under a crash-only plan and
/// under drops, duplicates and delays, executed inside explicit worker
/// pools of size 2, 4, and 8 (more workers than the compute phase's
/// 64-node leaves can occupy on this graph, so some deques stay starved),
/// must reproduce the one-thread pool's transcript (one leaf, no fork)
/// bit-for-bit. Combined with the CI matrix (`BCOUNT_POOL_THREADS` ∈
/// {1, 4, 8} over the whole workspace) this pins the pool's degenerate,
/// concurrent, and oversubscribed configurations.
#[test]
fn parallel_is_pool_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = hnd(160, 8, &mut rng).unwrap();
    let byz = [NodeId(5), NodeId(80)];
    let echo = in_pool(1, || run(&g, &byz, 42, NoisyEcho, FaultPlan::default()));
    let rusher = in_pool(1, || run(&g, &byz, 42, NoisyRusher, crash_only()));
    let faulted = in_pool(1, || run(&g, &byz, 42, NoisyRusher, faulty(42)));
    let m = &faulted.metrics;
    assert!(m.dropped > 0 && m.duplicated > 0 && m.delayed > 0);
    for threads in [2usize, 4, 8] {
        in_pool(threads, || {
            assert_identical(&echo, &run(&g, &byz, 42, NoisyEcho, FaultPlan::default()));
            assert_identical(&rusher, &run(&g, &byz, 42, NoisyRusher, crash_only()));
            assert_identical(&faulted, &run(&g, &byz, 42, NoisyRusher, faulty(42)));
        });
    }
}

/// An event-driven relay: outside round 1 it acts **only** when its
/// inbox holds traffic. Sources seed a TTL-stamped wave in round 1;
/// receivers fold randomness into their state, decrement the TTL, and
/// relay, so activity decays between the adversary's injections and most
/// nodes are silent in most rounds. The TTL is clamped so the adversary's
/// random 64-bit fakes cannot flood the network forever.
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
        self.noise = self
            .noise
            .wrapping_mul(31)
            .wrapping_add(rand::Rng::gen::<u64>(ctx.rng()));
        if ttl > 0 {
            ctx.broadcast(Pid(ttl - 1));
        }
    }

    fn output(&self) -> Option<u64> {
        (self.heard > 0).then_some(self.heard ^ self.noise)
    }
}

/// Runs the relay for its whole budget. The report carries each node's
/// first decision; the relay keeps folding traffic and randomness into
/// its output after that, so the live outputs at the end are returned
/// too, and they digest every round.
fn run_relay(g: &Graph, byz: &[NodeId], seed: u64) -> (SimReport<u64>, Vec<Option<u64>>) {
    let mut sim = Execution::new(
        g,
        byz,
        |u, init| FrontierRelay {
            source: u.index().is_multiple_of(17),
            heard: 0,
            noise: init.pid.0,
        },
        NoisyEcho,
        SimConfig {
            seed,
            max_rounds: 60,
            stop_when: StopWhen::MaxRoundsOnly,
            record_round_stats: true,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    let live = g
        .nodes()
        .map(|u| sim.protocol(u).and_then(Protocol::output))
        .collect();
    (report, live)
}

/// The event-driven relay without faults, with most outboxes empty
/// in most rounds: a pool of four workers reproduces the one-thread
/// pool's transcript, per-round decided/halted census included, and
/// every node's live output at the end.
#[test]
fn frontier_relay_is_pool_size_invariant() {
    for seed in [3u64, 0xBEEF] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(192, 8, &mut rng).unwrap();
        let byz = [NodeId(2), NodeId(90)];
        let (serial, serial_live) = in_pool(1, || run_relay(&g, &byz, seed));
        assert_eq!(serial.rounds, 60, "fixed-budget run");
        assert_ne!(
            serial.outputs, serial_live,
            "the relay keeps changing its output after its first decision"
        );
        let (pooled, pooled_live) = in_pool(4, || run_relay(&g, &byz, seed));
        assert_identical(&serial, &pooled);
        assert_eq!(serial_live, pooled_live, "live outputs diverged");
    }
}

#[test]
fn parallel_step_interleaves_with_serial_state_reads() {
    // step()-level equivalence, not just end-to-end: every intermediate
    // round agrees between a one-thread and a four-thread pool, down to
    // per-node state and raw inbox bytes. 160 nodes split into several
    // 64-node-floor leaves at four workers.
    let g = cycle(160).unwrap();
    let factory = |_: NodeId, init: &NodeInit| JitterFlood {
        best: init.pid,
        noise: init.pid.0,
        rounds_left: 20,
    };
    let cfg = SimConfig {
        seed: 99,
        max_rounds: 25,
        ..SimConfig::default()
    };
    let mut serial = Execution::new(&g, &[NodeId(9)], factory, NoisyEcho, cfg.clone());
    let mut parallel = Execution::new(&g, &[NodeId(9)], factory, NoisyEcho, cfg);
    for _ in 0..20 {
        in_pool(1, || serial.step());
        in_pool(4, || parallel.step());
        for u in 0..160 {
            let u = NodeId(u);
            let s = serial.protocol(u).map(|p| (p.best, p.noise));
            let p = parallel.protocol(u).map(|p| (p.best, p.noise));
            assert_eq!(s, p, "node {u} state diverged at round {}", serial.round());
            assert_eq!(
                serial.inbox(u),
                parallel.inbox(u),
                "node {u} inbox diverged at round {}",
                serial.round()
            );
        }
    }
}
