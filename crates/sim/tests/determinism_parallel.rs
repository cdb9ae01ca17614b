//! Determinism regression: the parallel engine must produce
//! **bit-identical** [`SimReport`]s to the serial engine — same pids,
//! rounds, metrics, outputs, decided rounds, halt flags, and stop reason —
//! across seeds, topologies, both message-plane feeds, **and worker-pool
//! sizes** 1, 2, 4, and 8.
//!
//! `SimConfig::parallel` fans the honest compute phase out over the pool;
//! the merge and delivery stay serial on both feeds. `NoisyEcho` declares
//! `observes_traffic() == false` and so runs the outbox feed; `NoisyRusher`
//! reads the in-flight honest traffic and so runs the flat feed. The same
//! workload shapes are also diffed round by round against the crate's
//! reference executor in its unit tests (`src/reference/tests.rs`), which
//! an integration test cannot reach.
//!
//! Without the `parallel` feature the flag is an ignored no-op and every
//! comparison degenerates to serial-versus-serial; run with
//! `cargo test -p bcount-sim --features parallel` (CI does, under
//! `BCOUNT_POOL_THREADS` ∈ {1, 4, 8}) for the real cross-path comparison.

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
        // RNG scheduling between serial and parallel shows up here.
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
/// `honest_outgoing`, and says so — the outbox feed. The double broadcast
/// every fifth round overflows the table paths' Byzantine budget (one
/// message per Byzantine-incident edge), forcing those rounds through the
/// exact two-pass merge.
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

    fn observes_traffic(&self) -> bool {
        false
    }
}

/// A rushing adversary that outbids the largest value in flight — it
/// reads `honest_outgoing`, so the engine runs the flat feed.
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

fn run<A: Adversary<JitterFlood>>(
    g: &Graph,
    byz: &[NodeId],
    seed: u64,
    parallel: bool,
    adversary: A,
) -> SimReport<u64> {
    let mut sim = Simulation::new(
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
            parallel,
            ..SimConfig::default()
        },
    );
    sim.run()
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

/// Parallel against serial on both feeds.
fn assert_parallel_matches_serial(g: &Graph, byz: &[NodeId], seed: u64) {
    let serial = run(g, byz, seed, false, NoisyEcho);
    assert_identical(&serial, &run(g, byz, seed, true, NoisyEcho));
    let serial = run(g, byz, seed, false, NoisyRusher);
    assert_identical(&serial, &run(g, byz, seed, true, NoisyRusher));
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

/// Pool-size invariance: both feeds, executed inside explicit worker
/// pools of size 1 (degenerate — every `join` inlines), 2, 4, and 8 (more
/// workers than the compute phase's 64-node leaves can occupy on this
/// graph, so some deques stay starved), must reproduce the serial transcript
/// bit-for-bit. Combined with the CI matrix (`BCOUNT_POOL_THREADS` ∈
/// {1, 4, 8} over the whole workspace) this pins the pool's degenerate,
/// concurrent, and oversubscribed configurations.
#[test]
fn parallel_is_pool_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = hnd(160, 8, &mut rng).unwrap();
    let byz = [NodeId(5), NodeId(80)];
    let echo = run(&g, &byz, 42, false, NoisyEcho);
    let rusher = run(&g, &byz, 42, false, NoisyRusher);
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build test pool");
        pool.install(|| {
            assert_identical(&echo, &run(&g, &byz, 42, true, NoisyEcho));
            assert_identical(&rusher, &run(&g, &byz, 42, true, NoisyRusher));
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

fn run_relay(g: &Graph, byz: &[NodeId], seed: u64, parallel: bool) -> SimReport<u64> {
    Simulation::new(
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
            parallel,
            ..SimConfig::default()
        },
    )
    .run()
}

/// The event-driven relay on the outbox feed, with most outboxes empty
/// in most rounds: `parallel: true` in pools of one and four workers
/// reproduces the serial transcript, per-round decided/halted census
/// included.
#[test]
fn frontier_relay_is_pool_size_invariant() {
    for seed in [3u64, 0xBEEF] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(192, 8, &mut rng).unwrap();
        let byz = [NodeId(2), NodeId(90)];
        let serial = run_relay(&g, &byz, seed, false);
        assert_eq!(serial.rounds, 60, "fixed-budget run");
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool");
            pool.install(|| {
                let pooled = run_relay(&g, &byz, seed, true);
                assert_identical(&serial, &pooled);
            });
        }
    }
}

#[test]
fn parallel_step_interleaves_with_serial_state_reads() {
    // step()-level equivalence, not just end-to-end: every intermediate
    // round agrees between the serial and parallel engines, down to
    // per-node state and raw inbox bytes.
    let g = cycle(64).unwrap();
    let factory = |_: NodeId, init: &NodeInit| JitterFlood {
        best: init.pid,
        noise: init.pid.0,
        rounds_left: 20,
    };
    let cfg = |parallel| SimConfig {
        seed: 99,
        max_rounds: 25,
        parallel,
        ..SimConfig::default()
    };
    let mut serial = Simulation::new(&g, &[NodeId(9)], factory, NoisyEcho, cfg(false));
    let mut parallel = Simulation::new(&g, &[NodeId(9)], factory, NoisyEcho, cfg(true));
    for _ in 0..20 {
        serial.step();
        parallel.step();
        for u in 0..64 {
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
