//! Fault-plane regression: a seeded [`FaultPlan`] must produce
//! **bit-identical** [`SimReport`]s in a one-thread pool (one compute
//! leaf) and in pools of 2, 4 and 8 workers (forked compute with the
//! `parallel` feature) *with faults engaged*, crash-stop semantics
//! must keep honest survivors deciding when the crashed set stays within
//! the paper's bound, and the fault counters must account exactly.
//!
//! A non-empty plan selects the engine's flat feed (the fault pass rolls
//! over the node-order traffic vector), whatever the adversary declares;
//! the suite proves the dedicated fault stream is untouched by the
//! compute schedule. The same workload shapes are also diffed round by
//! round against the crate's reference executor in its unit tests
//! (`src/reference/tests.rs`), which an integration test cannot reach.

use bcount_graph::gen::{cycle, hnd};
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Flood-max with per-round RNG jitter folded into the output: any
/// divergence in per-node stream splitting, message ordering, or fault
/// rolls shows up in the final state.
#[derive(Debug, Clone)]
struct FaultFlood {
    best: Pid,
    noise: u64,
    heard: u64,
    rounds_left: u32,
}

impl Protocol for FaultFlood {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        self.heard += ctx.inbox().len() as u64;
        if let Some(m) = ctx.inbox().iter().map(|e| *e.msg).max() {
            if m > self.best {
                self.best = m;
            }
        }
        self.noise = self
            .noise
            .wrapping_mul(31)
            .wrapping_add(rand::Rng::gen::<u64>(ctx.rng()));
        let best = self.best;
        ctx.broadcast(best);
        self.rounds_left = self.rounds_left.saturating_sub(1);
    }

    fn output(&self) -> Option<u64> {
        (self.rounds_left == 0).then_some(self.best.0 ^ self.noise ^ self.heard)
    }

    fn has_halted(&self) -> bool {
        self.rounds_left == 0
    }
}

/// A rushing adversary with its own RNG stream. Without a fault plan the
/// engine would run the outbox feed; the non-empty plan selects the flat
/// feed.
struct NoisyEcho;

impl<P: Protocol<Message = Pid>> Adversary<P> for NoisyEcho {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        if view.round().is_multiple_of(3) {
            return;
        }
        let fake = Pid(rand::Rng::gen(ctx.rng()));
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, fake);
        }
    }
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        crashes: vec![
            CrashEvent { round: 2, node: 11 },
            CrashEvent { round: 2, node: 40 },
            CrashEvent { round: 7, node: 3 },
            // Crash a Byzantine node too: the adversary loses it.
            CrashEvent { round: 5, node: 77 },
        ],
        drop_per_mille: 60,
        dup_per_mille: 40,
        delay_per_mille: 50,
        delay_rounds: 2,
    }
}

fn run(g: &Graph, byz: &[NodeId], seed: u64, plan: FaultPlan) -> SimReport<u64> {
    let mut sim = Execution::new(
        g,
        byz,
        |_, init| FaultFlood {
            best: init.pid,
            noise: init.pid.0,
            heard: 0,
            rounds_left: 30,
        },
        NoisyEcho,
        SimConfig {
            seed,
            max_rounds: 45,
            record_round_stats: true,
            fault: plan,
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

/// Faults engaged, a four-worker pool byte-identical to a one-thread pool.
#[test]
fn faulty_parallel_matches_serial() {
    for seed in [1u64, 0xFA17, 31_337] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = hnd(128, 8, &mut rng).unwrap();
        let byz = [NodeId(7), NodeId(77)];
        let reference = in_pool(1, || run(&g, &byz, seed, chaos_plan(seed)));
        // The plan really injected something (otherwise the matrix
        // trivially passes by never exercising the fault pipeline).
        assert!(reference.metrics.crashed >= 3, "crashes must engage");
        assert!(
            reference.metrics.dropped > 0
                && reference.metrics.duplicated > 0
                && reference.metrics.delayed > 0,
            "all three link faults must engage: {:?}",
            (
                reference.metrics.dropped,
                reference.metrics.duplicated,
                reference.metrics.delayed
            )
        );
        let parallel = in_pool(4, || run(&g, &byz, seed, chaos_plan(seed)));
        assert_identical(&reference, &parallel);
    }
}

/// Pool-size invariance with faults engaged: explicit worker pools of
/// size 2, 4, and 8 reproduce the one-thread pool's transcript.
#[test]
fn faulty_runs_are_pool_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let g = hnd(128, 8, &mut rng).unwrap();
    let byz = [NodeId(5), NodeId(77)];
    let reference = in_pool(1, || run(&g, &byz, 99, chaos_plan(99)));
    for threads in [2usize, 4, 8] {
        let other = in_pool(threads, || run(&g, &byz, 99, chaos_plan(99)));
        assert_identical(&reference, &other);
    }
}

/// Two runs under the same plan agree; changing only the fault seed
/// changes the transcript (the stream is really live); changing the
/// protocol seed under a crash-only plan leaves the crash schedule
/// intact. The fault stream and the master stream are independent.
#[test]
fn fault_stream_is_independent_and_seeded() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let g = hnd(96, 8, &mut rng).unwrap();
    let byz = [NodeId(7)];
    let a = run(&g, &byz, 4, chaos_plan(123));
    let b = run(&g, &byz, 4, chaos_plan(123));
    assert_identical(&a, &b);
    let c = run(&g, &byz, 4, chaos_plan(124));
    assert_ne!(
        a.outputs, c.outputs,
        "a different fault seed must produce a different transcript"
    );
    // Crash-only plans draw nothing from the stream, so the fault seed
    // is irrelevant to the transcript.
    let crash_only = |seed| FaultPlan {
        seed,
        crashes: vec![CrashEvent { round: 3, node: 9 }],
        ..FaultPlan::default()
    };
    let d = run(&g, &byz, 4, crash_only(1));
    let e = run(&g, &byz, 4, crash_only(2));
    assert_identical(&d, &e);
    assert_eq!(d.metrics.crashed, 1);
}

/// A protocol that decides once its value has been stable for a fixed
/// window — the crash-quorum vehicle. Crashed nodes are outside the
/// stop census, so the honest survivors' decisions end the run.
#[derive(Debug, Clone)]
struct StableMax {
    best: Pid,
    stable: u32,
    need: u32,
    decided: bool,
}

impl Protocol for StableMax {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        if self.decided {
            return;
        }
        let before = self.best;
        if let Some(m) = ctx.inbox().iter().map(|e| *e.msg).max() {
            if m > self.best {
                self.best = m;
            }
        }
        if self.best == before && ctx.round() > 1 {
            self.stable += 1;
        } else {
            self.stable = 0;
        }
        if self.stable >= self.need {
            self.decided = true;
        } else {
            let best = self.best;
            ctx.broadcast(best);
        }
    }

    fn output(&self) -> Option<u64> {
        self.decided.then_some(self.best.0)
    }

    fn has_halted(&self) -> bool {
        self.decided
    }
}

/// Crash-quorum: crash f nodes early on an expander with f well under
/// the paper's β·n Byzantine budget; the honest survivors must still
/// reach [`StopReason::AllDecided`] and agree on one value.
#[test]
fn honest_survivors_decide_under_crash_quorum() {
    const N: usize = 48;
    const F: u32 = 4; // crashed ≤ βn for β = 1/12 < 1/3
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let g = hnd(N, 8, &mut rng).unwrap();
    let crashes: Vec<CrashEvent> = (0..F)
        .map(|k| CrashEvent {
            round: 2 + u64::from(k % 2),
            node: k * 11,
        })
        .collect();
    let plan = FaultPlan {
        crashes: crashes.clone(),
        ..FaultPlan::default()
    };
    let mut sim = Execution::new(
        &g,
        &[],
        |_, init| StableMax {
            best: init.pid,
            stable: 0,
            need: 12,
            decided: false,
        },
        NullAdversary,
        SimConfig {
            seed: 21,
            max_rounds: 400,
            stop_when: StopWhen::AllHonestDecided,
            fault: plan,
            ..SimConfig::default()
        },
    );
    let report = sim.run();
    assert_eq!(report.stop_reason, StopReason::AllDecided);
    assert_eq!(report.metrics.crashed, u64::from(F));
    let crashed: Vec<usize> = crashes.iter().map(|ev| ev.node as usize).collect();
    let survivor_outputs: Vec<u64> = (0..N)
        .filter(|u| !crashed.contains(u))
        .map(|u| report.outputs[u].expect("survivor decided"))
        .collect();
    assert_eq!(survivor_outputs.len(), N - F as usize);
    assert!(
        survivor_outputs.windows(2).all(|w| w[0] == w[1]),
        "survivors must agree on one value"
    );
    // Crashed nodes stopped before deciding.
    for &u in &crashed {
        assert_eq!(report.outputs[u], None, "crashed node {u} must not decide");
    }
}

/// Exact fault accounting on a deterministic (rate-1000) plan: drop
/// empties every inbox, duplicate doubles it, and delay shifts first
/// arrival by exactly `delay_rounds`.
#[test]
fn counters_and_delay_semantics_are_exact() {
    let g = cycle(8).unwrap();
    let run_with = |plan: FaultPlan| {
        let mut sim = Execution::new(
            &g,
            &[],
            |_, init| FaultFlood {
                best: init.pid,
                noise: init.pid.0,
                heard: 0,
                rounds_left: 6,
            },
            NullAdversary,
            SimConfig {
                seed: 5,
                max_rounds: 12,
                fault: plan,
                ..SimConfig::default()
            },
        );
        sim.run()
    };

    // Per-node send metrics record the attempt at merge time (before the
    // fault pass), so a rate-1000 plan gives exact counter identities
    // against `messages_total`.
    let total = |r: &SimReport<u64>| r.metrics.total_messages(0..8);

    // Everything dropped: the dropped counter is exactly every send.
    let all_drop = run_with(FaultPlan {
        drop_per_mille: 1000,
        ..FaultPlan::default()
    });
    assert!(all_drop.metrics.dropped > 0);
    assert_eq!(all_drop.metrics.dropped, total(&all_drop));
    assert_eq!(all_drop.metrics.duplicated + all_drop.metrics.delayed, 0);

    // Everything duplicated: the duplicated counter is exactly every
    // send (each counted once; the extra copy is a delivery, not a send).
    let all_dup = run_with(FaultPlan {
        dup_per_mille: 1000,
        ..FaultPlan::default()
    });
    assert!(all_dup.metrics.duplicated > 0);
    assert_eq!(all_dup.metrics.duplicated, total(&all_dup));
    assert_eq!(all_dup.metrics.dropped + all_dup.metrics.delayed, 0);

    // Everything delayed by 2: every send is withheld exactly once
    // (redelivered messages are never re-faulted), and the flood still
    // completes.
    let all_delay = run_with(FaultPlan {
        delay_per_mille: 1000,
        delay_rounds: 2,
        ..FaultPlan::default()
    });
    assert!(all_delay.metrics.delayed > 0);
    assert_eq!(all_delay.metrics.delayed, total(&all_delay));
    assert_eq!(all_delay.metrics.dropped + all_delay.metrics.duplicated, 0);
}

/// First-arrival timing: with every message delayed `k` rounds, a
/// neighbor first hears a round-1 broadcast at round `2 + k` instead of
/// round 2.
#[test]
fn delay_shifts_first_arrival_exactly() {
    /// Broadcasts once in round 1; everyone records when they first hear.
    #[derive(Debug, Clone)]
    struct PingOnce {
        source: bool,
        first_heard: Option<u64>,
    }
    impl Protocol for PingOnce {
        type Message = Pid;
        type Output = u64;
        fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
            if self.first_heard.is_none() && !ctx.inbox().is_empty() {
                self.first_heard = Some(ctx.round());
            }
            if self.source && ctx.round() == 1 {
                ctx.broadcast(Pid(1));
            }
        }
        fn output(&self) -> Option<u64> {
            self.first_heard
        }
    }
    let g = cycle(5).unwrap();
    let run_with = |k: u64| {
        let plan = if k == 0 {
            FaultPlan::default()
        } else {
            FaultPlan {
                delay_per_mille: 1000,
                delay_rounds: k,
                ..FaultPlan::default()
            }
        };
        let mut sim = Execution::new(
            &g,
            &[],
            |u, _| PingOnce {
                source: u.index() == 0,
                first_heard: None,
            },
            NullAdversary,
            SimConfig {
                seed: 9,
                max_rounds: 10,
                stop_when: StopWhen::MaxRoundsOnly,
                fault: plan,
                ..SimConfig::default()
            },
        );
        let report = sim.run();
        // Node 1 neighbors node 0 in the cycle.
        report.outputs[1].expect("neighbor heard the ping")
    };
    let base = run_with(0);
    assert_eq!(base, 2, "undelayed ping heard next round");
    for k in [1u64, 2, 3] {
        assert_eq!(run_with(k), base + k, "delay must shift arrival by k");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Property: an arbitrary valid plan yields identical reports in a
    /// one-thread pool and in a four-worker pool.
    #[test]
    fn arbitrary_plans_are_schedule_invariant(
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
        let plan = FaultPlan { seed: fault_seed, crashes, drop_per_mille: drop, dup_per_mille: dup, delay_per_mille: delay, delay_rounds };
        plan.validate().expect("generated plans are valid");
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = hnd(80, 8, &mut rng).unwrap();
        let byz = [NodeId(2)];
        let a = in_pool(1, || run(&g, &byz, 13, plan.clone()));
        let b = in_pool(4, || run(&g, &byz, 13, plan));
        assert_identical(&a, &b);
    }
}
