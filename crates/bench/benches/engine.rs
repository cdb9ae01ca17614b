//! Simulator round-throughput: the substrate cost underneath every
//! experiment.
//!
//! Reported as **throughput in rounds/sec** (criterion `Throughput`
//! elements = rounds per iteration), so the perf trajectory of the engine
//! is one number per graph size. The `reuse_buffers` benchmarks measure
//! the steady-state round loop alone (one long-lived simulation stepped
//! in place — the zero-alloc hot path). `reuse_buffers` runs without a
//! fault plan: on this all-broadcast workload every round is a **full**
//! table round (no hole, no Byzantine traffic). `reuse_buffers_faulty`
//! adds a mixed fault plan, whose fault pass rewrites the outboxes in
//! place: its rounds are compacted table rounds, the duplicates and
//! redeliveries appended behind their spans, and a span they overflow
//! spilled to the arena's tail. `reuse_buffers_spam` (n = 1024 and
//! 4096) puts Theorem 2's budget of Byzantine spammers on the engine, so
//! every round is a **compacted** table round: hole marking, node-order
//! fill, compaction, the Byzantine append and the sort of the spans it
//! reaches. The
//! `full_execution` benchmarks include construction, pid
//! assignment, and buffer warm-up. With `--features parallel` every lane
//! runs at the pool's width (`BCOUNT_POOL_THREADS` sizes it): a wider
//! pool forks the honest compute across its workers, and the merge and
//! delivery run serially either way.

use bcount_bench::runners::{network, spread_byzantine, theorem2_budget};
use bcount_daemon::Server;
use bcount_graph::NodeId;
use bcount_sim::{
    Adversary, ByzantineContext, CrashEvent, Execution, FaultPlan, FullInfoView, MessageSize,
    NodeContext, NullAdversary, Protocol, SimConfig, StopWhen,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

const ROUNDS: u64 = 50;

/// A protocol that broadcasts a counter every round, forever — pure
/// engine load.
struct Chatter(u64);

#[derive(Clone, Copy)]
struct Counter(#[allow(dead_code)] u64);

impl MessageSize for Counter {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        64
    }
}

impl Protocol for Chatter {
    type Message = Counter;
    type Output = ();
    fn on_round(&mut self, ctx: &mut NodeContext<'_, Counter>) {
        self.0 += 1;
        ctx.broadcast(Counter(self.0));
    }
    fn output(&self) -> Option<()> {
        None
    }
}

fn chatter_config() -> SimConfig {
    SimConfig {
        max_rounds: u64::MAX,
        stop_when: StopWhen::MaxRoundsOnly,
        ..SimConfig::default()
    }
}

/// Broadcasts a fresh counter from every Byzantine node every round:
/// Byzantine traffic within the table paths' budget (one message per
/// Byzantine-incident edge).
struct Spammer(u64);

impl Adversary<Chatter> for Spammer {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, Chatter>,
        ctx: &mut ByzantineContext<'_, Counter>,
    ) {
        self.0 += 1;
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, Counter(self.0));
        }
    }
}

fn warmed<'g, A: Adversary<Chatter>>(
    g: &'g bcount_graph::Graph,
    byzantine: &[NodeId],
    cfg: SimConfig,
    adversary: A,
) -> Execution<&'g bcount_graph::Graph, Chatter, A> {
    let mut sim = Execution::new(g, byzantine, |_, _| Chatter(0), adversary, cfg);
    for _ in 0..10 {
        sim.step();
    }
    sim
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rounds");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for &n in &[256usize, 1024, 4096] {
        let g = network(n, 8, n as u64);
        group.throughput(Throughput::Elements(ROUNDS));

        // Construction + warm-up + ROUNDS rounds, fresh each iteration.
        group.bench_with_input(BenchmarkId::new("full_execution", n), &n, |b, _| {
            b.iter(|| {
                let mut sim = Execution::new(
                    &g,
                    &[],
                    |_, _| Chatter(0),
                    NullAdversary,
                    SimConfig {
                        max_rounds: ROUNDS,
                        ..chatter_config()
                    },
                );
                sim.run()
            });
        });

        // The steady-state hot path: one long-lived simulation, buffers
        // warmed, stepped ROUNDS more rounds per iteration.
        let mut sim = warmed(&g, &[], chatter_config(), NullAdversary);
        group.bench_with_input(BenchmarkId::new("reuse_buffers", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    sim.step();
                }
                sim.round()
            });
        });

        // The fault-injection overhead lane: the same steady-state loop
        // under a mixed drop/dup/delay plan with two early crashes. Its
        // denominator is `reuse_buffers`: the delta is the per-send fault
        // roll, the pending-delivery queue, and the compacted table rounds
        // the faults leave (with spilled spans where the extras overflow
        // one).
        let mut xsim = warmed(
            &g,
            &[],
            SimConfig {
                fault: FaultPlan {
                    seed: 0xC4A05,
                    crashes: vec![
                        CrashEvent { round: 2, node: 3 },
                        CrashEvent { round: 5, node: 17 },
                    ],
                    drop_per_mille: 50,
                    dup_per_mille: 25,
                    delay_per_mille: 25,
                    delay_rounds: 2,
                },
                ..chatter_config()
            },
            NullAdversary,
        );
        group.bench_with_input(BenchmarkId::new("reuse_buffers_faulty", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    xsim.step();
                }
                xsim.round()
            });
        });

        // Byzantine traffic: Theorem 2's budget of
        // spammers spread over the id space, as in Algorithm 2's
        // beacon-spam cells. Their silent honest slots leave holes, so
        // every round takes the compacted table path (fill, compaction,
        // Byzantine append, sort of the spans it reaches).
        if n >= 1024 {
            let byz = spread_byzantine(n, theorem2_budget(n, 0.05));
            let mut bsim = warmed(&g, &byz, chatter_config(), Spammer(0));
            group.bench_with_input(BenchmarkId::new("reuse_buffers_spam", n), &n, |b, _| {
                b.iter(|| {
                    for _ in 0..ROUNDS {
                        bsim.step();
                    }
                    bsim.round()
                });
            });
        }
    }

    // Scale tier: the compact-plane steady state at 2^16 and 2^20 nodes,
    // without faults — the small-n lanes above already price the fault
    // pass, and one long-lived simulation per size keeps the group's
    // footprint bounded. Fewer rounds per
    // iteration than the small lanes: a full-broadcast round at n = 2^20
    // moves ~8.4M messages, so 4 rounds is already a meaty iteration.
    // With BCOUNT_BENCH_JSON set, the artifact's top-level `peak_rss_kb`
    // records the memory high-water mark these lanes establish.
    for &(n, rounds) in &[(65_536usize, 10u64), (1_048_576, 4)] {
        let g = network(n, 8, n as u64);
        group.throughput(Throughput::Elements(rounds));
        let mut sim = warmed(&g, &[], chatter_config(), NullAdversary);
        group.bench_with_input(BenchmarkId::new("reuse_buffers", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..rounds {
                    sim.step();
                }
                sim.round()
            });
        });
    }
    group.finish();
}

/// The `engine_daemon` group: `bcountd`'s mixed query+round lane
/// (ROADMAP open item 3) — how many
/// queries/sec the session server answers while the engine underneath
/// sustains rounds/sec. All three lanes drive a live n = 4096 CONGEST
/// session under a beacon-spam adversary (sustained ~13k msgs/round, so
/// the round loop is genuinely busy) through the full wire path —
/// request line in, response line out, `Server::handle_line` — the same
/// bytes a socket client would move.
///
/// * `rounds_only` — one `session.step {rounds:1}` per iteration
///   (rounds/sec through the daemon; the round-loop denominator).
/// * `mixed_1r4q` — one step + four `session.query` per iteration
///   (queries/sec served *at* sustained rounds/sec; throughput counts
///   the 4 queries).
/// * `queries_only` — pure cached reads against the parked session
///   (queries/sec ceiling; never touches the round loop).
fn bench_daemon(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_daemon");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    let n = 4096usize;
    let mut server = Server::new();
    let created = server.handle_line(&format!(
        r#"{{"id":1,"method":"session.create","params":{{"n":{n},"protocol":"congest","adversary":"beacon-spam","byzantine":64,"seed":42,"max_rounds":{}}}}}"#,
        u64::MAX
    ));
    assert!(
        created.contains("\"result\""),
        "bench session create failed: {created}"
    );
    let step_line = r#"{"id":2,"method":"session.step","params":{"session":1,"rounds":1}}"#;
    let query_line = r#"{"id":3,"method":"session.query","params":{"session":1}}"#;
    // Warm the buffers past the construction spike, like `reuse_buffers`.
    server.handle_line(r#"{"id":4,"method":"session.step","params":{"session":1,"rounds":10}}"#);

    group.throughput(Throughput::Elements(1));
    group.bench_with_input(BenchmarkId::new("rounds_only", n), &n, |b, _| {
        b.iter(|| server.handle_line(step_line).len());
    });

    group.throughput(Throughput::Elements(4));
    group.bench_with_input(BenchmarkId::new("mixed_1r4q", n), &n, |b, _| {
        b.iter(|| {
            let mut bytes = server.handle_line(step_line).len();
            for _ in 0..4 {
                bytes += server.handle_line(query_line).len();
            }
            bytes
        });
    });

    group.throughput(Throughput::Elements(1));
    group.bench_with_input(BenchmarkId::new("queries_only", n), &n, |b, _| {
        b.iter(|| server.handle_line(query_line).len());
    });

    // `recovery` — replay rounds/sec: price of rebuilding sessions from
    // a `--state-dir` journal at startup vs executing them live
    // (`rounds_only` is the live denominator). One iteration = one full
    // `Server::open_durable` over a journal holding a create plus 50
    // one-round steps of the same n = 4096 beacon-spam cell, fsync off
    // (replay cost, not disk cost). Throughput counts the 50 replayed
    // rounds.
    {
        use bcount_daemon::server::DurabilityOptions;
        use bcount_daemon::FsyncPolicy;

        let state_dir =
            std::env::temp_dir().join(format!("bcountd-bench-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let opts = DurabilityOptions {
            state_dir: state_dir.clone(),
            fsync: FsyncPolicy::Off,
            checkpoint_every: u64::MAX,
        };
        let replay_rounds = 50u64;
        let mut seeded = Server::open_durable(&opts, Default::default(), false)
            .expect("bench state dir must open");
        let created = seeded.handle_line(&format!(
            r#"{{"id":1,"method":"session.create","params":{{"n":{n},"protocol":"congest","adversary":"beacon-spam","byzantine":64,"seed":42,"max_rounds":{}}}}}"#,
            u64::MAX
        ));
        assert!(
            created.contains("\"result\""),
            "bench recovery create failed: {created}"
        );
        for _ in 0..replay_rounds {
            seeded.handle_line(
                r#"{"id":2,"method":"session.step","params":{"session":1,"rounds":1}}"#,
            );
        }
        drop(seeded);

        group.throughput(Throughput::Elements(replay_rounds));
        group.bench_with_input(BenchmarkId::new("recovery", n), &n, |b, _| {
            b.iter(|| {
                let server = Server::open_durable(&opts, Default::default(), false)
                    .expect("recovery must succeed");
                let stats = *server.recovery_stats().expect("durable server has stats");
                assert_eq!(stats.replayed_rounds, replay_rounds);
                stats.replayed_rounds
            });
        });
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    group.finish();
}

criterion_group!(benches, bench_engine, bench_daemon);
criterion_main!(benches);
