//! Simulator round-throughput: the substrate cost underneath every
//! experiment.
//!
//! Reported as **throughput in rounds/sec** (criterion `Throughput`
//! elements = rounds per iteration), so the perf trajectory of the engine
//! is one number per graph size. The `reuse_buffers` benchmarks measure
//! the steady-state round loop alone (one long-lived simulation stepped
//! in place — the zero-alloc hot path). `reuse_buffers` runs the
//! **outbox feed** of the engine's one message plane (the benign
//! `NullAdversary` licenses it: it never observes traffic and there is no
//! fault plan); `reuse_buffers_flat` runs the **flat feed** under an
//! adversary that observes the round's traffic (and otherwise stays
//! silent), the price of materializing the node-order vector a rushing
//! adversary reads; `reuse_buffers_faulty` adds a mixed fault plan to the
//! flat feed. On this all-broadcast workload every `reuse_buffers` round
//! is a **full** table round (no hole, no Byzantine traffic);
//! `reuse_buffers_spam` (n = 1024 and 4096) puts Theorem 2's budget of
//! non-observing Byzantine spammers on the outbox feed, so every round is
//! a **compacted** table round: hole marking, node-order fill, compaction,
//! the Byzantine append and the sort of the Byzantine-adjacent spans. The
//! `full_execution` benchmarks include construction, pid
//! assignment, and buffer warm-up. With `--features parallel` the same
//! workload additionally runs as `reuse_buffers_parallel`: the honest
//! compute fans out over the pool (`BCOUNT_POOL_THREADS` sizes it) and
//! the merge and delivery run serially, as in every other lane.
//!
//! The `engine_phases` group decomposes one round. `merge` is honest
//! compute + the flat feed's node-order merge with delivery skipped
//! (traffic dropped), under the same observing adversary. Outbox-feed
//! phases: `compute` is the honest phase alone (traffic dropped),
//! `count_pass` adds the two-pass merge's per-destination counting pass
//! (forced — the production table paths skip it),
//! `placement` measures the prefix-sum placement alone from a counts
//! snapshot (messages placed/sec), and `arena_scatter` is the whole
//! *production* outbox-feed round minus the empty adversary phase — on
//! this all-broadcast workload that is the full table path (merge scan +
//! table fill; no count, no placement, no compaction, no sort), so the
//! production scatter cost is `arena_scatter` minus `compute` (minus the
//! scan share of `count_pass`), while the forced-count delta `count_pass`
//! minus `compute` prices the two-pass fallback's extra pass. The two
//! measure different paths — don't difference `arena_scatter` against
//! `count_pass`.

use bcount_bench::runners::{network, spread_byzantine, theorem2_budget};
use bcount_daemon::Server;
use bcount_graph::NodeId;
use bcount_sim::{
    Adversary, ByzantineContext, CrashEvent, FaultPlan, FullInfoView, MessageSize, NodeContext,
    NullAdversary, Protocol, SimConfig, Simulation, StopWhen,
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

fn chatter_config(parallel: bool) -> SimConfig {
    SimConfig {
        max_rounds: u64::MAX,
        stop_when: StopWhen::MaxRoundsOnly,
        parallel,
        ..SimConfig::default()
    }
}

/// Silent, but it keeps the default `observes_traffic() == true` and
/// reads the round's in-flight traffic — which selects the flat feed.
struct Observer;

impl Adversary<Chatter> for Observer {
    fn on_round(
        &mut self,
        view: &FullInfoView<'_, Chatter>,
        _ctx: &mut ByzantineContext<'_, Counter>,
    ) {
        criterion::black_box(view.honest_outgoing().len());
    }
}

/// Broadcasts a fresh counter from every Byzantine node every round, and
/// declares that it never observes the traffic — which keeps the outbox
/// feed, with Byzantine traffic within the table paths' budget (one
/// message per Byzantine-incident edge).
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

    fn observes_traffic(&self) -> bool {
        false
    }
}

fn warmed<'g, A: Adversary<Chatter>>(
    g: &'g bcount_graph::Graph,
    byzantine: &[NodeId],
    cfg: SimConfig,
    adversary: A,
) -> Simulation<&'g bcount_graph::Graph, Chatter, A> {
    let mut sim = Simulation::new(g, byzantine, |_, _| Chatter(0), adversary, cfg);
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
                let mut sim = Simulation::new(
                    &g,
                    &[],
                    |_, _| Chatter(0),
                    NullAdversary,
                    SimConfig {
                        max_rounds: ROUNDS,
                        ..chatter_config(false)
                    },
                );
                sim.run()
            });
        });

        // The steady-state hot path: one long-lived simulation, buffers
        // warmed, stepped ROUNDS more rounds per iteration. The outbox
        // feed (NullAdversary licenses it).
        let mut sim = warmed(&g, &[], chatter_config(false), NullAdversary);
        group.bench_with_input(BenchmarkId::new("reuse_buffers", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    sim.step();
                }
                sim.round()
            });
        });

        // Same loop on the flat feed: an observing adversary needs the
        // node-order traffic vector.
        let mut fsim = warmed(&g, &[], chatter_config(false), Observer);
        group.bench_with_input(BenchmarkId::new("reuse_buffers_flat", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    fsim.step();
                }
                fsim.round()
            });
        });

        // The fault-injection overhead lane: the same steady-state loop
        // under a mixed drop/dup/delay plan with two early crashes. A
        // non-empty plan selects the flat feed, so the honest
        // denominator for this lane is `reuse_buffers_flat` — the delta
        // is the per-message fault roll plus the pending-delivery queue.
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
                ..chatter_config(false)
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

        // The outbox feed with Byzantine traffic: Theorem 2's budget of
        // spammers spread over the id space, as in Algorithm 2's
        // beacon-spam cells. Their silent honest slots leave holes, so
        // every round takes the compacted table path (fill, compaction,
        // Byzantine append, sort of the Byzantine-adjacent spans).
        if n >= 1024 {
            let byz = spread_byzantine(n, theorem2_budget(n, 0.05));
            let mut bsim = warmed(&g, &byz, chatter_config(false), Spammer(0));
            group.bench_with_input(BenchmarkId::new("reuse_buffers_spam", n), &n, |b, _| {
                b.iter(|| {
                    for _ in 0..ROUNDS {
                        bsim.step();
                    }
                    bsim.round()
                });
            });
        }

        #[cfg(feature = "parallel")]
        {
            let mut psim = warmed(&g, &[], chatter_config(true), NullAdversary);
            group.bench_with_input(BenchmarkId::new("reuse_buffers_parallel", n), &n, |b, _| {
                b.iter(|| {
                    for _ in 0..ROUNDS {
                        psim.step();
                    }
                    psim.round()
                });
            });
        }
    }

    // Scale tier: the compact-plane steady state at 2^16 and 2^20 nodes,
    // outbox feed only — the small-n lanes above already price the flat
    // feed, and one long-lived simulation per size keeps the group's
    // footprint bounded. Fewer rounds per
    // iteration than the small lanes: a full-broadcast round at n = 2^20
    // moves ~8.4M messages, so 4 rounds is already a meaty iteration.
    // With BCOUNT_BENCH_JSON set, the artifact's top-level `peak_rss_kb`
    // records the memory high-water mark these lanes establish.
    for &(n, rounds) in &[(65_536usize, 10u64), (1_048_576, 4)] {
        let g = network(n, 8, n as u64);
        group.throughput(Throughput::Elements(rounds));
        let mut sim = warmed(&g, &[], chatter_config(false), NullAdversary);
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

/// Decomposes one round into its phases; see the module docs.
fn bench_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_phases");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &[1024usize, 4096] {
        let g = network(n, 8, n as u64);

        // compute + the flat feed's merge only, ROUNDS rounds per
        // iteration.
        let mut msim = warmed(&g, &[], chatter_config(false), Observer);
        group.throughput(Throughput::Elements(ROUNDS));
        group.bench_with_input(BenchmarkId::new("merge", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    msim.bench_compute_merge();
                    msim.drop_round_traffic();
                }
                msim.round()
            });
        });

        // --- Outbox-feed decomposition. ---------------------------------
        // compute alone: the honest phase with the round's outboxes
        // discarded — the baseline every other arena phase adds onto.
        let mut csim = warmed(&g, &[], chatter_config(false), NullAdversary);
        group.bench_with_input(BenchmarkId::new("compute", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    csim.bench_compute_only();
                    csim.drop_round_traffic();
                }
                csim.round()
            });
        });

        // compute + the arena count pass (two-pass merge, pass 1 — forced
        // even though the production table path skips it for this
        // broadcast workload).
        let mut ksim = warmed(&g, &[], chatter_config(false), NullAdversary);
        group.bench_with_input(BenchmarkId::new("count_pass", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    ksim.bench_count_pass();
                    ksim.drop_round_traffic();
                }
                ksim.round()
            });
        });

        // The whole production outbox-feed round minus the (empty) adversary
        // phase — the full table path on this workload (see
        // the module docs for what may and may not be differenced).
        let mut ssim = warmed(&g, &[], chatter_config(false), NullAdversary);
        group.bench_with_input(BenchmarkId::new("arena_scatter", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    ssim.bench_compute_merge();
                    ssim.bench_deliver_staged();
                }
                ssim.round()
            });
        });

        // Prefix-sum placement alone, from a snapshotted count-pass
        // tally: tallies → exact spans, reported per message placed.
        let mut psim = warmed(&g, &[], chatter_config(false), NullAdversary);
        psim.bench_compute_merge();
        let counts = psim.bench_snapshot_counts();
        let placed: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        psim.drop_round_traffic();
        group.throughput(Throughput::Elements(placed));
        group.bench_with_input(BenchmarkId::new("placement", n), &n, |b, _| {
            b.iter(|| psim.bench_arena_placement(&counts));
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

criterion_group!(benches, bench_engine, bench_phases, bench_daemon);
criterion_main!(benches);
