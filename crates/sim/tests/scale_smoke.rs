//! Large-`n` smoke test for the scale tier: builds an H(n, 8) random
//! regular graph at n = 65536 through the streaming CSR path, runs a few
//! rounds through the compact-plane engine without a fault plan, under a
//! crash-only plan that crashes nothing (which must agree with it), and
//! under a plan that drops, duplicates and delays, and holds the
//! process's peak RSS under a budget.
//!
//! Ignored by default (it is a memory test, and peak RSS is a
//! process-global high-water mark that other tests in the same process
//! would pollute). CI runs it in its own process:
//!
//! ```text
//! cargo test --release -p bcount-sim --test scale_smoke -- --ignored
//! ```
//!
//! The RSS ceiling is `BCOUNT_SCALE_RSS_BUDGET_KB` (kilobytes), default
//! 2 GiB — generous against the ~60 MB the run actually needs, but tight
//! enough to catch a return of the `Vec<Vec<_>>` construction spike or a
//! widened message plane. On platforms without `/proc/self/status` the
//! ceiling check degrades to a no-op.

use bcount_graph::gen::hnd;
use bcount_graph::NodeId;
use bcount_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Event-driven relay wave: sources launch a TTL-stamped token in round 1;
/// receivers decrement and forward, and silent nodes do nothing.
#[derive(Debug, Clone)]
struct Wave {
    source: bool,
    heard: u64,
}

impl Protocol for Wave {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        if ctx.round() == 1 {
            if self.source {
                ctx.broadcast(Pid(4));
            }
            return;
        }
        if ctx.inbox().is_empty() {
            return;
        }
        let ttl = ctx
            .inbox()
            .iter()
            .map(|e| e.msg.0)
            .max()
            .expect("non-empty")
            .min(4);
        self.heard += ctx.inbox().len() as u64;
        if ttl > 0 {
            ctx.broadcast(Pid(ttl - 1));
        }
    }

    fn output(&self) -> Option<u64> {
        (self.heard > 0).then_some(self.heard)
    }
}

/// Eight rounds of the wave under `fault`. The report carries each
/// node's first decision; a node keeps counting what it hears after
/// that, so the live outputs at the end are returned too.
fn run_wave(g: &bcount_graph::Graph, fault: FaultPlan) -> (SimReport<u64>, Vec<Option<u64>>) {
    let mut sim = Execution::new(
        g,
        &[NodeId(3), NodeId(40_000)],
        |u, _| Wave {
            source: u.index() % 4096 == 0,
            heard: 0,
        },
        NullAdversary,
        SimConfig {
            seed: 7,
            max_rounds: 8,
            stop_when: StopWhen::MaxRoundsOnly,
            fault,
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

#[test]
#[ignore = "memory smoke test; run alone, in release, in its own process"]
fn scale_65536_smoke_under_rss_budget() {
    let n = 65_536usize;
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let g = hnd(n, 8, &mut rng).expect("H(n, 8) at the smoke scale");
    assert_eq!(g.len(), n);
    assert!(g.degree_sum() >= 8 * n, "8 random cycles worth of edges");

    // A crash-only plan whose one crash lies past the last round: the
    // crash pass runs, crashes nothing and draws no fault randomness.
    let crash_only = FaultPlan {
        crashes: vec![CrashEvent { round: 9, node: 0 }],
        ..FaultPlan::default()
    };
    let (crash_pass, crash_pass_live) = run_wave(&g, crash_only);
    let (plain, plain_live) = run_wave(&g, FaultPlan::default());
    assert_eq!(crash_pass.rounds, 8);
    assert_eq!(crash_pass.outputs, plain.outputs);
    assert_eq!(crash_pass_live, plain_live);
    assert_ne!(
        plain.outputs, plain_live,
        "a node keeps counting after its first decision"
    );
    assert_eq!(
        crash_pass.metrics.total_messages(0..n),
        plain.metrics.total_messages(0..n)
    );
    let reached = crash_pass.outputs.iter().flatten().count();
    assert!(
        reached > n / 2,
        "the wave must cover most of an expander ({reached}/{n} reached)"
    );
    // The fault pass at scale: drops, duplicates and delays rewrite the
    // outboxes of every wave round, and the wave still covers most of the
    // graph.
    let faulty = FaultPlan {
        seed: 5,
        drop_per_mille: 50,
        dup_per_mille: 50,
        delay_per_mille: 50,
        delay_rounds: 1,
        ..FaultPlan::default()
    };
    let (faulted, _) = run_wave(&g, faulty);
    assert_eq!(faulted.rounds, 8);
    let m = &faulted.metrics;
    assert!(m.dropped > 0 && m.duplicated > 0 && m.delayed > 0);
    let reached = faulted.outputs.iter().flatten().count();
    assert!(
        reached > n / 2,
        "the faulted wave must cover most of an expander ({reached}/{n} reached)"
    );

    let budget_kb: u64 = std::env::var("BCOUNT_SCALE_RSS_BUDGET_KB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2 * 1024 * 1024);
    match bcount_sim::peak_rss_kb() {
        Some(peak) => {
            eprintln!("scale_smoke: n={n} peak RSS {peak} kB (budget {budget_kb} kB)");
            assert!(
                peak <= budget_kb,
                "peak RSS {peak} kB exceeds the {budget_kb} kB scale budget"
            );
        }
        None => eprintln!("scale_smoke: peak RSS unavailable on this platform; ceiling skipped"),
    }
}
