//! The payload plane stores a message once per send operation: delivery
//! moves payloads and writes `u32` references, so no path clones a
//! payload per recipient. Measured with a payload type that counts its
//! own clones.
//!
//! * Without faults, rounds of full broadcasts clone no payload — on
//!   the full table, compacted table and flat placement paths, under an
//!   event-driven relay whose nodes first send late, and in pools of 1
//!   and 4 workers (the latter forks the honest compute with the
//!   `parallel` feature).
//! * Under a drop/duplicate/delay plan, the only clones are the delayed
//!   messages' copies: clones equal [`Metrics::delayed`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bcount_graph::gen::{cycle, hnd};
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every clone of a [`Counted`] payload, process-wide.
static CLONES: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests: they share [`CLONES`].
static SERIAL: Mutex<()> = Mutex::new(());

/// A payload that counts its clones.
#[derive(Debug, PartialEq, Eq)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::SeqCst);
        Counted(self.0)
    }
}

impl MessageSize for Counted {
    fn size_bits(&self, id_bits: u32) -> u64 {
        u64::from(id_bits)
    }
}

/// How a [`Flood`] node sends each round.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One broadcast.
    Broadcast,
    /// A broadcast, then a repeat send to the first neighbour (a
    /// non-monotone slot sequence: the flat placement).
    BroadcastAndRepeat,
}

/// Floods the largest value heard, reading its inbox by reference.
#[derive(Debug)]
struct Flood {
    best: u64,
    shape: Shape,
}

impl Protocol for Flood {
    type Message = Counted;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Counted>) {
        self.best = ctx
            .inbox()
            .fold_payloads(self.best, |best, msg| best.max(msg.0));
        ctx.broadcast(Counted(self.best));
        if let Shape::BroadcastAndRepeat = self.shape {
            let first = ctx.neighbors()[0];
            ctx.send(first, Counted(self.best + 1));
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.best)
    }
}

/// An event-driven relay: a source broadcasts in round 1, and a node that
/// hears something re-broadcasts it with its TTL decremented, so most
/// nodes first send many rounds in.
#[derive(Debug)]
struct Relay {
    source: bool,
}

impl Protocol for Relay {
    type Message = Counted;
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Counted>) {
        if ctx.round() == 1 {
            if self.source {
                ctx.broadcast(Counted(40));
            }
            return;
        }
        let ttl = ctx.inbox().fold_payloads(0, |ttl, msg| ttl.max(msg.0));
        if ttl > 0 {
            ctx.broadcast(Counted(ttl - 1));
        }
    }

    fn output(&self) -> Option<()> {
        None
    }
}

fn config(rounds: u64) -> SimConfig {
    SimConfig {
        max_rounds: rounds,
        stop_when: StopWhen::MaxRoundsOnly,
        ..SimConfig::default()
    }
}

/// Runs `rounds` rounds of `sim` and returns the payload clones they made
/// and the execution's metrics.
fn clones_over<P, A>(mut sim: Execution<&Graph, P, A>, rounds: u64) -> (u64, Metrics)
where
    P: Protocol<Message = Counted> + PhaseSend,
    A: Adversary<P>,
{
    let before = CLONES.load(Ordering::SeqCst);
    for _ in 0..rounds {
        sim.step();
    }
    (
        CLONES.load(Ordering::SeqCst) - before,
        sim.metrics().clone(),
    )
}

fn flood(g: &Graph, byz: &[NodeId], shape: Shape, cfg: SimConfig) -> (u64, Metrics) {
    let sim = Execution::new(
        g,
        byz,
        |_, init: &NodeInit| Flood {
            best: init.pid.0 % 1000,
            shape,
        },
        NullAdversary,
        cfg,
    );
    clones_over(sim, 12)
}

#[test]
fn broadcasts_clone_no_payload() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = hnd(256, 8, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
    let byz = [NodeId(9), NodeId(130)];
    // The full table path (no Byzantine node), the compacted table path
    // with the sort of the spans Byzantine traffic reaches, and the flat
    // placement.
    let cases = [
        (&[][..], Shape::Broadcast),
        (&byz[..], Shape::Broadcast),
        (&byz[..], Shape::BroadcastAndRepeat),
    ];
    for (byz, shape) in cases {
        // Pools of 1 and 4 workers: a one-thread pool runs the honest
        // compute as one leaf, four workers fork it, and the serial
        // delivery paths must move, not clone, what the compute lanes
        // stored either way.
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool");
            let (clones, metrics) = pool.install(|| flood(&g, byz, shape, config(12)));
            assert!(metrics.total_messages(0..g.len()) > 0);
            assert_eq!(
                clones,
                0,
                "{shape:?} with {} Byzantine, pool of {threads}",
                byz.len()
            );
        }
    }
}

#[test]
fn event_driven_relay_clones_no_payload() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 160 nodes: past the honest compute's 64-node leaf floor, so a pool
    // of four forks it.
    let g = cycle(160).unwrap();
    let sim = Execution::new(
        &g,
        &[],
        |u, _: &NodeInit| Relay {
            source: u.index() % 16 == 0,
        },
        NullAdversary,
        config(30),
    );
    let (clones, metrics) = clones_over(sim, 30);
    assert!(metrics.total_messages(0..g.len()) > 0);
    assert_eq!(clones, 0);
}

#[test]
fn faulty_rounds_clone_only_delayed_payloads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = hnd(128, 8, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
    let plan = FaultPlan {
        seed: 17,
        crashes: vec![CrashEvent { round: 4, node: 7 }],
        drop_per_mille: 50,
        dup_per_mille: 80,
        delay_per_mille: 60,
        delay_rounds: 2,
    };
    for shape in [Shape::Broadcast, Shape::BroadcastAndRepeat] {
        let cfg = SimConfig {
            fault: plan.clone(),
            ..config(12)
        };
        let (clones, metrics) = flood(&g, &[NodeId(3)], shape, cfg);
        assert!(metrics.dropped > 0 && metrics.duplicated > 0 && metrics.delayed > 0);
        assert_eq!(clones, metrics.delayed, "{shape:?}");
    }
}
