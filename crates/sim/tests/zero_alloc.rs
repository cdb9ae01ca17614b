//! Proof of the engine's zero-allocation steady state: after warm-up, a
//! round of full-broadcast chatter performs **no heap allocation at all**,
//! measured with a counting global allocator.
//!
//! "Warm" means every buffer has reached its high-water mark, and that
//! includes each node's outbox payload plane and each
//! arena generation's payload store, which start empty and grow with the
//! payloads a node (or a round) actually stores. A node that first sends
//! late, or that goes from one broadcast to per-neighbour unicasts,
//! allocates once more when it does; `assert_rewarm_after_unicast_switch`
//! pins that bound.
//!
//! Runs with `harness = false` (see the `[[test]]` entry in Cargo.toml):
//! the allocation counter is process-global and libtest's bookkeeping
//! threads would otherwise pollute the measured window. For the same
//! reason every execution runs inside a one-thread pool, so the honest
//! compute never forks (a fork boxes its job).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bcount_graph::gen::{cycle, hnd};
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Counts every allocation and reallocation; frees are not interesting.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all actual memory management to `System`; the counter is
// a relaxed atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Broadcasts its own id every round, forever: pure engine load with no
/// protocol-side allocation.
#[derive(Debug, Clone)]
struct Chatter(Pid);

impl Protocol for Chatter {
    type Message = Pid;
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        // Touch the inbox so delivery isn't dead code.
        let heard = ctx.inbox().len() as u64;
        let msg = Pid(self.0 .0.wrapping_add(heard));
        ctx.broadcast(msg);
    }

    fn output(&self) -> Option<()> {
        None
    }

    fn has_halted(&self) -> bool {
        false
    }
}

/// Like [`Chatter`], but every round it additionally re-sends to its
/// first neighbour *after* the broadcast — a non-monotone slot sequence,
/// which the table cannot place, so the outbox feed takes the flat feed's
/// placement every single round.
#[derive(Debug, Clone)]
struct DoubleChatter(Pid);

impl Protocol for DoubleChatter {
    type Message = Pid;
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        let heard = ctx.inbox().len() as u64;
        let msg = Pid(self.0 .0.wrapping_add(heard));
        ctx.broadcast(msg);
        let first = ctx.neighbors()[0];
        ctx.send(first, msg);
    }

    fn output(&self) -> Option<()> {
        None
    }

    fn has_halted(&self) -> bool {
        false
    }
}

/// Every round, a distinct unicast to each distinct neighbour in a seeded
/// random half of them, in slot order: strictly increasing first slots
/// with holes anywhere in the spans — the outbox feed's compacted table
/// path (fill, then compaction) every round.
#[derive(Debug, Clone)]
struct SubsetChatter(Pid);

impl Protocol for SubsetChatter {
    type Message = Pid;
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        let heard = ctx.inbox().len() as u64;
        let mut last = None;
        for i in 0..ctx.neighbors().len() {
            let to = ctx.neighbors()[i];
            if last != Some(to) {
                last = Some(to);
                if ctx.rng().gen_bool(0.5) {
                    ctx.send(to, Pid(self.0 .0 ^ heard ^ i as u64));
                }
            }
        }
    }

    fn output(&self) -> Option<()> {
        None
    }

    fn has_halted(&self) -> bool {
        false
    }
}

/// Silent on odd nodes and a broadcaster on even ones until round
/// `switch`; from then on every node unicasts a distinct message to each
/// distinct neighbour — more payloads per node and per round than any
/// earlier round stored.
#[derive(Debug, Clone)]
struct LateUnicaster {
    me: Pid,
    switch: u64,
}

impl Protocol for LateUnicaster {
    type Message = Pid;
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        let heard = ctx.inbox().len() as u64;
        if ctx.round() < self.switch {
            if self.me.0.is_multiple_of(2) {
                ctx.broadcast(Pid(self.me.0.wrapping_add(heard)));
            }
            return;
        }
        let mut last = None;
        for i in 0..ctx.neighbors().len() {
            let to = ctx.neighbors()[i];
            if last != Some(to) {
                last = Some(to);
                ctx.send(to, Pid(heard.wrapping_add(i as u64)));
            }
        }
    }

    fn output(&self) -> Option<()> {
        None
    }

    fn has_halted(&self) -> bool {
        false
    }
}

/// Steps `sim` through a 30-round warm-up, then asserts the next 200
/// rounds perform zero allocations.
fn assert_steady_state_allocation_free<P, A>(mut sim: Execution<&Graph, P, A>, case: &str)
where
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    for _ in 0..30 {
        sim.step();
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        sim.step();
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "steady-state rounds must not allocate (saw {delta} allocations over 200 rounds, {case})"
    );
}

fn chatter_config() -> SimConfig {
    SimConfig {
        max_rounds: u64::MAX,
        stop_when: StopWhen::MaxRoundsOnly,
        ..SimConfig::default()
    }
}

/// [`chatter_config`] on the flat feed without a fault: a crash-only plan
/// (no fault randomness is drawn) whose one crash lies past any round
/// these tests reach.
fn flat_config() -> SimConfig {
    let mut cfg = chatter_config();
    let round = u64::MAX;
    cfg.fault.crashes.push(CrashEvent { round, node: 0 });
    cfg
}

/// The outbox feed (`NullAdversary` licenses it): the full table path
/// without Byzantine nodes, and with a silent Byzantine node (whose
/// unfilled table positions make every round a compacted one) the
/// compacted table path plus the Byzantine-adjacent sort — the
/// sender-rank table, per-span permutation scratch, and the SoA arena's
/// parallel arrays are all built or grown during warm-up and only reused
/// afterwards.
fn assert_zero_alloc_outbox_feed(byz: bool) {
    let g = cycle(96).unwrap();
    let byz: &[NodeId] = if byz { &[NodeId(17)] } else { &[] };
    let sim = Execution::new(
        &g,
        byz,
        |_, init| Chatter(init.pid),
        NullAdversary,
        chatter_config(),
    );
    assert_steady_state_allocation_free(sim, &format!("outbox feed, byz={}", !byz.is_empty()));
}

/// An observing adversary: it walks the round's in-flight honest traffic
/// (the outboxes in place on the outbox feed, the merged vector on the
/// flat feed) and, with `burst` set, answers from every Byzantine node
/// with two messages per incident edge — more than the outbox feed's
/// table paths would take.
/// It answers with two [`ByzantineContext::broadcast`]s, which walk the
/// graph's neighbour spans in place.
struct Observer {
    burst: bool,
}

impl<P: Protocol<Message = Pid>> Adversary<P> for Observer {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let traffic = view.honest_outgoing().iter();
        let seen = traffic.fold(0u64, |acc, (_, _, msg)| acc.wrapping_add(msg.0));
        if !self.burst {
            return;
        }
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, Pid(seen));
            ctx.broadcast(b, Pid(seen + 1));
        }
    }
}

/// A steady broadcast under a silent observer, and a Byzantine burst
/// every round. On the outbox feed the observer reads the full outboxes
/// in place before the compacted table path (silent) or the flat fallback
/// (burst) delivers them; on the flat feed (a plan that faults nothing
/// selects it) the node-order vector, the count/prefix-sum scatter, and
/// the sort of every span all run on warmed capacity.
fn assert_zero_alloc_observed(flat: bool, burst: bool) {
    let g = cycle(96).unwrap();
    let cfg = if flat {
        flat_config()
    } else {
        chatter_config()
    };
    let sim = Execution::new(
        &g,
        &[NodeId(17)],
        |_, init| Chatter(init.pid),
        Observer { burst },
        cfg,
    );
    let feed = if flat {
        "flat feed"
    } else {
        "observed outbox feed"
    };
    assert_steady_state_allocation_free(sim, &format!("{feed}, burst={burst}"));
}

/// Beacon spam that ignores the traffic, on the outbox feed: every
/// Byzantine node broadcasts a fresh beacon every round, one message per
/// incident edge — within the table paths' Byzantine budget.
struct SilentSpam;

impl<P: Protocol<Message = Pid>> Adversary<P> for SilentSpam {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let beacon = Pid(ctx.rng().gen());
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, beacon);
        }
    }
}

/// Random-subset unicasts under beacon spam on the outbox feed: the
/// compacted table path's hole marking, node-order fill, compaction, the
/// Byzantine append behind the compacted spans and their counting sort
/// all run on warmed capacity.
fn assert_zero_alloc_compacted_spam() {
    let g = cycle(96).unwrap();
    let sim = Execution::new(
        &g,
        &[NodeId(17), NodeId(60)],
        |_, init| SubsetChatter(init.pid),
        SilentSpam,
        chatter_config(),
    );
    assert_steady_state_allocation_free(sim, "outbox feed, subset unicasts under beacon spam");
}

/// The outbox feed's flat fallback, which runs when a round's slot
/// sequences are non-monotone, must also be allocation-free in steady
/// state. Its first round warms `honest_outgoing` (empty on the outbox
/// feed until then) and the sort scratch of the spans that are not
/// Byzantine-adjacent, once.
fn assert_zero_alloc_fallback() {
    let g = cycle(96).unwrap();
    let sim = Execution::new(
        &g,
        &[NodeId(17)],
        |_, init| DoubleChatter(init.pid),
        NullAdversary,
        chatter_config(),
    );
    assert_steady_state_allocation_free(sim, "outbox feed, flat fallback");
}

/// The limit of the steady-state claim: payload
/// planes warm up with what each node stores, so a switch after warm-up
/// to more payloads per node (odd nodes sending for the first time, even
/// nodes going from one broadcast to one payload per neighbour) allocates
/// again — each outbox plane and each arena generation's store grows to
/// its new high-water mark within the first two switched rounds, bounded
/// by two growths per node plus a few per store — and from then on
/// nothing allocates. Checked on both feeds.
fn assert_rewarm_after_unicast_switch(flat: bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = hnd(96, 8, &mut rng).unwrap();
    let n = g.len() as u64;
    let switch = 31;
    let init = |_: NodeId, init: &NodeInit| LateUnicaster {
        me: init.pid,
        switch,
    };
    let byz: &[NodeId] = &[NodeId(17)];
    if flat {
        let sim = Execution::new(&g, byz, init, NullAdversary, flat_config());
        rewarm_then_steady(sim, switch, 2 * n + 16, "flat feed");
    } else {
        let sim = Execution::new(&g, byz, init, NullAdversary, chatter_config());
        rewarm_then_steady(sim, switch, 2 * n + 16, "outbox feed");
    }
}

/// Steps `sim` to the round before `switch`, counts the allocations of the
/// two switched rounds against `bound`, then asserts the next 200 rounds
/// perform none.
fn rewarm_then_steady<P, A>(mut sim: Execution<&Graph, P, A>, switch: u64, bound: u64, case: &str)
where
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    for _ in 1..switch {
        sim.step();
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.step();
    sim.step();
    let rewarm = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(
        rewarm <= bound,
        "re-warming after the unicast switch took {rewarm} allocations (bound {bound}, {case})"
    );
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        sim.step();
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "rounds after the re-warm must not allocate (saw {delta} allocations over 200 rounds, {case})"
    );
}

fn main() {
    // Every measured execution runs inside a one-thread pool, where the
    // honest compute is one leaf with no fork: a wider pool (the
    // `parallel` feature under `BCOUNT_POOL_THREADS` > 1) would fork it
    // and box the pool's jobs inside the measured windows.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build size-1 pool");
    pool.install(|| {
        // Outbox feed: the full table path (no Byzantine nodes), the
        // compacted table path (silent Byzantine node, and subset
        // unicasts under beacon spam), and the flat fallback
        // (non-monotone sends).
        assert_zero_alloc_outbox_feed(false);
        assert_zero_alloc_outbox_feed(true);
        assert_zero_alloc_compacted_spam();
        assert_zero_alloc_fallback();
        // An observing adversary on both feeds: steady broadcast, and a
        // Byzantine burst every round (on the outbox feed, over the
        // budget: the flat fallback).
        for flat in [false, true] {
            assert_zero_alloc_observed(flat, false);
            assert_zero_alloc_observed(flat, true);
        }
        // A late switch to per-neighbour unicasts: a bounded
        // re-warm, then zero again.
        assert_rewarm_after_unicast_switch(false);
        assert_rewarm_after_unicast_switch(true);
    });
    println!(
        "zero_alloc: ok (0 allocations over 200 steady-state rounds; \
         outbox feed full/compacted/spam/fallback/observed, flat feed steady/burst, \
         re-warm after a unicast switch on both feeds; size-1 pool)"
    );
}
