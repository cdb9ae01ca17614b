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
//! Under a fault plan that drops and duplicates, the bound stays zero on
//! full, compacted (dense and sparse) and spilled rounds alike: the fault
//! pass rewrites the outboxes in place. Byzantine messages are stored
//! once per send operation too, and the sparse path's span list warms up
//! with the first sparse rounds. A delay clones its payload into the redelivery
//! queue by design, so `assert_delays_clone_once` bounds a delaying plan
//! at one allocation per delayed message, with a payload whose every
//! clone allocates once.
//!
//! A host's read between rounds allocates nothing either:
//! `assert_zero_alloc_snapshots` takes an [`Execution::snapshot_with`]
//! after every round, in rounds where no node decides and in rounds where
//! one does, under a plan that crashes decided nodes.
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
/// first neighbour *after* the broadcast — a repeated, out-of-order slot,
/// so every round is compacted, the repeat an extra behind its sender's
/// broadcast (and, on a cycle, spilled: a span gets more messages than
/// its degree).
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
/// with holes anywhere in the spans — the compacted table path (fill,
/// then compaction) every round.
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

/// A broadcast from every sixteenth node each round, a different
/// sixteenth every round: a sparse round on a cycle (two messages per
/// broadcaster, well under a quarter of the node count).
#[derive(Debug, Clone)]
struct SparseChatter {
    me: Pid,
    index: u64,
}

impl Protocol for SparseChatter {
    type Message = Pid;
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        let heard = ctx.inbox().len() as u64;
        if (self.index + ctx.round()).is_multiple_of(16) {
            ctx.broadcast(Pid(self.me.0.wrapping_add(heard)));
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

/// [`Chatter`] that decides in round `decide_at` on its own pid.
#[derive(Debug, Clone)]
struct Decider {
    me: Pid,
    decide_at: u64,
    decided: bool,
}

impl Protocol for Decider {
    type Message = Pid;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        let heard = ctx.inbox().len() as u64;
        ctx.broadcast(Pid(self.me.0.wrapping_add(heard)));
        self.decided |= ctx.round() >= self.decide_at;
    }

    fn output(&self) -> Option<u64> {
        self.decided.then_some(self.me.0 % 7)
    }
}

/// A snapshot after every round, on an execution whose 96 nodes decide
/// one at a time in rounds 5 to 304 (about a third of the rounds have a
/// decision), with equal estimates, under a plan that crashes four
/// decided nodes in the measured window: after a 30-round warm-up the
/// next 200 rounds and their snapshots allocate nothing. The first
/// snapshot gives the kept ranking room for every honest node, and the
/// decision log has it from construction.
fn assert_zero_alloc_snapshots() {
    let g = cycle(96).unwrap();
    let decide_at = |u: usize| 5 + (u as u64 * 37) % 300;
    let mut cfg = chatter_config();
    for (round, node) in [(60, 1), (61, 9), (150, 2), (200, 10)] {
        assert!(decide_at(node) < round);
        cfg.fault.crashes.push(CrashEvent {
            round,
            node: node as u32,
        });
    }
    let init = |u: NodeId, init: &NodeInit| Decider {
        me: init.pid,
        decide_at: decide_at(u.index()),
        decided: false,
    };
    let mut sim = Execution::new(&g, &[NodeId(17)], init, NullAdversary, cfg);
    let raw = |o: &u64| *o as f64;
    for _ in 0..30 {
        sim.step();
        std::hint::black_box(sim.snapshot_with(raw));
    }
    let decided_before = sim.snapshot_with(raw).decided;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        sim.step();
        std::hint::black_box(sim.snapshot_with(raw));
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let snapshot = sim.snapshot_with(raw);
    assert!(
        snapshot.decided > decided_before + 20,
        "the measured rounds must decide nodes"
    );
    assert_eq!(snapshot.crashed, 4);
    assert_eq!(
        delta, 0,
        "snapshots must not allocate (saw {delta} allocations over 200 rounds)"
    );
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

/// [`chatter_config`] under a plan that drops and duplicates (no delay,
/// whose clones allocate by design) and crashes nothing.
fn faulty_config() -> SimConfig {
    SimConfig {
        fault: FaultPlan {
            seed: 11,
            drop_per_mille: 50,
            dup_per_mille: 50,
            ..FaultPlan::default()
        },
        ..chatter_config()
    }
}

/// [`chatter_config`] with a crash-only plan whose one crash lies past any
/// round these tests reach: the crash pass runs, and crashes nothing.
fn crash_only_config() -> SimConfig {
    let mut cfg = chatter_config();
    cfg.fault.crashes.push(CrashEvent {
        round: u64::MAX,
        node: 0,
    });
    cfg
}

/// The full table path without Byzantine nodes, and with a silent
/// Byzantine node (whose unfilled table positions make every round a
/// compacted one) the compacted table path — the sender-rank table, the
/// permutation scratch, and the SoA arena's parallel arrays are all
/// built or grown during warm-up and only reused afterwards.
fn assert_zero_alloc_table(byz: bool) {
    let g = cycle(96).unwrap();
    let byz: &[NodeId] = if byz { &[NodeId(17)] } else { &[] };
    let sim = Execution::new(
        &g,
        byz,
        |_, init| Chatter(init.pid),
        NullAdversary,
        chatter_config(),
    );
    assert_steady_state_allocation_free(sim, &format!("table, byz={}", !byz.is_empty()));
}

/// An observing adversary: it walks the round's in-flight honest traffic
/// (the outboxes in place, duplicates twice, then any redeliveries) and,
/// with `burst` set, answers from every Byzantine node with two messages
/// per incident edge — more than a span has room for.
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
/// every round, under `cfg`'s plan (`plan` names it). The observer reads
/// the outboxes in place before the compacted table path delivers them,
/// spilling the spans a burst or a faulted round's duplicates overflow;
/// the spill, the append of the extras and the sort of the spans they
/// reach all run on warmed capacity.
fn assert_zero_alloc_observed(cfg: SimConfig, plan: &str, burst: bool) {
    let g = cycle(96).unwrap();
    let sim = Execution::new(
        &g,
        &[NodeId(17)],
        |_, init| Chatter(init.pid),
        Observer { burst },
        cfg,
    );
    let case = format!("observed, {plan}, burst={burst}");
    assert_steady_state_allocation_free(sim, &case);
}

/// Beacon spam that ignores the traffic: every
/// Byzantine node broadcasts a fresh beacon every round, one message per
/// incident edge — within the room of every span.
struct SilentSpam;

impl<P: Protocol<Message = Pid>> Adversary<P> for SilentSpam {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Pid>) {
        let beacon = Pid(ctx.rng().gen());
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, beacon);
        }
    }
}

/// Random-subset unicasts under beacon spam: the
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
    assert_steady_state_allocation_free(sim, "subset unicasts under beacon spam");
}

/// Beacon spam on a full broadcast: every honest node broadcasts and
/// every Byzantine node spams one beacon per neighbour, so without a
/// plan every round is a full table round with Byzantine traffic placed
/// on the table, and under a plan that drops and duplicates a compacted
/// one. The Byzantine repeat test's position bitset is sized once, at
/// construction.
fn assert_zero_alloc_byzantine_full(cfg: SimConfig, plan: &str) {
    let g = cycle(96).unwrap();
    let sim = Execution::new(
        &g,
        &[NodeId(17), NodeId(60)],
        |_, init| Chatter(init.pid),
        SilentSpam,
        cfg,
    );
    assert_steady_state_allocation_free(sim, &format!("Byzantine-full spam, {plan}"));
}

/// Sparse rounds (a few broadcasters and beacon spam, under a quarter of
/// the node count in messages): the re-marking of the generation's last
/// sparse spans, the span list, the compaction and sort of the listed
/// spans. The span list warms up once.
fn assert_zero_alloc_sparse(cfg: SimConfig, plan: &str) {
    let g = cycle(96).unwrap();
    let sim = Execution::new(
        &g,
        &[NodeId(17)],
        |u, init| SparseChatter {
            me: init.pid,
            index: u.index() as u64,
        },
        SilentSpam,
        cfg,
    );
    assert_steady_state_allocation_free(sim, &format!("sparse rounds, {plan}"));
}

/// Repeated, out-of-order sends, whose repeats are extras (spilled every
/// round), must also be allocation-free in steady state. The first round
/// warms the engine's extras queue and the arena's spill room, once.
fn assert_zero_alloc_repeated_sends() {
    let g = cycle(96).unwrap();
    let sim = Execution::new(
        &g,
        &[NodeId(17)],
        |_, init| DoubleChatter(init.pid),
        NullAdversary,
        chatter_config(),
    );
    assert_steady_state_allocation_free(sim, "repeated, out-of-order sends");
}

/// A plan that drops and duplicates, on three send shapes: a full
/// broadcast (compacted table rounds where the duplicates fit behind the
/// drops' holes, spilled ones where a duplicate overflows a whole
/// span), random-subset unicasts (compacted table rounds, the
/// duplicates appended behind spans with holes), and repeated,
/// out-of-order sends (spilled every round, a duplicated repeat as two
/// extras). The fault pass
/// marks and removes sends in place, so nothing allocates: bound 0.
fn assert_zero_alloc_faulty() {
    let g = cycle(96).unwrap();
    let byz: &[NodeId] = &[];
    let sim = Execution::new(
        &g,
        byz,
        |_, init| Chatter(init.pid),
        NullAdversary,
        faulty_config(),
    );
    assert_steady_state_allocation_free(sim, "drop + duplicate, broadcast");
    let init = |_: NodeId, init: &NodeInit| SubsetChatter(init.pid);
    let sim = Execution::new(&g, byz, init, NullAdversary, faulty_config());
    assert_steady_state_allocation_free(sim, "drop + duplicate, subset unicasts");
    let init = |_: NodeId, init: &NodeInit| DoubleChatter(init.pid);
    let sim = Execution::new(&g, byz, init, NullAdversary, faulty_config());
    assert_steady_state_allocation_free(sim, "drop + duplicate, repeated sends");
}

/// A payload whose every clone allocates exactly once (building one
/// allocates nothing): the unit of the delay bound.
#[derive(Debug)]
struct CloneAllocates(u64);

impl Clone for CloneAllocates {
    fn clone(&self) -> Self {
        std::hint::black_box(Box::new(self.0));
        CloneAllocates(self.0)
    }
}

impl MessageSize for CloneAllocates {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        64
    }
}

/// [`Chatter`] with a [`CloneAllocates`] payload.
#[derive(Debug, Clone)]
struct CloneChatter(u64);

impl Protocol for CloneChatter {
    type Message = CloneAllocates;
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, CloneAllocates>) {
        let heard = ctx.inbox().len() as u64;
        ctx.broadcast(CloneAllocates(self.0.wrapping_add(heard)));
    }

    fn output(&self) -> Option<()> {
        None
    }
}

/// A plan that drops, duplicates and delays: a delayed message clones its
/// payload into the redelivery queue — the one clone of the plane — and
/// nothing else allocates. Bound: allocations over the 200 steady-state
/// rounds at most the messages those rounds delayed, with a payload whose
/// every clone allocates once.
fn assert_delays_clone_once() {
    let g = cycle(96).unwrap();
    let cfg = SimConfig {
        fault: FaultPlan {
            delay_per_mille: 50,
            delay_rounds: 2,
            ..faulty_config().fault
        },
        ..chatter_config()
    };
    let init = |_: NodeId, init: &NodeInit| CloneChatter(init.pid.0);
    let mut sim = Execution::new(&g, &[], init, NullAdversary, cfg);
    for _ in 0..30 {
        sim.step();
    }
    let delayed_before = sim.metrics().delayed;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        sim.step();
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let delayed = sim.metrics().delayed - delayed_before;
    assert!(delayed > 0, "the plan must delay something");
    assert!(
        allocations <= delayed,
        "{allocations} allocations over 200 rounds that delayed {delayed} messages"
    );
}

/// The limit of the steady-state claim: payload
/// planes warm up with what each node stores, so a switch after warm-up
/// to more payloads per node (odd nodes sending for the first time, even
/// nodes going from one broadcast to one payload per neighbour) allocates
/// again — each outbox plane and each arena generation's store grows to
/// its new high-water mark within the first two switched rounds, bounded
/// by two growths per node plus a few per store — and from then on
/// nothing allocates. Checked with and without a plan that drops and
/// duplicates.
fn assert_rewarm_after_unicast_switch(faulty: bool) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = hnd(96, 8, &mut rng).unwrap();
    let n = g.len() as u64;
    let switch = 31;
    let init = |_: NodeId, init: &NodeInit| LateUnicaster {
        me: init.pid,
        switch,
    };
    let byz: &[NodeId] = &[NodeId(17)];
    if faulty {
        let sim = Execution::new(&g, byz, init, NullAdversary, faulty_config());
        rewarm_then_steady(sim, switch, 2 * n + 16, "drop + duplicate");
    } else {
        let sim = Execution::new(&g, byz, init, NullAdversary, chatter_config());
        rewarm_then_steady(sim, switch, 2 * n + 16, "no faults");
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
        // The full table path (no Byzantine nodes), the compacted table
        // path (silent Byzantine node, and subset unicasts under beacon
        // spam), and repeated, out-of-order sends (spilled).
        assert_zero_alloc_table(false);
        assert_zero_alloc_table(true);
        assert_zero_alloc_compacted_spam();
        assert_zero_alloc_repeated_sends();
        // Byzantine traffic on the table (full rounds without a plan) and
        // sparse rounds, without a plan and under drops and duplicates.
        for (cfg, plan) in [
            (chatter_config(), "no plan"),
            (faulty_config(), "drop + duplicate"),
        ] {
            assert_zero_alloc_byzantine_full(cfg.clone(), plan);
            assert_zero_alloc_sparse(cfg, plan);
        }
        // Drops and duplicates on full, compacted and spilled rounds:
        // bound 0.
        assert_zero_alloc_faulty();
        // An observing adversary without a plan, under a crash-only plan
        // and under drops and duplicates: steady broadcast, and a
        // Byzantine burst every round (more than a span has room for: the
        // spans it reaches spill).
        let plans = [
            (chatter_config(), "no plan"),
            (crash_only_config(), "crash-only"),
            (faulty_config(), "drop + duplicate"),
        ];
        for (cfg, plan) in plans {
            assert_zero_alloc_observed(cfg.clone(), plan, false);
            assert_zero_alloc_observed(cfg, plan, true);
        }
        // Delays: at most one allocation per delayed message.
        assert_delays_clone_once();
        // A late switch to per-neighbour unicasts: a bounded
        // re-warm, then zero again.
        assert_rewarm_after_unicast_switch(false);
        assert_rewarm_after_unicast_switch(true);
        // A snapshot after every round, decisions and crashes included.
        assert_zero_alloc_snapshots();
    });
    println!(
        "zero_alloc: ok (0 allocations over 200 steady-state rounds; \
         table full/compacted/spam, Byzantine-full spam, sparse rounds, repeated sends, \
         drop + duplicate on every shape, \
         observed with and without faults; delays at most one clone each; \
         re-warm after a unicast switch with and without faults; \
         a snapshot after every round; size-1 pool)"
    );
}
