//! Heap-allocation budget of the paper's two payload types.
//!
//! Both payload types are stored once per broadcast, not once per
//! recipient, so the heap traffic of a round scales at most with the
//! number of *broadcasting nodes*, not with the number of edges they
//! broadcast over. A topology view (Algorithm 1) is a shared, immutable
//! allocation; a beacon path (Algorithm 2) is carried inline in its
//! message. This binary measures both with a counting global allocator:
//!
//! * **CONGEST.** On `H(256, 8)` under beacon spam, a steady-state round
//!   that delivers honest beacons allocates nothing at all. A beacon path of up to `INLINE_PATH`
//!   entries is stored inline in the message, and every path in the
//!   measured window fits: an honest origination or forward, and each
//!   Byzantine node's fabrication, which fills its path straight from the
//!   random stream. The broadcast stores that message once, in an outbox
//!   payload plane warmed to its working size. A path built on the heap,
//!   or a copy per recipient, costs at least one allocation.
//! * **LOCAL.** On `H(128, 8)`, every broadcast of a grown view costs
//!   one deep copy of that view plus the shared box around it. One copy
//!   per recipient would cost a degree's worth of copies. Merging the
//!   received views and running the expansion checks are replayed on the
//!   side and subtracted (see [`Probe`]), as they scale with what a node
//!   receives by design.
//!
//! Runs with `harness = false` (see the `[[test]]` entries in
//! Cargo.toml): the allocation counter is process-global and libtest's
//! bookkeeping threads would otherwise pollute the measured window. For
//! the same reason both budgets run inside a one-thread pool, so the
//! engine's honest compute never forks (a fork boxes its job).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use bcount_core::adversary::BeaconSpamAdversary;
use bcount_core::congest::{CongestCounting, CongestMsg, CongestParams, INLINE_PATH};
use bcount_core::local::checks::run_expansion_checks;
use bcount_core::local::{LocalConfig, LocalCounting, LocalEstimate, LocalMsg};
use bcount_graph::gen::hnd;
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use rand::SeedableRng;
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Degree of both test networks.
const D: usize = 8;

fn network(n: usize, seed: u64) -> Graph {
    hnd(n, D, &mut ChaCha8Rng::seed_from_u64(seed)).expect("valid H(n, d)")
}

fn spread(n: usize, count: usize) -> Vec<NodeId> {
    let stride = n / count;
    (0..count).map(|k| NodeId((k * stride) as u32)).collect()
}

/// Builds an execution and returns it with the pids of its honest nodes
/// (read off the factory's [`NodeInit`]s).
fn build<'g, P, A>(
    g: &'g Graph,
    byz: &[NodeId],
    mut make: impl FnMut(&NodeInit) -> P,
    adversary: A,
    config: SimConfig,
) -> (Execution<&'g Graph, P, A>, HashSet<Pid>)
where
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    let honest = Rc::new(RefCell::new(HashSet::new()));
    let sink = Rc::clone(&honest);
    let exec = Execution::new(
        g,
        byz,
        |_, init| {
            sink.borrow_mut().insert(init.pid);
            make(init)
        },
        adversary,
        config,
    );
    let honest = honest.take();
    (exec, honest)
}

/// Rounds of the CONGEST run before measuring: the first phase's
/// iterations grow the engine's buffers to their working size.
const CONGEST_WARMUP: u64 = 60;
/// Rounds of the CONGEST run that are measured.
const CONGEST_MEASURED: u64 = 300;

fn congest_budget() {
    let n = 256;
    let g = network(n, 0xB0B);
    let byz = spread(n, 8);
    let params = CongestParams::default();
    let config = SimConfig::builder()
        .seed(0xA110C)
        .max_rounds(u64::MAX)
        .stop_when(StopWhen::MaxRoundsOnly)
        .build()
        .expect("valid config");
    let (mut exec, honest) = build(
        &g,
        &byz,
        |init| CongestCounting::new(params, init),
        BeaconSpamAdversary::new(params),
        config,
    );
    for _ in 0..CONGEST_WARMUP {
        exec.step();
    }
    let mut beacon_rounds = 0u64;
    let mut longest = 0;
    for _ in 0..CONGEST_MEASURED {
        let before = allocations();
        exec.step();
        let spent = allocations() - before;
        // The distinct honest senders of this round's beacons, read off
        // what was delivered (every sender has neighbours, so every
        // broadcast lands in some inbox), and the longest path delivered.
        let mut senders = BTreeSet::new();
        for v in g.nodes() {
            for env in exec.inbox(v) {
                if let CongestMsg::Beacon { path } = &env.msg {
                    longest = longest.max(path.len());
                    if honest.contains(&env.sender) {
                        senders.insert(env.sender);
                    }
                }
            }
        }
        if senders.is_empty() {
            continue;
        }
        beacon_rounds += 1;
        assert_eq!(
            spent,
            0,
            "round {}: {spent} allocations for {} honest beacon senders and {} Byzantine \
             nodes (budget 0)",
            exec.round(),
            senders.len(),
            byz.len()
        );
    }
    assert!(
        beacon_rounds > CONGEST_MEASURED / 4,
        "too few beacon rounds measured: {beacon_rounds}"
    );
    assert!(
        longest <= INLINE_PATH,
        "a {longest}-entry path in the window cannot be stored inline"
    );
    println!(
        "payload_alloc: congest ok ({beacon_rounds} beacon rounds, 0 allocations, paths of at \
         most {longest} entries)"
    );
}

/// Algorithm 1 with its receipt-side work replayed on a copy of the
/// node's view just before the real round runs, so the allocations of the
/// broadcast can be told apart from those of merging and checking.
///
/// Merging the received views and running the expansion checks allocate
/// in proportion to what was *received* — work Algorithm 1 does per
/// incoming view by design. The replay performs exactly that work on an
/// identical copy (same inbox, same order, same tree layout), so a round's
/// allocations minus the replay's are the broadcast's.
#[derive(Debug, Clone)]
struct Probe {
    inner: LocalCounting,
    cfg: LocalConfig,
    me: Pid,
    /// One entry per broadcasting round after the first: the round, the
    /// allocations of its broadcast, and the allocations of one deep copy
    /// of the view it broadcast.
    samples: Vec<(u64, u64, u64)>,
}

impl Protocol for Probe {
    type Message = LocalMsg;
    type Output = LocalEstimate;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, LocalMsg>) {
        let mut shadow = self.inner.view().clone();
        let start = allocations();
        for env in ctx.inbox() {
            if shadow.merge(&env.msg.0).is_err() {
                break;
            }
        }
        run_expansion_checks(&shadow, self.me, &self.cfg);
        let receipt = allocations() - start;
        drop(shadow);

        let start = allocations();
        self.inner.on_round(ctx);
        let spent = allocations() - start;

        // Round 1 announces instead of merging; a node that decided this
        // round broadcast nothing.
        if ctx.round() >= 2 && self.inner.output().is_none() {
            let start = allocations();
            let copy = self.inner.view().clone();
            let copy_cost = allocations() - start;
            drop(copy);
            self.samples.push((ctx.round(), spent - receipt, copy_cost));
        }
    }

    fn output(&self) -> Option<LocalEstimate> {
        self.inner.output()
    }

    fn has_halted(&self) -> bool {
        self.inner.has_halted()
    }
}

/// Allocations a broadcast may spend beyond one deep copy of the view:
/// the shared box the copy is moved into.
const LOCAL_BROADCAST_SLACK: u64 = 1;

fn local_budget() {
    let n = 128;
    let g = network(n, 0x10CA1);
    let cfg = LocalConfig {
        max_degree: D + 2,
        ..LocalConfig::default()
    };
    let config = SimConfig::builder()
        .seed(0x10CA2)
        .max_rounds(200)
        .stop_when(StopWhen::AllHonestHalted)
        .build()
        .expect("valid config");
    let (mut exec, _) = build(
        &g,
        &[],
        |init| Probe {
            inner: LocalCounting::new(cfg, init),
            cfg,
            me: init.pid,
            samples: Vec::new(),
        },
        NullAdversary,
        config,
    );
    exec.run();
    let mut measured = 0;
    let mut worst = 0.0f64;
    for u in g.nodes() {
        let Some(probe) = exec.protocol(u) else {
            continue;
        };
        for &(round, broadcast, copy) in &probe.samples {
            measured += 1;
            worst = worst.max(broadcast as f64 / copy as f64);
            assert!(
                broadcast <= copy + LOCAL_BROADCAST_SLACK,
                "node {u}, round {round}: the broadcast spent {broadcast} allocations where \
                 one deep copy of the view costs {copy} (budget: one copy + \
                 {LOCAL_BROADCAST_SLACK})"
            );
        }
    }
    assert!(
        measured >= n,
        "too few LOCAL broadcasts measured: {measured}"
    );
    println!(
        "payload_alloc: local ok ({measured} broadcasts, at most {worst:.2} view copies each)"
    );
}

fn main() {
    // Both budgets run inside a one-thread pool, where the engine's honest
    // compute is one leaf with no fork: a wider pool (the `parallel`
    // feature under `BCOUNT_POOL_THREADS` > 1) would box the pool's jobs
    // inside the measured windows.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build size-1 pool");
    pool.install(|| {
        congest_budget();
        local_budget();
    });
}
