//! The synchronous round engine.
//!
//! # Hot-path architecture
//!
//! The engine is built around a **zero-allocation steady state**: after the
//! first few rounds have sized every buffer, executing a round performs no
//! inbox/outbox heap allocation. Five mechanisms make that hold:
//!
//! * **One double-buffered message plane** — every delivered message lives
//!   in a flat structure-of-arrays arena (`InboxArena`):
//!   sender, `u32` payload reference, and counting-sort rank in parallel
//!   arrays, node `v`'s inbox the span `offsets[v]..offsets[v] + lens[v]`.
//!   Delivery fills the staged arena, which is *swapped* with the live one
//!   at round end instead of being reallocated.
//! * **One payload per send** — a message is stored once per send
//!   *operation*, not once per recipient. Each node owns a persistent
//!   outbox (`(slot, payload index)` sends plus a payload plane) which
//!   [`NodeContext`] borrows for the duration of [`Protocol::on_round`],
//!   and the adversary's [`ByzantineContext`] has one of its own (`(from,
//!   to, payload index)` sends); a broadcast stores its message once.
//!   Delivery moves each sender's payloads into the arena generation's
//!   payload store and writes `pbase + idx` references (capacity kept on
//!   both sides), so no path clones a payload per recipient — only a
//!   message the fault plan delays is cloned, into its redelivery queue.
//! * **Slot-addressed routing** — outboxes store sends as *neighbour
//!   slots*; one routing table, built once per execution (`DeliveryMap`),
//!   resolves a slot to its destination node and its arena position with
//!   one flat-array load each, so no per-message identity search
//!   (`HashMap` or binary search) runs on the merge path.
//! * **Counting-sort delivery** — inboxes are kept sorted by sender not
//!   with a per-round comparison sort over opaque 64-bit [`Pid`]s but with
//!   a *stable counting sort* of the spans that need one, keyed by each
//!   message's sender rank (its table position minus the span's start;
//!   an in-place permutation with one counter scratch sized to the
//!   largest distinct in-degree; no allocation, no comparisons).
//! * **Persistent phase scratch** — the extras and Byzantine staging
//!   vectors, the sparse path's span lists and the per-span permutation
//!   buffers live on the execution and are drained, not rebuilt. The
//!   counting sort permutes `u32` references, never payloads.
//!
//! Every round drives every live honest node, silent or not: both of the
//! paper's algorithms act on silent rounds (Algorithm 1 floods its view,
//! Algorithm 2 draws its activation coin), so no schedule skips a node.
//! The honest phase itself is split into an embarrassingly parallel
//! *compute* step (each node reads only its own inbox and private RNG) and
//! a deterministic *merge* step that assigns message order and metrics.
//! The compute step always goes through [`crate::pool::for_each_split`]:
//! in a one-thread pool (always, without the `parallel` crate feature) it
//! is one leaf over every node, and with the feature in a wider pool
//! (`BCOUNT_POOL_THREADS`, or `ThreadPool::install`) it forks across the
//! workers. The merge and delivery stay serial, so the resulting
//! [`SimReport`] is bit-identical at every pool width. Compute is the only
//! phase wide enough to pay for the fork: it dominates Algorithm 1's
//! rounds (every node merges whole topology views), while Algorithm 2's
//! cheap rounds are bound by the message plane.
//!
//! # One feed, one placement
//!
//! The arena is the only delivered-message plane, and every round's
//! honest traffic reaches it the same way: the outboxes stay full until
//! delivery. The merge only scans them (metrics, and whether each
//! outbox's slots strictly increase). With a non-empty
//! [`SimConfig::fault`] plan the **fault pass** then rewrites them in
//! place, in node order and send order: a dropped or delayed send is
//! removed, a duplicated one is marked with `DUPLICATE`, and the
//! delayed messages that come due are queued as redeliveries. The rushing
//! adversary reads the outboxes in place ([`FullInfoView::honest_outgoing`]
//! resolves each send's slot through the routing table, yields a marked
//! send twice, then the redeliveries); delivery runs after it commits.
//!
//! Every round places through the routing table's **slot → position**
//! plane: the first slot of each distinct neighbour owns one position of
//! its destination's degree-prefix span, at the sender's rank among the
//! destination's distinct neighbours in pid order. Outboxes drain in
//! natural node order, one table load and one reference write per
//! message, so every span's honest messages land in **sender-pid order**
//! — the canonical inbox order is stable-by-sender-pid. Byzantine
//! messages place through the same table: a Byzantine `(from, to)`
//! resolves as [`NodeContext::send`] does, to the first slot of `to`
//! among `from`'s neighbours, and its first message takes that slot's
//! position. A **full** round (each outbox's slots strictly increasing,
//! no Byzantine sender repeating, every table position filled once,
//! nothing faulted — the steady state of flooding protocols, and a
//! forwarding wave under beacon spam) is then done: sender plane and span
//! lengths are static. Otherwise the round is **compacted**: positions no
//! message wrote keep a hole mark, one sequential pass closes each span's
//! holes, copying the table's static senders, and the round's **extras**
//! — duplicates, repeated sends to one neighbour (honest or Byzantine)
//! and due redeliveries, each carrying its table position — are appended
//! behind their spans, which alone are rank-tagged and counting-sorted. A
//! span has room for its node's degree; one whose kept messages and
//! extras need more **spills**: it closes up at the arena's tail instead.
//! A send to a distinct neighbour owns its position whatever its place in
//! the outbox, so sends out of neighbour order need no extra.
//!
//! A compacted round that carries at most `n / 4` messages is **sparse**
//! (about half of Algorithm 2's rounds: iteration starts and continue
//! windows). It lists the spans its sends, redeliveries and Byzantine
//! messages reach and marks, compacts and sorts only those; the hole
//! marks outside them survive in the arena generation, so the next sparse
//! round there re-marks only the spans this one listed. A **dense** round
//! marks the whole reference plane and sweeps every span, with no
//! per-message bookkeeping.
//!
//! Transcripts never depend on the round's shape (full, dense or sparse,
//! spilled or not) or the pool size: every path is stable per sender and lands
//! each inbox in the canonical order. The crate's unit tests diff the
//! engine, inbox by inbox at every round, against a literal reference
//! executor that uses none of this machinery (no routing table, ranks,
//! or arena); `tests/determinism_parallel.rs` and `tests/fault_plan.rs` pin
//! a one-thread pool's transcripts against pools of 2, 4 and 8 workers,
//! and `tests/zero_alloc.rs` proves every steady-state round shape
//! allocation-free.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use bcount_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::adversary::{Adversary, ByzantineContext, FullInfoView, HonestTraffic};
use crate::execution::Ranked;
use crate::fault::{CrashEvent, FaultPlan, DUPLICATE};
use crate::idspace::{assign_pids, Pid, PidIndex};
use crate::message::{push_payload, DeliveryMap, Inbox, InboxArena, MessageSize, HOLE};
use crate::metrics::Metrics;
use crate::protocol::{NodeContext, Outbox, Protocol};

/// Marker bound on protocol state the honest compute moves onto the
/// pool's workers: [`Send`] with the `parallel` feature, empty without it.
#[cfg(feature = "parallel")]
pub trait PhaseSend: Send {}
#[cfg(feature = "parallel")]
impl<T: Send> PhaseSend for T {}

/// Marker bound on protocol state the honest compute moves onto the
/// pool's workers: [`Send`] with the `parallel` feature, empty without it.
#[cfg(not(feature = "parallel"))]
pub trait PhaseSend {}
#[cfg(not(feature = "parallel"))]
impl<T> PhaseSend for T {}

/// Marker bound on message types the honest compute shares across the
/// pool's workers: [`Send`]` + `[`Sync`] with the `parallel` feature,
/// empty without it.
#[cfg(feature = "parallel")]
pub trait PhaseShared: Send + Sync {}
#[cfg(feature = "parallel")]
impl<T: Send + Sync> PhaseShared for T {}

/// Marker bound on message types the honest compute shares across the
/// pool's workers: [`Send`]` + `[`Sync`] with the `parallel` feature,
/// empty without it.
#[cfg(not(feature = "parallel"))]
pub trait PhaseShared {}
#[cfg(not(feature = "parallel"))]
impl<T> PhaseShared for T {}

/// A compacted round that carries at most `n / SPARSE_SHARE` messages
/// (honest, redelivered and Byzantine) is **sparse**: it lists the spans
/// its messages reach and marks, compacts and sorts those alone, where a
/// dense one sweeps the whole reference plane and every span. About half
/// of Algorithm 2's rounds (iteration starts, continue windows) are
/// sparse at this share.
const SPARSE_SHARE: u64 = 4;

/// How a round places its messages; see
/// [`Execution::deliver_arena_table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Every table position filled once: the static planes stand.
    Full,
    /// Compacted, over the whole reference plane and every span.
    Dense,
    /// Compacted, over the spans the round's messages reach.
    Sparse,
}

/// When the engine should stop (always additionally bounded by
/// [`SimConfig::max_rounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopWhen {
    /// Stop when every honest node reports [`Protocol::has_halted`].
    #[default]
    AllHonestHalted,
    /// Stop as soon as every honest node has an output (it may keep
    /// relaying afterwards; use when only decisions matter).
    AllHonestDecided,
    /// Run exactly `max_rounds` rounds.
    MaxRoundsOnly,
}

/// Why the engine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every honest node halted.
    AllHalted,
    /// Every honest node decided.
    AllDecided,
    /// The round budget ran out.
    MaxRounds,
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed: determines IDs and every node's randomness stream.
    pub seed: u64,
    /// Hard round budget.
    pub max_rounds: u64,
    /// Stop condition.
    pub stop_when: StopWhen,
    /// Record one [`crate::trace::RoundTrace`] per round in
    /// [`Metrics::round_trace`].
    pub record_round_stats: bool,
    /// Deterministic fault-injection plan; see [`crate::fault::FaultPlan`].
    /// A non-empty plan turns on the crash pass and the fault pass, which
    /// rewrites the outboxes in place before the adversary sees them; the
    /// empty default runs neither. See the [module docs](self).
    pub fault: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0DE,
            max_rounds: 100_000,
            stop_when: StopWhen::AllHonestHalted,
            record_round_stats: false,
            fault: FaultPlan::default(),
        }
    }
}

/// The result of an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport<O> {
    /// Rounds executed.
    pub rounds: u64,
    /// Each node's decision (`None` for Byzantine nodes and undecided
    /// honest nodes), indexed by graph node.
    pub outputs: Vec<Option<O>>,
    /// Round at which each node first reported an output: the round it
    /// decided in, round 1 for a node decided at construction (`None` for
    /// Byzantine and undecided nodes).
    pub decided_round: Vec<Option<u64>>,
    /// Whether each honest node had halted when the engine stopped
    /// (`false` for Byzantine nodes).
    pub halted: Vec<bool>,
    /// Byzantine indicator per node.
    pub is_byzantine: Vec<bool>,
    /// Protocol-level identity of each node.
    pub pids: Vec<Pid>,
    /// Message accounting.
    pub metrics: Metrics,
    /// Why the engine stopped.
    pub stop_reason: StopReason,
}

impl<O> SimReport<O> {
    /// Indices of the honest nodes.
    pub fn honest_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.is_byzantine.len()).filter(move |&i| !self.is_byzantine[i])
    }

    /// Number of honest nodes.
    pub fn honest_count(&self) -> usize {
        self.is_byzantine.iter().filter(|b| !**b).count()
    }

    /// Number of honest nodes that decided.
    pub fn honest_decided_count(&self) -> usize {
        self.honest_nodes()
            .filter(|&i| self.outputs[i].is_some())
            .count()
    }
}

/// A synchronous execution of one protocol against one adversary on one
/// graph.
///
/// See the [crate docs](crate) for the model; construct with
/// [`Execution::new`], drive with [`Execution::step`],
/// [`Execution::step_rounds`] or [`Execution::run`], and read between
/// rounds with [`Execution::snapshot_with`] and
/// [`Execution::node_states_with`]. See the [module docs](self) for the
/// hot-path buffer architecture; [`Execution::erase`] gives the
/// type-erased session surface the daemon embeds.
///
/// The stepping rule: [`Execution::step`] checks the stop condition
/// **before** it runs a round, so a finished execution never steps
/// further, and any interleaving of `step` / `step_rounds` / query calls
/// that reaches the stop condition ends in a state byte-identical to one
/// uninterrupted [`Execution::run`].
///
/// The engine is generic over how the graph is held: `G` is anything that
/// borrows a [`Graph`] — `&Graph` (the classical shape; harnesses reuse
/// one graph across many executions) or an owned `Graph`/`Arc<Graph>`
/// (long-lived embeddings like `bcountd` sessions, which cannot tie a
/// session's lifetime to a caller's stack frame). Access always goes
/// through one `Borrow::borrow` no-op, so the hot path is unaffected.
pub struct Execution<G, P: Protocol, A> {
    graph: G,
    config: SimConfig,
    adversary: A,
    pids: Vec<Pid>,
    pid_index: PidIndex,
    /// The routing table (`DeliveryMap`), built once: every slot's
    /// destination and arena position, every node's degree-prefix offset
    /// and distinct in-degree, every position's static sender. Each
    /// distinct sender owns one position of its destination's span, in
    /// sender-pid order; a repeated slot of a parallel edge holds
    /// [`HOLE`], as [`NodeContext::send`] and [`NodeContext::broadcast`]
    /// never resolve to one. A full round copies the static senders and
    /// in-degrees into an arena once, and they stay invariant across
    /// consecutive full rounds.
    routes: DeliveryMap,
    /// Every node's sorted neighbour pids, flat in the table's slot order:
    /// node `u`'s are `neighbor_pids[routes.slots(u)]`.
    neighbor_pids: Vec<Pid>,
    pub(crate) is_byzantine: Vec<bool>,
    protocols: Vec<Option<P>>,
    rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    /// Live SoA message arena: what each node received at the end of last
    /// round. Double-buffered with `arena_staged`, swapped each round.
    arena: InboxArena<P::Message>,
    /// Arena staging for the round in flight.
    arena_staged: InboxArena<P::Message>,
    /// Per-destination extras tally of a compacted round: counted after
    /// the fill, read by the compaction (room and spill), re-zeroed by the
    /// sort.
    dest_counts: Vec<u32>,
    /// Whether each outbox's slots strictly increase this round (set by
    /// the merge's scan; the fault pass keeps it). Every send goes through
    /// a first slot, so that is at most one message per distinct directed
    /// edge, each with its own table position: the **full** path needs
    /// it, and the compacted fill skips its per-send repeat check under
    /// it. Any other round is compacted.
    slots_increase: bool,
    /// Per-node outgoing scratch lent to [`NodeContext`] each round:
    /// (neighbour slot, payload index) sends plus the payload plane.
    outboxes: Vec<Outbox<P::Message>>,
    /// The round's messages without a table position of their own, as
    /// (from, to, index into the staged arena's payload store): the due
    /// redeliveries, queued by the fault pass (the adversary's view reads
    /// them here); at delivery, also the other extras of a compacted
    /// round — duplicates and repeated sends to one neighbour, which the
    /// fill collects in node order ahead of the redeliveries, and then the
    /// Byzantine repeats.
    extras: Vec<(NodeId, NodeId, u32)>,
    /// Table positions aligned entry-for-entry with `extras`, whose
    /// counting-sort ranks they give (kept separate so the adversary's
    /// view of the redeliveries stays a plain `(from, to, payload)`
    /// slice).
    extra_pos: Vec<u32>,
    /// The adversary's traffic of the round in flight, as (from, to,
    /// index into `byz_payloads`).
    byz_outgoing: Vec<(NodeId, NodeId, u32)>,
    /// The adversary's payload plane: each message it sends stored once
    /// (a Byzantine broadcast, once for all its recipients), moved into
    /// the staged arena's payload store at delivery.
    byz_payloads: Vec<P::Message>,
    /// Table positions aligned with `byz_outgoing`.
    byz_pos: Vec<u32>,
    /// One bit per table position, all clear between rounds: the full
    /// test sets one per Byzantine message to find a Byzantine sender's
    /// repeat, then clears them.
    byz_seen: Vec<u64>,
    /// Permutation scratch for the in-place counting sort of one span
    /// (delivery is serial, so one serves every span).
    inbox_pos: Vec<u32>,
    /// Per-rank counters of the span being sorted, sized to the largest
    /// distinct in-degree; zeroed between uses.
    rank_counts: Vec<u32>,
    /// Honest messages in flight this round: the merge's count, as the
    /// fault pass leaves it — the adversary's [`HonestTraffic::len`].
    round_honest_messages: u64,
    /// Whether [`SimConfig::fault`] is non-empty — resolved once at
    /// construction. It turns on the crash pass and the fault pass in
    /// [`Execution::step`].
    faults_active: bool,
    /// The dedicated fault stream ([`FaultPlan::seed`]); untouched when
    /// the plan is empty, so no-fault transcripts are unchanged.
    fault_rng: ChaCha8Rng,
    /// The crash schedule, sorted by `(round, node)`; consumed through
    /// `crash_cursor`.
    crash_schedule: Vec<CrashEvent>,
    crash_cursor: usize,
    /// Crash-stop indicator per node: a crashed node neither computes
    /// nor sends from its crash round on (but keeps receiving — its
    /// inbox just goes unread) and leaves the stop-condition census.
    pub(crate) crashed: Vec<bool>,
    /// Delayed messages awaiting redelivery, in due-round order (the
    /// constant per-plan delay makes push order due-order).
    delayed: std::collections::VecDeque<Delayed<P::Message>>,
    /// Round at which each node first reported an output (`None` for
    /// undecided and Byzantine nodes).
    pub(crate) decided_round: Vec<Option<u64>>,
    /// Whether each node has halted (`false` for Byzantine nodes).
    pub(crate) halted: Vec<bool>,
    /// Each node's decision as the engine recorded it (`None` for
    /// Byzantine and undecided nodes): [`Protocol::output`] in the round
    /// the node first decides. Decisions are irrevocable, so snapshots
    /// and reports read this dense table instead of the protocol
    /// instances.
    pub(crate) outputs: Vec<Option<P::Output>>,
    /// Every node whose decision was recorded, round by round: each
    /// decided honest node once. Snapshots merge the entries added since
    /// their last read into `ranked`.
    pub(crate) decision_log: Vec<u32>,
    /// The live decided honest nodes in rank order, kept across snapshots
    /// (see [`Execution::snapshot_with`]); the crash pass takes crashed
    /// nodes out.
    pub(crate) ranked: RefCell<Ranked>,
    /// The node census, kept where the state changes.
    pub(crate) census: Census,
    metrics: Metrics,
    round: u64,
}

/// Tallies the engine keeps where the state changes, so the stop check,
/// the round trace and a snapshot read them in O(1): the compute leaves
/// count decisions and halts, the crash pass takes a crashed node out,
/// the merge adds up the honest sends.
#[derive(Default)]
pub(crate) struct Census {
    /// Byzantine nodes (fixed at construction).
    pub(crate) byzantine: usize,
    /// Honest nodes not crash-stopped.
    pub(crate) live: usize,
    /// Live honest nodes that have decided (have a decided round).
    pub(crate) decided: usize,
    /// Live honest nodes that have halted.
    pub(crate) halted: usize,
    /// Messages honest nodes sent so far.
    pub(crate) messages: u64,
    /// Bits honest nodes sent so far.
    pub(crate) bits: u64,
}

/// A delayed message in the pending-redelivery queue: the round it
/// becomes deliverable, plus the send routed through the table. It
/// owns a clone of its payload (the round's payload store
/// is recycled long before the message comes due).
struct Delayed<M> {
    due: u64,
    from: NodeId,
    to: NodeId,
    pos: u32,
    msg: M,
}

impl<G, P, A> Execution<G, P, A>
where
    G: std::borrow::Borrow<Graph>,
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    /// The execution's graph.
    pub fn graph(&self) -> &Graph {
        self.graph.borrow()
    }

    /// Sets up an execution.
    ///
    /// `factory` builds the honest protocol instance for each node; it
    /// receives the graph node id (for experiment bookkeeping, e.g.
    /// planting inputs) and the [`NodeInit`] describing what the *node
    /// itself* legitimately knows: its [`Pid`] and its neighbours' [`Pid`]s.
    /// Byzantine nodes get no protocol instance — `adversary` speaks for
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `byzantine` contains an out-of-range node.
    pub fn new(
        graph: G,
        byzantine: &[NodeId],
        mut factory: impl FnMut(NodeId, &NodeInit) -> P,
        adversary: A,
        config: SimConfig,
    ) -> Self {
        let g: &Graph = graph.borrow();
        let n = g.len();
        let mut master = ChaCha8Rng::seed_from_u64(config.seed);
        let pids = assign_pids(n, &mut master);
        let pid_index = PidIndex::new(&pids);
        let (neighbor_pids, routes) = DeliveryMap::build(g, &pids);
        let mut is_byzantine = vec![false; n];
        for &b in byzantine {
            assert!(b.index() < n, "byzantine node {b} out of range");
            is_byzantine[b.index()] = true;
        }
        let rngs: Vec<ChaCha8Rng> = (0..n)
            .map(|_| ChaCha8Rng::seed_from_u64(master.gen()))
            .collect();
        let adversary_rng = ChaCha8Rng::seed_from_u64(master.gen());
        let protocols: Vec<Option<P>> = (0..n)
            .map(|u| {
                if is_byzantine[u] {
                    None
                } else {
                    let init = NodeInit {
                        pid: pids[u],
                        neighbors: neighbor_pids[routes.slots(u)].to_vec(),
                    };
                    Some(factory(NodeId(u as u32), &init))
                }
            })
            .collect();
        let byzantine = is_byzantine.iter().filter(|b| **b).count();
        let census = Census {
            byzantine,
            live: n - byzantine,
            ..Census::default()
        };
        let max_distinct = routes.distinct().iter().max().copied().unwrap_or(0);
        let faults_active = !config.fault.is_empty();
        let mut crash_schedule = config.fault.crashes.clone();
        crash_schedule.sort_unstable_by_key(|ev| (ev.round, ev.node));
        for ev in &crash_schedule {
            assert!(
                (ev.node as usize) < n,
                "crash event node {} out of range",
                ev.node
            );
        }
        let fault_rng = ChaCha8Rng::seed_from_u64(config.fault.seed);
        let slot_total = g.degree_sum();
        // Degree-indexed pre-sizing: a node receives (and sends) at most
        // one message per adjacent edge in the ubiquitous
        // broadcast-per-round workloads, so `degree` capacity skips every
        // warm-up growth check on those paths; heavier protocols still
        // grow amortized.
        let degree = |v: usize| g.degree(NodeId(v as u32));
        // Built before the struct literal: these capacity closures borrow
        // the graph through `g`, and the literal moves `graph` itself.
        // Payload planes warm up with each node's first send, so setup
        // allocates none.
        let outboxes: Vec<Outbox<P::Message>> =
            (0..n).map(|v| Outbox::with_capacity(degree(v))).collect();
        // A duplicating plan can deliver up to twice the messages of a
        // round that sends once per slot, and twice a node's degree into
        // one span, and it stages its duplicates in `extras`.
        // Reserving that room (address space, not resident memory, until a
        // round needs it) keeps a rare burst of duplicates from growing a
        // buffer long after warm-up.
        let dup_room = usize::from(config.fault.dup_per_mille > 0);
        let arena_cap = slot_total << dup_room;
        let staged_cap = arena_cap * dup_room;
        let inbox_pos = Vec::with_capacity(g.max_degree() << dup_room);
        Execution {
            graph,
            config,
            adversary,
            pids,
            pid_index,
            neighbor_pids,
            is_byzantine,
            protocols,
            rngs,
            adversary_rng,
            outboxes,
            arena: InboxArena::new(n, routes.span_starts(), arena_cap),
            arena_staged: InboxArena::new(n, routes.span_starts(), arena_cap),
            dest_counts: vec![0; n],
            routes,
            slots_increase: false,
            extras: Vec::with_capacity(staged_cap),
            extra_pos: Vec::with_capacity(staged_cap),
            byz_outgoing: Vec::new(),
            byz_payloads: Vec::new(),
            byz_pos: Vec::new(),
            byz_seen: vec![0; slot_total.div_ceil(64)],
            inbox_pos,
            rank_counts: vec![0; max_distinct as usize],
            round_honest_messages: 0,
            faults_active,
            fault_rng,
            crash_schedule,
            crash_cursor: 0,
            crashed: vec![false; n],
            delayed: std::collections::VecDeque::new(),
            decided_round: vec![None; n],
            halted: vec![false; n],
            outputs: vec![None; n],
            // Room for every honest node's one entry, so recording a
            // decision never grows the log.
            decision_log: Vec::with_capacity(n - byzantine),
            ranked: RefCell::default(),
            census,
            metrics: Metrics::new(n),
            round: 0,
        }
    }

    /// Current round (0 before the first [`Execution::step`]).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Message accounting so far (live view; [`SimReport::metrics`] is a
    /// clone of this at stop time).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The protocol instance of an honest, in-flight node.
    pub fn protocol(&self, u: NodeId) -> Option<&P> {
        self.protocols.get(u.index()).and_then(|p| p.as_ref())
    }

    /// Runs one round unless the execution is already finished. Returns
    /// the stop reason if the execution is (or just) finished.
    ///
    /// A round is honest compute, deterministic merge (a scan of the
    /// outboxes), rushing adversary phase, delivery. With a non-empty
    /// [`SimConfig::fault`] plan, scheduled crashes are applied at round
    /// start, and the link-fault pass (drop/duplicate/delay) rewrites the
    /// outboxes before the rushing adversary observes them.
    pub fn step(&mut self) -> Option<StopReason> {
        self.step_rounds(1)
    }

    /// Runs up to `rounds` rounds, stopping early at the stop condition.
    /// Returns the stop reason if the execution finished on the way.
    pub fn step_rounds(&mut self, rounds: u64) -> Option<StopReason> {
        for _ in 0..rounds {
            if let Some(reason) = self.finished() {
                return Some(reason);
            }
            self.execute_round();
        }
        self.finished()
    }

    /// Executes one round whether or not the stop condition holds.
    fn execute_round(&mut self) {
        self.round += 1;
        if self.faults_active {
            self.apply_crashes();
        }
        self.honest_phase();
        self.merge_arena_count();
        let faulted = self.faults_active && self.fault_pass();
        self.adversary_phase();
        if self.faults_active {
            self.silence_crashed_byzantine();
        }
        self.deliver(faulted);
    }

    /// Applies every crash event scheduled at or before the current
    /// round. Idempotent per node; each first-time crash is counted in
    /// [`Metrics::crashed`], and a crashed honest node leaves the census
    /// and the kept ranking.
    fn apply_crashes(&mut self) {
        let before = self.metrics.crashed;
        while let Some(ev) = self.crash_schedule.get(self.crash_cursor) {
            if ev.round > self.round {
                break;
            }
            let u = ev.node as usize;
            if !self.crashed[u] {
                self.crashed[u] = true;
                self.metrics.crashed += 1;
                if !self.is_byzantine[u] {
                    self.census.live -= 1;
                    self.census.decided -= usize::from(self.decided_round[u].is_some());
                    self.census.halted -= usize::from(self.halted[u]);
                }
            }
            self.crash_cursor += 1;
        }
        if self.metrics.crashed != before {
            let crashed = &self.crashed;
            let order = &mut self.ranked.get_mut().order;
            order.retain(|&u| !crashed[u as usize]);
        }
    }

    /// The link-fault pass: one dedicated-stream draw per send decides
    /// drop / duplicate / delay / pass (partitioned in that order over
    /// `[0, 1000)`), over the outboxes in node order and send order — the
    /// order the model defines. Runs after the merge recorded the metrics
    /// and before the rushing adversary observes the traffic, so the
    /// adversary sees what the faulty links actually carry. A drop or a
    /// delay removes its send, a duplicate marks it with [`DUPLICATE`]:
    /// no send moves, so the merge's slot scan stands. Only a
    /// delayed message clones its payload, into the redelivery queue; every
    /// delayed message that comes due is then queued in `extras`,
    /// its payload moved into the staged store. Redelivered messages are
    /// never re-faulted, and crash-only plans (all rates zero) make no RNG
    /// draws at all. Returns whether the pass changed the round's traffic.
    fn fault_pass(&mut self) -> bool {
        let plan = &self.config.fault;
        let drop_below = u32::from(plan.drop_per_mille);
        let dup_below = drop_below + u32::from(plan.dup_per_mille);
        let delay_below = dup_below + u32::from(plan.delay_per_mille);
        let due = self.round + plan.delay_rounds.max(1);
        let (mut removed, mut added) = (0u64, 0u64);
        if delay_below > 0 {
            for (u, outbox) in self.outboxes.iter_mut().enumerate() {
                if outbox.is_empty() {
                    continue;
                }
                let (to, pos) = (self.routes.to(u), self.routes.pos(u));
                let Outbox { sends, payloads } = outbox;
                sends.retain_mut(|(slot, payload)| {
                    let roll: u32 = self.fault_rng.gen_range(0..1000);
                    if roll >= delay_below {
                        return true;
                    }
                    if roll < drop_below {
                        self.metrics.dropped += 1;
                    } else if roll < dup_below {
                        self.metrics.duplicated += 1;
                        added += 1;
                        *payload |= DUPLICATE;
                        return true;
                    } else {
                        self.metrics.delayed += 1;
                        self.delayed.push_back(Delayed {
                            due,
                            from: NodeId(u as u32),
                            to: to[*slot as usize],
                            pos: pos[*slot as usize],
                            msg: payloads[*payload as usize].clone(),
                        });
                    }
                    removed += 1;
                    false
                });
                if sends.is_empty() {
                    payloads.clear();
                }
            }
        }
        // Redelivery: everything due this round, in the order it was
        // withheld, behind the fresh traffic (in-flight messages survive
        // a sender's subsequent crash, as crash-stop semantics require).
        while let Some(d) = self.delayed.front() {
            if d.due > self.round {
                break;
            }
            let d = self.delayed.pop_front().expect("front checked");
            let payload = push_payload(&mut self.arena_staged.payloads, d.msg);
            self.extras.push((d.from, d.to, payload));
            self.extra_pos.push(d.pos);
            added += 1;
        }
        self.round_honest_messages = self.round_honest_messages + added - removed;
        removed + added > 0
    }

    /// Drops the adversary's traffic sent from crashed Byzantine nodes:
    /// crash-stop outranks Byzantine behaviour, so a crashed node is
    /// silent no matter who controls it. Runs after the adversary phase
    /// (the adversary cannot observe its way around a crash) and before
    /// delivery accounts the Byzantine senders.
    fn silence_crashed_byzantine(&mut self) {
        if self.crash_cursor == 0 || self.byz_outgoing.is_empty() {
            return;
        }
        let crashed = &self.crashed;
        self.byz_outgoing
            .retain(|(from, _, _)| !crashed[from.index()]);
    }

    /// Honest compute: every live honest node runs [`Protocol::on_round`]
    /// against its own inbox, RNG, and outbox scratch. No cross-node data
    /// is written, so the node range splits into disjoint lanes that
    /// [`crate::pool::for_each_split`] forks across the current pool;
    /// message order is fixed by the merge that follows. A one-thread pool
    /// (always, without the `parallel` feature) runs one leaf over every
    /// node.
    fn honest_phase(&mut self) {
        let n = self.graph().len();
        // One thread: one leaf over every node, no split. Wider: about
        // four leaves per worker leave idle workers something to steal
        // when per-node cost is uneven (halted nodes, skewed degrees); the
        // 64-node floor keeps each fork's deque push and possible wake-up
        // small next to the leaf's compute, so tiny executions run as one
        // inline leaf.
        let width = crate::pool::width();
        let chunk = if width > 1 {
            n.div_ceil(width * 4).max(64)
        } else {
            n
        };
        let tally = LaneTally::default();
        let shared = PhaseInputs {
            round: self.round,
            pids: &self.pids,
            neighbor_pids: &self.neighbor_pids,
            routes: &self.routes,
            inboxes: self.arena.view(&self.pids),
            is_byzantine: &self.is_byzantine,
            crashed: &self.crashed,
            tally: &tally,
        };
        let lane = PhaseLane {
            base: 0,
            protocols: &mut self.protocols,
            rngs: &mut self.rngs,
            outboxes: &mut self.outboxes,
            decided_round: &mut self.decided_round,
            halted: &mut self.halted,
        };
        crate::pool::for_each_split(
            lane,
            &|lane: PhaseLane<'_, P>| split_phase_lane(lane, chunk),
            &|lane: PhaseLane<'_, P>| phase_lane_leaf(shared, lane),
        );
        self.record_decisions(tally);
    }

    /// Adds the compute leaves' tallies to the census and records the
    /// round's decisions in the output table and the decision log. A lane
    /// cannot carry [`Protocol::Output`] values onto the pool's workers
    /// (the output type need not be `Send`), so the copy runs here,
    /// serially, and only in a round in which a node decided.
    fn record_decisions(&mut self, tally: LaneTally) {
        let decided = tally.decided.into_inner();
        self.census.decided += decided;
        self.census.halted += tally.halted.into_inner();
        if decided == 0 {
            return;
        }
        for (u, round) in self.decided_round.iter().enumerate() {
            if *round == Some(self.round) {
                self.outputs[u] = self.protocols[u].as_ref().and_then(P::output);
                self.decision_log.push(u as u32);
            }
        }
    }

    /// The merge: records per-node metrics and scans every outbox's slot
    /// sequence. Every send goes through the first slot of its neighbour,
    /// so when each outbox's slots strictly increase the round sends at
    /// most one message per distinct directed edge, each with its own
    /// position in the slot → position table — the one shape the full
    /// path can place, and one with no repeat for the compacted fill to
    /// look for. Outboxes are left full — delivery drains them,
    /// after the adversary has committed. It also recycles the
    /// staged payload store, which the fault pass's redeliveries and then
    /// delivery fill.
    fn merge_arena_count(&mut self) {
        self.arena_staged.payloads.clear();
        if self.arena_staged.payloads.capacity() == 0 {
            // A store's first round reserves room for one in which every
            // node, honest or Byzantine, broadcasts once (one stored
            // payload per broadcast), so it reaches that working size
            // without a trail of doublings, whose freed chunks stay
            // resident for a large payload.
            let n = self.graph().len();
            self.arena_staged.payloads.reserve_exact(n);
        }
        let (mut sent, mut sent_bits) = (0u64, 0u64);
        let mut increasing = true;
        for (u, (outbox, metrics)) in self
            .outboxes
            .iter()
            .zip(self.metrics.per_node.iter_mut())
            .enumerate()
        {
            if outbox.is_empty() {
                continue;
            }
            let mut next = 0;
            for &(slot, _) in &outbox.sends {
                debug_assert!(
                    self.routes.pos(u)[slot as usize] != HOLE,
                    "every send goes through a first slot"
                );
                increasing &= slot >= next;
                next = slot + 1;
            }
            let (count, bits, max_bits) = outbox_sizes(outbox);
            metrics.record_batch(count, bits, max_bits);
            sent += count;
            sent_bits += bits;
        }
        self.census.messages += sent;
        self.census.bits += sent_bits;
        self.round_honest_messages = sent;
        self.slots_increase = increasing;
    }

    /// The placement. Outboxes drain in natural node order (sequential
    /// memory, not the pid permutation): each send writes only its
    /// reference, at its slot's table position. The Byzantine messages
    /// follow, each at the position [`Execution::deliver`] resolved for
    /// it. Every other plane comes from the routing table.
    ///
    /// * A **full** round (slots strictly increasing, every table position
    ///   filled once by an honest or a Byzantine message, nothing faulted
    ///   — the steady state of flooding protocols, and a forwarding wave
    ///   under beacon spam) is done after the fill: its spans are the
    ///   table's, and the sender plane and span lengths stay invariant
    ///   from the previous full round.
    /// * Otherwise the round is **compacted**. Every table position it
    ///   reaches is a [`HOLE`] before the fill. A message whose position
    ///   the fill already wrote — a repeat to one neighbour, honest (only
    ///   in a round whose slots do not increase) or Byzantine — keeps the
    ///   first message's reference in place and becomes an **extra**, as
    ///   a duplicate does. After the fill one sequential pass over the
    ///   spans closes the holes: it copies each kept reference and its
    ///   static sender down to the span's next free position (plus the
    ///   sender's rank, `p - offsets[v]`, in spans that get extras; an
    ///   extra's rank is its table position less the same offset) and
    ///   sets the span's length. The spans come out in sender-pid order,
    ///   the table's position order. The extras — honest duplicates and
    ///   repeats in send order, Byzantine repeats in emission order, then
    ///   the due redeliveries — are appended behind them, and the spans
    ///   that got extras are counting-sorted; the stable sort puts each
    ///   extra behind its sender's first message in send order, and a
    ///   redelivery after its sender's fresh messages. A span has room for
    ///   as many messages as its node's degree; one whose kept messages
    ///   and extras need more is **spilled**: it closes up at the arena's
    ///   tail instead, past the degree prefix.
    /// * A compacted round is **dense** when it carries more than
    ///   `n / SPARSE_SHARE` messages: it marks the whole reference plane,
    ///   and compacts and sorts over every span, with no per-message
    ///   bookkeeping. A **sparse** round lists the spans its sends, due
    ///   redeliveries and Byzantine messages reach
    ///   ([`Execution::ready_sparse`]) and marks, compacts and sorts only
    ///   those.
    fn deliver_arena_table(&mut self, placement: Placement) {
        let slot_total = self.routes.total_slots();
        let n = self.graph().len();
        let due = self.extras.len();
        let increasing = self.slots_increase;
        let full = placement == Placement::Full;
        self.arena_staged.grow_to(slot_total);
        match placement {
            Placement::Full => {}
            Placement::Dense => self.arena_staged.refs[..slot_total].fill(HOLE),
            Placement::Sparse => self.ready_sparse(),
        }
        let arena = &mut self.arena_staged;
        if !arena.offsets_static {
            // A spilled round moved the offsets; restore the static degree
            // prefix.
            arena.offsets.copy_from_slice(self.routes.span_starts());
            arena.offsets_static = true;
        }
        if full && arena.placed != Placement::Full {
            arena.senders[..slot_total].copy_from_slice(self.routes.senders());
            arena.lens.copy_from_slice(self.routes.distinct());
        }
        arena.placed = placement;
        for u in 0..n {
            let outbox = &mut self.outboxes[u];
            if outbox.is_empty() {
                continue;
            }
            let table = self.routes.pos(u);
            let pbase = arena.take_payloads(&mut outbox.payloads);
            for (slot, payload) in outbox.sends.drain(..) {
                let r = pbase + (payload & !DUPLICATE);
                let pos = table[slot as usize] as usize;
                // Only a round whose slots do not increase can repeat a
                // position. A repeat keeps the first send's reference in
                // place and becomes an extra, as a duplicate does.
                let repeat = !increasing && arena.refs[pos] != HOLE;
                if !repeat {
                    arena.refs[pos] = r;
                    if payload & DUPLICATE == 0 {
                        continue;
                    }
                }
                // One extra, and a second for a duplicated repeat.
                let to = self.routes.to(u)[slot as usize];
                for _ in 0..1 + usize::from(repeat && payload & DUPLICATE != 0) {
                    self.extras.push((NodeId(u as u32), to, r));
                    self.extra_pos.push(pos as u32);
                }
            }
        }
        // The Byzantine messages, through the same table: a sender's first
        // message to a neighbour takes its position, a repeat becomes an
        // extra. A full round has no repeat.
        let pbase = arena.take_payloads(&mut self.byz_payloads);
        let byzantine = self.byz_outgoing.drain(..).zip(self.byz_pos.drain(..));
        for ((from, to, payload), pos) in byzantine {
            let r = pbase + payload;
            if full || arena.refs[pos as usize] == HOLE {
                arena.refs[pos as usize] = r;
            } else {
                self.extras.push((from, to, r));
                self.extra_pos.push(pos);
            }
        }
        if full {
            // Nothing to append and no span to sort: the table *is* the
            // sorted order.
            debug_assert!(self.extras.is_empty());
            return;
        }
        // Each span's extras: the duplicates and the honest and Byzantine
        // repeats the fills collected, and the due redeliveries.
        for &(_, to, _) in &self.extras {
            self.dest_counts[to.index()] += 1;
        }
        // Compaction, then the extras behind each span's kept messages,
        // and the sort of the spans that got them: over every span of a
        // dense round, over the listed ones of a sparse round.
        let dirty = std::mem::take(&mut self.arena_staged.dirty);
        let spans = (placement == Placement::Sparse).then_some(dirty.as_slice());
        let mut tail = slot_total;
        for_each_span(spans, n, |v| self.compact_span(v, &mut tail));
        if !self.extras.is_empty() {
            // Honest duplicates and repeats, then Byzantine repeats, then
            // the redeliveries in the order they were withheld.
            self.extras.rotate_left(due);
            self.extra_pos.rotate_left(due);
            let arena = &mut self.arena_staged;
            let extras = self.extras.drain(..).zip(self.extra_pos.drain(..));
            for ((from, to, r), p) in extras {
                let v = to.index();
                let pos = (arena.offsets[v] + arena.lens[v]) as usize;
                arena.lens[v] += 1;
                arena.senders[pos] = from;
                arena.refs[pos] = r;
                arena.ranks[pos] = p - self.routes.span_starts()[v];
            }
            for_each_span(spans, n, |v| {
                if self.dest_counts[v] != 0 {
                    self.dest_counts[v] = 0;
                    self.sort_staged_span(v);
                }
            });
        }
        self.arena_staged.dirty = dirty;
    }

    /// Readies the staged generation for a sparse round, whose table
    /// positions must be holes in every span it reaches. When the
    /// generation's last round was sparse too, every position outside
    /// the spans that round listed still is one, so re-marking those
    /// spans suffices; after any other round the whole plane is marked.
    /// Then the span lengths are zeroed, and `dirty` lists each span the
    /// round's sends, due redeliveries and Byzantine messages reach, once
    /// (a listed span's length is 1 until its compaction sets it).
    fn ready_sparse(&mut self) {
        let arena = &mut self.arena_staged;
        if arena.placed == Placement::Sparse {
            for &v in &arena.dirty {
                let o = self.routes.span_starts()[v as usize] as usize;
                let end = o + self.routes.distinct()[v as usize] as usize;
                arena.refs[o..end].fill(HOLE);
            }
        } else {
            arena.refs[..self.routes.total_slots()].fill(HOLE);
        }
        arena.dirty.clear();
        arena.lens.fill(0);
        let InboxArena { lens, dirty, .. } = arena;
        let mut reach = |to: NodeId| {
            let v = to.index();
            if lens[v] == 0 {
                lens[v] = 1;
                dirty.push(v as u32);
            }
        };
        for (u, outbox) in self.outboxes.iter().enumerate() {
            if outbox.is_empty() {
                continue;
            }
            let to = self.routes.to(u);
            for &(slot, _) in &outbox.sends {
                reach(to[slot as usize]);
            }
        }
        let byzantine = self.byz_outgoing.iter().map(|&(_, to, _)| to);
        let redelivered = self.extras.iter().map(|&(_, to, _)| to);
        redelivered.chain(byzantine).for_each(reach);
    }

    /// Closes span `v`'s holes in the staged generation and sets its
    /// length to the messages it kept. Most spans are empty (a quiet
    /// round) or whole (a forwarding wave), and a vectorised count of the
    /// kept references tells which: an empty span only gets its length, a
    /// whole one without extras keeps its references in place and copies
    /// its sender plane. A span with holes closes up in place — `k` trails
    /// `p`, branch-free: a hole is copied too, and overwritten by the next
    /// kept message or left past the span's end. A span whose kept
    /// messages and extras overflow its degree moves to the arena's
    /// `tail` (advanced past it) and closes up there.
    #[inline(always)]
    fn compact_span(&mut self, v: usize, tail: &mut usize) {
        let g: &Graph = self.graph.borrow();
        let arena = &mut self.arena_staged;
        let o = arena.offsets[v] as usize;
        let end = o + self.routes.distinct()[v] as usize;
        let kept = arena.refs[o..end].iter().filter(|&&r| r != HOLE).count();
        let extras = self.dest_counts[v] as usize;
        let mut base = o;
        if extras > 0 && kept + extras > g.degree(NodeId(v as u32)) {
            base = *tail;
            *tail += kept + extras;
            arena.grow_to(*tail);
            arena.offsets[v] = base as u32;
            arena.offsets_static = false;
        }
        arena.lens[v] = kept as u32;
        if kept == 0 {
            return;
        }
        let ranked = extras != 0;
        if kept == end - o && !ranked {
            arena.senders[o..end].copy_from_slice(&self.routes.senders()[o..end]);
            return;
        }
        let mut k = base;
        for p in o..end {
            let r = arena.refs[p];
            arena.refs[k] = r;
            arena.senders[k] = self.routes.senders()[p];
            if ranked {
                arena.ranks[k] = (p - o) as u32;
            }
            k += usize::from(r != HOLE);
        }
    }

    /// Stable counting sort of node `v`'s staged span by sender rank — an
    /// index-permuting cycle walk over the small parallel arrays.
    fn sort_staged_span(&mut self, v: usize) {
        let arena = &mut self.arena_staged;
        if arena.lens[v] <= 1 {
            return;
        }
        let o0 = arena.offsets[v] as usize;
        let o1 = o0 + arena.lens[v] as usize;
        finish_inbox_soa(
            &mut arena.senders[o0..o1],
            &mut arena.refs[o0..o1],
            &arena.ranks[o0..o1],
            &mut self.inbox_pos,
            &mut self.rank_counts[..self.routes.distinct()[v] as usize],
        );
    }

    /// Rushing adversary phase: the adversary observes the complete honest
    /// states and this round's in-flight honest messages before committing
    /// the Byzantine traffic. The traffic view reads the outboxes in place
    /// (as the fault pass left them), then the due redeliveries the fault
    /// pass queued.
    fn adversary_phase(&mut self) {
        debug_assert!(self.byz_outgoing.is_empty() && self.byz_payloads.is_empty());
        let view = FullInfoView {
            round: self.round,
            graph: self.graph.borrow(),
            pids: &self.pids,
            pid_index: &self.pid_index,
            is_byzantine: &self.is_byzantine,
            honest_states: &self.protocols,
            honest_outgoing: HonestTraffic {
                outboxes: &self.outboxes,
                routes: &self.routes,
                sends: &self.extras,
                payloads: &self.arena_staged.payloads,
                len: self.round_honest_messages as usize,
            },
            inboxes: self.arena.view(&self.pids),
        };
        let mut ctx = ByzantineContext {
            graph: self.graph.borrow(),
            is_byzantine: &self.is_byzantine,
            rng: &mut self.adversary_rng,
            outgoing: &mut self.byz_outgoing,
            payloads: &mut self.byz_payloads,
        };
        self.adversary.on_round(&view, &mut ctx);
    }

    /// Delivery: accounts the Byzantine traffic and resolves its table
    /// positions, picks the round's [`Placement`], places the round's
    /// messages into the staged arena through the slot → position table
    /// ([`Execution::deliver_arena_table`]), sorts what needs sorting,
    /// and swaps the double buffer. `faulted` says whether the fault pass
    /// changed the round's traffic.
    fn deliver(&mut self, faulted: bool) {
        debug_assert_eq!(self.extra_pos.len(), self.extras.len());
        debug_assert!(self.byz_pos.is_empty());
        let honest_messages = self.round_honest_messages;
        let byzantine_messages = self.byz_outgoing.len() as u64;
        // Account and route the Byzantine traffic up front: the
        // adversary's (from, to) pairs carry no slot, so each resolves as
        // `NodeContext::send` does, to the first slot of `to` in `from`'s
        // sorted neighbour pids, and takes that slot's position.
        for &(from, to, payload) in &self.byz_outgoing {
            let msg = &self.byz_payloads[payload as usize];
            self.metrics.per_node[from.index()].record(msg.size_bits(Pid::BITS));
            let to_pid = self.pids[to.index()];
            let nbrs = &self.neighbor_pids[self.routes.slots(from.index())];
            let slot = nbrs.partition_point(|&p| p < to_pid);
            debug_assert_eq!(
                nbrs.get(slot),
                Some(&to_pid),
                "byzantine edge checked at send"
            );
            self.byz_pos.push(self.routes.pos(from.index())[slot]);
        }
        // A round whose honest slots increase and whose Byzantine senders
        // do not repeat fills every table position iff it sends one
        // message per (destination, distinct sender) pair — not one per
        // directed edge: a multigraph's parallel edges share a position.
        // The count alone is not enough once the fault pass changed
        // anything (one drop plus one duplicate keeps it at the number of
        // positions and leaves a hole), nor when a Byzantine sender sends
        // twice to one neighbour and not at all to another; the repeat
        // test runs only when the count matches.
        let messages = honest_messages + byzantine_messages;
        let placement = if self.slots_increase
            && !faulted
            && messages == self.routes.positions()
            && !self.byzantine_repeats()
        {
            Placement::Full
        } else if messages <= self.graph().len() as u64 / SPARSE_SHARE {
            Placement::Sparse
        } else {
            Placement::Dense
        };
        self.deliver_arena_table(placement);
        std::mem::swap(&mut self.arena, &mut self.arena_staged);
        self.metrics.rounds = self.round;
        if self.config.record_round_stats {
            self.metrics.round_trace.push(crate::trace::RoundTrace {
                round: self.round,
                honest_messages,
                byzantine_messages,
                decided: self.census.decided,
                halted: self.census.halted,
            });
        }
    }

    /// Whether a Byzantine sender sends twice to one neighbour this round
    /// (two messages for one table position). Sets one bit of `byz_seen`
    /// per Byzantine message, then clears the words it touched.
    fn byzantine_repeats(&mut self) -> bool {
        let words = self
            .byz_pos
            .iter()
            .map(|&pos| (pos as usize / 64, 1u64 << (pos % 64)));
        let mut repeat = false;
        for (word, bit) in words.clone() {
            repeat |= self.byz_seen[word] & bit != 0;
            self.byz_seen[word] |= bit;
        }
        for (word, _) in words {
            self.byz_seen[word] = 0;
        }
        repeat
    }

    /// How the last executed round was placed — `"full"`, `"compacted"`
    /// (dense), `"spilled"` (dense, with a span at the arena's tail),
    /// `"sparse"` or `"sparse, spilled"` — read off the delivered
    /// generation.
    #[cfg(test)]
    pub(crate) fn last_placement(&self) -> &'static str {
        let a = &self.arena;
        match (a.placed, a.offsets_static) {
            (Placement::Full, _) => "full",
            (Placement::Dense, true) => "compacted",
            (Placement::Dense, false) => "spilled",
            (Placement::Sparse, true) => "sparse",
            (Placement::Sparse, false) => "sparse, spilled",
        }
    }

    /// The messages node `u` received at the end of the last executed
    /// round, sorted by sender — the same view the node's
    /// [`NodeContext::inbox`] will expose next round. Public for
    /// instrumentation and equivalence testing; [`Inbox`] comparisons are
    /// by content.
    pub fn inbox(&self, u: NodeId) -> Inbox<'_, P::Message> {
        self.arena.inbox(u.index(), &self.pids)
    }

    /// `Some(reason)` once the configured stop condition holds — the check
    /// [`Execution::step`] makes before each round, so a finished
    /// execution will not step further. It reads the engine's census, so
    /// it costs the same at every size.
    pub fn finished(&self) -> Option<StopReason> {
        // Crashed nodes leave the census: the stop condition is about
        // the *surviving* honest nodes.
        let c = &self.census;
        match self.config.stop_when {
            StopWhen::AllHonestHalted if c.halted == c.live => Some(StopReason::AllHalted),
            StopWhen::AllHonestDecided if c.decided == c.live => Some(StopReason::AllDecided),
            _ if self.round >= self.config.max_rounds => Some(StopReason::MaxRounds),
            _ => None,
        }
    }

    /// Runs rounds until the configured stop condition (or the round
    /// budget) is reached and reports the outcome.
    pub fn run(&mut self) -> SimReport<P::Output> {
        self.step_rounds(u64::MAX);
        self.report()
            .expect("the round budget stops every execution")
    }

    /// The full typed report of the current state, available once the
    /// execution finished. Its outputs are the engine's record of each
    /// node's decision (see [`Protocol::output`]), not a fresh read of
    /// the protocol instances.
    pub fn report(&self) -> Option<SimReport<P::Output>> {
        let stop_reason = self.finished()?;
        Some(SimReport {
            rounds: self.round,
            outputs: self.outputs.clone(),
            decided_round: self.decided_round.clone(),
            halted: self.halted.clone(),
            is_byzantine: self.is_byzantine.clone(),
            pids: self.pids.clone(),
            metrics: self.metrics.clone(),
            stop_reason,
        })
    }
}

/// Calls `f` on each span of `list`, or on every span `0..n` without one.
#[inline(always)]
fn for_each_span(list: Option<&[u32]>, n: usize, mut f: impl FnMut(usize)) {
    match list {
        Some(list) => list.iter().for_each(|&v| f(v as usize)),
        None => (0..n).for_each(f),
    }
}

/// Stable in-place counting sort of one arena span by precomputed sender
/// rank. Produces exactly the output of a *stable* comparison sort by
/// sender pid (ranks are order-isomorphic to pids per destination, and
/// `pos[i] = start[rank[i]]++` preserves staging order within a rank),
/// with no comparisons and no allocation once `pos` has warmed up. The
/// permutation is computed over the small `ranks`/`pos` index arrays and
/// applied by cycle-walking the parallel `senders`/`refs` slices — `u32`
/// payload references, so no payload is ever moved. `ranks` is read-only
/// (keys in staging order); `counts` is the destination's slice of the
/// flat per-sender counter array — it must arrive zeroed and is re-zeroed
/// before returning.
fn finish_inbox_soa(
    senders: &mut [NodeId],
    refs: &mut [u32],
    ranks: &[u32],
    pos: &mut Vec<u32>,
    counts: &mut [u32],
) {
    let k = senders.len();
    debug_assert_eq!(refs.len(), k);
    debug_assert_eq!(ranks.len(), k);
    if k <= 1 {
        return;
    }
    debug_assert!(counts.iter().all(|&c| c == 0));
    for &r in ranks {
        counts[r as usize] += 1;
    }
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let start = sum;
        sum += *c;
        *c = start;
    }
    pos.clear();
    for &r in ranks {
        pos.push(counts[r as usize]);
        counts[r as usize] += 1;
    }
    for c in counts.iter_mut() {
        *c = 0;
    }
    for i in 0..k {
        while pos[i] as usize != i {
            let j = pos[i] as usize;
            senders.swap(i, j);
            refs.swap(i, j);
            pos.swap(i, j);
        }
    }
}

/// One outbox's send accounting: message count, total bits, and the
/// largest message's bits. Each payload's `size_bits` is evaluated once
/// and charged once per send referencing it (the sends of one broadcast
/// are consecutive and share its payload), so the totals equal a
/// per-message evaluation's. A single-payload outbox (one broadcast, or
/// one send) needs no walk over the sends at all. IDs are charged at
/// [`Pid::BITS`].
fn outbox_sizes<M: MessageSize>(outbox: &Outbox<M>) -> (u64, u64, u64) {
    let count = outbox.sends.len() as u64;
    if let [msg] = outbox.payloads.as_slice() {
        let size = msg.size_bits(Pid::BITS);
        return (count, size * count, size);
    }
    let mut bits = 0u64;
    let mut max_bits = 0u64;
    let mut last = u32::MAX;
    let mut size = 0u64;
    for &(_, payload) in &outbox.sends {
        if payload != last {
            size = outbox.payloads[payload as usize].size_bits(Pid::BITS);
            max_bits = max_bits.max(size);
            last = payload;
        }
        bits += size;
    }
    (count, bits, max_bits)
}

/// Read-only inputs of the honest compute phase (shared across workers).
struct PhaseInputs<'a, P: Protocol> {
    round: u64,
    pids: &'a [Pid],
    neighbor_pids: &'a [Pid],
    routes: &'a DeliveryMap,
    inboxes: crate::message::InboxesView<'a, P::Message>,
    is_byzantine: &'a [bool],
    crashed: &'a [bool],
    tally: &'a LaneTally,
}

/// What the compute leaves count, added up after the join: decisions and
/// halts. Each leaf adds its lane's counts once, `Relaxed`: the counts
/// publish no other data, and the pool's join orders every add before
/// the reads.
#[derive(Default)]
struct LaneTally {
    decided: AtomicUsize,
    halted: AtomicUsize,
}

impl<'a, P: Protocol> Clone for PhaseInputs<'a, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, P: Protocol> Copy for PhaseInputs<'a, P> {}

/// The contiguous span of per-node mutable state a worker owns.
struct PhaseLane<'a, P: Protocol> {
    base: usize,
    protocols: &'a mut [Option<P>],
    rngs: &'a mut [ChaCha8Rng],
    outboxes: &'a mut [Outbox<P::Message>],
    decided_round: &'a mut [Option<u64>],
    halted: &'a mut [bool],
}

/// Halves a compute lane (all five per-node slices split at the same node
/// boundary), or declares it a leaf at `chunk` nodes or fewer.
fn split_phase_lane<P: Protocol>(
    lane: PhaseLane<'_, P>,
    chunk: usize,
) -> crate::pool::Split<PhaseLane<'_, P>> {
    let len = lane.protocols.len();
    if len <= chunk {
        return crate::pool::Split::Leaf(lane);
    }
    let mid = len / 2;
    let (proto_l, proto_r) = lane.protocols.split_at_mut(mid);
    let (rng_l, rng_r) = lane.rngs.split_at_mut(mid);
    let (out_l, out_r) = lane.outboxes.split_at_mut(mid);
    let (dec_l, dec_r) = lane.decided_round.split_at_mut(mid);
    let (halt_l, halt_r) = lane.halted.split_at_mut(mid);
    let left = PhaseLane {
        base: lane.base,
        protocols: proto_l,
        rngs: rng_l,
        outboxes: out_l,
        decided_round: dec_l,
        halted: halt_l,
    };
    let right = PhaseLane {
        base: lane.base + mid,
        protocols: proto_r,
        rngs: rng_r,
        outboxes: out_r,
        decided_round: dec_r,
        halted: halt_r,
    };
    crate::pool::Split::Fork(left, right)
}

/// Drives one lane's live honest nodes in order, each against its own
/// inbox, RNG and outbox.
fn phase_lane_leaf<P: Protocol>(shared: PhaseInputs<'_, P>, lane: PhaseLane<'_, P>) {
    let (mut decided, mut halts) = (0, 0);
    let nodes = lane
        .protocols
        .iter_mut()
        .zip(lane.rngs.iter_mut())
        .zip(lane.outboxes.iter_mut())
        .zip(lane.decided_round.iter_mut())
        .zip(lane.halted.iter_mut());
    for (i, ((((proto, rng), outbox), decided_round), halted)) in nodes.enumerate() {
        let u = lane.base + i;
        if shared.is_byzantine[u] || shared.crashed[u] || *halted {
            continue;
        }
        let proto = proto.as_mut().expect("honest protocol present");
        debug_assert!(
            outbox.is_empty() && outbox.payloads.is_empty(),
            "outbox drained by the previous delivery"
        );
        let mut ctx = NodeContext {
            round: shared.round,
            me: shared.pids[u],
            neighbors: &shared.neighbor_pids[shared.routes.slots(u)],
            inbox: shared.inboxes.inbox(u),
            rng,
            outgoing: outbox,
        };
        proto.on_round(&mut ctx);
        if decided_round.is_none() && proto.output().is_some() {
            *decided_round = Some(shared.round);
            decided += 1;
        }
        *halted = proto.has_halted();
        halts += usize::from(*halted);
    }
    shared.tally.decided.fetch_add(decided, Ordering::Relaxed);
    shared.tally.halted.fetch_add(halts, Ordering::Relaxed);
}

/// What a node legitimately knows at start-up: its own identity and its
/// neighbours' identities — *strictly local knowledge*, per the paper.
#[derive(Debug, Clone)]
pub struct NodeInit {
    /// The node's own [`Pid`].
    pub pid: Pid,
    /// Neighbour [`Pid`]s, sorted, with edge multiplicity.
    pub neighbors: Vec<Pid>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use bcount_graph::gen::{cycle, path};

    /// Flood-max: every node repeatedly broadcasts the largest ID it has
    /// seen; decides after `budget` silent-stable rounds. Used to exercise
    /// delivery, determinism, and metrics.
    #[derive(Debug, Clone)]
    struct FloodMax {
        best: Pid,
        changed: bool,
        stable_rounds: u32,
        budget: u32,
    }

    impl Protocol for FloodMax {
        type Message = Pid;
        type Output = Pid;
        fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
            for env in ctx.inbox().to_vec() {
                if env.msg > self.best {
                    self.best = env.msg;
                    self.changed = true;
                }
            }
            if ctx.round() == 1 || self.changed {
                ctx.broadcast(self.best);
                self.changed = false;
                self.stable_rounds = 0;
            } else {
                self.stable_rounds += 1;
            }
        }
        fn output(&self) -> Option<Pid> {
            (self.stable_rounds >= self.budget).then_some(self.best)
        }
        fn has_halted(&self) -> bool {
            self.stable_rounds >= self.budget
        }
    }

    fn flood_sim<'g>(
        g: &'g Graph,
        byz: &[NodeId],
        cfg: SimConfig,
    ) -> Execution<&'g Graph, FloodMax, NullAdversary> {
        Execution::new(g, byz, flood_factory, NullAdversary, cfg)
    }

    fn flood_factory(_: NodeId, init: &NodeInit) -> FloodMax {
        FloodMax {
            best: init.pid,
            changed: false,
            stable_rounds: 0,
            budget: 30,
        }
    }

    #[test]
    fn flood_max_converges_to_global_max() {
        let g = cycle(16).unwrap();
        let mut sim = flood_sim(&g, &[], SimConfig::default());
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::AllHalted);
        let max = *report.pids.iter().max().unwrap();
        for out in &report.outputs {
            assert_eq!(*out, Some(max));
        }
        // Convergence takes at least the diameter's worth of rounds.
        assert!(report.rounds >= 8);
    }

    #[test]
    fn same_seed_same_transcript() {
        let g = path(10).unwrap();
        let r1 = flood_sim(&g, &[], SimConfig::default()).run();
        let r2 = flood_sim(&g, &[], SimConfig::default()).run();
        assert_eq!(r1.pids, r2.pids);
        assert_eq!(r1.rounds, r2.rounds);
        assert_eq!(r1.metrics, r2.metrics);
        let r3 = flood_sim(
            &g,
            &[],
            SimConfig {
                seed: 99,
                ..SimConfig::default()
            },
        )
        .run();
        assert_ne!(r1.pids, r3.pids);
    }

    #[test]
    fn byzantine_nodes_run_no_protocol() {
        let g = cycle(6).unwrap();
        let byz = [NodeId(2)];
        let mut sim = flood_sim(&g, &byz, SimConfig::default());
        let report = sim.run();
        assert!(report.outputs[2].is_none());
        assert!(report.is_byzantine[2]);
        assert_eq!(report.honest_count(), 5);
        assert_eq!(report.honest_decided_count(), 5);
        // Silent Byzantine node sent nothing.
        assert_eq!(report.metrics.per_node[2].messages_sent, 0);
    }

    #[test]
    fn max_rounds_caps_execution() {
        let g = cycle(6).unwrap();
        let cfg = SimConfig {
            max_rounds: 3,
            ..SimConfig::default()
        };
        let mut sim = flood_sim(&g, &[], cfg);
        let report = sim.run();
        assert_eq!(report.rounds, 3);
        assert_eq!(report.stop_reason, StopReason::MaxRounds);
    }

    #[test]
    fn decided_round_is_recorded_once() {
        let g = path(4).unwrap();
        let mut sim = flood_sim(&g, &[], SimConfig::default());
        let report = sim.run();
        for u in report.honest_nodes() {
            let dr = report.decided_round[u].unwrap();
            assert!(dr <= report.rounds);
            assert!(dr > 30, "stability budget delays decision");
        }
    }

    #[test]
    fn metrics_count_messages_and_round_stats() {
        let g = cycle(4).unwrap();
        let cfg = SimConfig {
            record_round_stats: true,
            ..SimConfig::default()
        };
        let mut sim = flood_sim(&g, &[], cfg);
        let report = sim.run();
        // Round 1: everyone broadcasts to 2 neighbours = 8 messages.
        let round1 = &report.metrics.round_trace[0];
        assert_eq!(round1.honest_messages + round1.byzantine_messages, 8);
        assert!(report.metrics.total_messages(0..4) >= 8);
        // Every message is one 64-bit ID.
        let m = &report.metrics.per_node[0];
        assert_eq!(m.bits_sent, m.messages_sent * 64);
        assert_eq!(m.max_message_bits, 64);
    }

    /// An adversary that echoes a chosen fake ID to test rushing and
    /// authenticity: honest receivers must see the Byzantine node's true
    /// pid as sender.
    struct MaxFaker;
    impl Adversary<FloodMax> for MaxFaker {
        fn on_round(
            &mut self,
            view: &FullInfoView<'_, FloodMax>,
            ctx: &mut ByzantineContext<'_, Pid>,
        ) {
            for b in view.byzantine_nodes() {
                ctx.broadcast(b, Pid(u64::MAX));
            }
        }
    }

    #[test]
    fn adversary_messages_are_authenticated_and_delivered() {
        let g = cycle(5).unwrap();
        let byz = [NodeId(0)];
        let mut sim = Execution::new(
            &g,
            &byz,
            |_, init| FloodMax {
                best: init.pid,
                changed: false,
                stable_rounds: 0,
                budget: 10,
            },
            MaxFaker,
            SimConfig::default(),
        );
        let report = sim.run();
        // The fake max wins — flood-max is not Byzantine-resilient.
        for u in report.honest_nodes() {
            assert_eq!(report.outputs[u], Some(Pid(u64::MAX)));
        }
        // And the adversary's traffic was accounted.
        assert!(report.metrics.per_node[0].messages_sent > 0);
    }

    /// A rushing adversary: in round 1 it echoes (value + 1) of whatever
    /// the honest nodes are sending *that very round* — only possible
    /// because the engine shows the adversary the honest round before
    /// delivery.
    struct Rusher;
    impl Adversary<FloodMax> for Rusher {
        fn on_round(
            &mut self,
            view: &FullInfoView<'_, FloodMax>,
            ctx: &mut ByzantineContext<'_, Pid>,
        ) {
            if view.round() != 1 {
                return;
            }
            let best = view.honest_outgoing().iter().map(|(_, _, m)| m.0).max();
            if let Some(best) = best {
                for b in view.byzantine_nodes() {
                    ctx.broadcast(b, Pid(best + 1));
                }
            }
        }
    }

    #[test]
    fn adversary_observes_the_current_round_before_committing() {
        let g = cycle(6).unwrap();
        let byz = [NodeId(3)];
        let mut sim = Execution::new(
            &g,
            &byz,
            |_, init| FloodMax {
                best: init.pid,
                changed: false,
                stable_rounds: 0,
                budget: 10,
            },
            Rusher,
            SimConfig::default(),
        );
        let report = sim.run();
        // The rusher always outbids whatever flooded this round, so every
        // honest node converges to a value strictly above the honest max.
        let honest_max = report
            .pids
            .iter()
            .enumerate()
            .filter(|(i, _)| !report.is_byzantine[*i])
            .map(|(_, p)| *p)
            .max()
            .unwrap();
        for u in report.honest_nodes() {
            let out = report.outputs[u].expect("decided");
            assert!(
                out > honest_max,
                "rushing echo must dominate the honest max: {out} vs {honest_max}"
            );
        }
    }

    #[test]
    fn stop_when_all_decided_stops_before_halt() {
        // With AllHonestDecided and budget 30, decision == halt for
        // FloodMax, so exercise the variant flag at least.
        let g = cycle(4).unwrap();
        let cfg = SimConfig {
            stop_when: StopWhen::AllHonestDecided,
            ..SimConfig::default()
        };
        let mut sim = flood_sim(&g, &[], cfg);
        let report = sim.run();
        assert_eq!(report.stop_reason, StopReason::AllDecided);
    }

    /// Panics if scheduled after reporting halted — used to prove the
    /// engine stops driving halted nodes.
    struct HaltsOnce {
        rounds_seen: u32,
    }
    impl Protocol for HaltsOnce {
        type Message = Pid;
        type Output = u32;
        fn on_round(&mut self, _ctx: &mut NodeContext<'_, Pid>) {
            assert!(self.rounds_seen < 2, "scheduled after halting");
            self.rounds_seen += 1;
        }
        fn output(&self) -> Option<u32> {
            (self.rounds_seen >= 2).then_some(self.rounds_seen)
        }
        fn has_halted(&self) -> bool {
            self.rounds_seen >= 2
        }
    }

    #[test]
    fn halted_nodes_are_never_scheduled_again() {
        let g = cycle(4).unwrap();
        let cfg = SimConfig {
            max_rounds: 50,
            stop_when: StopWhen::MaxRoundsOnly,
            ..SimConfig::default()
        };
        let mut sim = Execution::new(
            &g,
            &[],
            |_, _| HaltsOnce { rounds_seen: 0 },
            NullAdversary,
            cfg,
        );
        // Runs 50 rounds; HaltsOnce would panic if scheduled a 3rd time.
        let report = sim.run();
        assert_eq!(report.rounds, 50);
        assert_eq!(report.stop_reason, StopReason::MaxRounds);
        assert!(report.halted.iter().all(|h| *h));
        assert_eq!(report.outputs, vec![Some(2); 4]);
    }

    #[test]
    fn multiple_sends_to_same_neighbor_all_deliver() {
        /// Sends `copies` distinct messages to its first neighbour in
        /// round 1.
        struct Spray {
            copies: u64,
        }
        impl Protocol for Spray {
            type Message = Pid;
            type Output = ();
            fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
                if ctx.round() == 1 {
                    let to = ctx.neighbors()[0];
                    (0..self.copies).for_each(|c| ctx.send(to, Pid(c)));
                }
            }
            fn output(&self) -> Option<()> {
                None
            }
        }
        let inbox = |sim: &Execution<&Graph, Spray, NullAdversary>, v: u32| -> Vec<(Pid, Pid)> {
            let inbox = sim.inbox(NodeId(v)).iter();
            inbox.map(|e| (e.sender, *e.msg)).collect()
        };
        // Three sends through one slot each way: the first takes the
        // position, the two repeats are extras, and three messages overflow
        // a span of degree 1, which spills to the arena's tail.
        let g = path(2).unwrap();
        let spray = |_, _: &NodeInit| Spray { copies: 3 };
        let mut sim = Execution::new(&g, &[], spray, NullAdversary, SimConfig::default());
        sim.step();
        assert!(!sim.slots_increase);
        assert_eq!(sim.last_placement(), "spilled");
        let from = |v: usize| (0..3).map(|c| (sim.pids[v], Pid(c))).collect::<Vec<_>>();
        assert_eq!((inbox(&sim, 0), inbox(&sim, 1)), (from(1), from(0)));
        // On the path 0 - 1 - 2 only node 0 sends, twice: the repeat fits
        // node 1's span of degree 2 behind its original, so nothing spills.
        let g = path(3).unwrap();
        let spray = |u: NodeId, _: &NodeInit| Spray {
            copies: if u == NodeId(0) { 2 } else { 0 },
        };
        let mut sim = Execution::new(&g, &[], spray, NullAdversary, SimConfig::default());
        sim.step();
        assert_eq!(sim.last_placement(), "compacted");
        let p0 = sim.pids[0];
        assert_eq!(inbox(&sim, 1), vec![(p0, Pid(0)), (p0, Pid(1))]);
    }

    #[test]
    fn broadcast_only_payload_planes_keep_one_slot() {
        // Every node broadcasts in round 1 and whenever its maximum
        // changes; delivery drains the planes and keeps their capacity.
        let g = cycle(16).unwrap();
        let mut sim = flood_sim(&g, &[], SimConfig::default());
        for _ in 0..12 {
            sim.step();
        }
        assert!(sim.outboxes.iter().all(|o| o.payloads.capacity() == 1));
    }

    #[test]
    fn unicasts_to_doubled_neighbors_stay_on_the_table() {
        // One unicast to each distinct neighbour, in slot order: `send`
        // resolves a parallel edge to its first slot, so the slots
        // strictly increase and the round is a full table round.
        struct UnicastEach;
        impl Protocol for UnicastEach {
            type Message = Pid;
            type Output = ();
            fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
                let me = ctx.my_id();
                let mut last = None;
                for i in 0..ctx.degree() {
                    let to = ctx.neighbors()[i];
                    if last != Some(to) {
                        last = Some(to);
                        ctx.send(to, me);
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
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = bcount_graph::gen::hnd(64, 8, &mut rng).unwrap();
        let mut sim = Execution::new(
            &g,
            &[],
            |_, _| UnicastEach,
            NullAdversary,
            SimConfig::default(),
        );
        // The graph has parallel edges.
        assert!(sim.routes.positions() < g.degree_sum() as u64);
        sim.step();
        assert!(sim.slots_increase);
        assert_eq!(sim.last_placement(), "full");
    }

    #[test]
    fn round_trace_records_census_and_volumes() {
        let g = cycle(4).unwrap();
        let cfg = SimConfig {
            record_round_stats: true,
            ..SimConfig::default()
        };
        let mut sim = flood_sim(&g, &[NodeId(1)], cfg);
        let report = sim.run();
        let trace = &report.metrics.round_trace;
        assert_eq!(trace.len() as u64, report.rounds);
        crate::trace::validate_trace(trace).expect("trace invariants hold");
        // Round 1: 3 honest nodes broadcast to 2 neighbours each.
        assert_eq!(trace[0].honest_messages, 6);
        assert_eq!(trace[0].byzantine_messages, 0);
        // Eventually all honest nodes decide and halt.
        let last = trace.last().unwrap();
        assert_eq!(last.decided, 3);
        assert_eq!(last.halted, 3);
    }

    #[test]
    fn multigraph_broadcast_rounds_stay_full() {
        // H(n, 8) has parallel edges, so a broadcast round sends fewer
        // messages than there are directed edges: fullness must be read
        // against the table's positions, one per distinct sender.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = bcount_graph::gen::hnd(64, 8, &mut rng).unwrap();
        let mut sim = flood_sim(&g, &[], SimConfig::default());
        assert!(sim.routes.positions() < g.degree_sum() as u64);
        // Round 1: every node broadcasts.
        sim.step();
        assert!(sim.slots_increase);
        // The delivered generation holds the full path's static planes.
        assert_eq!(sim.arena.placed, Placement::Full);
    }

    #[test]
    fn dropped_broadcast_rounds_stay_on_the_table() {
        // Round 1 of flood-max is a full broadcast. Drops remove sends
        // from the outboxes in place, so the slots still increase, and the
        // round is compacted, with holes, not spilled.
        let g = cycle(64).unwrap();
        let faulty = SimConfig {
            fault: FaultPlan {
                drop_per_mille: 100,
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        let mut sim = flood_sim(&g, &[], faulty);
        sim.step();
        assert!(sim.metrics().dropped > 0);
        assert!(sim.slots_increase);
        assert_eq!(sim.last_placement(), "compacted");
    }
}
