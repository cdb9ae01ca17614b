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
//!   [`NodeContext`] borrows for the duration of [`Protocol::on_round`]; a
//!   broadcast stores its message once. Delivery moves each sender's
//!   payloads into the arena generation's payload store and writes
//!   `pbase + idx` references (capacity kept on both sides), so no path
//!   clones a payload per recipient — only a message the fault plan
//!   delays is cloned, into its redelivery queue.
//! * **Slot-addressed routing** — outboxes store sends as *neighbour
//!   slots*; a precomputed [`DeliveryMap`] resolves a slot to its
//!   destination node and counting-sort rank with one flat-array load, so
//!   no per-message identity search (`HashMap` or binary search) runs on
//!   the merge path.
//! * **Counting-sort delivery** — inboxes are kept sorted by sender not
//!   with a per-round comparison sort over opaque 64-bit [`Pid`]s but with
//!   a *stable counting sort* over the small dense sender ranks of the
//!   once-built [`SenderRanks`] table (an in-place permutation; no
//!   allocation, no comparisons).
//! * **Persistent phase scratch** — the honest- and Byzantine-outgoing
//!   staging vectors and per-span permutation buffers live on the
//!   execution and are drained, not rebuilt. The counting sort permutes
//!   `u32` references, never payloads.
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
//! # One plane, two feeds
//!
//! The arena is the only delivered-message plane. What differs between
//! executions is how a round's honest traffic *reaches* it, and the engine
//! picks that **feed** once, at construction, from the
//! [`SimConfig::fault`] plan alone:
//!
//! * **Outbox feed** — the plan is empty. Nothing rewrites the round's
//!   traffic, so the outboxes stay full until delivery, and the rushing
//!   adversary reads them in place ([`FullInfoView::honest_outgoing`]
//!   resolves each send's slot through the [`DeliveryMap`]; delivery runs
//!   after the adversary commits). A table round's delivery reads the
//!   outboxes directly and places every span's honest messages in
//!   **sender-pid order**. The canonical inbox order is
//!   stable-by-sender-pid, so every span is then sorted as placed, and the
//!   counting sort (and its rank tag) runs only at Byzantine-adjacent
//!   spans — edge locality bounds that set at construction. The merge
//!   only scans the outboxes (metrics, and whether each outbox's slots
//!   strictly increase), and the round's shape picks one of two
//!   placements:
//!   1. a **table round** (each outbox's slots strictly increasing — every
//!      send resolves to the first slot of a distinct neighbour — and
//!      Byzantine traffic within one message per Byzantine-incident edge)
//!      places through the **slot → position table**, built once per
//!      execution:
//!      the first slot of each distinct neighbour owns the position
//!      `deg_offsets[to] + rank` of its destination's degree-prefix span.
//!      Outboxes drain in natural node order, one table load and one
//!      reference write per message. A **full** round (every table
//!      position filled, no Byzantine traffic — the steady state of
//!      flooding protocols) is then done: sender plane and span lengths
//!      are static. Otherwise the round is **compacted**: positions no
//!      send wrote keep a hole mark, and one sequential pass closes each
//!      span's holes, copying the static senders, and appends the
//!      Byzantine traffic;
//!   2. anything else (slots out of order — several sends to one
//!      neighbour, or sends out of neighbour order — or a Byzantine burst
//!      over the budget) takes the **flat feed's placement**: the
//!      still-full outboxes drain in node order into the flat vector (the
//!      merge's metrics stand) and go through the flat feed's delivery
//!      below.
//! * **Flat feed** — a non-empty fault plan, which rewrites the round's
//!   traffic before the adversary sees it. The merge drains every outbox
//!   **in node order** into the flat `honest_outgoing` vector of
//!   `(from, to, payload reference)` (the payloads move into the staged
//!   arena's store); the fault pass and the adversary's view run on it
//!   exactly as built (fault rolls and the adversary's view are defined on
//!   node order, so it is never reordered; a duplicate copies a reference,
//!   not a payload); then the
//!   vector and the Byzantine traffic go through one count → prefix-sum →
//!   scatter: count messages per destination, prefix-sum the tallies into
//!   packed spans and write cursors, scatter every message once into its
//!   final slot. Node order is not pid order, so *every* non-empty span is
//!   counting-sorted, not only the Byzantine-adjacent ones.
//!
//! Transcripts never depend on the feed, the round shape, or the pool
//! size: every path is stable per sender and lands each inbox in the
//! canonical order. The crate's unit tests diff the engine, inbox
//! by inbox at every round, against a literal reference executor that
//! uses none of this machinery (no delivery map, ranks, or arena);
//! `tests/determinism_parallel.rs` and `tests/fault_plan.rs` pin a
//! one-thread pool's transcripts against pools of 2, 4 and 8 workers, and
//! `tests/zero_alloc.rs` proves every steady-state pipeline
//! allocation-free.

use bcount_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::adversary::{Adversary, ByzantineContext, FullInfoView, HonestTraffic};
use crate::fault::{CrashEvent, FaultPlan};
use crate::idspace::{assign_pids, Pid, PidIndex, SenderRanks};
use crate::message::{push_payload, DeliveryMap, Inbox, InboxArena, MessageSize};
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

/// The table paths' sentinel: a reference no send wrote (an arena
/// position the compaction skips), and in the slot → position table a
/// slot with no position (a repeated slot of a parallel edge, which no
/// send resolves to). Payload references index a store far smaller than
/// `u32::MAX` entries.
const HOLE: u32 = u32::MAX;

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
    /// It alone picks the feed: a non-empty plan selects the flat feed
    /// (the fault pass rewrites the node-order traffic vector), the empty
    /// default the outbox feed; see the [module docs](self).
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
    /// Round at which each node first reported an output.
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
    /// Per-destination distinct-sender rank table: the counting-sort keys.
    sender_ranks: SenderRanks,
    /// Per-slot routing: outbox slot → (destination, sender rank there).
    delivery_map: DeliveryMap,
    neighbor_pids: Vec<Vec<Pid>>,
    is_byzantine: Vec<bool>,
    protocols: Vec<Option<P>>,
    rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    /// Live SoA message arena: what each node received at the end of last
    /// round. Double-buffered with `arena_staged`, swapped each round.
    arena: InboxArena<P::Message>,
    /// Arena staging for the round in flight.
    arena_staged: InboxArena<P::Message>,
    /// Per-destination message tallies of the flat feed's placement —
    /// counted by [`Execution::deliver_flat`], consumed (as write
    /// cursors) by the prefix-sum placement and scatter, then re-zeroed.
    /// A table round borrows it as the Byzantine-budget tally.
    dest_counts: Vec<u32>,
    /// The static per-node arena offsets, precomputed once per execution
    /// as the prefix sums of the [`DeliveryMap`] in-degrees — the table
    /// paths' placement (a table round delivers at most one honest message
    /// per distinct honest neighbour, plus Byzantine traffic within
    /// `byz_in_degree`, so every span fits its in-degree).
    deg_offsets: Vec<u32>,
    /// Per-node count of incident edges whose other endpoint is Byzantine
    /// (with multiplicity) — the table paths' bound on how much Byzantine
    /// traffic a span can absorb after the honest messages. Outbox feed
    /// only.
    byz_in_degree: Vec<u32>,
    /// The **slot → position table** of the table paths, indexed by
    /// delivery-map slot: the arena position a send through the first
    /// slot of each distinct neighbour takes, `deg_offsets[to] + rank`
    /// (the destination's degree-prefix offset plus the sender's rank
    /// there), so every distinct sender owns one position of its
    /// destination's span, in sender-pid order. A repeated slot of a
    /// parallel edge holds [`HOLE`]: [`NodeContext::send`] and
    /// [`NodeContext::broadcast`] never resolve to one. Outbox feed only.
    slot_pos: Vec<u32>,
    /// Per-node inbox length of a full round (distinct in-degree): the
    /// table positions each span owns. Outbox feed only.
    full_lens: Vec<u32>,
    /// The sender plane of a full round — the dense sender node id at
    /// every table position (the [`Pid`] table widens at the inbox
    /// boundary). A full round copies it into an arena once, and it stays
    /// invariant across consecutive full rounds; a compacted round reads
    /// it for every message it keeps. Outbox feed only.
    static_senders: Vec<NodeId>,
    /// Whether each outbox's slots strictly increase this round (set by
    /// the merge's scan). Every send goes through a first slot, so that is
    /// at most one message per distinct directed edge, each with its own
    /// table position — the precondition of the table paths. Any other
    /// round takes the flat feed's placement.
    table_round: bool,
    /// Per-node outgoing scratch lent to [`NodeContext`] each round:
    /// (neighbour slot, payload index) sends plus the payload plane.
    outboxes: Vec<Outbox<P::Message>>,
    /// Merged honest traffic of the round in flight, in node order, as
    /// (from, to, index into the staged arena's payload store). Filled by
    /// the flat feed's merge; on the outbox feed it stays empty until a
    /// round the table cannot place drains its outboxes into it at
    /// delivery — after the adversary read the outboxes in place.
    honest_outgoing: Vec<(NodeId, NodeId, u32)>,
    /// Destination sender-ranks aligned entry-for-entry with
    /// `honest_outgoing` (kept separate so the adversary's view of the
    /// traffic stays a plain `(from, to, payload)` slice).
    honest_ranks: Vec<u32>,
    /// The adversary's traffic of the round in flight.
    byz_outgoing: Vec<(NodeId, NodeId, P::Message)>,
    /// Destination sender-ranks aligned with `byz_outgoing`.
    byz_ranks: Vec<u32>,
    /// Per-node permutation scratch for the in-place counting sort of
    /// that node's span.
    inbox_pos: Vec<Vec<u32>>,
    /// Flat per-(destination, distinct sender) counters, CSR-aligned with
    /// `sender_ranks`; zeroed between uses.
    sender_counts: Vec<u32>,
    /// Honest messages merged this round — tracked explicitly because the
    /// outbox feed never materializes them as a flat vector; the
    /// adversary's [`HonestTraffic::len`].
    round_honest_messages: u64,
    /// Per node: whether any graph neighbour is Byzantine — i.e. whether
    /// this inbox can *ever* receive Byzantine traffic (edge locality).
    /// Only these inboxes need rank tags and a counting sort on the
    /// outbox feed.
    byz_adjacent: Vec<bool>,
    /// The indices where `byz_adjacent` holds, so the per-round sort loop
    /// walks only the nodes that need sorting.
    byz_adjacent_nodes: Vec<u32>,
    /// Whether [`SimConfig::fault`] is non-empty — resolved once at
    /// construction. It picks the feed ([`Execution::outbox_feed`]): a
    /// non-empty plan selects the flat feed (so all fault logic runs on
    /// the node-order traffic vector) and turns on the crash/fault hooks
    /// in [`Execution::step`].
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
    crashed: Vec<bool>,
    /// Delayed messages awaiting redelivery, in due-round order (the
    /// constant per-plan delay makes push order due-order).
    delayed: std::collections::VecDeque<Delayed<P::Message>>,
    /// Scratch for the fault phase's filtered rebuild of
    /// `honest_outgoing` (swapped, never reallocated in steady state).
    fault_scratch: Vec<(NodeId, NodeId, u32)>,
    /// Rank scratch aligned with `fault_scratch`.
    fault_scratch_ranks: Vec<u32>,
    decided_round: Vec<Option<u64>>,
    halted: Vec<bool>,
    metrics: Metrics,
    round: u64,
}

/// A delayed message in the pending-redelivery queue: the round it
/// becomes deliverable, plus the routed message exactly as the merge
/// produced it. It owns a clone of its payload (the round's payload store
/// is recycled long before the message comes due).
struct Delayed<M> {
    due: u64,
    from: NodeId,
    to: NodeId,
    rank: u32,
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
        let sender_ranks = SenderRanks::new(g, &pids);
        let (neighbor_pids, delivery_map) = DeliveryMap::build(g, &pids, &sender_ranks);
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
                        neighbors: neighbor_pids[u].clone(),
                    };
                    Some(factory(NodeId(u as u32), &init))
                }
            })
            .collect();
        let sender_counts = vec![0; sender_ranks.total()];
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
        // Delivery may read the outboxes directly only when no fault pass
        // rewrites the round's traffic as the node-order flat vector.
        let outbox_feed = !faults_active;
        let slot_total = g.degree_sum();
        let byz_adjacent: Vec<bool> = (0..n)
            .map(|v| {
                g.neighbors(NodeId(v as u32))
                    .any(|w| is_byzantine[w.index()])
            })
            .collect();
        let byz_adjacent_nodes: Vec<u32> = (0..n)
            .filter(|&v| byz_adjacent[v])
            .map(|v| v as u32)
            .collect();
        // Degree-indexed pre-sizing: a node receives (and sends) at most
        // one message per adjacent edge in the ubiquitous
        // broadcast-per-round workloads, so `degree` capacity skips every
        // warm-up growth check on those paths; heavier protocols still
        // grow amortized.
        let degree = |v: usize| g.degree(NodeId(v as u32));
        // The table paths' static placement (and the arena's initial
        // layout): node v's span starts at the prefix sum of in-degrees
        // (undirected: degree) before it.
        let deg_offsets: Vec<u32> = {
            let mut running = 0u32;
            (0..n)
                .map(|v| {
                    let start = running;
                    running += degree(v) as u32;
                    start
                })
                .collect()
        };
        let byz_in_degree: Vec<u32> = if outbox_feed {
            (0..n)
                .map(|v| {
                    g.neighbors(NodeId(v as u32))
                        .filter(|w| is_byzantine[w.index()])
                        .count() as u32
                })
                .collect()
        } else {
            Vec::new()
        };
        // The table paths' slot → position table: the first slot of each
        // distinct neighbour places at the destination's degree-prefix
        // offset plus the sender's rank there, so each span's positions
        // run in sender-pid order.
        let (slot_pos, full_lens, static_senders) = if outbox_feed {
            let mut slot_pos = vec![HOLE; slot_total];
            let mut senders = vec![NodeId(0); slot_total];
            for u in 0..n {
                let range = delivery_map.slot_range(u);
                let targets = delivery_map.targets_of(u);
                for (s, target) in targets.iter().enumerate() {
                    if s > 0 && targets[s - 1].to == target.to {
                        continue;
                    }
                    let pos = deg_offsets[target.to.index()] + target.rank;
                    slot_pos[range.start + s] = pos;
                    senders[pos as usize] = NodeId(u as u32);
                }
            }
            let lens = (0..n)
                .map(|v| sender_ranks.sender_count(NodeId(v as u32)) as u32)
                .collect();
            (slot_pos, lens, senders)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        let flat_cap = if outbox_feed { 0 } else { slot_total };
        // Built before the struct literal: these capacity closures borrow
        // the graph through `g`, and the literal moves `graph` itself.
        // Payload planes warm up with each node's first send, so setup
        // allocates none.
        let outboxes: Vec<Outbox<P::Message>> =
            (0..n).map(|v| Outbox::with_capacity(degree(v))).collect();
        let inbox_pos: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                // Sort scratch: the flat feed sorts every span, the outbox
                // feed only the Byzantine-adjacent ones.
                if !outbox_feed || byz_adjacent[v] {
                    Vec::with_capacity(degree(v))
                } else {
                    Vec::new()
                }
            })
            .collect();
        Execution {
            graph,
            config,
            adversary,
            pids,
            pid_index,
            sender_ranks,
            delivery_map,
            neighbor_pids,
            is_byzantine,
            protocols,
            rngs,
            adversary_rng,
            outboxes,
            arena: InboxArena::new(n, &deg_offsets, slot_total),
            arena_staged: InboxArena::new(n, &deg_offsets, slot_total),
            dest_counts: vec![0; n],
            deg_offsets,
            byz_in_degree,
            slot_pos,
            full_lens,
            static_senders,
            table_round: false,
            honest_outgoing: Vec::with_capacity(flat_cap),
            honest_ranks: Vec::with_capacity(flat_cap),
            byz_outgoing: Vec::new(),
            byz_ranks: Vec::new(),
            inbox_pos,
            sender_counts,
            round_honest_messages: 0,
            byz_adjacent,
            byz_adjacent_nodes,
            faults_active,
            fault_rng,
            crash_schedule,
            crash_cursor: 0,
            crashed: vec![false; n],
            delayed: std::collections::VecDeque::new(),
            fault_scratch: Vec::new(),
            fault_scratch_ranks: Vec::new(),
            decided_round: vec![None; n],
            halted: vec![false; n],
            metrics: Metrics::new(n),
            round: 0,
        }
    }

    /// Whether honest traffic reaches the arena through the outbox feed:
    /// exactly when the fault plan is empty. See the [module docs](self).
    fn outbox_feed(&self) -> bool {
        !self.faults_active
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

    /// Round at which each node first reported an output, indexed by
    /// graph node (`None` for undecided and Byzantine nodes).
    pub(crate) fn decided_rounds(&self) -> &[Option<u64>] {
        &self.decided_round
    }

    /// Per-node halted flags (`false` for Byzantine nodes).
    pub(crate) fn halted_flags(&self) -> &[bool] {
        &self.halted
    }

    /// Per-node Byzantine indicator.
    pub(crate) fn byzantine_flags(&self) -> &[bool] {
        &self.is_byzantine
    }

    /// Per-node crash-stop indicator (all `false` without a fault plan).
    pub(crate) fn crashed_flags(&self) -> &[bool] {
        &self.crashed
    }

    /// The protocol instance of an honest, in-flight node.
    pub fn protocol(&self, u: NodeId) -> Option<&P> {
        self.protocols.get(u.index()).and_then(|p| p.as_ref())
    }

    /// Runs one round unless the execution is already finished. Returns
    /// the stop reason if the execution is (or just) finished.
    ///
    /// A round is honest compute, deterministic merge (the outbox feed's
    /// scan, or the flat feed's node-order vector), rushing adversary
    /// phase, delivery. With a non-empty [`SimConfig::fault`] plan,
    /// scheduled crashes are applied at round start, and the link-fault
    /// pass (drop/duplicate/delay) rewrites the merged honest traffic
    /// before the rushing adversary observes it.
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
        self.merge_phase();
        if self.faults_active {
            self.fault_phase();
        }
        self.adversary_phase();
        if self.faults_active {
            self.silence_crashed_byzantine();
        }
        self.deliver();
    }

    /// Applies every crash event scheduled at or before the current
    /// round. Idempotent per node; each first-time crash is counted in
    /// [`Metrics::crashed`].
    fn apply_crashes(&mut self) {
        while let Some(ev) = self.crash_schedule.get(self.crash_cursor) {
            if ev.round > self.round {
                break;
            }
            let u = ev.node as usize;
            if !self.crashed[u] {
                self.crashed[u] = true;
                self.metrics.crashed += 1;
            }
            self.crash_cursor += 1;
        }
    }

    /// The link-fault pass: one dedicated-stream draw per merged honest
    /// message decides drop / duplicate / delay / pass (partitioned in
    /// that order over `[0, 1000)`), then every delayed message that has
    /// come due is appended after the fresh traffic. Runs on the flat
    /// feed (a non-empty plan selects it), after the merge fixed the
    /// node-order vector and before the rushing adversary observes the
    /// traffic — the adversary sees what the faulty links actually
    /// carry. Redelivered messages are never re-faulted. Crash-only plans
    /// (all rates zero) make no RNG draws at all. Messages are payload
    /// references into the staged store: a duplicate copies the
    /// reference, and only a delayed message clones its payload (into the
    /// redelivery queue; it re-enters the store of its due round).
    fn fault_phase(&mut self) {
        let plan = &self.config.fault;
        let drop_below = u32::from(plan.drop_per_mille);
        let dup_below = drop_below + u32::from(plan.dup_per_mille);
        let delay_below = dup_below + u32::from(plan.delay_per_mille);
        let delay_rounds = plan.delay_rounds.max(1);
        if delay_below > 0 {
            debug_assert!(self.fault_scratch.is_empty());
            debug_assert!(self.fault_scratch_ranks.is_empty());
            let rng = &mut self.fault_rng;
            let due = self.round + delay_rounds;
            let payloads = &self.arena_staged.payloads;
            for ((from, to, payload), rank) in self
                .honest_outgoing
                .drain(..)
                .zip(self.honest_ranks.drain(..))
            {
                let roll: u32 = rng.gen_range(0..1000);
                if roll < drop_below {
                    self.metrics.dropped += 1;
                } else if roll < dup_below {
                    self.metrics.duplicated += 1;
                    self.fault_scratch.push((from, to, payload));
                    self.fault_scratch_ranks.push(rank);
                    self.fault_scratch.push((from, to, payload));
                    self.fault_scratch_ranks.push(rank);
                } else if roll < delay_below {
                    self.metrics.delayed += 1;
                    self.delayed.push_back(Delayed {
                        due,
                        from,
                        to,
                        rank,
                        msg: payloads[payload as usize].clone(),
                    });
                } else {
                    self.fault_scratch.push((from, to, payload));
                    self.fault_scratch_ranks.push(rank);
                }
            }
            std::mem::swap(&mut self.honest_outgoing, &mut self.fault_scratch);
            std::mem::swap(&mut self.honest_ranks, &mut self.fault_scratch_ranks);
        }
        // Redelivery: everything due this round, in the order it was
        // withheld, appended after the fresh traffic (the stable
        // counting sort puts each message after same-sender fresh ones
        // — deterministic, and in-flight messages survive a sender's
        // subsequent crash, as crash-stop semantics require).
        while let Some(d) = self.delayed.front() {
            if d.due > self.round {
                break;
            }
            let d = self.delayed.pop_front().expect("front checked");
            let payload = push_payload(&mut self.arena_staged.payloads, d.msg);
            self.honest_outgoing.push((d.from, d.to, payload));
            self.honest_ranks.push(d.rank);
        }
        self.round_honest_messages = self.honest_outgoing.len() as u64;
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

    /// Dispatches the deterministic merge: on the outbox feed, the
    /// metrics + shape scan over the outboxes (which stay full for
    /// delivery); on the flat feed, the node-order merge into
    /// `honest_outgoing`.
    fn merge_phase(&mut self) {
        if self.outbox_feed() {
            self.merge_arena_count();
        } else {
            self.merge_outboxes(true);
        }
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
        let shared = PhaseInputs {
            round: self.round,
            pids: &self.pids,
            neighbor_pids: &self.neighbor_pids,
            inboxes: self.arena.view(&self.pids),
            is_byzantine: &self.is_byzantine,
            crashed: &self.crashed,
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
    }

    /// The flat feed's merge: drains every honest outbox in node order
    /// into `honest_outgoing`, moving its payloads into the staged arena's
    /// store and resolving each slot-addressed send to its destination and
    /// counting-sort rank through the precomputed [`DeliveryMap`] (one
    /// flat-array load — no per-message identity search), and, with
    /// `record_metrics`, records per-node metrics. This single-threaded
    /// step fixes the order the fault pass and the adversary see, which is
    /// why forking the compute phase cannot perturb transcripts. The
    /// outbox feed reuses it, without metrics (its scan took them), for a
    /// round the table cannot place.
    fn merge_outboxes(&mut self, record_metrics: bool) {
        debug_assert!(self.honest_outgoing.is_empty());
        debug_assert!(self.honest_ranks.is_empty());
        let n = self.graph().len();
        let arena = &mut self.arena_staged;
        arena.payloads.clear();
        for u in 0..n {
            let outbox = &mut self.outboxes[u];
            if outbox.is_empty() {
                continue;
            }
            let from = NodeId(u as u32);
            let targets = self.delivery_map.targets_of(u);
            if record_metrics {
                let (count, bits, max_bits) = outbox_sizes(outbox);
                self.metrics.per_node[u].record_batch(count, bits, max_bits);
            }
            let pbase = arena.take_payloads(&mut outbox.payloads);
            for (slot, payload) in outbox.sends.drain(..) {
                let target = targets[slot as usize];
                self.honest_outgoing
                    .push((from, target.to, pbase + payload));
                self.honest_ranks.push(target.rank);
            }
        }
        self.round_honest_messages = self.honest_outgoing.len() as u64;
    }

    /// The outbox feed's merge: records per-node metrics and scans every
    /// outbox's slot sequence. Every send goes through the first slot of
    /// its neighbour, so a **table round** — each outbox's slots strictly
    /// increasing — sends at most one message per distinct directed edge,
    /// each with its own position in the slot → position table, and
    /// delivery needs no counting and no prefix sum. Any other round takes
    /// the flat feed's placement. Outboxes are left full either way —
    /// delivery drains them, after the adversary has committed.
    fn merge_arena_count(&mut self) {
        let mut sent = 0u64;
        let mut table = true;
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
                    self.slot_pos[self.delivery_map.slot_range(u)][slot as usize] != HOLE,
                    "every send goes through a first slot"
                );
                table &= slot >= next;
                next = slot + 1;
            }
            let (count, bits, max_bits) = outbox_sizes(outbox);
            metrics.record_batch(count, bits, max_bits);
            sent += count;
        }
        self.round_honest_messages = sent;
        self.table_round = table;
    }

    /// Whether this round's Byzantine traffic fits behind the honest
    /// messages of a table round: at most `byz_in_degree[v]` messages per
    /// destination (one per Byzantine-incident edge). Uses `dest_counts` —
    /// zero on a table round — as tally scratch and re-zeroes it.
    fn byz_traffic_fits(&mut self) -> bool {
        if self.byz_outgoing.is_empty() {
            return true;
        }
        let mut fits = true;
        for (_, to, _) in &self.byz_outgoing {
            let v = to.index();
            self.dest_counts[v] += 1;
            fits &= self.dest_counts[v] <= self.byz_in_degree[v];
        }
        for (_, to, _) in &self.byz_outgoing {
            self.dest_counts[to.index()] = 0;
        }
        fits
    }

    /// Arena delivery on the outbox feed. A table round whose Byzantine
    /// traffic fits places its honest messages through the slot →
    /// position table ([`Execution::deliver_arena_table`]). Any other
    /// round drains the still-full outboxes in node order into
    /// `honest_outgoing` (the merge's scan already recorded the metrics)
    /// and takes the flat feed's placement ([`Execution::deliver_flat`]).
    /// Its stable sort of every span gives the canonical order: a sender's
    /// messages keep their merged order, and no sender is both honest and
    /// Byzantine.
    fn deliver_arena(&mut self) {
        if self.table_round {
            // A table round fills every table position iff it sends one
            // message per (destination, distinct sender) pair — not one
            // per directed edge: a multigraph's parallel edges share a
            // position. Byzantine nodes never fill their outboxes, so a
            // Byzantine node with a neighbour leaves a position unfilled
            // and makes the round not full by itself.
            let positions = self.sender_ranks.total() as u64;
            let full = self.byz_outgoing.is_empty() && self.round_honest_messages == positions;
            if full || self.byz_traffic_fits() {
                self.deliver_arena_table(full);
                return;
            }
        }
        self.merge_outboxes(false);
        self.deliver_flat();
    }

    /// The table paths' delivery. Outboxes drain in natural node order
    /// (sequential memory, not the pid permutation): each send writes only
    /// its reference, at `slot_pos[slot]`. Every other plane comes from
    /// the static tables.
    ///
    /// * A **full** round (every table position filled, no Byzantine
    ///   traffic — the steady state of flooding protocols) is done after
    ///   the fill: its spans are the table's, and the sender plane and
    ///   span lengths stay invariant from the previous full round.
    /// * Otherwise the **compacted** path pre-marks every position a
    ///   [`HOLE`], and after the fill one sequential pass over the spans
    ///   closes the holes: it copies each kept reference and its static
    ///   sender down to the span's next free position (plus the sender's
    ///   rank, `p - offsets[v]`, in Byzantine-adjacent spans) and sets the
    ///   span's length. The spans come out in sender-pid order, the
    ///   table's position order; the Byzantine traffic is
    ///   appended behind them and the Byzantine-adjacent spans are
    ///   counting-sorted.
    fn deliver_arena_table(&mut self, full: bool) {
        let slot_total = self.delivery_map.total_slots();
        let n = self.graph().len();
        let arena = &mut self.arena_staged;
        arena.grow_to(slot_total);
        arena.payloads.clear();
        if !arena.offsets_static {
            // A flat-placed round repacked the offsets; restore the static
            // degree prefix.
            arena.offsets.copy_from_slice(&self.deg_offsets);
            arena.offsets_static = true;
        }
        if full {
            if !arena.senders_static {
                arena.senders[..slot_total].copy_from_slice(&self.static_senders);
                arena.senders_static = true;
            }
            if !arena.lens_full {
                arena.lens.copy_from_slice(&self.full_lens);
                arena.lens_full = true;
            }
        } else {
            arena.senders_static = false;
            arena.lens_full = false;
            arena.refs[..slot_total].fill(HOLE);
        }
        for u in 0..n {
            let outbox = &mut self.outboxes[u];
            if outbox.is_empty() {
                continue;
            }
            let slot_pos = &self.slot_pos[self.delivery_map.slot_range(u)];
            let pbase = arena.take_payloads(&mut outbox.payloads);
            for (slot, payload) in outbox.sends.drain(..) {
                arena.refs[slot_pos[slot as usize] as usize] = pbase + payload;
            }
        }
        if full {
            // No Byzantine node has a neighbour on a full round, so no
            // span needs a counting sort: the table *is* the sorted order.
            debug_assert!(self.byz_adjacent_nodes.is_empty());
            return;
        }
        // Compaction, one span at a time. Most spans are empty (a quiet
        // round) or whole (a forwarding wave), and a vectorised count of
        // the kept references tells which: an empty span only gets its
        // length, a whole one keeps its references in place and copies
        // its sender plane. (A Byzantine-adjacent span is never whole: its
        // Byzantine senders' positions stay holes.) A span with holes
        // closes up in place — `k` trails `p`, branch-free: a hole is
        // copied too, and overwritten by the next kept message or left
        // past the span's end.
        for v in 0..n {
            let o = arena.offsets[v] as usize;
            let end = o + self.full_lens[v] as usize;
            let kept = arena.refs[o..end].iter().filter(|&&r| r != HOLE).count();
            arena.lens[v] = kept as u32;
            if kept == 0 {
                continue;
            }
            let ranked = self.byz_adjacent[v];
            if kept == end - o {
                debug_assert!(!ranked);
                arena.senders[o..end].copy_from_slice(&self.static_senders[o..end]);
                continue;
            }
            let mut k = o;
            for p in o..end {
                let r = arena.refs[p];
                arena.refs[k] = r;
                arena.senders[k] = self.static_senders[p];
                if ranked {
                    arena.ranks[k] = (p - o) as u32;
                }
                k += usize::from(r != HOLE);
            }
        }
        // Then the Byzantine traffic in emission order, behind each span's
        // honest messages.
        for ((from, to, msg), rank) in self.byz_outgoing.drain(..).zip(self.byz_ranks.drain(..)) {
            let v = to.index();
            let len = arena.lens[v];
            arena.lens[v] = len + 1;
            let pos = (arena.offsets[v] + len) as usize;
            arena.senders[pos] = from;
            arena.refs[pos] = push_payload(&mut arena.payloads, msg);
            arena.ranks[pos] = rank;
        }
        self.sort_byz_adjacent_spans();
    }

    /// The flat feed's delivery: the node-order `honest_outgoing` vector
    /// (exactly as the fault pass and the adversary saw it; its payloads
    /// already sit in the staged store) and the Byzantine traffic go
    /// through one count → prefix-sum → scatter, then **every** non-empty
    /// span is counting-sorted — node order is not pid order, so no span
    /// is sorted as scattered. The sort is stable, so a sender's messages
    /// keep their merged order. The outbox feed's rounds that the table
    /// cannot place come here too.
    fn deliver_flat(&mut self) {
        let honest = self.honest_outgoing.iter().map(|&(_, to, _)| to);
        for to in honest.chain(self.byz_outgoing.iter().map(|(_, to, _)| *to)) {
            self.dest_counts[to.index()] += 1;
        }
        let total = self.place_spans();
        let arena = &mut self.arena_staged;
        arena.grow_to(total);
        // Byzantine message `i` is referenced at `byz_base + i`; its
        // payload moves into the store after the scatter.
        let byz_base = arena.payloads.len() as u32;
        let byzantine = (byz_base..).zip(&self.byz_outgoing);
        let traffic = self
            .honest_outgoing
            .drain(..)
            .chain(byzantine.map(|(payload, &(from, to, _))| (from, to, payload)))
            .zip(self.honest_ranks.drain(..).chain(self.byz_ranks.drain(..)));
        for ((from, to, payload), rank) in traffic {
            let v = to.index();
            let pos = self.dest_counts[v];
            self.dest_counts[v] = pos + 1;
            let pos = pos as usize;
            arena.senders[pos] = from;
            arena.refs[pos] = payload;
            arena.ranks[pos] = rank;
        }
        arena
            .payloads
            .extend(self.byz_outgoing.drain(..).map(|(_, _, msg)| msg));
        for c in &mut self.dest_counts {
            *c = 0;
        }
        for v in 0..self.graph().len() {
            self.sort_staged_span(v);
        }
    }

    /// The flat feed's prefix-sum placement: turns the
    /// per-destination tallies in `dest_counts` into packed spans of the
    /// staged arena, replaces each tally with its span's write cursor, and
    /// returns the round's message total.
    fn place_spans(&mut self) -> usize {
        let arena = &mut self.arena_staged;
        arena.offsets_static = false;
        arena.senders_static = false;
        arena.lens_full = false;
        let mut running = 0u32;
        for ((offset, len), count) in arena
            .offsets
            .iter_mut()
            .zip(arena.lens.iter_mut())
            .zip(self.dest_counts.iter_mut())
        {
            *offset = running;
            *len = *count;
            running += *count;
            *count = *offset;
        }
        running as usize
    }

    /// Counting sort of the staged spans where Byzantine traffic can
    /// interleave with a table round's pid-ordered honest messages — the
    /// table paths' only spans not sorted as placed.
    fn sort_byz_adjacent_spans(&mut self) {
        for i in 0..self.byz_adjacent_nodes.len() {
            let v = self.byz_adjacent_nodes[i] as usize;
            self.sort_staged_span(v);
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
        let c0 = self.sender_ranks.offset(v);
        let c1 = self.sender_ranks.offset(v + 1);
        finish_inbox_soa(
            &mut arena.senders[o0..o1],
            &mut arena.refs[o0..o1],
            &arena.ranks[o0..o1],
            &mut self.inbox_pos[v],
            &mut self.sender_counts[c0..c1],
        );
    }

    /// Rushing adversary phase: the adversary observes the complete honest
    /// states and this round's in-flight honest messages before committing
    /// the Byzantine traffic. The traffic view reads the outboxes, then the
    /// merged vector: on the outbox feed the vector is empty and the
    /// outboxes still full, on the flat feed the merge drained the
    /// outboxes into the vector.
    fn adversary_phase(&mut self) {
        debug_assert!(self.byz_outgoing.is_empty());
        let view = FullInfoView {
            round: self.round,
            graph: self.graph.borrow(),
            pids: &self.pids,
            pid_index: &self.pid_index,
            is_byzantine: &self.is_byzantine,
            honest_states: &self.protocols,
            honest_outgoing: HonestTraffic {
                outboxes: &self.outboxes,
                routes: &self.delivery_map,
                sends: &self.honest_outgoing,
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
        };
        self.adversary.on_round(&view, &mut ctx);
    }

    /// Delivery: accounts and rank-resolves the Byzantine traffic, places
    /// the round's messages into the staged arena through the execution's
    /// feed, sorts what needs sorting, and swaps the double buffer.
    fn deliver(&mut self) {
        debug_assert_eq!(self.honest_ranks.len(), self.honest_outgoing.len());
        debug_assert!(!self.outbox_feed() || self.honest_outgoing.is_empty());
        debug_assert!(self.byz_ranks.is_empty());
        let honest_messages = self.round_honest_messages;
        let byzantine_messages = self.byz_outgoing.len() as u64;
        // Account and rank-resolve the Byzantine traffic up front: the
        // adversary's (from, to) pairs carry no precomputed slot.
        for (from, to, msg) in &self.byz_outgoing {
            self.metrics.per_node[from.index()].record(msg.size_bits(Pid::BITS));
            let rank = self
                .sender_ranks
                .rank_of(*to, self.pids[from.index()])
                .expect("byzantine sender is a graph neighbor");
            self.byz_ranks.push(rank);
        }
        if self.outbox_feed() {
            self.deliver_arena();
        } else {
            self.deliver_flat();
        }
        std::mem::swap(&mut self.arena, &mut self.arena_staged);
        self.metrics.rounds = self.round;
        if self.config.record_round_stats {
            let n = self.graph().len();
            let live = |u: &usize| !self.is_byzantine[*u] && !self.crashed[*u];
            let decided = (0..n)
                .filter(live)
                .filter(|&u| self.decided_round[u].is_some())
                .count();
            let halted = (0..n).filter(live).filter(|&u| self.halted[u]).count();
            self.metrics.round_trace.push(crate::trace::RoundTrace {
                round: self.round,
                honest_messages,
                byzantine_messages,
                decided,
                halted,
            });
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
    /// execution will not step further. Only the census the condition
    /// actually needs is computed, and each scan short-circuits at the
    /// first still-running node.
    pub fn finished(&self) -> Option<StopReason> {
        // Crashed nodes leave the census: the stop condition is about
        // the *surviving* honest nodes.
        let live = (0..self.graph().len()).filter(|&u| !self.is_byzantine[u] && !self.crashed[u]);
        let all_halted = || live.clone().all(|u| self.halted[u]);
        let all_decided = || live.clone().all(|u| self.decided_round[u].is_some());
        match self.config.stop_when {
            StopWhen::AllHonestHalted if all_halted() => Some(StopReason::AllHalted),
            StopWhen::AllHonestDecided if all_decided() => Some(StopReason::AllDecided),
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
    /// execution finished.
    pub fn report(&self) -> Option<SimReport<P::Output>> {
        let stop_reason = self.finished()?;
        Some(SimReport {
            rounds: self.round,
            outputs: self
                .protocols
                .iter()
                .map(|p| p.as_ref().and_then(|p| p.output()))
                .collect(),
            decided_round: self.decided_round.clone(),
            halted: self.halted.clone(),
            is_byzantine: self.is_byzantine.clone(),
            pids: self.pids.clone(),
            metrics: self.metrics.clone(),
            stop_reason,
        })
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
    neighbor_pids: &'a [Vec<Pid>],
    inboxes: crate::message::InboxesView<'a, P::Message>,
    is_byzantine: &'a [bool],
    crashed: &'a [bool],
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
            neighbors: &shared.neighbor_pids[u],
            inbox: shared.inboxes.inbox(u),
            rng,
            outgoing: outbox,
        };
        proto.on_round(&mut ctx);
        if decided_round.is_none() && proto.output().is_some() {
            *decided_round = Some(shared.round);
        }
        *halted = proto.has_halted();
    }
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
        struct Spray {
            got: usize,
        }
        impl Protocol for Spray {
            type Message = Pid;
            type Output = usize;
            fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
                if ctx.round() == 1 {
                    let to = ctx.neighbors()[0];
                    let me = ctx.my_id();
                    ctx.send(to, me);
                    ctx.send(to, me);
                    ctx.send(to, me);
                } else {
                    self.got += ctx.inbox().len();
                }
            }
            fn output(&self) -> Option<usize> {
                Some(self.got)
            }
            fn has_halted(&self) -> bool {
                false
            }
        }
        let g = path(2).unwrap();
        let cfg = SimConfig {
            max_rounds: 2,
            stop_when: StopWhen::MaxRoundsOnly,
            ..SimConfig::default()
        };
        let mut sim = Execution::new(&g, &[], |_, _| Spray { got: 0 }, NullAdversary, cfg);
        // Three sends through one slot: the table cannot place the round,
        // so the flat feed's placement packed the delivered generation.
        sim.step();
        assert!(sim.outbox_feed() && !sim.table_round);
        assert!(!sim.arena.offsets_static);
        let report = sim.run();
        assert_eq!(report.outputs, vec![Some(3), Some(3)]);
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
        assert!(sim.sender_ranks.total() < g.degree_sum());
        sim.step();
        assert!(sim.table_round);
        assert!(sim.arena.senders_static && sim.arena.lens_full);
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
        assert!(sim.sender_ranks.total() < g.degree_sum());
        // Round 1: every node broadcasts.
        sim.step();
        assert!(sim.table_round);
        // The delivered generation kept the full path's static planes;
        // a compacted round would have cleared both flags.
        assert!(sim.arena.senders_static && sim.arena.lens_full);
    }

    #[test]
    fn feed_follows_the_fault_plan() {
        let g = cycle(8).unwrap();
        let byz = [NodeId(0)];
        // No fault plan: the outbox feed, whatever the adversary.
        let sim = flood_sim(&g, &byz, SimConfig::default());
        assert!(sim.outbox_feed());
        let sim = Execution::new(&g, &byz, flood_factory, MaxFaker, SimConfig::default());
        assert!(sim.outbox_feed());
        // A non-empty fault plan needs the node-order vector.
        let faulty = SimConfig {
            fault: FaultPlan {
                drop_per_mille: 1,
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        assert!(!flood_sim(&g, &byz, faulty).outbox_feed());
    }
}
