//! Message envelopes, size accounting, the flat SoA inbox arena, and the
//! precomputed delivery map.

use crate::idspace::{Pid, SenderRanks};
use bcount_graph::{Graph, NodeId};
use std::fmt;

/// Appends `msg` to a payload plane (an outbox's or the arena's store) and
/// returns its index — the reference a send or an arena slot holds.
pub(crate) fn push_payload<M>(plane: &mut Vec<M>, msg: M) -> u32 {
    plane.push(msg);
    (plane.len() - 1) as u32
}

/// A delivered message with its authenticated sender.
///
/// The engine stamps the sender [`Pid`] itself; neither honest protocols
/// nor the adversary can forge it — this is the paper's "when a Byzantine
/// node sends a message over an edge, it cannot fake its ID".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Authenticated identity of the sending node.
    pub sender: Pid,
    /// The payload.
    pub msg: M,
}

/// Size accounting for protocol messages.
///
/// The paper's CONGEST claim (Theorem 2) is that most good nodes send
/// *small* messages: `O(log n)` bits plus at most a constant number of node
/// IDs. Sizes therefore depend on the modelled ID width, which the
/// simulation supplies as `id_bits` ([`Pid::BITS`]) — a message reports
/// how many bits it occupies given that width, and [`crate::Metrics`]
/// aggregates per node.
pub trait MessageSize {
    /// The size of this message in bits, given `id_bits` bits per node ID.
    fn size_bits(&self, id_bits: u32) -> u64;
}

impl MessageSize for () {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        1
    }
}

impl MessageSize for Pid {
    /// A bare [`Pid`] message occupies exactly one modelled node ID.
    fn size_bits(&self, id_bits: u32) -> u64 {
        u64::from(id_bits)
    }
}

impl<M: MessageSize> MessageSize for Envelope<M> {
    fn size_bits(&self, id_bits: u32) -> u64 {
        u64::from(id_bits) + self.msg.size_bits(id_bits)
    }
}

/// A borrowed view of one delivered message: the authenticated sender and
/// a reference to the payload. What [`Inbox`] iteration yields — the
/// by-reference counterpart of [`Envelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeRef<'a, M> {
    /// Authenticated identity of the sending node.
    pub sender: Pid,
    /// The payload.
    pub msg: &'a M,
}

/// A borrowed view of one node's inbox (sorted by sender).
///
/// The engine delivers every message of a round into one contiguous
/// structure-of-arrays arena, with the sender and payload-reference fields
/// split into parallel slices; an inbox is one node's span of those
/// slices. The arena stores senders as dense `u32` node indices (half the
/// plane bytes of a `Pid`), so the view also carries the execution's pid
/// table and widens to the authenticated [`Pid`] only at the access
/// boundary. Payloads are stored once per send operation in the
/// generation's payload store, and each message holds a `u32` reference
/// into it, resolved at the same boundary.
pub struct Inbox<'a, M> {
    /// Dense node index of each message's sender, aligned with `refs`.
    senders: &'a [NodeId],
    /// The execution's node-indexed pid table (`pids[node]` is the
    /// authenticated identity of graph node `node`).
    pids: &'a [Pid],
    /// Index into `payloads` of each message, aligned with `senders`.
    refs: &'a [u32],
    /// The generation's payload store.
    payloads: &'a [M],
}

// Manual impls: `derive` would demand `M: Clone`/`M: Copy` although only
// references are copied.
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// A view over parallel sender/reference slices of equal length,
    /// resolving references into `payloads`.
    pub(crate) fn new(
        senders: &'a [NodeId],
        pids: &'a [Pid],
        refs: &'a [u32],
        payloads: &'a [M],
    ) -> Self {
        debug_assert_eq!(senders.len(), refs.len());
        Inbox {
            senders,
            pids,
            refs,
            payloads,
        }
    }

    /// An empty inbox.
    pub fn empty() -> Self {
        Inbox::new(&[], &[], &[], &[])
    }

    /// Number of messages received.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether no message was received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th message (messages are sorted by sender).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> EnvelopeRef<'a, M> {
        EnvelopeRef {
            sender: self.pids[self.senders[i].index()],
            msg: &self.payloads[self.refs[i] as usize],
        }
    }

    /// Iterates the messages in inbox (sender-sorted) order. Takes the
    /// view by value (it is `Copy`), so the iterator borrows the
    /// underlying buffers, not the view.
    pub fn iter(self) -> InboxIter<'a, M> {
        InboxIter {
            inbox: self,
            next: 0,
        }
    }

    /// Whether `who` sent at least one of the messages.
    pub fn heard_from(&self, who: Pid) -> bool {
        self.iter().any(|e| e.sender == who)
    }

    /// Folds over the payloads alone, in inbox (sender-sorted) order —
    /// the aggregate-only fast path.
    ///
    /// [`Inbox::iter`] widens every message's sender through the pid
    /// table (`pids[senders[i]]` — one dependent load per message) to
    /// build each [`EnvelopeRef`]. An aggregate-only protocol (max, sum,
    /// any-of) never reads the sender, so this fold walks only the
    /// reference plane and resolves each payload in the store: no sender
    /// loads and no per-message struct assembly. Payload order is
    /// identical to [`Inbox::iter`]'s.
    pub fn fold_payloads<B>(self, init: B, mut fold: impl FnMut(B, &'a M) -> B) -> B {
        let payloads = self.payloads;
        self.refs
            .iter()
            .fold(init, |acc, &r| fold(acc, &payloads[r as usize]))
    }

    /// Materializes the view as owned envelopes (allocates; for protocols
    /// that want to mutate state while walking their intake, and for
    /// test comparisons).
    pub fn to_vec(&self) -> Vec<Envelope<M>>
    where
        M: Clone,
    {
        self.iter()
            .map(|e| Envelope {
                sender: e.sender,
                msg: e.msg.clone(),
            })
            .collect()
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = EnvelopeRef<'a, M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = EnvelopeRef<'a, M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]; see [`Inbox::iter`].
pub struct InboxIter<'a, M> {
    inbox: Inbox<'a, M>,
    next: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = EnvelopeRef<'a, M>;

    fn next(&mut self) -> Option<EnvelopeRef<'a, M>> {
        if self.next >= self.inbox.len() {
            return None;
        }
        let item = self.inbox.get(self.next);
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.inbox.len() - self.next;
        (left, Some(left))
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

/// Content equality: two inboxes are equal when they hold the same
/// (sender, payload) sequence, whichever buffers back them — what the
/// engine-versus-reference suites byte-compare.
impl<M: PartialEq> PartialEq for Inbox<'_, M> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.sender == b.sender && a.msg == b.msg)
    }
}

impl<M: Eq> Eq for Inbox<'_, M> {}

impl<M: fmt::Debug> fmt::Debug for Inbox<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|e| (e.sender, e.msg)))
            .finish()
    }
}

/// The flat structure-of-arrays message arena: every node's inbox for one
/// buffer generation, in one contiguous allocation.
///
/// Envelope fields are split into parallel arrays — `senders`, the `u32`
/// payload references `refs`, and the counting-sort `ranks` tag — and
/// node `v`'s span is
/// `offsets[v]..offsets[v] + lens[v]`. On the engine's table paths the
/// offsets are the **degree prefix sums precomputed once per execution**
/// (a table round delivers at most in-degree messages per node — exact
/// capacity, no growth checks, no per-node allocations, no counting
/// pass); for a round the table cannot place, the flat placement's
/// count/prefix-sum step recomputes exact packed spans instead (see the
/// engine docs). Two arenas are
/// double-buffered (swapped, never rebuilt), and the arrays grow only to
/// the high-water message count of an execution — capacity is
/// pre-reserved from the delivery map's slot total (the sum of degrees),
/// so one-send-per-edge workloads never reallocate at all.
///
/// **The payload plane.** A message's payload is not stored per
/// recipient: `payloads` holds the generation's payloads once per send
/// operation (one per broadcast, one per unicast, one per Byzantine
/// message), moved in from the outboxes, and each arena slot's `refs`
/// entry indexes it. The round's merge clears the store, the fault pass
/// appends the due redeliveries, and delivery appends each sender's
/// payloads in turn (`pbase` = the store length before them), writing
/// `pbase + idx` for a send that referenced outbox payload `idx`. The
/// counting sort permutes the `u32` references, never a payload.
pub(crate) struct InboxArena<M> {
    /// Per-node span starts, length `n`.
    pub(crate) offsets: Vec<u32>,
    /// Per-node span lengths, length `n`.
    pub(crate) lens: Vec<u32>,
    /// Whether `offsets` currently holds the static degree prefix (the
    /// table paths' invariant; a flat-placed round overwrites the offsets
    /// and clears this, and the next table round restores them).
    pub(crate) offsets_static: bool,
    /// Whether `senders[..slot_total]` currently holds the static
    /// full-round sender plane (one entry per table position, in inbox
    /// order) — the full table path's invariant, letting it skip the
    /// per-message sender write entirely.
    pub(crate) senders_static: bool,
    /// Whether `lens` currently equals the distinct in-degree table (the
    /// full-round invariant).
    pub(crate) lens_full: bool,
    /// Dense node index of every message's sender, arena-indexed — four
    /// bytes per message instead of a `Pid`'s eight; the pid table widens
    /// it back at the [`Inbox`] view boundary.
    pub(crate) senders: Vec<NodeId>,
    /// Payload-store index of every message, arena-indexed. The vector's
    /// *length* is the high-water total (stale entries outside the live
    /// spans are retained as warm capacity and never exposed).
    pub(crate) refs: Vec<u32>,
    /// The generation's payload store, one entry per send operation;
    /// cleared (dropping the payloads of two rounds back) by each round's
    /// merge.
    pub(crate) payloads: Vec<M>,
    /// Counting-sort rank tag of every message — written (and read) only
    /// within the spans delivery sorts: the spans that get extras on a
    /// table round, every span on a flat-placed one.
    pub(crate) ranks: Vec<u32>,
}

impl<M> InboxArena<M> {
    /// An arena for `n` nodes with `slot_capacity` message slots
    /// pre-reserved and the static degree-prefix `offsets` installed
    /// (degree-presized: pass the graph's slot total).
    pub(crate) fn new(n: usize, deg_offsets: &[u32], slot_capacity: usize) -> Self {
        debug_assert_eq!(deg_offsets.len(), n);
        InboxArena {
            offsets: deg_offsets.to_vec(),
            lens: vec![0; n],
            offsets_static: true,
            senders_static: false,
            lens_full: false,
            senders: Vec::with_capacity(slot_capacity),
            refs: Vec::with_capacity(slot_capacity),
            ranks: Vec::with_capacity(slot_capacity),
            payloads: Vec::new(),
        }
    }

    /// Moves `payloads` (one sender's outbox payload plane) to the end of
    /// the store, leaving the source empty with its capacity kept, and
    /// returns the store index of the first moved payload — the `pbase`
    /// the sender's references are rebased by.
    pub(crate) fn take_payloads(&mut self, payloads: &mut Vec<M>) -> u32 {
        let base = self.payloads.len() as u32;
        // One broadcast leaves exactly one payload: moving it with a
        // push skips `append`'s general-length copy, which costs more
        // than the move itself for a small payload.
        if payloads.len() == 1 {
            self.payloads.extend(payloads.pop());
        } else {
            self.payloads.append(payloads);
        }
        base
    }

    /// Every node's inbox span as one view (`pids` is the execution's
    /// node-indexed pid table the view widens senders through).
    pub(crate) fn view<'a>(&'a self, pids: &'a [Pid]) -> InboxesView<'a, M> {
        InboxesView {
            offsets: &self.offsets,
            lens: &self.lens,
            senders: &self.senders,
            refs: &self.refs,
            payloads: &self.payloads,
            pids,
        }
    }

    /// Node `v`'s inbox span; see [`InboxArena::view`].
    pub(crate) fn inbox<'a>(&'a self, v: usize, pids: &'a [Pid]) -> Inbox<'a, M> {
        self.view(pids).inbox(v)
    }

    /// Grows the parallel arrays to hold `total` messages (every slot
    /// below `total` is overwritten by the scatter before it is ever
    /// exposed). No-op once the high-water mark is reached — steady-state
    /// rounds never pass through here.
    pub(crate) fn grow_to(&mut self, total: usize) {
        if self.refs.len() < total {
            self.senders.resize(total, NodeId(0));
            self.ranks.resize(total, 0);
            self.refs.resize(total, 0);
        }
    }
}

/// All inboxes of one buffer generation: per-node spans over parallel
/// sender/reference slices, the payload store the references index, and
/// the pid table that widens the senders — the engine-internal handle
/// behind [`crate::FullInfoView::inbox`] and the compute phase.
pub(crate) struct InboxesView<'a, M> {
    /// Per-node span starts.
    pub(crate) offsets: &'a [u32],
    /// Per-node span lengths, aligned with `offsets`.
    pub(crate) lens: &'a [u32],
    /// Dense sender node index of every message.
    pub(crate) senders: &'a [NodeId],
    /// Payload-store index of every message, aligned with `senders`.
    pub(crate) refs: &'a [u32],
    /// The generation's payload store.
    pub(crate) payloads: &'a [M],
    /// The execution's node-indexed pid table.
    pub(crate) pids: &'a [Pid],
}

impl<M> Clone for InboxesView<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for InboxesView<'_, M> {}

impl<'a, M> InboxesView<'a, M> {
    /// Node `v`'s inbox. Empty spans short-circuit: with the static
    /// degree offsets the arrays may not even cover an empty node's
    /// nominal span yet (e.g. before the first message ever flowed).
    pub(crate) fn inbox(&self, v: usize) -> Inbox<'a, M> {
        let len = self.lens[v] as usize;
        if len == 0 {
            return Inbox::empty();
        }
        let o0 = self.offsets[v] as usize;
        let o1 = o0 + len;
        Inbox::new(
            &self.senders[o0..o1],
            self.pids,
            &self.refs[o0..o1],
            self.payloads,
        )
    }
}

/// Where one outbox slot delivers: the destination node and the sender's
/// rank in that destination's inbox order.
///
/// See [`DeliveryMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTarget {
    /// The destination graph node.
    pub to: NodeId,
    /// The sender's rank among the destination's distinct neighbours
    /// (its [`SenderRanks`] rank) — the counting-sort key of the message.
    pub rank: u32,
}

/// Precomputed routing for every (sender, neighbour-slot) pair.
///
/// A node's outbox addresses its sends by *slot*: the index into its own
/// sorted neighbour [`Pid`] list. This map resolves a slot straight to a
/// [`SlotTarget`] — destination [`bcount_graph::NodeId`] plus the sender's
/// rank at that destination — in one flat-array load, replacing both the
/// per-message `Pid → NodeId` binary search on the merge path and the
/// per-inbox comparison sort on the delivery path.
///
/// Built once per execution; flat CSR layout mirroring the graph's own
/// adjacency structure (one entry per directed edge, multiplicity kept).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryMap {
    /// `offsets[u]..offsets[u + 1]` spans `u`'s slots in `targets` — `u32`
    /// offsets (the slot total is the degree sum, far below `u32::MAX` for
    /// any simulatable graph), halving the footprint of this plane.
    offsets: Vec<u32>,
    /// Per-slot routing, aligned with each node's sorted neighbour list.
    targets: Vec<SlotTarget>,
}

impl DeliveryMap {
    /// The map of no node, for a traffic view that routes nothing.
    #[cfg(test)]
    pub(crate) const EMPTY: DeliveryMap = DeliveryMap {
        offsets: Vec::new(),
        targets: Vec::new(),
    };

    /// Builds the map for `graph` under identity assignment `pids`,
    /// together with every node's sorted neighbour pid list (with edge
    /// multiplicity).
    ///
    /// The two are built from one shared ordering pass because they *must*
    /// agree slot-for-slot: `neighbor_pids[u][s]` is the identity a send
    /// through slot `s` reaches, and `map.targets_of(u)[s]` is where the
    /// engine physically delivers it.
    ///
    /// # Panics
    ///
    /// Panics if `pids.len()` differs from the graph's node count.
    pub fn build(graph: &Graph, pids: &[Pid], ranks: &SenderRanks) -> (Vec<Vec<Pid>>, DeliveryMap) {
        let n = graph.len();
        assert_eq!(pids.len(), n, "one pid per graph node");
        assert!(
            u32::try_from(graph.degree_sum()).is_ok(),
            "slot total exceeds the u32 delivery plane"
        );
        let mut neighbor_pids: Vec<Vec<Pid>> = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(graph.degree_sum());
        let mut scratch: Vec<(Pid, NodeId)> = Vec::new();
        for u in 0..n {
            scratch.clear();
            scratch.extend(
                graph
                    .neighbors(NodeId(u as u32))
                    .map(|w| (pids[w.index()], w)),
            );
            // Sorting by pid is total: pids are distinct, so ties occur
            // only between parallel edges to the same node.
            scratch.sort_unstable();
            neighbor_pids.push(scratch.iter().map(|&(p, _)| p).collect());
            for &(_, w) in &scratch {
                let rank = ranks
                    .rank_of(w, pids[u])
                    .expect("undirected graph: u is a neighbor of w");
                targets.push(SlotTarget { to: w, rank });
            }
            offsets.push(targets.len() as u32);
        }
        (neighbor_pids, DeliveryMap { offsets, targets })
    }

    /// The routing of every outbox slot of node `u`, aligned with `u`'s
    /// sorted neighbour pid list.
    pub fn targets_of(&self, u: usize) -> &[SlotTarget] {
        &self.targets[self.slot_range(u)]
    }

    /// Node `u`'s slots as indices into the map's flat slot order (the
    /// index space of per-slot tables aligned with the map).
    pub(crate) fn slot_range(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// Total number of slots (directed edges) in the map.
    pub fn total_slots(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_messages_cost_one_bit() {
        assert_eq!(().size_bits(64), 1);
    }

    #[test]
    fn envelope_adds_sender_id() {
        let e = Envelope {
            sender: Pid(1),
            msg: (),
        };
        assert_eq!(e.size_bits(64), 65);
        assert_eq!(e.size_bits(32), 33);
    }

    #[test]
    fn pid_messages_cost_one_id() {
        assert_eq!(Pid(7).size_bits(64), 64);
        assert_eq!(Pid(7).size_bits(20), 20);
    }

    #[test]
    fn delivery_map_routes_slots_to_ranked_destinations() {
        use bcount_graph::gen::path;
        // path(3): 0 – 1 – 2, pids chosen so sorted orders are non-trivial.
        let g = path(3).unwrap();
        let pids = [Pid(50), Pid(10), Pid(30)];
        let ranks = SenderRanks::new(&g, &pids);
        let (neighbor_pids, map) = DeliveryMap::build(&g, &pids, &ranks);
        // Node 1's neighbours sorted by pid: 30 (node 2), 50 (node 0).
        assert_eq!(neighbor_pids[1], vec![Pid(30), Pid(50)]);
        let t = map.targets_of(1);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].to, NodeId(2));
        assert_eq!(t[1].to, NodeId(0));
        // Node 2's only potential sender is pid 10 → rank 0; node 0 same.
        assert_eq!(t[0].rank, 0);
        assert_eq!(t[1].rank, 0);
        // Node 0's single slot reaches node 1; sender pid 50 ranks above
        // pid 30 among node 1's senders {30, 50}.
        let t0 = map.targets_of(0);
        assert_eq!(
            t0,
            &[SlotTarget {
                to: NodeId(1),
                rank: 1
            }]
        );
        // And the slot ordering agrees with the neighbour pid list
        // everywhere.
        for (u, pids) in neighbor_pids.iter().enumerate() {
            assert_eq!(pids.len(), map.targets_of(u).len());
        }
    }

    #[test]
    fn delivery_map_keeps_multi_edge_slots() {
        use bcount_graph::GraphBuilder;
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let pids = [Pid(1), Pid(2)];
        let ranks = SenderRanks::new(&g, &pids);
        let (neighbor_pids, map) = DeliveryMap::build(&g, &pids, &ranks);
        // Multiplicity kept in both views, rank deduped at the receiver.
        assert_eq!(neighbor_pids[0], vec![Pid(2), Pid(2)]);
        assert_eq!(
            map.targets_of(0),
            &[
                SlotTarget {
                    to: NodeId(1),
                    rank: 0
                },
                SlotTarget {
                    to: NodeId(1),
                    rank: 0
                }
            ]
        );
    }
}
