//! Message envelopes, size accounting, the flat SoA inbox arena, and the
//! routing table.

use crate::engine::Placement;
use crate::idspace::Pid;
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

// Manual impl: `derive` would demand `M: Clone` although only references
// are copied.
impl<M> Clone for InboxIter<'_, M> {
    fn clone(&self) -> Self {
        InboxIter {
            inbox: self.inbox,
            next: self.next,
        }
    }
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
/// `offsets[v]..offsets[v] + lens[v]`. The offsets are the **degree
/// prefix sums precomputed once per execution** (the slot → position
/// table delivers at most in-degree messages per node — exact capacity,
/// no growth checks, no per-node allocations, no counting pass); a span
/// whose extras overflow its degree spills to the arena's tail instead
/// (see the engine docs). Two arenas are
/// double-buffered (swapped, never rebuilt), and the arrays grow only to
/// the high-water message count of an execution — capacity is
/// pre-reserved from the delivery map's slot total (the sum of degrees),
/// so one-send-per-edge workloads never reallocate at all.
///
/// **The payload plane.** A message's payload is not stored per
/// recipient: `payloads` holds the generation's payloads once per send
/// operation (one per broadcast, one per unicast, honest or Byzantine),
/// moved in from the outboxes and the adversary's payload plane, and each
/// arena slot's `refs` entry indexes it. The round's merge clears the
/// store, the fault pass appends the due redeliveries, and delivery
/// appends each sender's payloads in turn, then the adversary's (`pbase`
/// = the store length before them), writing `pbase + idx` for a send that
/// referenced payload `idx` of its plane. The
/// counting sort permutes the `u32` references, never a payload.
pub(crate) struct InboxArena<M> {
    /// Per-node span starts, length `n`.
    pub(crate) offsets: Vec<u32>,
    /// Per-node span lengths, length `n`.
    pub(crate) lens: Vec<u32>,
    /// Whether `offsets` currently holds the static degree prefix (a
    /// spilled round moves a span's offset and clears this, and the next
    /// round restores them).
    pub(crate) offsets_static: bool,
    /// How the generation's last round was placed. After a
    /// [`Placement::Full`] round `senders[..slot_total]` holds the static
    /// sender plane and `lens` the distinct in-degrees, which the next
    /// full round keeps; after a [`Placement::Sparse`] one every table
    /// position of `refs` outside the spans `dirty` lists still holds the
    /// hole mark, and the next sparse round re-marks only those spans.
    pub(crate) placed: Placement,
    /// The spans the generation's last sparse round reached (node
    /// indices, each once).
    pub(crate) dirty: Vec<u32>,
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
    /// within the spans delivery sorts: the spans that get extras.
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
            placed: Placement::Dense,
            dirty: Vec::new(),
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
    #[inline]
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

/// The slot → position table's sentinel: a reference no send wrote (an
/// arena position the compaction skips), and in the table a slot with no
/// position (a repeated slot of a parallel edge, which no send resolves
/// to). Payload references index a store far smaller than `u32::MAX`
/// entries.
pub(crate) const HOLE: u32 = u32::MAX;

/// The routing table: where every send lands, built once per execution.
///
/// A node's outbox addresses its sends by *slot*: the index into its own
/// sorted neighbour [`Pid`] list. Node `u`'s slots are
/// `offsets[u]..offsets[u + 1]`, and the same range is `u`'s inbox span of
/// arena positions: both are the degree prefix sums. Per slot the table
/// holds the destination `to` and the arena position `pos`. The first slot
/// of each distinct neighbour owns one position of the destination's span,
/// at the sender's rank among the destination's distinct neighbours in pid
/// order, so every span's positions run in sender-pid order; a repeated
/// slot of a parallel edge holds [`HOLE`]. Per node the table holds the
/// distinct in-degree (the positions a span owns), and per position the
/// static sender: node `v`'s distinct neighbours in pid order, which are
/// `v`'s own first-of-run slots. A message's counting-sort rank in its
/// span is `pos - offsets[to]`.
///
/// One flat-array load resolves a send, replacing both a per-message
/// `Pid → NodeId` search on the merge path and a per-inbox comparison
/// sort on the delivery path.
pub(crate) struct DeliveryMap {
    /// Degree prefix sums, length `n + 1`: node `u`'s slots and its span
    /// of table positions are both `offsets[u]..offsets[u + 1]` (`u32`:
    /// the slot total is far below `u32::MAX` for any simulatable graph).
    offsets: Vec<u32>,
    /// Destination of every slot, aligned with each node's sorted
    /// neighbour pid list.
    to: Vec<NodeId>,
    /// Table position of every slot; [`HOLE`] on a repeated slot.
    pos: Vec<u32>,
    /// Distinct in-degree of every node: the positions its span owns, at
    /// the span's start.
    distinct: Vec<u32>,
    /// The sender of every table position (dense node id); entries past a
    /// span's distinct in-degree are unused.
    senders: Vec<NodeId>,
    /// Number of table positions: the distinct in-degrees' sum.
    positions: u64,
}

impl DeliveryMap {
    /// The map of no node, for a traffic view that routes nothing.
    #[cfg(test)]
    pub(crate) const EMPTY: DeliveryMap = DeliveryMap {
        offsets: Vec::new(),
        to: Vec::new(),
        pos: Vec::new(),
        distinct: Vec::new(),
        senders: Vec::new(),
        positions: 0,
    };

    /// Builds the table for `graph` under identity assignment `pids`,
    /// together with every node's sorted neighbour pids (with edge
    /// multiplicity), flat in the table's slot order: node `u`'s list is
    /// the slice [`DeliveryMap::slots`]`(u)`.
    ///
    /// The two come from one ordering pass because they *must* agree
    /// slot for slot: `neighbor_pids[offsets[u] + s]` is the identity a
    /// send through slot `s` reaches, and `to[offsets[u] + s]` is where
    /// the engine delivers it. A sender's position is then found the way
    /// [`crate::NodeContext::send`] resolves a neighbour: its first slot.
    ///
    /// # Panics
    ///
    /// Panics if `pids.len()` differs from the graph's node count.
    pub(crate) fn build(graph: &Graph, pids: &[Pid]) -> (Vec<Pid>, DeliveryMap) {
        let n = graph.len();
        assert_eq!(pids.len(), n, "one pid per graph node");
        let slot_total = graph.degree_sum();
        assert!(
            u32::try_from(slot_total).is_ok(),
            "slot total exceeds the u32 delivery plane"
        );
        let mut neighbor_pids: Vec<Pid> = Vec::with_capacity(slot_total);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut to = Vec::with_capacity(slot_total);
        let mut distinct = Vec::with_capacity(n);
        let mut senders = vec![NodeId(0); slot_total];
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
            neighbor_pids.extend(scratch.iter().map(|&(p, _)| p));
            // The first-of-run slots, in order, are the senders of u's
            // own span.
            let start = to.len();
            let mut k = start;
            for &(_, w) in &scratch {
                if to[start..].last() != Some(&w) {
                    senders[k] = w;
                    k += 1;
                }
                to.push(w);
            }
            distinct.push((k - start) as u32);
            offsets.push(to.len() as u32);
        }
        let mut pos = vec![HOLE; slot_total];
        for v in 0..n {
            let span = offsets[v] as usize..(offsets[v] + distinct[v]) as usize;
            for p in span {
                let u = senders[p].index();
                let slots = offsets[u] as usize..offsets[u + 1] as usize;
                let slot = neighbor_pids[slots].partition_point(|&q| q < pids[v]);
                pos[offsets[u] as usize + slot] = p as u32;
            }
        }
        let positions = distinct.iter().map(|&d| u64::from(d)).sum();
        let map = DeliveryMap {
            offsets,
            to,
            pos,
            distinct,
            senders,
            positions,
        };
        (neighbor_pids, map)
    }

    /// Node `u`'s slots as indices into the table's slot planes (and into
    /// the flat neighbour pids [`DeliveryMap::build`] returns).
    #[inline]
    pub(crate) fn slots(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// The destination of each of node `u`'s slots.
    #[inline]
    pub(crate) fn to(&self, u: usize) -> &[NodeId] {
        &self.to[self.slots(u)]
    }

    /// The table position of each of node `u`'s slots ([`HOLE`] on a
    /// repeated slot).
    #[inline]
    pub(crate) fn pos(&self, u: usize) -> &[u32] {
        &self.pos[self.slots(u)]
    }

    /// Every node's span start: the degree prefix sums, one per node.
    #[inline]
    pub(crate) fn span_starts(&self) -> &[u32] {
        &self.offsets[..self.distinct.len()]
    }

    /// Every node's distinct in-degree: the positions its span owns.
    #[inline]
    pub(crate) fn distinct(&self) -> &[u32] {
        &self.distinct
    }

    /// The static sender of every table position.
    #[inline]
    pub(crate) fn senders(&self) -> &[NodeId] {
        &self.senders
    }

    /// Number of table positions: the distinct in-degrees' sum.
    pub(crate) fn positions(&self) -> u64 {
        self.positions
    }

    /// Total number of slots (directed edges) in the table.
    pub(crate) fn total_slots(&self) -> usize {
        self.to.len()
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
    fn routing_table_follows_pid_order() {
        use bcount_graph::gen::path;
        // path(3): 0 – 1 – 2, pids chosen so sorted orders are non-trivial.
        let g = path(3).unwrap();
        let pids = [Pid(50), Pid(10), Pid(30)];
        let (neighbor_pids, map) = DeliveryMap::build(&g, &pids);
        // Node 1's neighbours sorted by pid: 30 (node 2), 50 (node 0).
        assert_eq!(neighbor_pids[map.slots(1)], [Pid(30), Pid(50)]);
        assert_eq!(map.offsets, [0, 1, 3, 4]);
        assert_eq!(map.to, [NodeId(1), NodeId(2), NodeId(0), NodeId(1)]);
        // Node 1's span (positions 1 and 2) holds node 2 (pid 30), then
        // node 0 (pid 50): node 0's one slot takes position 2.
        assert_eq!(map.pos, [2, 3, 0, 1]);
        assert_eq!(map.distinct, [1, 2, 1]);
        assert_eq!(map.senders, [NodeId(1), NodeId(2), NodeId(0), NodeId(1)]);
        assert_eq!(map.positions, 4);
        assert_eq!(neighbor_pids, [Pid(10), Pid(30), Pid(50), Pid(10)]);
    }

    #[test]
    fn routing_table_gives_a_doubled_edge_one_position() {
        use bcount_graph::GraphBuilder;
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let pids = [Pid(1), Pid(2)];
        let (neighbor_pids, map) = DeliveryMap::build(&g, &pids);
        // Both slots reach the one neighbour; only the first owns its
        // position in the neighbour's span.
        assert_eq!(neighbor_pids[map.slots(0)], [Pid(2), Pid(2)]);
        assert_eq!(map.to, [NodeId(1), NodeId(1), NodeId(0), NodeId(0)]);
        assert_eq!(map.pos, [2, HOLE, 0, HOLE]);
        assert_eq!(map.distinct, [1, 1]);
        assert_eq!((map.senders[0], map.senders[2]), (NodeId(1), NodeId(0)));
        assert_eq!(map.positions, 2);
    }

    #[test]
    fn routing_table_places_a_self_loop_once() {
        use bcount_graph::GraphBuilder;
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let pids = [Pid(5), Pid(3)];
        let (neighbor_pids, map) = DeliveryMap::build(&g, &pids);
        // Node 0 hears node 1 (pid 3), then itself (pid 5), once each.
        assert_eq!(neighbor_pids[map.slots(0)], [Pid(3), Pid(5), Pid(5)]);
        assert_eq!(map.offsets, [0, 3, 4]);
        assert_eq!(map.to, [NodeId(1), NodeId(0), NodeId(0), NodeId(0)]);
        assert_eq!(map.pos, [3, 1, HOLE, 0]);
        assert_eq!(map.distinct, [2, 1]);
        assert_eq!(&map.senders[..2], [NodeId(1), NodeId(0)]);
        assert_eq!(map.senders[3], NodeId(0));
        assert_eq!(map.positions, 3);
    }
}
