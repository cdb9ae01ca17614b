//! The full-information Byzantine adversary interface.
//!
//! A single [`Adversary`] value controls *all* Byzantine nodes at once —
//! the paper's adversary is a monolithic entity with "complete knowledge
//! of the entire states of all nodes at the beginning of every round". The
//! engine realizes this with a *rushing* schedule: every round, honest
//! nodes first produce their messages, then the adversary inspects the
//! complete honest states plus those in-flight messages before choosing
//! what each Byzantine node says. Every adversary gets that whole view:
//! [`HonestTraffic`] reads the in-flight messages where the engine holds
//! them, so looking costs nothing and an adversary declares nothing.
//!
//! Two model restrictions are enforced mechanically:
//!
//! * **ID authenticity** — a Byzantine node's messages carry its true
//!   [`Pid`]; [`ByzantineContext::send`] stamps the sender itself.
//! * **Edge locality** — Byzantine nodes can only message actual graph
//!   neighbours.
//!
//! The paper's adversary also knows the honest nodes' *future* coin flips;
//! no implementation can offer that generically, but none of the concrete
//! strategies the proofs consider needs it (they are implemented in
//! `bcount-core`'s `adversary` module). What the
//! view does offer is strictly more than any real attacker has: full state
//! introspection via [`FullInfoView::honest_state`].

use bcount_graph::{Graph, NodeId};
use rand_chacha::ChaCha8Rng;

use crate::fault::DUPLICATE;
use crate::idspace::{Pid, PidIndex};
use crate::message::{DeliveryMap, Inbox, InboxesView};
use crate::protocol::{Outbox, Protocol};

/// Everything the adversary can observe in a round (full information).
///
/// All fields borrow the engine's own state — building the view each
/// round allocates nothing.
pub struct FullInfoView<'a, P: Protocol> {
    pub(crate) round: u64,
    pub(crate) graph: &'a Graph,
    pub(crate) pids: &'a [Pid],
    pub(crate) pid_index: &'a PidIndex,
    pub(crate) is_byzantine: &'a [bool],
    /// Honest protocol states, indexed by graph node (`None` at Byzantine
    /// slots).
    pub(crate) honest_states: &'a [Option<P>],
    /// Messages honest nodes are sending *this* round, observable before
    /// the adversary commits (rushing).
    pub(crate) honest_outgoing: HonestTraffic<'a, P::Message>,
    /// What every node received at the end of last round (the adversary
    /// sees all channels — full information).
    pub(crate) inboxes: InboxesView<'a, P::Message>,
}

impl<'a, P: Protocol> FullInfoView<'a, P> {
    /// Current round (1-based).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The true network topology (the adversary is omniscient).
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Protocol identity of a node.
    pub fn pid(&self, u: NodeId) -> Pid {
        self.pids[u.index()]
    }

    /// Reverse lookup of a [`Pid`] to its graph node, if it exists
    /// (binary search on the engine's dense [`PidIndex`]).
    pub fn node_of(&self, pid: Pid) -> Option<NodeId> {
        self.pid_index.node_of(pid)
    }

    /// Whether `u` is Byzantine.
    pub fn is_byzantine(&self, u: NodeId) -> bool {
        self.is_byzantine[u.index()]
    }

    /// Iterator over the Byzantine nodes.
    pub fn byzantine_nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        let byz = self.is_byzantine;
        (0..byz.len())
            .filter(move |&i| byz[i])
            .map(|i| NodeId(i as u32))
    }

    /// Full state of the honest protocol at `u`, or `None` if `u` is
    /// Byzantine or already halted-and-dropped.
    pub fn honest_state(&self, u: NodeId) -> Option<&'a P> {
        self.honest_states.get(u.index()).and_then(Option::as_ref)
    }

    /// The messages honest nodes are sending this round, visible before
    /// the adversary commits (rushing adversary): a borrowed
    /// `(from, to, &msg)` view in node order.
    pub fn honest_outgoing(&self) -> HonestTraffic<'a, P::Message> {
        self.honest_outgoing
    }

    /// What node `u` received at the end of the previous round, as a
    /// layout-independent [`Inbox`] view. The adversary may inspect *any*
    /// node's channel (full information); its own Byzantine nodes'
    /// inboxes are the usual use.
    pub fn inbox(&self, u: NodeId) -> Inbox<'a, P::Message> {
        self.inboxes.inbox(u.index())
    }
}

/// A round's in-flight honest traffic as the rushing adversary sees it:
/// one `(from, to, &msg)` entry per message, in node order.
///
/// The view borrows the engine's state in place and copies nothing. It
/// reads the honest outboxes as the fault pass left them — the outboxes
/// stay full until delivery, which runs after the adversary commits —
/// resolving each send's neighbour slot through the [`DeliveryMap`] and
/// yielding a send marked as duplicated twice. Then it reads this round's
/// redeliveries, `(from, to, payload reference)` entries in the order they
/// were withheld. That is the sequence the model defines: node order and
/// send order, each duplicate right after its original, the
/// redeliveries last.
pub struct HonestTraffic<'a, M> {
    pub(crate) outboxes: &'a [Outbox<M>],
    pub(crate) routes: &'a DeliveryMap,
    pub(crate) sends: &'a [(NodeId, NodeId, u32)],
    pub(crate) payloads: &'a [M],
    /// Messages in flight, counted by the merge and the fault pass.
    pub(crate) len: usize,
}

// Manual impls: `derive` would demand `M: Clone`/`M: Copy` although only
// references are copied.
impl<M> Clone for HonestTraffic<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for HonestTraffic<'_, M> {}

impl<'a, M> HonestTraffic<'a, M> {
    /// A view of a node-order vector alone (read as the redeliveries are),
    /// for the reference executor, which routes without a [`DeliveryMap`].
    #[cfg(test)]
    pub(crate) fn flat(sends: &'a [(NodeId, NodeId, u32)], payloads: &'a [M]) -> Self {
        static NO_ROUTES: DeliveryMap = DeliveryMap::EMPTY;
        HonestTraffic {
            outboxes: &[],
            routes: &NO_ROUTES,
            sends,
            payloads,
            len: sends.len(),
        }
    }

    /// Number of messages in flight.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no honest message is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the messages in node order.
    pub fn iter(self) -> impl Iterator<Item = (NodeId, NodeId, &'a M)> + 'a {
        let HonestTraffic {
            outboxes,
            routes,
            sends,
            payloads,
            ..
        } = self;
        let queued = outboxes.iter().enumerate().flat_map(move |(u, outbox)| {
            let targets = routes.targets_of(u);
            outbox.sends.iter().flat_map(move |&(slot, payload)| {
                let msg = &outbox.payloads[(payload & !DUPLICATE) as usize];
                let copies = 1 + usize::from(payload & DUPLICATE != 0);
                let sent = (NodeId(u as u32), targets[slot as usize].to, msg);
                std::iter::repeat_n(sent, copies)
            })
        });
        let redelivered = sends
            .iter()
            .map(move |&(from, to, payload)| (from, to, &payloads[payload as usize]));
        queued.chain(redelivered)
    }
}

/// Outgoing-message sink for the Byzantine nodes.
///
/// The sink borrows a persistent scratch buffer owned by the engine
/// (drained each round with its capacity kept), mirroring the honest
/// nodes' zero-alloc outboxes.
pub struct ByzantineContext<'a, M> {
    pub(crate) graph: &'a Graph,
    pub(crate) is_byzantine: &'a [bool],
    pub(crate) rng: &'a mut ChaCha8Rng,
    pub(crate) outgoing: &'a mut Vec<(NodeId, NodeId, M)>,
}

impl<'a, M: Clone> ByzantineContext<'a, M> {
    /// Sends `msg` from Byzantine node `from` to its neighbour `to`.
    ///
    /// The recipient sees the *authentic* sender identity.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not Byzantine or `{from, to}` is not an edge —
    /// the model forbids both ID spoofing and out-of-band channels.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        assert!(
            self.is_byzantine[from.index()],
            "adversary tried to send from honest node {from}"
        );
        assert!(
            self.graph.has_edge(from, to),
            "adversary tried to use non-edge {from} -> {to}"
        );
        self.outgoing.push((from, to, msg));
    }

    /// Sends `msg` from `from` to every distinct neighbour of `from`, in
    /// increasing node order.
    ///
    /// Walks the graph's neighbour span in place (the builders sort every
    /// span, so parallel edges are adjacent and skipped): no allocation
    /// beyond the sink's warmed capacity.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not Byzantine (as for
    /// [`ByzantineContext::send`]).
    pub fn broadcast(&mut self, from: NodeId, msg: M) {
        assert!(
            self.is_byzantine[from.index()],
            "adversary tried to broadcast from honest node {from}"
        );
        let nbrs = self.graph.neighbor_slice(from);
        debug_assert!(
            nbrs.windows(2).all(|w| w[0] <= w[1]),
            "neighbour span of {from} is not sorted"
        );
        let mut last = None;
        for &to in nbrs {
            if last == Some(to) {
                continue;
            }
            last = Some(to);
            self.outgoing.push((from, to, msg.clone()));
        }
    }

    /// The adversary's private randomness (for randomized strategies).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }
}

/// A Byzantine strategy controlling all Byzantine nodes.
///
/// Implementations receive the full-information [`FullInfoView`] each round
/// and emit messages through the [`ByzantineContext`].
pub trait Adversary<P: Protocol> {
    /// Chooses this round's Byzantine messages after observing the honest
    /// round (rushing).
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, P::Message>);
}

/// The benign adversary: Byzantine nodes stay silent forever.
///
/// Useful both as the no-fault baseline and as the "crash from the start"
/// failure mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullAdversary;

impl<P: Protocol> Adversary<P> for NullAdversary {
    fn on_round(
        &mut self,
        _view: &FullInfoView<'_, P>,
        _ctx: &mut ByzantineContext<'_, P::Message>,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcount_graph::gen::cycle;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "honest node")]
    fn cannot_send_from_honest_nodes() {
        let g = cycle(4).unwrap();
        let is_byz = vec![false, true, false, false];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut out = Vec::new();
        let mut ctx: ByzantineContext<'_, ()> = ByzantineContext {
            graph: &g,
            is_byzantine: &is_byz,
            rng: &mut rng,
            outgoing: &mut out,
        };
        ctx.send(NodeId(0), NodeId(1), ());
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn cannot_send_over_non_edges() {
        let g = cycle(4).unwrap();
        let is_byz = vec![false, true, false, false];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut out = Vec::new();
        let mut ctx: ByzantineContext<'_, ()> = ByzantineContext {
            graph: &g,
            is_byzantine: &is_byz,
            rng: &mut rng,
            outgoing: &mut out,
        };
        ctx.send(NodeId(1), NodeId(3), ());
    }

    #[test]
    fn broadcast_targets_distinct_neighbors() {
        let g = cycle(4).unwrap();
        let is_byz = vec![false, true, false, false];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut out = Vec::new();
        let mut ctx: ByzantineContext<'_, u32> = ByzantineContext {
            graph: &g,
            is_byzantine: &is_byz,
            rng: &mut rng,
            outgoing: &mut out,
        };
        ctx.broadcast(NodeId(1), 5);
        assert_eq!(
            out,
            vec![(NodeId(1), NodeId(0), 5), (NodeId(1), NodeId(2), 5)]
        );
    }
}
