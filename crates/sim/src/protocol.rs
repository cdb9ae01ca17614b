//! The protocol interface honest nodes implement.

use rand_chacha::ChaCha8Rng;

use crate::idspace::Pid;
use crate::message::{push_payload, Inbox, MessageSize};

/// A distributed protocol run by every *honest* node.
///
/// One value of the implementing type exists per honest node; the engine
/// drives it one [`Protocol::on_round`] call per synchronous round.
/// Byzantine nodes are driven by an [`crate::Adversary`] instead.
///
/// # Round semantics
///
/// In round `r` a node sees (via [`NodeContext::inbox`]) exactly the
/// messages sent to it in round `r − 1`, and any message it sends is seen
/// by its recipients in round `r + 1`. Local computation is free, matching
/// the LOCAL/CONGEST conventions.
pub trait Protocol {
    /// Message type exchanged over edges.
    type Message: Clone + MessageSize;
    /// The value the node irrevocably decides.
    type Output: Clone;

    /// Declares the protocol **quiescent on silence**: in every round
    /// after the first, a node whose inbox is empty does nothing —
    /// [`Protocol::on_round`] sends no messages, changes no state, draws
    /// no randomness, and flips neither [`Protocol::output`] nor
    /// [`Protocol::has_halted`]. Event-driven protocols (token passing,
    /// frontier floods, convergecasts) satisfy this; anything that counts
    /// silent rounds (stability timers) or sends unconditionally does
    /// not.
    ///
    /// Declaring it licenses the engine's active-set schedule (on its
    /// outbox feed; see [`crate::engine`]): the engine keeps
    /// an active set of nodes with pending traffic and skips the rest of
    /// the network entirely, making round cost scale with traffic
    /// instead of `n`. The declaration is a *promise* — release builds
    /// trust it, debug builds check it whenever a silent round is driven
    /// on the dense schedule. Defaults to `false` (the dense schedule).
    const QUIESCENT_ON_SILENCE: bool = false;

    /// Executes one synchronous round.
    fn on_round(&mut self, ctx: &mut NodeContext<'_, Self::Message>);

    /// The node's decision, if it has decided. Decisions are irrevocable:
    /// once `Some`, the value must never change (tests enforce this).
    fn output(&self) -> Option<Self::Output>;

    /// Whether the node has permanently stopped (will never send again).
    /// Halted nodes are no longer scheduled.
    fn has_halted(&self) -> bool {
        false
    }
}

/// Per-round execution context handed to [`Protocol::on_round`].
///
/// Provides the node's identity, its (authenticated) neighbour list, the
/// round number, the inbox of last round's messages, deterministic
/// randomness, and the send/broadcast primitives.
///
/// The outgoing sink is a *borrowed* per-node outbox owned by the
/// engine — sends append to it, and the engine drains it (keeping its
/// capacity) at delivery, so steady-state rounds allocate nothing. Sends
/// are stored pre-resolved as *neighbour slots* (indices into the node's
/// sorted neighbour list): [`NodeContext::send`] resolves the target
/// [`Pid`] once, and the engine's delivery map turns the slot into a
/// destination and counting-sort rank with one array load — no
/// per-message identity search ever runs on the merge path. A message is
/// stored once per send *operation*: [`NodeContext::broadcast`] keeps one
/// payload and one `(slot, payload)` reference per distinct neighbour.
#[derive(Debug)]
pub struct NodeContext<'a, M> {
    pub(crate) round: u64,
    pub(crate) me: Pid,
    pub(crate) neighbors: &'a [Pid],
    pub(crate) inbox: Inbox<'a, M>,
    pub(crate) rng: &'a mut ChaCha8Rng,
    pub(crate) outgoing: &'a mut Outbox<M>,
}

/// One node's outgoing messages of a round: each payload stored once, and
/// every send a `(neighbour slot, payload index)` reference into it.
#[derive(Debug)]
pub(crate) struct Outbox<M> {
    /// `(neighbour slot, index into payloads)` per send, in send order.
    pub(crate) sends: Vec<(u32, u32)>,
    /// One payload per send operation (a broadcast stores one).
    pub(crate) payloads: Vec<M>,
}

impl<M> Outbox<M> {
    /// An empty outbox with room for `sends` send references and
    /// `payloads` payloads (zero leaves the payload plane unallocated until
    /// the node first sends).
    pub(crate) fn with_capacity(sends: usize, payloads: usize) -> Self {
        Outbox {
            sends: Vec::with_capacity(sends),
            payloads: Vec::with_capacity(payloads),
        }
    }

    /// Whether the node sent nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// Empties both planes, keeping their capacity.
    #[cfg(any(test, feature = "bench-probes"))]
    pub(crate) fn clear(&mut self) {
        self.sends.clear();
        self.payloads.clear();
    }
}

impl<'a, M> NodeContext<'a, M> {
    /// Current round number (1-based).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's own identity.
    pub fn my_id(&self) -> Pid {
        self.me
    }

    /// Authenticated identities of the node's neighbours, with edge
    /// multiplicity, sorted. (Knowing one's neighbours' IDs is the standard
    /// assumption the paper's algorithms make, e.g. for the beacon path
    /// check "whether the neighbor from which it received the message does
    /// indeed have id u_k".)
    pub fn neighbors(&self) -> &[Pid] {
        self.neighbors
    }

    /// The node's degree (with multiplicity).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Messages received at the end of the previous round, sorted by
    /// sender — a layout-independent [`Inbox`] view (iterate it, index it,
    /// or materialize it with [`Inbox::to_vec`]).
    pub fn inbox(&self) -> Inbox<'a, M> {
        self.inbox
    }

    /// Whether `who` sent us at least one message this round. Used e.g. by
    /// Algorithm 1's mute-neighbour detection.
    pub fn heard_from(&self, who: Pid) -> bool {
        self.inbox.heard_from(who)
    }

    /// This node's private deterministic randomness stream.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }

    /// Sends `msg` to the neighbour `to`.
    ///
    /// The neighbour list is sorted, so the membership check is a binary
    /// search; the found index doubles as the engine-level delivery slot.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour — the simulated network has no
    /// routing; only edge-local communication exists.
    pub fn send(&mut self, to: Pid, msg: M) {
        let slot = self
            .neighbors
            .binary_search(&to)
            .unwrap_or_else(|_| panic!("protocol attempted to send to non-neighbor {to}"));
        let payload = push_payload(&mut self.outgoing.payloads, msg);
        self.outgoing.sends.push((slot as u32, payload));
    }

    /// Sends `msg` to every distinct neighbour. The message is stored
    /// once, not cloned per recipient: every send references it.
    pub fn broadcast(&mut self, msg: M) {
        if self.neighbors.is_empty() {
            return;
        }
        let payload = push_payload(&mut self.outgoing.payloads, msg);
        let mut last: Option<Pid> = None;
        // Neighbour list is sorted; skip multiplicity duplicates.
        for i in 0..self.neighbors.len() {
            let to = self.neighbors[i];
            if last == Some(to) {
                continue;
            }
            last = Some(to);
            self.outgoing.sends.push((i as u32, payload));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcount_graph::NodeId;
    use rand::SeedableRng;

    /// A context over an inbox given as its parallel sender, pid-table,
    /// reference, and payload-store slices.
    fn ctx<'a>(
        neighbors: &'a [Pid],
        inbox: (&'a [NodeId], &'a [Pid], &'a [u32], &'a [u8]),
        rng: &'a mut ChaCha8Rng,
        outgoing: &'a mut Outbox<u8>,
    ) -> NodeContext<'a, u8> {
        let (senders, pids, refs, payloads) = inbox;
        NodeContext {
            round: 3,
            me: Pid(42),
            neighbors,
            inbox: Inbox::new(senders, pids, refs, payloads),
            rng,
            outgoing,
        }
    }

    type InboxParts<'a> = (&'a [NodeId], &'a [Pid], &'a [u32], &'a [u8]);
    const EMPTY: InboxParts<'static> = (&[], &[], &[], &[]);

    impl MessageSize for u8 {
        fn size_bits(&self, _id_bits: u32) -> u64 {
            8
        }
    }

    #[test]
    fn broadcast_dedups_multi_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(1), Pid(1), Pid(2)];
        let mut out = Outbox::with_capacity(0, 0);
        let mut c = ctx(&neighbors, EMPTY, &mut rng, &mut out);
        c.broadcast(7);
        // One send per *distinct* neighbour, addressed by slot, all
        // referencing the one stored payload.
        assert_eq!(out.sends, vec![(0, 0), (2, 0)]);
        assert_eq!(out.payloads, vec![7]);
    }

    #[test]
    fn send_resolves_neighbor_slots() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(10), Pid(20), Pid(30)];
        let mut out = Outbox::with_capacity(0, 0);
        let mut c = ctx(&neighbors, EMPTY, &mut rng, &mut out);
        c.send(Pid(30), 1);
        c.send(Pid(10), 2);
        c.send(Pid(20), 3);
        assert_eq!(out.sends, vec![(2, 0), (0, 1), (1, 2)]);
        assert_eq!(out.payloads, vec![1, 2, 3]);
    }

    #[test]
    fn heard_from_checks_inbox() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(1)];
        let mut out = Outbox::with_capacity(0, 0);
        let c = ctx(
            &neighbors,
            (&[NodeId(0)], &[Pid(1)], &[0], &[9u8]),
            &mut rng,
            &mut out,
        );
        assert!(c.heard_from(Pid(1)));
        assert!(!c.heard_from(Pid(2)));
        assert_eq!(c.round(), 3);
        assert_eq!(c.my_id(), Pid(42));
        assert_eq!(c.degree(), 1);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_rejects_strangers() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(1)];
        let mut out = Outbox::with_capacity(0, 0);
        let mut c = ctx(&neighbors, EMPTY, &mut rng, &mut out);
        c.send(Pid(9), 1);
    }

    #[test]
    fn sends_reuse_the_borrowed_scratch_buffer() {
        // The engine's zero-alloc contract: a drained buffer's capacity
        // survives and is reused by the next round's context.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(1), Pid(2), Pid(3)];
        let mut out = Outbox::with_capacity(0, 0);
        ctx(&neighbors, EMPTY, &mut rng, &mut out).broadcast(1);
        out.clear();
        let cap = (out.sends.capacity(), out.payloads.capacity());
        assert!(cap.0 >= 3 && cap.1 >= 1);
        ctx(&neighbors, EMPTY, &mut rng, &mut out).broadcast(2);
        assert_eq!(out.sends.len(), 3);
        assert_eq!((out.sends.capacity(), out.payloads.capacity()), cap);
    }
}
