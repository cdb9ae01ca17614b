//! The protocol interface honest nodes implement.

use rand_chacha::ChaCha8Rng;

use crate::idspace::Pid;
use crate::message::{Inbox, MessageSize};

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
    /// single-shard outbox feed; see [`crate::engine`]): the engine keeps
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
/// The outgoing sink is a *borrowed* per-node scratch buffer owned by the
/// engine — sends append to it, and the engine drains it (keeping its
/// capacity) in the deterministic merge step, so steady-state rounds
/// allocate nothing. Sends are stored pre-resolved as *neighbour slots*
/// (indices into the node's sorted neighbour list): [`NodeContext::send`]
/// resolves the target [`Pid`] once, and the engine's delivery map turns
/// the slot into a destination and counting-sort rank with one array load —
/// no per-message identity search ever runs on the merge path.
#[derive(Debug)]
pub struct NodeContext<'a, M> {
    pub(crate) round: u64,
    pub(crate) me: Pid,
    pub(crate) neighbors: &'a [Pid],
    pub(crate) inbox: Inbox<'a, M>,
    pub(crate) rng: &'a mut ChaCha8Rng,
    pub(crate) outgoing: &'a mut Vec<(u32, M)>,
}

impl<'a, M: Clone> NodeContext<'a, M> {
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
        self.outgoing.push((slot as u32, msg));
    }

    /// Sends `msg` to every distinct neighbour.
    pub fn broadcast(&mut self, msg: M) {
        let mut last: Option<Pid> = None;
        // Neighbour list is sorted; skip multiplicity duplicates.
        for i in 0..self.neighbors.len() {
            let to = self.neighbors[i];
            if last == Some(to) {
                continue;
            }
            last = Some(to);
            self.outgoing.push((i as u32, msg.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcount_graph::NodeId;
    use rand::SeedableRng;

    /// A context over an inbox given as its parallel sender, pid-table,
    /// and payload slices.
    fn ctx<'a>(
        neighbors: &'a [Pid],
        inbox: (&'a [NodeId], &'a [Pid], &'a [u8]),
        rng: &'a mut ChaCha8Rng,
        outgoing: &'a mut Vec<(u32, u8)>,
    ) -> NodeContext<'a, u8> {
        let (senders, pids, msgs) = inbox;
        NodeContext {
            round: 3,
            me: Pid(42),
            neighbors,
            inbox: Inbox::new(senders, pids, msgs),
            rng,
            outgoing,
        }
    }

    const EMPTY: (&[NodeId], &[Pid], &[u8]) = (&[], &[], &[]);

    impl MessageSize for u8 {
        fn size_bits(&self, _id_bits: u32) -> u64 {
            8
        }
    }

    #[test]
    fn broadcast_dedups_multi_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(1), Pid(1), Pid(2)];
        let mut out = Vec::new();
        let mut c = ctx(&neighbors, EMPTY, &mut rng, &mut out);
        c.broadcast(7);
        // One send per *distinct* neighbour, addressed by slot.
        assert_eq!(out, vec![(0, 7), (2, 7)]);
    }

    #[test]
    fn send_resolves_neighbor_slots() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(10), Pid(20), Pid(30)];
        let mut out = Vec::new();
        let mut c = ctx(&neighbors, EMPTY, &mut rng, &mut out);
        c.send(Pid(30), 1);
        c.send(Pid(10), 2);
        c.send(Pid(20), 3);
        assert_eq!(out, vec![(2, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn heard_from_checks_inbox() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(1)];
        let mut out = Vec::new();
        let c = ctx(
            &neighbors,
            (&[NodeId(0)], &[Pid(1)], &[9u8]),
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
        let mut out = Vec::new();
        let mut c = ctx(&neighbors, EMPTY, &mut rng, &mut out);
        c.send(Pid(9), 1);
    }

    #[test]
    fn sends_reuse_the_borrowed_scratch_buffer() {
        // The engine's zero-alloc contract: a drained buffer's capacity
        // survives and is reused by the next round's context.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let neighbors = [Pid(1), Pid(2), Pid(3)];
        let mut out = Vec::new();
        ctx(&neighbors, EMPTY, &mut rng, &mut out).broadcast(1);
        out.drain(..);
        let cap = out.capacity();
        assert!(cap >= 3);
        ctx(&neighbors, EMPTY, &mut rng, &mut out).broadcast(2);
        assert_eq!(out.len(), 3);
        assert_eq!(out.capacity(), cap);
    }
}
