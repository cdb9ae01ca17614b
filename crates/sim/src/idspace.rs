//! Opaque protocol-level identities.
//!
//! The paper assumes "all nodes (including the Byzantine nodes) have
//! distinct IDs, chosen from an arbitrarily large set whose size is unknown
//! a priori … node IDs can be viewed as comparable black boxes that do not
//! leak any information about the network size." We realize this by
//! sampling distinct uniform 64-bit identifiers: whatever `n` is, IDs look
//! the same, so protocols cannot deduce `n` from ID lengths or density.

use bcount_graph::{Graph, NodeId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A protocol-level node identity: opaque, comparable, unforgeable.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Pid(pub u64);

impl Pid {
    /// The width of a node ID in bits: what the engine charges per ID when
    /// it sizes messages ([`crate::MessageSize::size_bits`]).
    pub const BITS: u32 = u64::BITS;
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:016x}", self.0)
    }
}

/// Samples `n` distinct [`Pid`]s uniformly from the 64-bit space.
///
/// Collisions are resolved by resampling (vanishingly rare for any
/// simulatable `n`).
pub fn assign_pids<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Pid> {
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let candidate = Pid(rng.gen());
        if seen.insert(candidate) {
            out.push(candidate);
        }
    }
    out
}

/// A dense `Pid → NodeId` reverse index: a flat array of pairs sorted by
/// [`Pid`], resolved by binary search.
///
/// This sits on the engine's delivery hot path (every honest message's
/// destination pid is resolved through it once per round), where the flat
/// sorted layout beats a `HashMap`: no hashing, no pointer chasing, and
/// the whole index for a 10⁶-node network fits in a few MB of contiguous,
/// prefetch-friendly memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PidIndex {
    entries: Vec<(Pid, NodeId)>,
}

impl PidIndex {
    /// Builds the index for `pids`, where position `i` is graph node `i`.
    pub fn new(pids: &[Pid]) -> Self {
        let mut entries: Vec<(Pid, NodeId)> = pids
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, NodeId(i as u32)))
            .collect();
        entries.sort_unstable_by_key(|&(p, _)| p);
        PidIndex { entries }
    }

    /// The graph node owning `pid`, if any.
    pub fn node_of(&self, pid: Pid) -> Option<NodeId> {
        self.entries
            .binary_search_by_key(&pid, |&(p, _)| p)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of indexed identities.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The per-destination sender-rank table behind the engine's counting-sort
/// delivery.
///
/// For every node `v`, the only identities that can legitimately appear as
/// senders in `v`'s inbox are its graph neighbours (honest sends are
/// neighbour-checked and the adversary is restricted to real edges). This
/// table stores, per destination, those distinct neighbour [`Pid`]s in
/// sorted order — so the *rank* of a sender among them is exactly the
/// position its messages occupy in `v`'s sorted inbox, and sorting an inbox
/// by sender reduces to a counting sort over small dense ranks instead of a
/// comparison sort over opaque 64-bit identifiers.
///
/// Built once per execution from the [`Pid`] assignment; flat CSR layout
/// (one offsets array + one concatenated pid array), so it costs two cache
/// lines per delivery lookup and nothing per round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SenderRanks {
    /// `offsets[v]..offsets[v + 1]` spans `v`'s senders in `senders` —
    /// `u32` offsets, since the distinct-sender total is bounded by the
    /// degree sum.
    offsets: Vec<u32>,
    /// Distinct neighbour pids of every node, sorted per node.
    senders: Vec<Pid>,
}

impl SenderRanks {
    /// Builds the table for `graph` under the identity assignment `pids`
    /// (position `i` is graph node `i`).
    ///
    /// # Panics
    ///
    /// Panics if `pids.len()` differs from the graph's node count.
    pub fn new(graph: &Graph, pids: &[Pid]) -> Self {
        let n = graph.len();
        assert_eq!(pids.len(), n, "one pid per graph node");
        assert!(
            u32::try_from(graph.degree_sum()).is_ok(),
            "sender total exceeds the u32 rank plane"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut senders = Vec::with_capacity(graph.degree_sum());
        let mut scratch: Vec<Pid> = Vec::new();
        for v in 0..n {
            scratch.clear();
            scratch.extend(graph.neighbors(NodeId(v as u32)).map(|w| pids[w.index()]));
            scratch.sort_unstable();
            scratch.dedup();
            senders.extend_from_slice(&scratch);
            offsets.push(senders.len() as u32);
        }
        SenderRanks { offsets, senders }
    }

    /// The distinct identities that may appear as senders in `v`'s inbox,
    /// sorted.
    pub fn senders(&self, v: NodeId) -> &[Pid] {
        &self.senders[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// The rank of `sender` in `v`'s inbox order, if `sender` is a
    /// neighbour of `v`.
    #[inline]
    pub fn rank_of(&self, v: NodeId, sender: Pid) -> Option<u32> {
        self.senders(v)
            .binary_search(&sender)
            .ok()
            .map(|i| i as u32)
    }

    /// Number of distinct potential senders of `v`.
    pub fn sender_count(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Raw CSR offset of node index `v` (valid for `v ⩽ n`), for engines
    /// that keep flat per-sender scratch aligned with this table.
    pub fn offset(&self, v: usize) -> usize {
        self.offsets[v] as usize
    }

    /// Total number of (destination, distinct sender) pairs — the length a
    /// flat per-sender scratch array must have.
    pub fn total(&self) -> usize {
        self.senders.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pids_are_distinct_and_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = assign_pids(1000, &mut rng);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 1000);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let b = assign_pids(1000, &mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_fixed_width() {
        let s = Pid(0xAB).to_string();
        assert_eq!(s, "#00000000000000ab");
    }

    #[test]
    fn pid_index_resolves_every_assigned_pid() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let pids = assign_pids(257, &mut rng);
        let index = PidIndex::new(&pids);
        assert_eq!(index.len(), 257);
        for (i, &p) in pids.iter().enumerate() {
            assert_eq!(index.node_of(p), Some(NodeId(i as u32)));
        }
    }

    #[test]
    fn pid_index_rejects_unknown_pids() {
        let pids = [Pid(10), Pid(30), Pid(20)];
        let index = PidIndex::new(&pids);
        assert_eq!(index.node_of(Pid(10)), Some(NodeId(0)));
        assert_eq!(index.node_of(Pid(20)), Some(NodeId(2)));
        assert_eq!(index.node_of(Pid(30)), Some(NodeId(1)));
        assert_eq!(index.node_of(Pid(11)), None);
        assert!(!index.is_empty());
        assert!(PidIndex::default().is_empty());
    }

    #[test]
    fn sender_ranks_order_matches_sorted_pids() {
        use bcount_graph::gen::cycle;
        let g = cycle(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let pids = assign_pids(5, &mut rng);
        let ranks = SenderRanks::new(&g, &pids);
        assert_eq!(ranks.total(), 10); // 2 distinct neighbours per node
        for v in 0..5usize {
            let v = NodeId(v as u32);
            let senders = ranks.senders(v);
            assert_eq!(senders.len(), ranks.sender_count(v));
            assert!(senders.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            for (i, &p) in senders.iter().enumerate() {
                assert_eq!(ranks.rank_of(v, p), Some(i as u32));
            }
            // Non-neighbour pids have no rank.
            assert_eq!(ranks.rank_of(v, pids[v.index()]), None);
        }
    }

    #[test]
    fn sender_ranks_dedup_multi_edges() {
        use bcount_graph::GraphBuilder;
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1)); // parallel edge
        let g = b.build();
        let pids = [Pid(7), Pid(3)];
        let ranks = SenderRanks::new(&g, &pids);
        assert_eq!(ranks.senders(NodeId(0)), &[Pid(3)]);
        assert_eq!(ranks.senders(NodeId(1)), &[Pid(7)]);
        assert_eq!(ranks.rank_of(NodeId(1), Pid(7)), Some(0));
    }
}
