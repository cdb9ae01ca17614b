//! Opaque protocol-level identities.
//!
//! The paper assumes "all nodes (including the Byzantine nodes) have
//! distinct IDs, chosen from an arbitrarily large set whose size is unknown
//! a priori … node IDs can be viewed as comparable black boxes that do not
//! leak any information about the network size." We realize this by
//! sampling distinct uniform 64-bit identifiers: whatever `n` is, IDs look
//! the same, so protocols cannot deduce `n` from ID lengths or density.

use bcount_graph::NodeId;
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
}
