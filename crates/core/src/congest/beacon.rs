//! Message types of Algorithm 2.

use std::sync::Arc;

use bcount_sim::{MessageSize, Pid};
use serde::{Deserialize, Serialize};

/// A message of the CONGEST counting protocol.
///
/// A beacon's path is a shared, immutable `Arc<[Pid]>`: a broadcast hands
/// every neighbour the same allocation (a clone is a reference-count
/// bump), and a forwarder builds its extended path as one new
/// allocation. [`MessageSize::size_bits`] still charges every path entry
/// to every copy sent — it models the wire size, not the in-memory
/// sharing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestMsg {
    /// A beacon flood. The path field lists every node the beacon has
    /// visited, origin first and most recent forwarder last; receivers
    /// verify that the last entry equals the authenticated sender and
    /// forwarders append themselves before re-broadcasting. A Byzantine
    /// node can fabricate any prefix, but cannot fake the final entry
    /// (channel authenticity) — which is exactly what the blacklisting
    /// rule exploits.
    Beacon {
        /// Visited-node chain: `path[0]` is the claimed origin, the last
        /// entry is the (verifiable) sender.
        path: Arc<[Pid]>,
    },
    /// A liveness signal flooded by undecided nodes during each
    /// iteration's continue window. Carries no payload.
    Continue,
}

impl CongestMsg {
    /// The claimed origin of a beacon (`None` for continues or corrupt
    /// empty paths).
    pub fn origin(&self) -> Option<Pid> {
        match self {
            CongestMsg::Beacon { path } => path.first().copied(),
            CongestMsg::Continue => None,
        }
    }
}

impl MessageSize for CongestMsg {
    fn size_bits(&self, id_bits: u32) -> u64 {
        match self {
            // 2-bit tag plus the path IDs.
            CongestMsg::Beacon { path } => 2 + path.len() as u64 * u64::from(id_bits),
            CongestMsg::Continue => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_reflect_path_length() {
        let b = CongestMsg::Beacon {
            path: Arc::from([Pid(1), Pid(2), Pid(3)]),
        };
        assert_eq!(b.size_bits(64), 2 + 3 * 64);
        assert_eq!(CongestMsg::Continue.size_bits(64), 2);
    }

    #[test]
    fn origin_is_first_path_entry() {
        let b = CongestMsg::Beacon {
            path: Arc::from([Pid(9), Pid(2)]),
        };
        assert_eq!(b.origin(), Some(Pid(9)));
        assert_eq!(CongestMsg::Continue.origin(), None);
        let empty = CongestMsg::Beacon {
            path: Arc::from([]),
        };
        assert_eq!(empty.origin(), None);
    }
}
