//! Message and round accounting.
//!
//! Experiment E5 verifies Theorem 2's claim that "at least `(1 − β)n`
//! nodes send messages of at most `O(log n)` bits". These metrics record,
//! per honest node, how many messages it sent, their total size, and the
//! size of the largest single message under the configured ID width.

use serde::{Deserialize, Serialize};

/// Per-node message accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// Messages this node sent over the whole execution.
    pub messages_sent: u64,
    /// Total bits sent.
    pub bits_sent: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
}

impl NodeMetrics {
    pub(crate) fn record(&mut self, bits: u64) {
        self.messages_sent += 1;
        self.bits_sent += bits;
        self.max_message_bits = self.max_message_bits.max(bits);
    }

    /// Records a whole outbox worth of sends at once — numerically
    /// identical to `count` [`NodeMetrics::record`] calls whose sizes sum
    /// to `bits` with maximum `max_bits`. The merge accumulates per node
    /// in registers and commits once, keeping the per-message loop free of
    /// read-modify-write traffic on this struct.
    pub(crate) fn record_batch(&mut self, count: u64, bits: u64, max_bits: u64) {
        self.messages_sent += count;
        self.bits_sent += bits;
        self.max_message_bits = self.max_message_bits.max(max_bits);
    }
}

/// Aggregate execution metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Per-node accounting, indexed by graph node id. Byzantine nodes'
    /// slots count the adversary's traffic.
    pub per_node: Vec<NodeMetrics>,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Messages per round (only populated when
    /// [`crate::SimConfig::record_round_stats`] is set).
    pub messages_per_round: Vec<u64>,
    /// Full per-round trace (only populated when
    /// [`crate::SimConfig::record_round_stats`] is set).
    pub round_trace: Vec<crate::trace::RoundTrace>,
    /// Honest messages dropped by the fault plane
    /// ([`crate::fault::FaultPlan::drop_per_mille`]).
    pub dropped: u64,
    /// Honest messages duplicated by the fault plane (each counted
    /// once; the duplicate itself is an extra delivery, not a send —
    /// per-node send metrics record the attempt at merge time).
    pub duplicated: u64,
    /// Honest messages withheld for delayed redelivery.
    pub delayed: u64,
    /// Crash-stop events applied (distinct nodes crashed so far).
    pub crashed: u64,
}

impl Metrics {
    pub(crate) fn new(n: usize) -> Self {
        Metrics {
            per_node: vec![NodeMetrics::default(); n],
            rounds: 0,
            messages_per_round: Vec::new(),
            round_trace: Vec::new(),
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            crashed: 0,
        }
    }

    /// Total messages sent by the given nodes (e.g. the honest subset).
    pub fn total_messages<I: IntoIterator<Item = usize>>(&self, nodes: I) -> u64 {
        nodes
            .into_iter()
            .map(|i| self.per_node[i].messages_sent)
            .sum()
    }

    /// Total bits sent by the given nodes.
    pub fn total_bits<I: IntoIterator<Item = usize>>(&self, nodes: I) -> u64 {
        nodes.into_iter().map(|i| self.per_node[i].bits_sent).sum()
    }

    /// Number of the given nodes whose largest message stayed within
    /// `limit_bits` — the "small messages" census of Theorem 2.
    pub fn count_within_message_limit<I: IntoIterator<Item = usize>>(
        &self,
        nodes: I,
        limit_bits: u64,
    ) -> usize {
        nodes
            .into_iter()
            .filter(|&i| self.per_node[i].max_message_bits <= limit_bits)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_totals_and_max() {
        let mut m = NodeMetrics::default();
        m.record(10);
        m.record(30);
        m.record(20);
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bits_sent, 60);
        assert_eq!(m.max_message_bits, 30);
    }

    #[test]
    fn aggregates_over_subsets() {
        let mut m = Metrics::new(3);
        m.per_node[0].record(5);
        m.per_node[1].record(50);
        m.per_node[2].record(7);
        assert_eq!(m.total_messages(0..3), 3);
        assert_eq!(m.total_bits([0, 2]), 12);
        assert_eq!(m.count_within_message_limit(0..3, 10), 2);
    }
}
