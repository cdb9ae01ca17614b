//! The core immutable graph representation.
//!
//! [`Graph`] stores an undirected (multi)graph in compressed sparse row
//! (CSR) form: a flat neighbour array plus per-node offsets. This is the
//! representation every generator produces and every analysis routine and
//! simulation consumes. Node identities inside a [`Graph`] are dense indices
//! ([`NodeId`]); the simulation layer maps these to opaque, large,
//! information-free identifiers (the paper's "IDs chosen from an arbitrarily
//! large set").

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense node index within a [`Graph`].
///
/// `NodeId` is an index, not a protocol-level identity: the distributed
/// simulation assigns separate opaque identifiers so that protocol code
/// cannot derive the network size from its own ID (see the paper's
/// "Distinct IDs" model assumption).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An immutable undirected multigraph in CSR form.
///
/// Parallel edges and self-loops are representable because the random
/// regular graph models of the paper (the `H(n,d)` permutation model and the
/// configuration model) naturally produce them; [`Graph::simplify`] removes
/// them when a simple graph is required.
///
/// # Example
///
/// ```
/// use bcount_graph::{Graph, GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g: Graph = b.build();
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.degree(NodeId(1)), 2);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Builds a graph directly from CSR arrays.
    ///
    /// This is the low-level constructor used by [`crate::GraphBuilder`];
    /// prefer the builder for general use. Supply each node's neighbour
    /// span in increasing order, as the builders do: consumers walk spans
    /// in place and rely on parallel edges being adjacent.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotone, do not start at 0, or do not
    /// end at `neighbors.len()`, or if any neighbour index is out of range.
    pub fn from_csr(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("nonempty"),
            neighbors.len(),
            "offsets must end at neighbors.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        let n = offsets.len() - 1;
        assert!(
            neighbors.iter().all(|v| v.index() < n),
            "neighbor index out of range"
        );
        Graph { offsets, neighbors }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges (each parallel edge counted once,
    /// self-loops counted once).
    pub fn edge_count(&self) -> usize {
        let mut loops = 0usize;
        for u in self.nodes() {
            loops += self.neighbors(u).filter(|&v| v == u).count();
        }
        // Each self-loop contributes 2 entries under the handshake
        // convention used by the builder; each normal edge contributes 2.
        debug_assert!(
            loops.is_multiple_of(2),
            "self-loops must contribute 2 CSR slots"
        );
        (self.neighbors.len() - loops) / 2 + loops / 2
    }

    /// Degree of `u`, counting multiplicities (a self-loop adds 2).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }

    /// Maximum degree over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Whether every node has degree exactly `d` (with multiplicity).
    pub fn is_regular(&self, d: usize) -> bool {
        self.nodes().all(|u| self.degree(u) == d)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Iterator over the neighbours of `u` (with multiplicity).
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors[self.offsets[u.index()]..self.offsets[u.index() + 1]]
            .iter()
            .copied()
    }

    /// The neighbours of `u` as a slice (with multiplicity).
    #[inline]
    pub fn neighbor_slice(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }

    /// Whether `u` and `v` are adjacent (true for `u == v` only if a
    /// self-loop exists).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).any(|w| w == v)
    }

    /// Iterator over undirected edges as `(u, v)` with `u <= v`; parallel
    /// edges appear once per multiplicity.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
                .chain(
                    // Each self-loop occupies two CSR slots; emit it once.
                    self.neighbors(u)
                        .filter(move |&v| v == u)
                        .enumerate()
                        .filter(|(i, _)| i % 2 == 0)
                        .map(move |_| (u, u)),
                )
        })
    }

    /// Returns a simple version of this graph: parallel edges collapsed and
    /// self-loops removed.
    pub fn simplify(&self) -> Graph {
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .edges()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut b = crate::GraphBuilder::with_edge_capacity(self.len(), pairs.len());
        for (u, v) in pairs {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Whether the graph has no self-loops and no parallel edges.
    pub fn is_simple(&self) -> bool {
        for u in self.nodes() {
            let mut seen = std::collections::HashSet::new();
            for v in self.neighbors(u) {
                if v == u || !seen.insert(v) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the subgraph induced by `keep`, along with the mapping from
    /// new ids to original ids.
    ///
    /// Nodes are renumbered densely in the order they appear in `keep`;
    /// duplicate entries in `keep` are ignored after the first.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut new_id = vec![u32::MAX; self.len()];
        let mut order = Vec::with_capacity(keep.len());
        for &u in keep {
            if new_id[u.index()] == u32::MAX {
                new_id[u.index()] = order.len() as u32;
                order.push(u);
            }
        }
        let mut b = crate::GraphBuilder::new(order.len());
        for &u in &order {
            for v in self.neighbors(u) {
                if new_id[v.index()] != u32::MAX {
                    // Emit each undirected edge once: from the endpoint with
                    // the smaller *original* id (self-loops from even slots).
                    if u <= v {
                        if u == v {
                            continue; // handled below to avoid double-count
                        }
                        b.add_edge(NodeId(new_id[u.index()]), NodeId(new_id[v.index()]));
                    }
                }
            }
            // Self-loops: two CSR slots each, add once per pair.
            let loops = self.neighbors(u).filter(|&v| v == u).count();
            for _ in 0..loops / 2 {
                b.add_edge(NodeId(new_id[u.index()]), NodeId(new_id[u.index()]));
            }
        }
        (b.build(), order)
    }

    /// Total number of CSR adjacency slots (sum of degrees).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.len(), 5);
        assert!(!g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        let g0 = Graph::empty(0);
        assert!(g0.is_empty());
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_regular(2));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
        assert!(g.is_simple());
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let mut es: Vec<_> = g.edges().collect();
        es.sort();
        assert_eq!(
            es,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2))
            ]
        );
    }

    #[test]
    fn multigraph_and_simplify() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(0));
        let g = b.build();
        assert_eq!(g.degree(NodeId(0)), 4); // two parallel + self-loop (2)
        assert_eq!(g.degree(NodeId(1)), 2);
        assert!(!g.is_simple());
        assert_eq!(g.edge_count(), 3);
        let s = g.simplify();
        assert!(s.is_simple());
        assert_eq!(s.edge_count(), 1);
        assert_eq!(s.degree(NodeId(0)), 1);
    }

    #[test]
    fn self_loop_edges_emitted_once_per_loop() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId(0), NodeId(0));
        b.add_edge(NodeId(0), NodeId(0));
        let g = b.build();
        assert_eq!(g.degree(NodeId(0)), 4);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(NodeId(0), NodeId(0)), (NodeId(0), NodeId(0))]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = triangle();
        let (sub, order) = g.induced_subgraph(&[NodeId(2), NodeId(0)]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(order, vec![NodeId(2), NodeId(0)]);
        assert!(sub.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn induced_subgraph_keeps_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let (sub, _) = g.induced_subgraph(&[NodeId(0)]);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.degree(NodeId(0)), 2);
    }

    #[test]
    fn from_csr_roundtrip() {
        let g = triangle();
        let g2 = Graph::from_csr(
            (0..=3).map(|i| i * 2).collect(),
            vec![
                NodeId(1),
                NodeId(2),
                NodeId(0),
                NodeId(2),
                NodeId(1),
                NodeId(0),
            ],
        );
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.edge_count(), g2.edge_count());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_csr_rejects_bad_offsets() {
        let _ = Graph::from_csr(vec![0, 2, 1, 2], vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn node_id_display_and_conversions() {
        assert_eq!(NodeId(7).to_string(), "v7");
        assert_eq!(NodeId::from(7u32), NodeId(7));
        assert_eq!(NodeId::from(7usize), NodeId(7));
        assert_eq!(NodeId(9).index(), 9);
    }
}
