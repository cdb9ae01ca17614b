//! Incremental construction of [`Graph`] values.

use crate::{Graph, NodeId};

/// Incremental builder producing CSR [`Graph`]s.
///
/// Edges are undirected; adding `(u, v)` makes `v` a neighbour of `u` and
/// vice versa. Adding the same pair twice produces a parallel edge, and
/// `add_edge(u, u)` produces a self-loop occupying two adjacency slots (the
/// handshake convention), matching the configuration-model semantics used by
/// the random graph generators.
///
/// The builder records each undirected edge once in one flat vector (8
/// bytes per edge) and assembles the CSR arrays in two passes at
/// [`GraphBuilder::build`] time: a degree-count pass, a prefix sum over the
/// counts, then a cursor scatter directly into the final neighbour array.
/// Peak memory is the edge list plus the finished CSR — no per-node
/// adjacency vectors (at `n = 10⁶` those would be a million small
/// allocations).
///
/// # Example
///
/// ```
/// use bcount_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::with_edge_capacity(4, 3);
/// for i in 0..3u32 {
///     b.add_edge(NodeId(i), NodeId(i + 1));
/// }
/// let g = b.build();
/// assert_eq!(g.edge_count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder::with_edge_capacity(n, 0)
    }

    /// Creates a builder for `n` nodes with room for `m` edges — the
    /// generators know their exact (or expected) edge counts, so the edge
    /// list never reallocates during emission.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the builder was created with zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(u.index() < self.n, "node {u} out of range (n = {})", self.n);
        assert!(v.index() < self.n, "node {v} out of range (n = {})", self.n);
        self.edges.push((u, v));
    }

    /// Finalizes into a CSR [`Graph`] with the two-pass count/prefix-sum
    /// assembly. Neighbour spans are sorted, so the graph does not depend
    /// on insertion order.
    pub fn build(self) -> Graph {
        let n = self.n;
        // Pass 1: adjacency-slot counts (a self-loop takes both its slots
        // on the same node under the handshake convention).
        let mut cursors = vec![0u32; n];
        for &(u, v) in &self.edges {
            cursors[u.index()] += 1;
            cursors[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &c in &cursors {
            total += c as usize;
            offsets.push(total);
        }
        // Pass 2: scatter through per-node write cursors (reusing the count
        // array), then sort each span in place.
        let mut neighbors = vec![NodeId(0); total];
        cursors.fill(0);
        for &(u, v) in &self.edges {
            let ui = u.index();
            neighbors[offsets[ui] + cursors[ui] as usize] = v;
            cursors[ui] += 1;
            let vi = v.index();
            neighbors[offsets[vi] + cursors[vi] as usize] = u;
            cursors[vi] += 1;
        }
        drop(cursors);
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph::from_csr(offsets, neighbors)
    }
}

impl FromIterator<(NodeId, NodeId)> for GraphBuilder {
    /// Collects edges into a builder sized to the largest endpoint seen.
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        let edges: Vec<_> = iter.into_iter().collect();
        let n = edges
            .iter()
            .map(|&(u, v)| u.index().max(v.index()) + 1)
            .max()
            .unwrap_or(0);
        GraphBuilder { n, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_adjacency() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(3));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(2), NodeId(0));
        let g = b.build();
        assert_eq!(
            g.neighbor_slice(NodeId(0)),
            &[NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(g.neighbor_slice(NodeId(2)), &[NodeId(0)]);
    }

    #[test]
    fn from_iterator_sizes_to_max_endpoint() {
        let b: GraphBuilder = vec![(NodeId(0), NodeId(4)), (NodeId(1), NodeId(2))]
            .into_iter()
            .collect();
        assert_eq!(b.len(), 5);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_loop_occupies_two_slots() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId(0), NodeId(0));
        let g = b.build();
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parallel_edges_keep_their_multiplicity() {
        let mut b = GraphBuilder::with_edge_capacity(3, 3);
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        assert_eq!(
            g.neighbor_slice(NodeId(2)),
            &[NodeId(0), NodeId(0), NodeId(1)]
        );
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId(0), NodeId(1));
    }

    #[test]
    fn empty_builder() {
        let b = GraphBuilder::new(0);
        assert!(b.is_empty());
        assert!(b.build().is_empty());
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 0);
    }
}
