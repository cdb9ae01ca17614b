//! Deterministic lattice topologies: cycles, paths, and 2-D tori.
//!
//! These are the **low-expansion** graphs used to exercise the paper's
//! impossibility result (Theorem 3) and the necessity of the expansion
//! assumption: a cycle has vertex expansion `Θ(1/n)` and a `√n × √n` torus
//! `Θ(1/√n)`, so neither supports Byzantine counting.

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// The cycle `C_n` (ring).
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::TooFewNodes { n, min: 3 });
    }
    let mut b = GraphBuilder::with_edge_capacity(n, n);
    for u in 0..n {
        b.add_edge(NodeId(u as u32), NodeId(((u + 1) % n) as u32));
    }
    Ok(b.build())
}

/// The path `P_n`.
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `n < 2`.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::TooFewNodes { n, min: 2 });
    }
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    for u in 0..n - 1 {
        b.add_edge(NodeId(u as u32), NodeId((u + 1) as u32));
    }
    Ok(b.build())
}

/// The 2-D torus on a `rows × cols` grid (4-regular).
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if either dimension is `< 3` (smaller wraps
/// create parallel edges).
pub fn torus2d(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::TooFewNodes {
            n: rows * cols,
            min: 9,
        });
    }
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    let mut b = GraphBuilder::with_edge_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id(r, (c + 1) % cols));
            b.add_edge(id(r, c), id((r + 1) % rows, c));
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::bfs::diameter;
    use crate::analysis::components::connected_components;

    #[test]
    fn cycle_structure() {
        let g = cycle(10).unwrap();
        assert!(g.is_regular(2));
        assert_eq!(g.edge_count(), 10);
        assert_eq!(diameter(&g), Some(5));
        assert!(cycle(2).is_err());
    }

    #[test]
    fn path_structure() {
        let g = path(5).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 2);
        assert_eq!(diameter(&g), Some(4));
        assert!(path(1).is_err());
    }

    #[test]
    fn torus_structure() {
        let g = torus2d(4, 5).unwrap();
        assert_eq!(g.len(), 20);
        assert!(g.is_regular(4));
        assert!(g.is_simple());
        assert_eq!(connected_components(&g).component_count(), 1);
        // Torus diameter = floor(rows/2) + floor(cols/2).
        assert_eq!(diameter(&g), Some(2 + 2));
        assert!(torus2d(2, 5).is_err());
    }
}
