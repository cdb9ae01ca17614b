//! Barbell / bridged topologies: dense regions joined by a sparse cut.
//!
//! These graphs have a single-edge (or single-node) bottleneck and hence
//! vertex expansion `O(1/n)` — the canonical setting for the paper's
//! Theorem 3 and Remark 1, where a Byzantine node sitting on the cut can
//! simulate an arbitrarily large phantom network on the other side.

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Two cliques of size `clique` joined by a path of `bridge` intermediate
/// nodes (a classic barbell; `bridge = 0` joins them with a single edge).
///
/// # Errors
///
/// [`GraphError::TooFewNodes`] if `clique < 2`.
pub fn barbell(clique: usize, bridge: usize) -> Result<Graph, GraphError> {
    if clique < 2 {
        return Err(GraphError::TooFewNodes { n: clique, min: 2 });
    }
    let n = 2 * clique + bridge;
    let m = clique * (clique - 1) + bridge + 1;
    let mut b = GraphBuilder::with_edge_capacity(n, m);
    let add_clique = |b: &mut GraphBuilder, base: usize| {
        for i in base..base + clique {
            for j in i + 1..base + clique {
                b.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    };
    add_clique(&mut b, 0);
    add_clique(&mut b, clique + bridge);
    // Bridge path: last node of clique A .. bridge nodes .. first node of B.
    let mut prev = NodeId((clique - 1) as u32);
    for i in 0..bridge {
        let mid = NodeId((clique + i) as u32);
        b.add_edge(prev, mid);
        prev = mid;
    }
    b.add_edge(prev, NodeId((clique + bridge) as u32));
    Ok(b.build())
}

/// Two independent `H(m, d)` expanders joined by a single bridge edge.
///
/// Each side is internally a good expander, but the whole graph has vertex
/// expansion `O(1/m)`: the cut consists of one edge. Node `m - 1` of the
/// first expander is bridged to node `m` (index 0 of the second).
///
/// # Errors
///
/// As for [`crate::gen::hamiltonian::hnd`].
pub fn bridged_expanders<R: Rng + ?Sized>(
    m: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let a = crate::gen::hamiltonian::hnd(m, d, rng)?;
    let b = crate::gen::hamiltonian::hnd(m, d, rng)?;
    let mut builder = GraphBuilder::with_edge_capacity(2 * m, m * d + 1);
    for (u, v) in a.edges() {
        builder.add_edge(u, v);
    }
    for (u, v) in b.edges() {
        builder.add_edge(NodeId(u.0 + m as u32), NodeId(v.0 + m as u32));
    }
    builder.add_edge(NodeId((m - 1) as u32), NodeId(m as u32));
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::components::connected_components;
    use crate::analysis::expansion::vertex_expansion_exact;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn barbell_is_connected_with_bottleneck() {
        let g = barbell(5, 2).unwrap();
        assert_eq!(g.len(), 12);
        assert_eq!(connected_components(&g).component_count(), 1);
        // One clique (5 nodes) has a tiny boundary: expansion <= 1/5.
        let h = vertex_expansion_exact(&g).expect("small graph");
        assert!(h <= 0.21, "barbell expansion {h} should be bottlenecked");
    }

    #[test]
    fn barbell_zero_bridge_joins_with_edge() {
        let g = barbell(4, 0).unwrap();
        assert_eq!(g.len(), 8);
        assert!(g.has_edge(NodeId(3), NodeId(4)));
        assert_eq!(g.edge_count(), 6 + 6 + 1);
    }

    #[test]
    fn bridged_expanders_connected_single_cut_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = bridged_expanders(50, 6, &mut rng).unwrap();
        assert_eq!(g.len(), 100);
        assert_eq!(connected_components(&g).component_count(), 1);
        // Bridge endpoints have degree d + 1; everyone else d.
        assert_eq!(g.degree(NodeId(49)), 7);
        assert_eq!(g.degree(NodeId(50)), 7);
        assert_eq!(g.degree(NodeId(0)), 6);
    }

    #[test]
    fn rejects_tiny_cliques() {
        assert!(barbell(1, 0).is_err());
    }
}
