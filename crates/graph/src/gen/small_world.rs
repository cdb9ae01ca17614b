//! Watts–Strogatz small-world networks.
//!
//! The prior work of Chatterjee et al. (IPDPS 2019, cited as \[14\]) solved
//! Byzantine counting only on small-world networks — graphs with constant
//! expansion *and* large clustering coefficient — and only under randomly
//! placed Byzantine nodes. This generator reproduces that network family so
//! the experiments can contrast the present paper's algorithms (which need
//! only expansion) with the structural assumptions of \[14\].

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Generates a Watts–Strogatz small-world graph.
///
/// Starts from a ring lattice where every node connects to its `k` nearest
/// neighbours on each side (degree `2k`), then rewires the far endpoint of
/// each lattice edge independently with probability `p` to a uniformly
/// random node, avoiding self-loops and duplicate edges where possible.
///
/// * `p = 0` returns the pure ring lattice (high clustering, poor
///   expansion beyond the lattice constant).
/// * `p = 1` approaches a random graph (low clustering, good expansion).
/// * Intermediate `p` gives the small-world regime: high clustering with
///   logarithmic diameter.
///
/// # Errors
///
/// * [`GraphError::TooFewNodes`] if `n < 2k + 2` (the lattice would wrap
///   onto itself).
/// * [`GraphError::InvalidDegree`] if `k == 0`.
/// * [`GraphError::InvalidProbability`] if `p ∉ [0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    p: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if k == 0 {
        return Err(GraphError::InvalidDegree {
            d: 0,
            requirement: "lattice half-degree k must be positive",
        });
    }
    if n < 2 * k + 2 {
        return Err(GraphError::TooFewNodes { n, min: 2 * k + 2 });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidProbability { p });
    }
    // Adjacency set tracking to avoid duplicates during rewiring.
    let mut adj: Vec<std::collections::BTreeSet<u32>> = vec![std::collections::BTreeSet::new(); n];
    let add = |adj: &mut Vec<std::collections::BTreeSet<u32>>, u: usize, v: usize| {
        adj[u].insert(v as u32);
        adj[v].insert(u as u32);
    };
    for u in 0..n {
        for j in 1..=k {
            let v = (u + j) % n;
            add(&mut adj, u, v);
        }
    }
    // Rewire: for each lattice edge (u, u+j), with probability p replace it
    // by (u, w) for uniform w.
    for u in 0..n {
        for j in 1..=k {
            let v = (u + j) % n;
            if rng.gen_bool(p) {
                // Pick a replacement target; skip if it would duplicate.
                let w = rng.gen_range(0..n);
                if w != u && !adj[u].contains(&(w as u32)) {
                    adj[u].remove(&(v as u32));
                    adj[v].remove(&(u as u32));
                    add(&mut adj, u, w);
                }
            }
        }
    }
    // Rewiring never adds edges, so the lattice's n·k is an exact ceiling.
    let mut b = GraphBuilder::with_edge_capacity(n, n * k);
    for (u, set) in adj.iter().enumerate() {
        for &v in set {
            if (u as u32) < v {
                b.add_edge(NodeId(u as u32), NodeId(v));
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::clustering::average_clustering;
    use crate::analysis::components::connected_components;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn p_zero_is_ring_lattice() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = watts_strogatz(20, 2, 0.0, &mut rng).unwrap();
        assert!(g.is_regular(4));
        assert_eq!(g.edge_count(), 40);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn rewiring_preserves_connectivity_and_simplicity() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = watts_strogatz(200, 3, 0.2, &mut rng).unwrap();
        assert!(g.is_simple());
        assert_eq!(connected_components(&g).component_count(), 1);
    }

    #[test]
    fn small_world_regime_has_high_clustering() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let lattice = watts_strogatz(300, 4, 0.0, &mut rng).unwrap();
        let sw = watts_strogatz(300, 4, 0.1, &mut rng).unwrap();
        let random = watts_strogatz(300, 4, 1.0, &mut rng).unwrap();
        let (cl, cs, cr) = (
            average_clustering(&lattice),
            average_clustering(&sw),
            average_clustering(&random),
        );
        // Lattice clustering is the analytic 3(k-1)/(2(2k-1)) ≈ 0.643.
        assert!((cl - 0.642857).abs() < 1e-6, "lattice clustering {cl}");
        assert!(cs > cr, "small-world ({cs}) must out-cluster random ({cr})");
        assert!(cs > 0.3, "small-world regime keeps high clustering ({cs})");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert!(matches!(
            watts_strogatz(5, 2, 0.5, &mut rng),
            Err(GraphError::TooFewNodes { .. })
        ));
        assert!(matches!(
            watts_strogatz(20, 0, 0.5, &mut rng),
            Err(GraphError::InvalidDegree { .. })
        ));
        assert!(matches!(
            watts_strogatz(20, 2, 1.5, &mut rng),
            Err(GraphError::InvalidProbability { .. })
        ));
    }
}
