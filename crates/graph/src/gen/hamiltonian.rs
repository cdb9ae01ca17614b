//! The `H(n, d)` permutation model: union of `d/2` random Hamiltonian cycles.
//!
//! This is the paper's network model for Algorithm 2 (Section 2, "Network
//! topology for the second (randomized) algorithm"): a `d`-regular
//! multigraph formed by superimposing `d/2` independent, uniformly random
//! Hamiltonian cycles on the same vertex set. Such graphs are Ramanujan
//! expanders with high probability (Friedman), and results that hold whp in
//! this model transfer to the configuration model and to almost all simple
//! `d`-regular graphs (Greenhill et al.).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Generates an `H(n, d)` random regular multigraph.
///
/// The graph is the union of `d/2` uniformly random Hamiltonian cycles, so
/// every node has degree exactly `d` counting multiplicities. Parallel
/// edges occur with (vanishing but positive) probability; call
/// [`Graph::simplify`] if a simple graph is required — the paper works with
/// the multigraph directly.
///
/// # Errors
///
/// * [`GraphError::InvalidDegree`] if `d` is odd or zero.
/// * [`GraphError::TooFewNodes`] if `n < 3` (a Hamiltonian cycle needs at
///   least 3 nodes to avoid degenerate double edges between two nodes).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// # fn main() -> Result<(), bcount_graph::GraphError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let g = bcount_graph::gen::hnd(100, 8, &mut rng)?;
/// assert!(g.is_regular(8));
/// # Ok(())
/// # }
/// ```
pub fn hnd<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if d == 0 || !d.is_multiple_of(2) {
        return Err(GraphError::InvalidDegree {
            d,
            requirement: "H(n,d) requires a positive even degree",
        });
    }
    if n < 3 {
        return Err(GraphError::TooFewNodes { n, min: 3 });
    }
    // Streaming construction: d/2 cycles of n edges each, emitted into the
    // exactly-presized two-pass CSR builder — no per-node Vec adjacency.
    let mut b = GraphBuilder::with_edge_capacity(n, n * d / 2);
    let mut perm: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    for _ in 0..d / 2 {
        perm.shuffle(rng);
        for w in perm.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.add_edge(perm[n - 1], perm[0]);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::components::connected_components;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn produces_d_regular_multigraph() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for &(n, d) in &[(3, 2), (10, 4), (257, 8), (1000, 12)] {
            let g = hnd(n, d, &mut rng).unwrap();
            assert_eq!(g.len(), n);
            assert!(g.is_regular(d), "H({n},{d}) must be {d}-regular");
        }
    }

    #[test]
    fn single_cycle_is_hamiltonian() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = hnd(50, 2, &mut rng).unwrap();
        // One Hamiltonian cycle: connected and 2-regular.
        assert_eq!(connected_components(&g).component_count(), 1);
        assert!(g.is_regular(2));
        assert_eq!(g.edge_count(), 50);
    }

    #[test]
    fn is_connected_for_d_at_least_4() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for seed in 0..5u64 {
            let mut rng2 = ChaCha8Rng::seed_from_u64(seed);
            let g = hnd(200, 4, &mut rng2).unwrap();
            assert_eq!(connected_components(&g).component_count(), 1);
        }
        let g = hnd(500, 8, &mut rng).unwrap();
        assert_eq!(connected_components(&g).component_count(), 1);
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(matches!(
            hnd(10, 3, &mut rng),
            Err(GraphError::InvalidDegree { .. })
        ));
        assert!(matches!(
            hnd(10, 0, &mut rng),
            Err(GraphError::InvalidDegree { .. })
        ));
        assert!(matches!(
            hnd(2, 2, &mut rng),
            Err(GraphError::TooFewNodes { .. })
        ));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g1 = hnd(64, 6, &mut ChaCha8Rng::seed_from_u64(99)).unwrap();
        let g2 = hnd(64, 6, &mut ChaCha8Rng::seed_from_u64(99)).unwrap();
        assert_eq!(g1, g2);
        let g3 = hnd(64, 6, &mut ChaCha8Rng::seed_from_u64(100)).unwrap();
        assert_ne!(g1, g3);
    }
}
