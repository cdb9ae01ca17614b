//! The configuration (pairing) model and uniform simple `d`-regular graphs.
//!
//! The paper's analysis is stated for the `H(n,d)` permutation model but
//! transfers to the configuration model and to uniformly random simple
//! `d`-regular graphs by contiguity (Section 2). We provide both so that
//! experiments can cross-check that measured behaviour is model-independent.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Generates a `d`-regular multigraph from the configuration model.
///
/// Each node receives `d` stubs; a uniformly random perfect matching on the
/// `n·d` stubs defines the edges. Self-loops and parallel edges occur with
/// constant probability and are kept.
///
/// # Errors
///
/// * [`GraphError::InvalidDegree`] if `d == 0` or `n·d` is odd (no perfect
///   matching exists).
/// * [`GraphError::TooFewNodes`] if `n == 0`.
pub fn configuration_model<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::TooFewNodes { n, min: 1 });
    }
    if d == 0 {
        return Err(GraphError::InvalidDegree {
            d,
            requirement: "degree must be positive",
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidDegree {
            d,
            requirement: "n*d must be even for a perfect matching on stubs",
        });
    }
    let mut stubs: Vec<NodeId> = (0..n as u32)
        .flat_map(|u| std::iter::repeat_n(NodeId(u), d))
        .collect();
    stubs.shuffle(rng);
    let mut b = GraphBuilder::with_edge_capacity(n, n * d / 2);
    for pair in stubs.chunks_exact(2) {
        b.add_edge(pair[0], pair[1]);
    }
    Ok(b.build())
}

/// Maximum attempts for [`random_regular_simple`] rejection sampling.
const MAX_REJECTION_ATTEMPTS: usize = 10_000;

/// Samples a uniformly random *simple* `d`-regular graph by rejection from
/// the configuration model.
///
/// Conditioning the configuration model on simplicity yields the uniform
/// distribution over simple `d`-regular graphs; for constant `d` the
/// acceptance probability is bounded below by a constant
/// (`≈ e^{-(d²-1)/4}`), so rejection terminates quickly.
///
/// # Errors
///
/// Parameter errors as in [`configuration_model`], plus
/// [`GraphError::SamplingExhausted`] if no simple graph is found within the
/// attempt budget (practically impossible for constant `d`).
pub fn random_regular_simple<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if d >= n {
        return Err(GraphError::InvalidDegree {
            d,
            requirement: "simple d-regular graphs need d < n",
        });
    }
    for _ in 0..MAX_REJECTION_ATTEMPTS {
        let g = configuration_model(n, d, rng)?;
        if g.is_simple() {
            return Ok(g);
        }
    }
    Err(GraphError::SamplingExhausted {
        attempts: MAX_REJECTION_ATTEMPTS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn configuration_model_is_d_regular() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for &(n, d) in &[(4, 3), (100, 4), (63, 6)] {
            let g = configuration_model(n, d, &mut rng).unwrap();
            assert_eq!(g.len(), n);
            assert!(g.is_regular(d));
        }
    }

    #[test]
    fn configuration_model_rejects_odd_stub_total() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(matches!(
            configuration_model(3, 3, &mut rng),
            Err(GraphError::InvalidDegree { .. })
        ));
        assert!(matches!(
            configuration_model(0, 2, &mut rng),
            Err(GraphError::TooFewNodes { .. })
        ));
        assert!(matches!(
            configuration_model(4, 0, &mut rng),
            Err(GraphError::InvalidDegree { .. })
        ));
    }

    #[test]
    fn simple_sampler_outputs_simple_regular_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = random_regular_simple(60, 4, &mut rng).unwrap();
        assert!(g.is_simple());
        assert!(g.is_regular(4));
    }

    #[test]
    fn simple_sampler_rejects_d_ge_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        assert!(matches!(
            random_regular_simple(4, 4, &mut rng),
            Err(GraphError::InvalidDegree { .. })
        ));
    }

    #[test]
    fn complete_graph_is_only_option_when_d_is_n_minus_1() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = random_regular_simple(5, 4, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 10);
        for u in g.nodes() {
            for v in g.nodes() {
                if u != v {
                    assert!(g.has_edge(u, v));
                }
            }
        }
    }
}
